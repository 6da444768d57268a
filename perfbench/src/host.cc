#include "host.h"

#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common.h"

namespace perfbench {

StreamResult ProbeStream() {
  constexpr size_t kDoubles = size_t{8} << 20;  // 64 MB per array
  constexpr int kPasses = 4;
  auto a = std::make_unique<double[]>(kDoubles);
  auto b = std::make_unique<double[]>(kDoubles);
  auto c = std::make_unique<double[]>(kDoubles);
  for (size_t i = 0; i < kDoubles; i++) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  const double bytes_copy = 2.0 * sizeof(double) * kDoubles;
  const double bytes_triad = 3.0 * sizeof(double) * kDoubles;
  StreamResult result;
  volatile double sink = 0;
  for (int pass = 0; pass < kPasses; pass++) {
    uint64_t start = NowNs();
    for (size_t i = 0; i < kDoubles; i++) a[i] = b[i];
    double seconds = static_cast<double>(NowNs() - start) / 1e9;
    result.copy_gb_s = std::max(result.copy_gb_s, bytes_copy / seconds / 1e9);
    sink = sink + a[kDoubles / 2];
    start = NowNs();
    for (size_t i = 0; i < kDoubles; i++) a[i] = b[i] + 3.0 * c[i];
    seconds = static_cast<double>(NowNs() - start) / 1e9;
    result.triad_gb_s = std::max(result.triad_gb_s, bytes_triad / seconds / 1e9);
    sink = sink + a[kDoubles / 3];
  }
  return result;
}

double ResidentMb() {
  malloc_trim(0);
  std::FILE *status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kb / 1024.0;
}

}  // namespace perfbench
