#pragma once

// Shared pieces of the benchmark driver: command-line arguments, seed
// derivation, order statistics, and the report every workload fills in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed amount of work this process does (see README.md); the
  /// data state never depends on how fast that work completes.
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's files (the WAL); created and removed by run.py.
  std::string scratch = ".";
};

/// The `stream`-th seed derived from the workload seed (splitmix64), so every
/// generator and terminal gets an independent but reproducible stream.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Nanoseconds on the steady clock.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// CPU time of the whole process (every thread, the engine's included), in
/// nanoseconds. Time the hypervisor steals from the VM is not counted.
inline uint64_t CpuNs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<uint64_t>(now.tv_sec) * 1000000000ULL + static_cast<uint64_t>(now.tv_nsec);
}

/// Quantile `q` of `values` by nearest rank (the sample itself, never an
/// interpolation between buckets). Empty input gives 0.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// `per_second` units of work for each second of `seconds`, at least 3.
inline int Scaled(double per_second, double seconds) {
  return std::max(3, static_cast<int>(per_second * seconds + 0.5));
}

/// Median as the mean of the two middle samples for even counts.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Everything one workload run measured and checked. main.cc prints it as one
/// JSON line; run.py turns it into the benchmark's result.
struct Report {
  /// End-to-end metrics (measured untraced).
  std::map<std::string, double> e2e;
  /// Per-layer metrics (registry deltas, profiles, driver samples).
  std::map<std::string, double> layers;
  /// Facts about the workload's size and the host, recorded, not gated.
  std::map<std::string, double> facts;
  /// Operations issued (transactions, queries, exports, freezes).
  uint64_t attempted = 0;
  /// Operations whose output failed a correctness check.
  uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> failures;

  /// Record a correctness check covering `ops` operations.
  void Check(bool ok, const std::string &what, uint64_t ops = 1) {
    if (!ok) {
      failed += ops;
      failures.push_back(what);
    }
  }
};

}  // namespace perfbench
