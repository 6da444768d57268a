// Benchmark driver: runs one workload and prints one JSON report line.
//
//   perfbench_driver --workload <oltp|olap_frozen> --seed <n>
//                    --seconds <n> --trace <0|1> --scratch <dir>
//
// run.py builds this binary, runs it, and turns the report into the
// benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "host.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char **argv, Args *args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char *value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--scratch") {
      args->scratch = value;
    } else {
      return false;
    }
  }
  return args->seconds > 0 && (args->workload == "oltp" || args->workload == "olap_frozen");
}

std::string Escape(const std::string &text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

template <typename Map>
void PrintObject(const char *key, const Map &values, bool last = false) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto &[name, value] : values) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), static_cast<double>(value));
    first = false;
  }
  std::printf("}%s", last ? "" : ",");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char **argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <oltp|olap_frozen> --seed <n> --seconds <s> "
                 "--trace <0|1> --scratch <dir>\n",
                 argv[0]);
    return 2;
  }

  Report report;
  const StreamResult stream_start = ProbeStream();
  report.facts["host.stream_copy_gb_s_start"] = stream_start.copy_gb_s;
  report.facts["host.stream_triad_gb_s_start"] = stream_start.triad_gb_s;

  Tracer tracer(args.trace);
  if (args.workload == "oltp") {
    RunOltp(args, &tracer, &report);
  } else {
    RunOlap(args, &tracer, &report);
  }

  const StreamResult stream_end = ProbeStream();
  report.facts["host.stream_copy_gb_s_end"] = stream_end.copy_gb_s;
  report.facts["host.stream_triad_gb_s_end"] = stream_end.triad_gb_s;

  std::map<std::string, double> self_ms;
  std::map<std::string, uint64_t> span_counts;
  if (tracer.Enabled()) {
    self_ms = tracer.SelfTimeMs();
    span_counts = tracer.SpanCounts();
    const std::string path = args.scratch + "/trace-" + args.workload + ".json";
    if (!tracer.WriteChromeTrace(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"attempted\":%llu,\"failed\":%llu,",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("\"failures\":[");
  for (size_t i = 0; i < report.failures.size(); i++) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", Escape(report.failures[i]).c_str());
  }
  std::printf("],");
  PrintObject("e2e", report.e2e);
  PrintObject("layers", report.layers);
  PrintObject("facts", report.facts);
  PrintObject("span_self_ms", self_ms);
  PrintObject("span_counts", span_counts, true);
  std::printf("}\n");
  return report.failed == 0 ? 0 : 1;
}
