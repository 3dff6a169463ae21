// perfbench: the repository benchmark. Runs one workload for a fixed time,
// checks every answer, and prints its metrics, ending with one JSON line.
//
//   perfbench --workload scan_solo|serve_mix|ingest_mix --seed N
//             --seconds S --trace 0|1 [--scale X] [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 measures half the
// time untraced, replays that stream prefix through the layer entry
// points with spans, and reports the per-layer metrics. Exits 1 when any
// check failed, 2 on bad arguments. Thread counts derive from the CPUs the
// process may run on.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "scan_solo|serve_mix|ingest_mix --seed N --seconds S "
               "--trace 0|1 [--scale X] [--spans-out PATH]\n",
               why);
  return 2;
}

/// The number of CPUs this process may run on (what `nproc` prints).
size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<size_t>(count) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.threads = Nproc();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scale") {
      options.scale = std::atof(value.c_str());
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(options.seconds > 0.0) || !(options.scale > 0.0)) {
    return Usage("--seconds and --scale must be positive");
  }

  perfbench::Report report;
  if (options.workload == "scan_solo") {
    report = perfbench::RunScanSolo(options);
  } else if (options.workload == "serve_mix") {
    report = perfbench::RunServeMix(options);
  } else if (options.workload == "ingest_mix") {
    report = perfbench::RunIngestMix(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%zu\n%s",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.threads, report.Table().c_str());
  std::printf("%s\n", report.Json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
