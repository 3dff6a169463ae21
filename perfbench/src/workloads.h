// The three perfbench workloads and the reporting they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/aqp_system.h"
#include "core/synopsis.h"
#include "engine/engine_config.h"
#include "trace.h"

namespace perfbench {

/// One client, synchronous fused queries on an unsharded pass engine:
/// the leaf-sample scan dominates.
Report RunScanSolo(const Options& options);
/// nproc/2 queries in flight through the scheduler onto a cached, sharded
/// engine: handoff, cache probe, fan-out and merge dominate.
Report RunServeMix(const Options& options);
/// One thread: 64 reservoir inserts before every fused query.
Report RunIngestMix(const Options& options);

/// Every workload's base table is the same for every seed, like a fixed
/// benchmark scale factor; the seed draws the predicate pools, streams,
/// inserted rows and the synopses' samples.
inline constexpr uint64_t kDataSeed = 3;

/// Engines are built this many times per run, each build drawing its own
/// sample; setup_s is the median build time, and the accuracy metrics
/// pool the answers of every build.
inline constexpr int kSetupBuilds = 15;

/// The seed of build `b` (0 <= b < kSetupBuilds) of a run.
inline uint64_t BuildSeed(uint64_t seed, int b) { return seed + 1000003 * b; }
/// The traced run replays at most this many operations of the stream.
inline constexpr size_t kReplayCap = 10'000;
/// ...and replays the leaf scans of at most this many of them.
inline constexpr size_t kKernelReplayCap = 256;

/// The end-to-end metrics every untraced run reports: latency quantiles
/// and throughput over the whole measured phase.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> latency_ms;  // per query of the measured phase
  double wall_s = 0.0;             // length of the measured phase
  double median_rel_error = 0.0;
  double ci_coverage = 0.0;
  uint64_t resident_bytes = 0;
};
void AddEndToEnd(Report* report, const EndToEnd& e2e);

/// Per-layer figures the spans cannot give; layers a workload does not
/// run stay zero.
struct LayerCounts {
  std::vector<double> queue_ms;     // ScheduledAnswer::queue_ms
  std::vector<double> run_ms;       // ScheduledAnswer::run_ms
  std::vector<double> overhead_ms;  // latency - queue - run
  double exact_hit_ratio = 0.0;
  double node_hit_ratio = 0.0;
  double evictions = 0.0;
  uint64_t plan_calls = 0;
  uint64_t nodes_visited = 0;
  uint64_t partial_leaves = 0;
  uint64_t estimate_calls = 0;
  uint64_t rows_scanned = 0;
  uint64_t kernel_rows = 0;  // sample rows the kernel replay scanned
  double fixed_share = 0.0;  // share of scans the fixed-dim tier served
  size_t inserts_per_batch = 0;
  size_t traced_queries = 0;
  double untraced_p50_ms = 0.0;  // of the same stream prefix
  std::vector<double> traced_latency_ms;
};
void AddLayers(Report* report, const LayerCounts& counts,
               const TraceSummary& trace);

/// Builds `name` kSetupBuilds times, hands every build to `score`
/// (untimed), and keeps the last; the median build time goes to
/// `setup_s`. Returns nullptr (and records a failure) when the registry
/// refuses.
std::unique_ptr<pass::AqpSystem> BuildEngine(
    const std::string& name, const pass::Dataset& data,
    pass::EngineConfig config, double* setup_s, Report* report,
    const std::function<void(const pass::AqpSystem&)>& score);

/// The engine's scan-kernel tier counters (zero without a kernel cache),
/// and the share of the scans between two snapshots that the fixed-dim
/// tier served.
pass::KernelTierStats KernelStats(const pass::AqpSystem& engine);
double FixedShare(const pass::KernelTierStats& before,
                  const pass::KernelTierStats& after);

/// Scans every partial leaf of `predicate` again, one "kernel.scan" span
/// each under a "kernel.replay" root, and returns the matched sample
/// rows (which must equal the answer's matched_sample_rows).
uint64_t ReplayKernelScans(const pass::Synopsis& synopsis,
                           const pass::Rect& predicate, Tracer* tracer,
                           uint64_t query, LayerCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
