#ifndef PASS_CACHE_CACHE_CONFIG_H_
#define PASS_CACHE_CACHE_CONFIG_H_

#include <cstddef>

namespace pass {

/// Configuration of the semantic answer cache an engine is served behind
/// (EngineConfig::cache). Disabled by default: caching is a serving-layer
/// opt-in, and every cached answer is bit-identical to the uncached one,
/// so enabling it is purely a latency decision.
struct CacheConfig {
  /// Master switch. When false the registry builds the bare engine and no
  /// cache structures exist at all.
  bool enabled = false;

  /// Capacity of the cache (whole answers keyed by canonical predicate
  /// rectangle), per single/multi map. Insertion-order (FIFO) eviction
  /// keeps the read path under a shared lock. Entries otherwise live
  /// until a dataset-version change flushes them.
  size_t max_exact_entries = 4096;
};

}  // namespace pass

#endif  // PASS_CACHE_CACHE_CONFIG_H_
