#ifndef PASS_CACHE_SEMANTIC_ANSWER_CACHE_H_
#define PASS_CACHE_SEMANTIC_ANSWER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "cache/cache_config.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/answer.h"
#include "core/query.h"
#include "geom/rect.h"

namespace pass {

/// One snapshot of the cache's counters (SemanticAnswerCache::Stats).
/// Counters are cumulative since construction; per-query deltas are the
/// caller's subtraction.
struct CacheStats {
  uint64_t exact_hits = 0;    // whole answers served from the cache
  uint64_t exact_misses = 0;  // probes that fell through
  // Always 0; kept because perfbench/src/serve_mix.cc:397-398 reads them.
  uint64_t node_hits = 0;
  uint64_t node_misses = 0;
  uint64_t evictions = 0;      // capacity evictions
  uint64_t invalidations = 0;  // dataset-version flushes
  size_t exact_entries = 0;    // resident whole answers (single + multi)
};

/// The semantic answer cache behind EngineConfig::cache: whole QueryAnswer
/// / MultiAnswer values keyed by (canonical predicate rectangle,
/// aggregate), so repeated predicates skip the engine.
///
/// Only unbudgeted answers enter it: with an unlimited budget an answer
/// is a deterministic function of the predicate and the dataset version
/// (the seed only orders work the budget might exclude), so a hit replays
/// the exact bits a fresh evaluation would produce. Budgeted and deadline
/// answers bypass the cache entirely.
///
/// The cache flushes when the dataset-version stamp changes
/// (EnsureVersion), is size-bound with FIFO eviction, and serves
/// concurrent readers under a shared lock.
class SemanticAnswerCache final {
 public:
  explicit SemanticAnswerCache(const CacheConfig& config);

  /// `canonical` must be Rect::Canonical() of the predicate (the caller
  /// canonicalizes once and reuses the rect for the insert).
  std::optional<QueryAnswer> Lookup(const Rect& canonical,
                                    AggregateType agg) const EXCLUDES(mu_);
  void Insert(const Rect& canonical, AggregateType agg,
              const QueryAnswer& answer) EXCLUDES(mu_);
  std::optional<MultiAnswer> LookupMulti(const Rect& canonical) const
      EXCLUDES(mu_);
  void InsertMulti(const Rect& canonical, const MultiAnswer& answer)
      EXCLUDES(mu_);

  /// Stamps the dataset version, flushing the cache when it changed since
  /// the last call (counted in CacheStats::invalidations). The first call
  /// only records the stamp. Returns true when a flush ran.
  bool EnsureVersion(uint64_t version) EXCLUDES(mu_);

  /// Unconditionally empties the cache (counters are kept).
  void Flush() EXCLUDES(mu_);

  CacheStats Stats() const EXCLUDES(mu_);
  const CacheConfig& config() const { return config_; }

 private:
  struct ExactKey {
    Rect rect;  // canonical form
    int8_t agg = 0;
    uint64_t hash = 0;  // precomputed CanonicalHash of `rect`
    bool operator==(const ExactKey& other) const {
      return agg == other.agg && rect == other.rect;
    }
  };
  struct ExactKeyHash {
    size_t operator()(const ExactKey& key) const {
      return static_cast<size_t>(key.hash * 31u +
                                 static_cast<uint64_t>(key.agg));
    }
  };
  template <typename Answer>
  using ExactMap = std::unordered_map<ExactKey, Answer, ExactKeyHash>;

  static ExactKey MakeKey(const Rect& canonical, AggregateType agg);
  /// The lock is taken at the public entries and these run under it
  /// (REQUIRES, not internal locking): passing the guarded maps by
  /// reference into a helper that locks privately hides the access from
  /// the analysis — exactly the pattern -Wthread-safety-reference exists
  /// to reject.
  template <typename Answer>
  std::optional<Answer> LookupLocked(const ExactMap<Answer>& map,
                                     const ExactKey& key) const
      REQUIRES_SHARED(mu_);
  template <typename Answer>
  void InsertLocked(ExactMap<Answer>* map, std::deque<ExactKey>* fifo,
                    ExactKey key, const Answer& answer) REQUIRES(mu_);
  void FlushLocked() REQUIRES(mu_);

  const CacheConfig config_;

  mutable SharedMutex mu_;
  ExactMap<QueryAnswer> single_ GUARDED_BY(mu_);
  ExactMap<MultiAnswer> multi_ GUARDED_BY(mu_);
  std::deque<ExactKey> single_fifo_ GUARDED_BY(mu_);
  std::deque<ExactKey> multi_fifo_ GUARDED_BY(mu_);
  std::optional<uint64_t> dataset_version_ GUARDED_BY(mu_);

  mutable std::atomic<uint64_t> exact_hits_{0};
  mutable std::atomic<uint64_t> exact_misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace pass

#endif  // PASS_CACHE_SEMANTIC_ANSWER_CACHE_H_
