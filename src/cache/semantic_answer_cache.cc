#include "cache/semantic_answer_cache.h"

#include <utility>

namespace pass {

SemanticAnswerCache::SemanticAnswerCache(const CacheConfig& config)
    : config_(config) {}

SemanticAnswerCache::ExactKey SemanticAnswerCache::MakeKey(
    const Rect& canonical, AggregateType agg) {
  ExactKey key;
  key.rect = canonical;
  key.agg = static_cast<int8_t>(agg);
  key.hash = canonical.CanonicalHash();
  return key;
}

template <typename Answer>
std::optional<Answer> SemanticAnswerCache::LookupLocked(
    const ExactMap<Answer>& map, const ExactKey& key) const {
  auto it = map.find(key);
  if (it == map.end()) {
    exact_misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  exact_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

template <typename Answer>
void SemanticAnswerCache::InsertLocked(ExactMap<Answer>* map,
                                       std::deque<ExactKey>* fifo,
                                       ExactKey key, const Answer& answer) {
  auto it = map->find(key);
  if (it != map->end()) {
    it->second = answer;  // resident (two concurrent misses both insert)
    return;
  }
  fifo->push_back(key);
  map->emplace(std::move(key), answer);
  while (map->size() > config_.max_exact_entries) {
    map->erase(fifo->front());
    fifo->pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<QueryAnswer> SemanticAnswerCache::Lookup(
    const Rect& canonical, AggregateType agg) const {
  ReaderLock lock(mu_);
  return LookupLocked(single_, MakeKey(canonical, agg));
}

void SemanticAnswerCache::Insert(const Rect& canonical, AggregateType agg,
                                 const QueryAnswer& answer) {
  if (config_.max_exact_entries == 0) return;
  WriterLock lock(mu_);
  InsertLocked(&single_, &single_fifo_, MakeKey(canonical, agg), answer);
}

std::optional<MultiAnswer> SemanticAnswerCache::LookupMulti(
    const Rect& canonical) const {
  // The multi map shares the key shape; the aggregate slot just has to be
  // stable, and kSum is as good a tag as any.
  ReaderLock lock(mu_);
  return LookupLocked(multi_, MakeKey(canonical, AggregateType::kSum));
}

void SemanticAnswerCache::InsertMulti(const Rect& canonical,
                                      const MultiAnswer& answer) {
  if (config_.max_exact_entries == 0) return;
  WriterLock lock(mu_);
  InsertLocked(&multi_, &multi_fifo_, MakeKey(canonical, AggregateType::kSum),
               answer);
}

bool SemanticAnswerCache::EnsureVersion(uint64_t version) {
  {
    ReaderLock lock(mu_);
    if (dataset_version_ && *dataset_version_ == version) return false;
  }
  WriterLock lock(mu_);
  if (dataset_version_ && *dataset_version_ == version) return false;
  const bool flush = dataset_version_.has_value();
  dataset_version_ = version;
  if (!flush) return false;  // first stamp: nothing cached under it yet
  FlushLocked();
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SemanticAnswerCache::Flush() {
  WriterLock lock(mu_);
  FlushLocked();
}

void SemanticAnswerCache::FlushLocked() {
  single_.clear();
  multi_.clear();
  single_fifo_.clear();
  multi_fifo_.clear();
}

CacheStats SemanticAnswerCache::Stats() const {
  CacheStats out;
  out.exact_hits = exact_hits_.load(std::memory_order_relaxed);
  out.exact_misses = exact_misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  ReaderLock lock(mu_);
  out.exact_entries = single_.size() + multi_.size();
  return out;
}

}  // namespace pass
