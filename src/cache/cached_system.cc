#include "cache/cached_system.h"

#include <utility>

namespace pass {

CachedSystem::CachedSystem(std::unique_ptr<AqpSystem> inner,
                           const Dataset& data, const CacheConfig& config)
    : cache_(config), inner_(std::move(inner)), data_(&data) {
  cache_.EnsureVersion(data_->version());
}

QueryAnswer CachedSystem::AnswerImpl(const Query& query,
                                     const AnswerOptions& options) const {
  cache_.EnsureVersion(data_->version());
  if (!options.budget.Unlimited()) return inner_->Answer(query, options);
  const Rect canonical = query.predicate.Canonical();
  if (std::optional<QueryAnswer> hit = cache_.Lookup(canonical, query.agg)) {
    return *hit;
  }
  const QueryAnswer answer = inner_->Answer(query, options);
  cache_.Insert(canonical, query.agg, answer);
  return answer;
}

MultiAnswer CachedSystem::AnswerMultiImpl(const Rect& predicate,
                                          const AnswerOptions& options) const {
  cache_.EnsureVersion(data_->version());
  if (!options.budget.Unlimited()) {
    return inner_->AnswerMulti(predicate, options);
  }
  const Rect canonical = predicate.Canonical();
  if (std::optional<MultiAnswer> hit = cache_.LookupMulti(canonical)) {
    return *hit;
  }
  const MultiAnswer answer = inner_->AnswerMulti(predicate, options);
  cache_.InsertMulti(canonical, answer);
  return answer;
}

std::unique_ptr<EstimationSession> CachedSystem::StartSessionImpl(
    const Rect& predicate, uint64_t seed) const {
  cache_.EnsureVersion(data_->version());
  return inner_->StartSession(predicate, seed);
}

}  // namespace pass
