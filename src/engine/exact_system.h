#ifndef PASS_ENGINE_EXACT_SYSTEM_H_
#define PASS_ENGINE_EXACT_SYSTEM_H_

#include <memory>
#include <string>
#include <utility>

#include "core/aqp_system.h"
#include "storage/dataset.h"

namespace pass {

/// Full-scan ground truth behind the AqpSystem interface, so the engine
/// registry (and anything batch-shaped built on it) can treat "no
/// approximation" as just another method. The dataset must outlive the
/// system; nothing is copied.
///
/// Not an anytime system (SupportsBudget() stays false): a full scan has
/// no bounds-midpoint fallback for skipped work, so a budget in the
/// options is ignored — answer in full, never truncate — and the
/// scheduler sheds an over-deadline exact query rather than budgeting it.
class ExactSystem final : public AqpSystem {
 public:
  /// `kernel_cache` optionally counts which kernel tier served each full
  /// scan (jit/kernel_cache.h; the registry installs one on every engine).
  explicit ExactSystem(const Dataset& data,
                       std::shared_ptr<KernelCache> kernel_cache = nullptr)
      : data_(&data), kernel_cache_(std::move(kernel_cache)) {}

  std::string Name() const override { return "Exact"; }
  SystemCosts Costs() const override;
  const KernelCache* ScanKernelCache() const override {
    return kernel_cache_.get();
  }

 protected:
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;
  /// Fused: SUM, COUNT and AVG from one full scan instead of three.
  MultiAnswer AnswerMultiImpl(const Rect& predicate,
                              const AnswerOptions& options) const override;

 private:
  const Dataset* data_;
  std::shared_ptr<KernelCache> kernel_cache_;
};

}  // namespace pass

#endif  // PASS_ENGINE_EXACT_SYSTEM_H_
