#ifndef PASS_BASELINES_SPN_H_
#define PASS_BASELINES_SPN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/aqp_system.h"
#include "storage/dataset.h"

namespace pass {

/// DeepDB-like baseline: a miniature relational sum-product network learned
/// from (a fraction of) the data, answering COUNT/SUM/AVG by expectation
/// propagation over histogram leaves. See README.md ("Substitutions") for
/// the substitution rationale — this captures DeepDB's qualitative
/// profile from the paper's Table 2: tiny query latency, model-limited
/// accuracy that does not improve with more training data, weak on
/// higher-dimensional predicates.
///
/// Structure learning follows the standard recipe:
///  * column split into independent groups when all cross-group |Pearson
///    correlations| fall below a threshold  -> Product node
///  * otherwise a 2-way row clustering on the highest-variance column
///    -> Sum node with cluster-fraction weights
///  * single-column scopes / small instance counts -> histogram leaves.
class SpnSystem final : public AqpSystem {
 public:
  struct Options {
    double train_fraction = 1.0;  // DeepDB-10% trains on 10% of rows
    size_t min_instances = 512;   // stop row splits below this many rows
    size_t max_depth = 12;
    double corr_threshold = 0.3;
    size_t num_bins = 64;
    size_t corr_sample_cap = 2000;
    uint64_t seed = 42;
  };

  SpnSystem(const Dataset& data, const Options& options);

  std::string Name() const override { return name_; }
  SystemCosts Costs() const override;

  size_t NumNodes() const { return nodes_.size(); }
  void set_name(std::string name) { name_ = std::move(name); }

 protected:
  /// COUNT/SUM/AVG supported; MIN/MAX fall back to the global extrema of
  /// the aggregate column (documented limitation — DeepDB does not target
  /// extrema either). No CLT variance: the model provides point estimates.
  /// Answers in full; this system has no anytime path, so the budget in
  /// `options` is ignored (SupportsBudget() stays false).
  QueryAnswer AnswerImpl(const Query& query,
                         const AnswerOptions& options) const override;

 private:
  struct Histogram {
    size_t col = 0;  // 0..d-1 predicate columns; d == the aggregate column
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
    std::vector<double> count;
    std::vector<double> sum;

    /// Probability mass of the interval (within-bin uniformity).
    double Mass(double a, double b) const;
    /// E[col * 1(col in [a, b])], normalized by total.
    double SumMass(double a, double b) const;
  };

  struct Node {
    enum class Type { kSum, kProduct, kLeaf };
    Type type = Type::kLeaf;
    std::vector<int32_t> children;
    std::vector<double> weights;  // kSum only
    Histogram hist;               // kLeaf only
    bool scope_has_agg = false;
  };

  struct Eval {
    double p = 1.0;
    double ea = 0.0;
    bool has_ea = false;
  };

  int32_t Build(const std::vector<uint32_t>& rows,
                const std::vector<size_t>& scope, size_t depth);
  int32_t BuildLeaf(const std::vector<uint32_t>& rows, size_t col);
  int32_t BuildNaiveProduct(const std::vector<uint32_t>& rows,
                            const std::vector<size_t>& scope);
  double ColumnValue(size_t col, uint32_t row) const;
  Eval Evaluate(int32_t id, const Query& query) const;

  const Dataset* data_;  // training-time only access pattern; kept for cols
  size_t agg_col_;       // == NumPredDims()
  uint64_t population_rows_;
  Options options_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  double agg_min_ = 0.0;
  double agg_max_ = 0.0;
  double build_seconds_ = 0.0;
  std::string name_ = "SPN";
};

}  // namespace pass

#endif  // PASS_BASELINES_SPN_H_
