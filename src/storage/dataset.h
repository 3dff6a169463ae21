#ifndef PASS_STORAGE_DATASET_H_
#define PASS_STORAGE_DATASET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace pass {

/// Columnar in-memory table for the paper's problem setup (Section 2): one
/// numerical *aggregation column* A and d *predicate columns* C1..Cd.
/// Rows are identified by dense uint32 ids; builders work with external
/// permutations of those ids rather than reordering the data.
class Dataset {
 public:
  /// Creates an empty dataset with named columns. `pred_names` defines the
  /// predicate dimensionality d (>= 1).
  Dataset(std::string agg_name, std::vector<std::string> pred_names);

  // The atomic version stamp deletes the implicit special members, so
  // they are spelled out (copies snapshot the stamp). Still value-typed.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(Dataset&& other) noexcept;

  void Reserve(size_t rows);

  /// Appends a row; `preds.size()` must equal NumPredDims().
  void AddRow(const std::vector<double>& preds, double agg);

  size_t NumRows() const { return agg_.size(); }
  size_t NumPredDims() const { return pred_cols_.size(); }

  /// Monotonic mutation stamp: bumped by every AddRow, starting at 0 for
  /// an empty dataset. The semantic answer cache keys its validity on
  /// this, so a streaming append invalidates every cached answer derived
  /// from the previous contents. Derived datasets (Subset, WithPredDims)
  /// are new objects and carry their own stamps. Atomic so a cache
  /// re-stamping mid-append observes a coherent counter (the columns
  /// themselves are single-writer; see AddRow).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  double agg(size_t row) const {
    PASS_DCHECK(row < agg_.size());
    return agg_[row];
  }
  double pred(size_t dim, size_t row) const {
    PASS_DCHECK(dim < pred_cols_.size());
    PASS_DCHECK(row < pred_cols_[dim].size());
    return pred_cols_[dim][row];
  }

  const std::vector<double>& agg_column() const { return agg_; }
  const std::vector<double>& pred_column(size_t dim) const {
    PASS_DCHECK(dim < pred_cols_.size());
    return pred_cols_[dim];
  }

  const std::string& agg_name() const { return agg_name_; }
  const std::string& pred_name(size_t dim) const {
    PASS_DCHECK(dim < pred_names_.size());
    return pred_names_[dim];
  }

  /// A dataset restricted to the first `num_dims` predicate columns (used
  /// by the multi-dimensional query-template experiments, Section 5.4).
  /// Copies columns; aggregate column is shared content-wise.
  Dataset WithPredDims(size_t num_dims) const;

  /// A dataset containing exactly the given rows, in the given order (the
  /// shard-view primitive behind ShardPlanner). Ids may repeat; each must
  /// be < NumRows().
  Dataset Subset(const std::vector<uint32_t>& row_ids) const;

  /// Row ids 0..N-1 sorted ascending by predicate column `dim`. Equal
  /// values keep row order, as in a stable sort; NaN sorts last.
  std::vector<uint32_t> SortedPermutation(size_t dim) const;

  /// In-memory footprint of the raw columns, in bytes (storage accounting
  /// for the BSS / Table 2 comparisons).
  size_t SizeBytes() const {
    return (NumPredDims() + 1) * NumRows() * sizeof(double);
  }

  /// Writes `pred1,...,predd,agg` rows with a header line.
  Status WriteCsv(const std::string& path) const;

  /// Reads a CSV produced by WriteCsv (last column = aggregate).
  static Result<Dataset> ReadCsv(const std::string& path);

 private:
  std::string agg_name_;
  std::vector<std::string> pred_names_;
  std::vector<double> agg_;
  std::vector<std::vector<double>> pred_cols_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace pass

#endif  // PASS_STORAGE_DATASET_H_
