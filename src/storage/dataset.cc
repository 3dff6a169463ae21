#include "storage/dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace pass {

Dataset::Dataset(std::string agg_name, std::vector<std::string> pred_names)
    : agg_name_(std::move(agg_name)), pred_names_(std::move(pred_names)) {
  PASS_CHECK_MSG(!pred_names_.empty(),
                 "a dataset needs at least one predicate column");
  pred_cols_.resize(pred_names_.size());
}

Dataset::Dataset(const Dataset& other)
    : agg_name_(other.agg_name_),
      pred_names_(other.pred_names_),
      agg_(other.agg_),
      pred_cols_(other.pred_cols_),
      version_(other.version()) {}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  agg_name_ = other.agg_name_;
  pred_names_ = other.pred_names_;
  agg_ = other.agg_;
  pred_cols_ = other.pred_cols_;
  version_.store(other.version(), std::memory_order_release);
  return *this;
}

Dataset::Dataset(Dataset&& other) noexcept
    : agg_name_(std::move(other.agg_name_)),
      pred_names_(std::move(other.pred_names_)),
      agg_(std::move(other.agg_)),
      pred_cols_(std::move(other.pred_cols_)),
      version_(other.version()) {}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this == &other) return *this;
  agg_name_ = std::move(other.agg_name_);
  pred_names_ = std::move(other.pred_names_);
  agg_ = std::move(other.agg_);
  pred_cols_ = std::move(other.pred_cols_);
  version_.store(other.version(), std::memory_order_release);
  return *this;
}

void Dataset::Reserve(size_t rows) {
  agg_.reserve(rows);
  for (auto& col : pred_cols_) col.reserve(rows);
}

void Dataset::AddRow(const std::vector<double>& preds, double agg) {
  PASS_CHECK(preds.size() == pred_cols_.size());
  for (size_t i = 0; i < preds.size(); ++i) pred_cols_[i].push_back(preds[i]);
  agg_.push_back(agg);
  // Release-publish the stamp after the row lands. Appends are
  // single-writer; the atomic only makes concurrent version() *reads*
  // (cache re-stamping during a streaming append) well-defined.
  version_.fetch_add(1, std::memory_order_release);
}

Dataset Dataset::WithPredDims(size_t num_dims) const {
  PASS_CHECK(num_dims >= 1 && num_dims <= NumPredDims());
  std::vector<std::string> names(
      pred_names_.begin(), pred_names_.begin() + static_cast<long>(num_dims));
  Dataset out(agg_name_, std::move(names));
  out.agg_ = agg_;
  for (size_t i = 0; i < num_dims; ++i) out.pred_cols_[i] = pred_cols_[i];
  return out;
}

Dataset Dataset::Subset(const std::vector<uint32_t>& row_ids) const {
  Dataset out(agg_name_, pred_names_);
  out.Reserve(row_ids.size());
  for (const uint32_t row : row_ids) {
    PASS_CHECK_MSG(row < NumRows(), "subset row id out of range");
    out.agg_.push_back(agg_[row]);
    for (size_t d = 0; d < pred_cols_.size(); ++d) {
      out.pred_cols_[d].push_back(pred_cols_[d][row]);
    }
  }
  return out;
}

std::vector<uint32_t> Dataset::SortedPermutation(size_t dim) const {
  PASS_CHECK(dim < pred_cols_.size());
  const auto& col = pred_cols_[dim];
  // Sorts (value, row) pairs, so no comparison reads through an index.
  // Equal values (-0.0 and +0.0 included) order by row, which is the
  // order a stable sort on value gives; NaN sorts after every number.
  struct Keyed {
    double value;
    uint32_t row;
  };
  std::vector<Keyed> keyed(col.size());
  for (size_t row = 0; row < col.size(); ++row) {
    keyed[row] = {col[row], static_cast<uint32_t>(row)};
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.value < b.value) return true;
    if (b.value < a.value) return false;
    const bool a_nan = std::isnan(a.value);
    if (a_nan != std::isnan(b.value)) return !a_nan;
    return a.row < b.row;
  });
  std::vector<uint32_t> perm(keyed.size());
  for (size_t i = 0; i < keyed.size(); ++i) perm[i] = keyed[i].row;
  return perm;
}

Status Dataset::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  for (size_t i = 0; i < pred_names_.size(); ++i) {
    std::fprintf(f, "%s,", pred_names_[i].c_str());
  }
  std::fprintf(f, "%s\n", agg_name_.c_str());
  for (size_t row = 0; row < NumRows(); ++row) {
    for (size_t d = 0; d < pred_cols_.size(); ++d) {
      std::fprintf(f, "%.17g,", pred_cols_[d][row]);
    }
    std::fprintf(f, "%.17g\n", agg_[row]);
  }
  std::fclose(f);
  return Status::Ok();
}

Result<Dataset> Dataset::ReadCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  char line[1 << 14];
  if (std::fgets(line, sizeof(line), f) == nullptr) {
    std::fclose(f);
    return Status::IoError("empty csv: " + path);
  }
  // Parse the header: last column is the aggregate.
  std::vector<std::string> names;
  {
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      while (!cell.empty() && (cell.back() == '\n' || cell.back() == '\r')) {
        cell.pop_back();
      }
      names.push_back(cell);
    }
  }
  if (names.size() < 2) {
    std::fclose(f);
    return Status::IoError("csv needs >= 2 columns: " + path);
  }
  std::string agg_name = names.back();
  names.pop_back();
  Dataset out(std::move(agg_name), std::move(names));
  const size_t d = out.NumPredDims();
  std::vector<double> preds(d);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char* cursor = line;
    bool bad = false;
    for (size_t i = 0; i < d; ++i) {
      char* next = nullptr;
      preds[i] = std::strtod(cursor, &next);
      if (next == cursor || *next != ',') {
        bad = true;
        break;
      }
      cursor = next + 1;
    }
    if (bad) continue;  // skip malformed rows (e.g. trailing newline)
    char* next = nullptr;
    const double agg = std::strtod(cursor, &next);
    if (next == cursor) continue;
    out.AddRow(preds, agg);
  }
  std::fclose(f);
  return out;
}

}  // namespace pass
