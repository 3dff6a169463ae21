#include "common.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "data/workload.h"

namespace perfbench {

size_t Scaled(const Options& options, size_t full, size_t floor) {
  const double scaled = std::round(static_cast<double>(full) * options.scale);
  return std::max(floor, static_cast<size_t>(scaled));
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  ++failed_;
}

void Report::Stage(const char* stage) const {
  std::fprintf(stderr, "perfbench: %-24s at %7.2f s\n", stage,
               static_cast<double>(NowNs() - created_ns_) * 1e-9);
}

std::string Report::Json() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
  out += buf;
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string Report::Table() const {
  std::string out;
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-34s %16.6g (%" PRIu64 " of %" PRIu64
                ")\n", "failed_ratio",
                attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
                failed_, attempted_);
  out += buf;
  return out;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Truth::Value(pass::AggregateType agg) const {
  switch (agg) {
    case pass::AggregateType::kCount:
      return static_cast<double>(count);
    case pass::AggregateType::kAvg:
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    default:
      return sum;
  }
}

/// Truths from one sort of the rows by the first predicate column: each
/// predicate binary-searches its slice of that column, then 1-D takes the
/// slice from prefix sums and more dims test the slice's other columns.
/// Sums accumulate in long double, far inside the bounds check's slack.
std::vector<Truth> ExactTruths(const pass::Dataset& data,
                               const std::vector<pass::Rect>& predicates,
                               size_t threads) {
  const size_t n = data.NumRows();
  const size_t d = data.NumPredDims();
  std::vector<uint32_t> order(n);
  for (size_t r = 0; r < n; ++r) order[r] = static_cast<uint32_t>(r);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return data.pred(0, a) < data.pred(0, b);
  });
  std::vector<std::vector<double>> cols(d, std::vector<double>(n));
  std::vector<double> agg(n);
  std::vector<long double> prefix(n + 1, 0.0L);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) cols[c][r] = data.pred(c, order[r]);
    agg[r] = data.agg(order[r]);
    prefix[r + 1] = prefix[r] + agg[r];
  }
  std::vector<Truth> out(predicates.size());
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i = next++; i < predicates.size(); i = next++) {
      const pass::Rect& rect = predicates[i];
      const size_t a = static_cast<size_t>(
          std::lower_bound(cols[0].begin(), cols[0].end(), rect.dim(0).lo) -
          cols[0].begin());
      const size_t b = static_cast<size_t>(
          std::upper_bound(cols[0].begin(), cols[0].end(), rect.dim(0).hi) -
          cols[0].begin());
      if (a >= b) continue;
      if (d == 1) {
        out[i] = {static_cast<double>(prefix[b] - prefix[a]), b - a};
        continue;
      }
      long double sum = 0.0L;
      uint64_t count = 0;
      for (size_t r = a; r < b; ++r) {
        bool match = true;
        for (size_t c = 1; c < d && match; ++c) {
          match = rect.dim(c).Contains(cols[c][r]);
        }
        if (match) {
          sum += agg[r];
          ++count;
        }
      }
      out[i] = {static_cast<double>(sum), count};
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
    pool.emplace_back(work);
  }
  for (std::thread& t : pool) t.join();
  return out;
}

Truth ScanTruth(const pass::Dataset& data, const pass::Rect& rect,
                size_t begin, size_t end) {
  Truth out;
  for (size_t row = begin; row < end; ++row) {
    bool match = true;
    for (size_t d = 0; d < data.NumPredDims() && match; ++d) {
      match = rect.dim(d).Contains(data.pred(d, row));
    }
    if (match) {
      out.sum += data.agg(row);
      ++out.count;
    }
  }
  return out;
}

namespace {

bool BoundsContain(const pass::QueryAnswer& answer, double truth) {
  if (!answer.hard_lb || !answer.hard_ub) return false;
  const double slack = 1e-9 * (1.0 + std::abs(truth));
  return truth >= *answer.hard_lb - slack && truth <= *answer.hard_ub + slack;
}

}  // namespace

bool HardBoundsHold(const pass::QueryAnswer& answer, pass::AggregateType agg,
                    const Truth& truth) {
  if (agg != pass::AggregateType::kSum && agg != pass::AggregateType::kCount) {
    return true;
  }
  return BoundsContain(answer, truth.Value(agg));
}

bool HardBoundsHold(const pass::MultiAnswer& answer, const Truth& truth) {
  return BoundsContain(answer.sum, truth.sum) &&
         BoundsContain(answer.count, static_cast<double>(truth.count));
}

void Accuracy::Score(const pass::QueryAnswer& answer, double truth) {
  if (!std::isfinite(truth) || truth == 0.0) return;
  rel_errors_.push_back(std::abs(answer.estimate.value - truth) /
                        std::abs(truth));
  if (answer.estimate.Contains(truth, pass::kLambda99)) ++covered_;
}

double Accuracy::Coverage() const {
  return rel_errors_.empty() ? 0.0
                             : static_cast<double>(covered_) /
                                   static_cast<double>(rel_errors_.size());
}

namespace {

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameOptional(const std::optional<double>& a,
                  const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || SameDouble(*a, *b));
}

}  // namespace

bool SameBits(const pass::QueryAnswer& a, const pass::QueryAnswer& b) {
  return SameDouble(a.estimate.value, b.estimate.value) &&
         SameDouble(a.estimate.variance, b.estimate.variance) &&
         SameOptional(a.hard_lb, b.hard_lb) &&
         SameOptional(a.hard_ub, b.hard_ub) && a.exact == b.exact &&
         a.truncated == b.truncated &&
         a.population_rows == b.population_rows &&
         a.population_rows_skipped == b.population_rows_skipped &&
         a.sample_rows_scanned == b.sample_rows_scanned &&
         a.matched_sample_rows == b.matched_sample_rows &&
         a.scan_units_planned == b.scan_units_planned &&
         a.covered_nodes == b.covered_nodes &&
         a.partial_leaves == b.partial_leaves &&
         a.nodes_visited == b.nodes_visited;
}

bool SameBits(const pass::MultiAnswer& a, const pass::MultiAnswer& b) {
  return SameBits(a.sum, b.sum) && SameBits(a.count, b.count) &&
         SameBits(a.avg, b.avg) &&
         SameDouble(a.sum_count_cov, b.sum_count_cov) && a.fused == b.fused;
}

std::vector<pass::Rect> RangePredicates(const pass::Dataset& data,
                                        std::vector<size_t> dims,
                                        size_t count, uint64_t seed) {
  pass::WorkloadOptions options;
  options.count = count;
  options.template_dims = std::move(dims);
  options.anchored = true;
  options.seed = seed;
  std::vector<pass::Rect> out;
  out.reserve(count);
  for (pass::Query& q : pass::RandomRangeQueries(data, options)) {
    out.push_back(std::move(q.predicate));
  }
  return out;
}

}  // namespace perfbench
