#ifndef PASS_DATA_GENERATORS_H_
#define PASS_DATA_GENERATORS_H_

#include <cstdint>

#include "storage/dataset.h"

namespace pass {

/// Synthetic stand-ins for the paper's evaluation datasets (Section 5.1.1).
/// Each generator reproduces the statistical shape the corresponding real
/// dataset contributes to the experiments; see README.md ("Substitutions")
/// for the rationale. All generators are deterministic in (n, seed).

/// Intel Wireless lab data: `time` predicate -> `light` aggregate. Diurnal
/// cycle with long near-zero night stretches (feeding the 0-variance rule)
/// and bursty, heavy-tailed daylight readings. Paper size: 3M rows.
Dataset MakeIntelLike(size_t n, uint64_t seed = 1);

/// Instacart order_products: `product_id` predicate (Zipf-popular, heavily
/// duplicated values) -> `reordered` {0,1} aggregate with per-product rate.
/// Paper size: 1.4M rows.
Dataset MakeInstacartLike(size_t n, uint64_t seed = 2,
                          size_t num_products = 5000);

/// NYC Taxi January 2019, multi-dimensional variant: predicate columns
/// [pickup_time, pickup_date, PULocationID, dropoff_date, dropoff_time]
/// (the Section 5.4 template order) -> `trip_distance` aggregate
/// (heavy-tailed, time-of-day dependent). Use WithPredDims(i) for the i-D
/// query templates. Paper size: 7.7M rows.
Dataset MakeTaxiLike(size_t n, uint64_t seed = 3);

/// NYC Taxi 1-D variant used by the main accuracy experiments:
/// `pickup_datetime` (seconds within the month) -> `trip_distance`.
Dataset MakeTaxiDatetime(size_t n, uint64_t seed = 3);

/// The adversarial dataset of Section 5.3: unique predicate values; the
/// first 87.5% of the domain has aggregate 0, the last 12.5% is normal.
Dataset MakeAdversarial(size_t n, uint64_t seed = 4, double mean = 50.0,
                        double stddev = 10.0);

/// TPC-H lineitem-like rows: predicates [shipdate, discount, quantity] ->
/// `extendedprice`. Used by the examples and the ablation benches; not part
/// of the paper's evaluation but matches its warehouse motivation.
Dataset MakeLineitemLike(size_t n, uint64_t seed = 5);

/// Uniform noise dataset for tests: predicate uniform in [0, 1), aggregate
/// uniform in [lo, hi).
Dataset MakeUniform(size_t n, uint64_t seed = 6, double lo = 0.0,
                    double hi = 1.0);

}  // namespace pass

#endif  // PASS_DATA_GENERATORS_H_
