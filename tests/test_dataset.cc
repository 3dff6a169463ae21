#include "storage/dataset.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pass {
namespace {

Dataset SmallDataset() {
  Dataset d("value", {"x", "y"});
  d.AddRow({1.0, 10.0}, 100.0);
  d.AddRow({3.0, 30.0}, 300.0);
  d.AddRow({2.0, 20.0}, 200.0);
  return d;
}

TEST(Dataset, BasicAccessors) {
  const Dataset d = SmallDataset();
  EXPECT_EQ(d.NumRows(), 3u);
  EXPECT_EQ(d.NumPredDims(), 2u);
  EXPECT_DOUBLE_EQ(d.agg(1), 300.0);
  EXPECT_DOUBLE_EQ(d.pred(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d.pred(1, 0), 10.0);
  EXPECT_EQ(d.agg_name(), "value");
  EXPECT_EQ(d.pred_name(1), "y");
}

TEST(Dataset, SortedPermutationOrdersByColumn) {
  const Dataset d = SmallDataset();
  const auto perm = d.SortedPermutation(0);
  ASSERT_EQ(perm.size(), 3u);
  EXPECT_EQ(perm[0], 0u);
  EXPECT_EQ(perm[1], 2u);
  EXPECT_EQ(perm[2], 1u);
}

TEST(Dataset, SortedPermutationIsStableOnTies) {
  Dataset d("v", {"x"});
  d.AddRow({5.0}, 1.0);
  d.AddRow({5.0}, 2.0);
  d.AddRow({1.0}, 3.0);
  d.AddRow({0.0}, 4.0);
  d.AddRow({-0.0}, 5.0);  // compares equal to the +0.0 row before it
  const auto perm = d.SortedPermutation(0);
  ASSERT_EQ(perm.size(), 5u);
  EXPECT_EQ(perm[0], 3u);  // original order preserved among equal keys
  EXPECT_EQ(perm[1], 4u);
  EXPECT_EQ(perm[2], 2u);
  EXPECT_EQ(perm[3], 0u);
  EXPECT_EQ(perm[4], 1u);
}

TEST(Dataset, SortedPermutationPutsNanLast) {
  Dataset d("v", {"x"});
  d.AddRow({std::nan("")}, 1.0);
  d.AddRow({2.0}, 2.0);
  d.AddRow({std::nan("")}, 3.0);
  d.AddRow({-1.0}, 4.0);
  EXPECT_EQ(d.SortedPermutation(0), (std::vector<uint32_t>{3, 1, 0, 2}));
}

TEST(Dataset, WithPredDimsProjects) {
  const Dataset d = SmallDataset();
  const Dataset p = d.WithPredDims(1);
  EXPECT_EQ(p.NumPredDims(), 1u);
  EXPECT_EQ(p.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(p.pred(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(p.agg(1), 300.0);
}

TEST(Dataset, SizeBytesCountsAllColumns) {
  const Dataset d = SmallDataset();
  EXPECT_EQ(d.SizeBytes(), 3u * 3u * sizeof(double));
}

TEST(Dataset, CsvRoundTrip) {
  const Dataset d = SmallDataset();
  const std::string path = ::testing::TempDir() + "/pass_ds_roundtrip.csv";
  ASSERT_TRUE(d.WriteCsv(path).ok());
  Result<Dataset> loaded = Dataset::ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumRows(), 3u);
  EXPECT_EQ(loaded->NumPredDims(), 2u);
  EXPECT_EQ(loaded->agg_name(), "value");
  EXPECT_EQ(loaded->pred_name(0), "x");
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(loaded->agg(r), d.agg(r));
    EXPECT_DOUBLE_EQ(loaded->pred(0, r), d.pred(0, r));
    EXPECT_DOUBLE_EQ(loaded->pred(1, r), d.pred(1, r));
  }
  std::remove(path.c_str());
}

TEST(Dataset, ReadCsvMissingFileFails) {
  Result<Dataset> r = Dataset::ReadCsv("/nonexistent/path/to/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(DatasetDeathTest, AddRowWrongArity) {
  Dataset d("v", {"x", "y"});
  EXPECT_DEATH(d.AddRow({1.0}, 2.0), "PASS_CHECK");
}

TEST(DatasetDeathTest, NeedsAtLeastOnePredColumn) {
  EXPECT_DEATH({ Dataset d("v", {}); (void)d; }, "predicate");
}

}  // namespace
}  // namespace pass
