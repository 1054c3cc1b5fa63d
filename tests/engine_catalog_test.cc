#include "engine/catalog.h"

#include <gtest/gtest.h>

#include <numeric>

#include "datagen/distributions.h"
#include "join/nested_loop.h"
#include "test_util.h"

namespace touch {
namespace {

TEST(DatasetStatsTest, ComputesCountExtentAndAverages) {
  Dataset boxes;
  boxes.push_back(MakeBox(0, 0, 0, 2, 2, 2));
  boxes.push_back(MakeBox(8, 8, 8, 12, 12, 12));

  const DatasetStats stats = ComputeDatasetStats(boxes);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.extent, MakeBox(0, 0, 0, 12, 12, 12));
  EXPECT_FLOAT_EQ(stats.avg_object_extent.x, 3.0f);  // (2 + 4) / 2
  EXPECT_GT(stats.density, 0);
}

TEST(DatasetStatsTest, HistogramCountsEveryObjectOnce) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 5000, 11);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const uint64_t total = std::accumulate(stats.histogram.begin(),
                                         stats.histogram.end(), uint64_t{0});
  EXPECT_EQ(total, boxes.size());
  EXPECT_EQ(stats.histogram.size(),
            static_cast<size_t>(stats.histogram_resolution) *
                stats.histogram_resolution * stats.histogram_resolution);
}

TEST(DatasetStatsTest, SkewSeparatesUniformFromClustered) {
  const DatasetStats uniform = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kUniform, 20000, 12));
  const DatasetStats clustered = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 20000, 13));
  EXPECT_GT(clustered.HistogramSkew(), uniform.HistogramSkew());
  EXPECT_LT(uniform.HistogramSkew(), 3.0);
}

TEST(DatasetStatsTest, EmptyDatasetIsWellDefined) {
  const DatasetStats stats = ComputeDatasetStats(Dataset{});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.HistogramSkew(), 0);
}

// --- Histogram pair-combination (the planner's plan-time estimate) ---------

/// Brute-force result count of the epsilon-distance join (ground truth).
uint64_t MeasuredResults(const Dataset& a, const Dataset& b, float epsilon) {
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  NestedLoopJoin join;
  CountingCollector out;
  join.Join(enlarged, b, out);
  return out.count();
}

class PairEstimateAccuracyTest
    : public ::testing::TestWithParam<std::tuple<Distribution, float>> {};

// The combination of two *independently computed* per-dataset histograms
// must track brute-force overlap counts as well as a direct joint-grid
// estimate does (factor 3, like the SelectivityEstimator accuracy suite).
TEST_P(PairEstimateAccuracyTest, WithinFactorThreeOfBruteForce) {
  const auto [distribution, epsilon] = GetParam();
  const Dataset a = GenerateSynthetic(distribution, 4000, 121);
  const Dataset b = GenerateSynthetic(distribution, 8000, 122);
  const uint64_t measured = MeasuredResults(a, b, epsilon);
  ASSERT_GT(measured, 0u);

  const PairEstimate estimate = CombineHistograms(
      ComputeDatasetStats(a), ComputeDatasetStats(b), epsilon);
  EXPECT_GT(estimate.expected_results, static_cast<double>(measured) / 3.0)
      << "measured " << measured;
  EXPECT_LT(estimate.expected_results, static_cast<double>(measured) * 3.0)
      << "measured " << measured;
  EXPECT_NEAR(estimate.selectivity,
              estimate.expected_results / (4000.0 * 8000.0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndEpsilons, PairEstimateAccuracyTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kGaussian),
                       ::testing::Values(5.0f, 10.0f)),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// Clustered data is the model's hard case: the generator clamps cluster
// mass onto the workload cube's boundary planes, which within-cell
// uniformity underestimates at the planner's combine resolution. The
// combination matches the direct joint-grid estimate the planner previously
// computed at the same resolution (32) — this bound tracks that accuracy at
// an order of magnitude so regressions are caught without overstating the
// model (the offline SelectivityEstimator suite holds factor 3 at its finer
// default resolution of 64).
TEST(PairEstimateTest, ClusteredWithinFactorTenOfBruteForce) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 4000, 121);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 8000, 122);
  for (const float epsilon : {5.0f, 10.0f}) {
    const uint64_t measured = MeasuredResults(a, b, epsilon);
    ASSERT_GT(measured, 0u);
    const PairEstimate estimate = CombineHistograms(
        ComputeDatasetStats(a), ComputeDatasetStats(b), epsilon);
    EXPECT_GT(estimate.expected_results, static_cast<double>(measured) / 10.0)
        << "epsilon " << epsilon << ", measured " << measured;
    EXPECT_LT(estimate.expected_results, static_cast<double>(measured) * 10.0)
        << "epsilon " << epsilon << ", measured " << measured;
  }
}

TEST(PairEstimateTest, MonotonicInEpsilon) {
  const DatasetStats a =
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 3000, 123));
  const DatasetStats b =
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 3000, 124));
  double previous = -1;
  for (const float epsilon : {0.0f, 2.0f, 5.0f, 10.0f, 20.0f}) {
    const double expected =
        CombineHistograms(a, b, epsilon).expected_results;
    EXPECT_GT(expected, previous) << "epsilon=" << epsilon;
    previous = expected;
  }
}

// Datasets whose extents do not even touch expect (next to) nothing —
// resampling onto the joint grid keeps their mass in disjoint cells.
TEST(PairEstimateTest, DisjointDatasetsEstimateNearZero) {
  Dataset near;
  Dataset far;
  for (int i = 0; i < 500; ++i) {
    const float offset = static_cast<float>(i % 10);
    near.push_back(CenteredBox(offset, offset, offset));
    far.push_back(CenteredBox(1000 + offset, 1000 + offset, 1000 + offset));
  }
  const PairEstimate estimate = CombineHistograms(
      ComputeDatasetStats(near), ComputeDatasetStats(far), 1.0f);
  EXPECT_LT(estimate.expected_results, 1.0);
}

TEST(PairEstimateTest, EmptyInputsAreSafe) {
  const DatasetStats empty = ComputeDatasetStats(Dataset{});
  const DatasetStats full =
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 1000, 5));
  EXPECT_EQ(CombineHistograms(empty, full, 1.0f).expected_results, 0);
  EXPECT_EQ(CombineHistograms(full, empty, 1.0f).expected_results, 0);
  EXPECT_EQ(CombineHistograms(empty, empty, 1.0f).expected_results, 0);
}

// Clustering concentrates the expected output into hotspot cells, which the
// combined per-cell contribution skew must expose (the planner's rationale
// signal for "the result set is not spread evenly").
TEST(PairEstimateTest, ClusteringRaisesPairSkew) {
  const PairEstimate uniform = CombineHistograms(
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 20000, 31)),
      ComputeDatasetStats(GenerateSynthetic(Distribution::kUniform, 20000, 32)),
      2.0f);
  const PairEstimate clustered = CombineHistograms(
      ComputeDatasetStats(
          GenerateSynthetic(Distribution::kClustered, 20000, 33)),
      ComputeDatasetStats(
          GenerateSynthetic(Distribution::kClustered, 20000, 34)),
      2.0f);
  EXPECT_GT(clustered.pair_skew, uniform.pair_skew);
}

TEST(DatasetCatalogTest, RegisterAndLookup) {
  DatasetCatalog catalog;
  const DatasetHandle parcels = catalog.Register(
      "parcels", GenerateSynthetic(Distribution::kUniform, 100, 1));
  const DatasetHandle roads = catalog.Register(
      "roads", GenerateSynthetic(Distribution::kUniform, 200, 2));

  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_TRUE(catalog.Contains(parcels));
  EXPECT_FALSE(catalog.Contains(99));
  EXPECT_EQ(catalog.name(parcels), "parcels");
  EXPECT_EQ(catalog.boxes(roads).size(), 200u);
  EXPECT_EQ(catalog.stats(parcels).count, 100u);
  EXPECT_EQ(catalog.Find("roads"), roads);
  EXPECT_EQ(catalog.Find("missing"), std::nullopt);
}

TEST(DatasetCatalogTest, ReferencesStayStableAcrossRegistrations) {
  DatasetCatalog catalog;
  const DatasetHandle first = catalog.Register(
      "first", GenerateSynthetic(Distribution::kUniform, 50, 3));
  const Dataset* boxes = &catalog.boxes(first);
  const DatasetStats* stats = &catalog.stats(first);
  for (int i = 0; i < 20; ++i) {
    catalog.Register("other", GenerateSynthetic(Distribution::kUniform, 50, i));
  }
  EXPECT_EQ(boxes, &catalog.boxes(first));
  EXPECT_EQ(stats, &catalog.stats(first));
}

TEST(DatasetCatalogTest, DuplicateNamesResolveToLatest) {
  DatasetCatalog catalog;
  catalog.Register("data", GenerateSynthetic(Distribution::kUniform, 10, 4));
  const DatasetHandle second = catalog.Register(
      "data", GenerateSynthetic(Distribution::kUniform, 20, 5));
  EXPECT_EQ(catalog.Find("data"), second);
}

}  // namespace
}  // namespace touch
