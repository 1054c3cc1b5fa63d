// Tests of the self-calibrating planner: the PlanFeedback store and cost-
// model fit, the planner's calibrated override of its static rules (golden
// plan flips driven by synthetic measured feedback), and the engine's
// recording toggle.

#include "engine/calibration.h"

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "join/nested_loop.h"
#include "test_util.h"

namespace touch {
namespace {

TEST(AlgorithmFamilyTest, StripsParameterSuffix) {
  EXPECT_EQ(AlgorithmFamily("pbsm-250"), "pbsm");
  EXPECT_EQ(AlgorithmFamily("nbps-64"), "nbps");
  EXPECT_EQ(AlgorithmFamily("touch"), "touch");
  EXPECT_EQ(AlgorithmFamily("ps"), "ps");
}

TEST(FitCostModelTest, RecoversKnownCoefficients) {
  // Synthetic runs drawn exactly from t = 2e-6*objects + 5e-8*results, with
  // enough independent variation that the 2x2 system is well-conditioned.
  const double per_object = 2e-6;
  const double per_result = 5e-8;
  const double runs[][2] = {
      {1000, 100}, {5000, 200000}, {20000, 1000}, {80000, 500000}};
  size_t n = 0;
  double soo = 0, sor = 0, srr = 0, sot = 0, srt = 0;
  for (const auto& run : runs) {
    const double o = run[0];
    const double r = run[1];
    const double t = per_object * o + per_result * r;
    ++n;
    soo += o * o;
    sor += o * r;
    srr += r * r;
    sot += o * t;
    srt += r * t;
  }
  const CostModel model = FitCostModel(n, soo, sor, srr, sot, srt);
  EXPECT_EQ(model.samples, 4u);
  EXPECT_NEAR(model.seconds_per_object, per_object, per_object * 0.05);
  EXPECT_NEAR(model.seconds_per_result, per_result, per_result * 0.05);
  const double truth = per_object * 40000 + per_result * 60000;
  EXPECT_NEAR(model.Predict(40000, 60000), truth, truth * 0.05);
}

TEST(FitCostModelTest, RepeatedWorkloadFallsBackGracefully) {
  // One workload repeated: objects and results are perfectly collinear, so
  // the two coefficients are not identifiable — the fit must still predict
  // that workload's cost instead of exploding.
  size_t n = 0;
  double soo = 0, sor = 0, srr = 0, sot = 0, srt = 0;
  for (int i = 0; i < 3; ++i) {
    const double o = 10000, r = 20000, t = 0.05;
    ++n;
    soo += o * o;
    sor += o * r;
    srr += r * r;
    sot += o * t;
    srt += r * t;
  }
  const CostModel model = FitCostModel(n, soo, sor, srr, sot, srt);
  EXPECT_GE(model.seconds_per_object, 0);
  EXPECT_GE(model.seconds_per_result, 0);
  EXPECT_NEAR(model.Predict(10000, 20000), 0.05, 0.01);
}

TEST(FitCostModelTest, EmptyAndNegativeCornersAreSafe) {
  const CostModel empty = FitCostModel(0, 0, 0, 0, 0, 0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.Predict(1000, 1000), 0);
  // Anti-correlated noise pushing a coefficient negative gets clamped to a
  // non-negative axis solution, never a negative prediction.
  const CostModel clamped =
      FitCostModel(2, 2e8, 1e6, 1e4, /*objects_time=*/-3.0, /*results_time=*/
                   0.5);
  EXPECT_GE(clamped.seconds_per_object, 0);
  EXPECT_GE(clamped.seconds_per_result, 0);
  EXPECT_GE(clamped.Predict(5000, 100), 0);
}

/// Records `samples` synthetic cold runs of `family` costing
/// `seconds_per_object` per object (results kept at zero so the fitted model
/// is purely per-object and predictions are easy to reason about).
void Teach(PlanFeedback* feedback, const std::string& family,
           double seconds_per_object, size_t samples = 3) {
  for (size_t i = 0; i < samples; ++i) {
    PlanOutcome outcome;
    outcome.family = family;
    outcome.objects = 10000 * (i + 1);
    outcome.results = 0;
    outcome.total_seconds = seconds_per_object * outcome.objects;
    feedback->Record(outcome);
  }
}

TEST(PlanFeedbackTest, SnapshotGatesOnMinSamples) {
  PlanFeedback feedback;
  Teach(&feedback, "touch", 1e-6, 2);
  CalibrationSnapshot snapshot = feedback.Snapshot(3);
  EXPECT_EQ(snapshot.Predict("touch", 1000, 0), std::nullopt);
  EXPECT_EQ(snapshot.Predict("never-seen", 1000, 0), std::nullopt);
  EXPECT_EQ(snapshot.calibrated_families(), 0u);

  Teach(&feedback, "touch", 1e-6, 1);
  snapshot = feedback.Snapshot(3);
  const std::optional<double> predicted = snapshot.Predict("touch", 50000, 0);
  ASSERT_TRUE(predicted.has_value());
  EXPECT_NEAR(*predicted, 0.05, 0.005);
  EXPECT_EQ(snapshot.calibrated_families(), 1u);
  EXPECT_EQ(snapshot.total_samples(), 3u);
  EXPECT_EQ(feedback.total_recorded(), 3u);
  EXPECT_EQ(feedback.RecentOutcomes().size(), 3u);
}

TEST(PlanFeedbackTest, LogIsCappedButFitIsNot) {
  PlanFeedback feedback(/*max_outcomes=*/4);
  Teach(&feedback, "ps", 1e-7, 10);
  EXPECT_EQ(feedback.RecentOutcomes().size(), 4u);
  EXPECT_EQ(feedback.total_recorded(), 10u);
  const CalibrationSnapshot snapshot = feedback.Snapshot(3);
  ASSERT_NE(snapshot.Find("ps"), nullptr);
  EXPECT_EQ(snapshot.Find("ps")->samples, 10u);
}

TEST(PlanFeedbackTest, ClearForgetsEverything) {
  PlanFeedback feedback;
  Teach(&feedback, "touch", 1e-6);
  feedback.Clear();
  EXPECT_EQ(feedback.total_recorded(), 0u);
  EXPECT_TRUE(feedback.RecentOutcomes().empty());
  EXPECT_EQ(feedback.Snapshot(1).Predict("touch", 1000, 0), std::nullopt);
}

/// Stats of clustered datasets big enough that the static rules reach the
/// TOUCH branch (mirrors PlannerTest::ClusteredInputsPlanTouch).
class CalibratedPlannerTest : public ::testing::Test {
 protected:
  const DatasetStats a_ = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 30000, 10));
  const DatasetStats b_ = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 60000, 11));
  Planner planner_;
};

// The golden plan flip: static rules pick TOUCH for clustered data, but
// measured feedback showing another family is faster on this engine
// overrides them — with a before/after rationale.
TEST_F(CalibratedPlannerTest, MeasuredFeedbackFlipsTheStaticChoice) {
  ASSERT_EQ(planner_.Plan(a_, b_, 1.0f).algorithm, "touch");

  PlanFeedback feedback;
  Teach(&feedback, "touch", 1e-6);  // measured slow
  Teach(&feedback, "ps", 1e-8);    // measured 100x faster per object
  const CalibrationSnapshot snapshot = feedback.Snapshot(3);
  const JoinPlan plan = planner_.Plan(a_, b_, 1.0f, &snapshot);
  EXPECT_EQ(plan.algorithm, "ps");
  EXPECT_TRUE(plan.calibrated);
  EXPECT_EQ(plan.static_algorithm, "touch");
  EXPECT_GT(plan.predicted_seconds, 0);
  EXPECT_NE(plan.rationale.find("calibrated override"), std::string::npos);
  EXPECT_NE(plan.rationale.find("static rule chose touch"), std::string::npos);
  EXPECT_NE(plan.ToString().find("predicted="), std::string::npos);
}

TEST_F(CalibratedPlannerTest, AgreementKeepsThePlanAndSaysSo) {
  PlanFeedback feedback;
  Teach(&feedback, "touch", 1e-8);  // measured fastest
  Teach(&feedback, "ps", 1e-6);
  const CalibrationSnapshot snapshot = feedback.Snapshot(3);
  const JoinPlan plan = planner_.Plan(a_, b_, 1.0f, &snapshot);
  EXPECT_EQ(plan.algorithm, "touch");
  EXPECT_TRUE(plan.calibrated);
  EXPECT_EQ(plan.static_algorithm, "touch");
  EXPECT_NE(plan.rationale.find("calibration agrees"), std::string::npos);
}

// "Slower than what?" — without measurements of the static choice itself
// (or with only one measured family) the static plan stands untouched.
TEST_F(CalibratedPlannerTest, OverrideNeedsTheStaticFamilyMeasured) {
  PlanFeedback feedback;
  Teach(&feedback, "ps", 1e-9);  // blazing fast, but touch is unmeasured
  CalibrationSnapshot snapshot = feedback.Snapshot(3);
  JoinPlan plan = planner_.Plan(a_, b_, 1.0f, &snapshot);
  EXPECT_EQ(plan.algorithm, "touch");
  EXPECT_FALSE(plan.calibrated);

  feedback.Clear();
  Teach(&feedback, "touch", 1e-6);  // only the static family measured
  snapshot = feedback.Snapshot(3);
  plan = planner_.Plan(a_, b_, 1.0f, &snapshot);
  EXPECT_EQ(plan.algorithm, "touch");
  EXPECT_FALSE(plan.calibrated);
}

// Hard constraints survive any amount of evidence: under a violated memory
// budget TOUCH is not a candidate no matter how fast it measured.
TEST(CalibratedPlannerConstraintTest, MemoryBudgetBeatsCalibration) {
  const DatasetStats small = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 1200, 6));
  const DatasetStats large = ComputeDatasetStats(
      GenerateSynthetic(Distribution::kClustered, 120000, 7));
  PlannerOptions options;
  options.memory_budget_bytes = 2 << 20;
  const Planner constrained(options);
  ASSERT_EQ(constrained.Plan(small, large, 1.0f).algorithm, "inl");

  PlanFeedback feedback;
  Teach(&feedback, "touch", 1e-12);  // "measured" absurdly fast
  Teach(&feedback, "inl", 1e-6);
  const CalibrationSnapshot snapshot = feedback.Snapshot(3);
  const JoinPlan plan = constrained.Plan(small, large, 1.0f, &snapshot);
  EXPECT_NE(plan.algorithm, "touch") << plan.rationale;
}

// --- Engine integration ----------------------------------------------------

using IdPairVector = std::vector<IdPair>;

IdPairVector SortedPairs(VectorCollector& collector) {
  IdPairVector pairs = collector.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

IdPairVector DistanceOracle(const Dataset& a, const Dataset& b,
                            float epsilon) {
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  return OracleJoin(enlarged, b);
}

TEST(QueryEngineCalibrationTest, InjectedFeedbackFlipsEnginePlans) {
  QueryEngine engine;  // calibration enabled by default
  const Dataset small = GenerateSynthetic(Distribution::kClustered, 4000, 51);
  const Dataset large = GenerateSynthetic(Distribution::kClustered, 8000, 52);
  const DatasetHandle a = engine.RegisterDataset("small", small);
  const DatasetHandle b = engine.RegisterDataset("large", large);
  const JoinRequest request{a, b, 2.0f};
  ASSERT_EQ(engine.Plan(request).algorithm, "touch");

  Teach(&engine.feedback(), "touch", 1e-5);
  Teach(&engine.feedback(), "inl", 1e-9);
  const JoinPlan plan = engine.Plan(request);
  EXPECT_EQ(plan.algorithm, "inl");
  EXPECT_TRUE(plan.calibrated);
  EXPECT_EQ(plan.static_algorithm, "touch");

  // The flipped plan executes end to end and returns the right pairs.
  VectorCollector out;
  const JoinResult result = engine.Execute(request, out);
  ASSERT_TRUE(result.error.empty());
  EXPECT_EQ(result.plan.algorithm, "inl");
  EXPECT_EQ(SortedPairs(out), DistanceOracle(small, large, 2.0f));
}

TEST(QueryEngineCalibrationTest, ColdRunsAreRecordedCacheHitsAreNot) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset(
      "small", GenerateSynthetic(Distribution::kClustered, 4000, 51));
  const DatasetHandle b = engine.RegisterDataset(
      "large", GenerateSynthetic(Distribution::kClustered, 8000, 52));
  const JoinRequest request{a, b, 2.0f};

  CountingCollector out;
  ASSERT_TRUE(engine.Execute(request, out).error.empty());   // cold
  ASSERT_TRUE(engine.Execute(request, out).error.empty());   // cache hit
  EXPECT_EQ(engine.feedback().total_recorded(), 1u);
  const std::vector<PlanOutcome> outcomes = engine.feedback().RecentOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].family, "touch");
  EXPECT_EQ(outcomes[0].objects, 12000u);
  EXPECT_GT(outcomes[0].results, 0u);
  EXPECT_GT(outcomes[0].total_seconds, 0);

  // ExecuteFixed cold runs are evidence too (that is how alternatives the
  // static rules never pick get measured).
  ASSERT_TRUE(engine.ExecuteFixed("ps", request, out).error.empty());
  EXPECT_EQ(engine.feedback().total_recorded(), 2u);
  EXPECT_EQ(engine.feedback().RecentOutcomes()[1].family, "ps");
}

// PBSM caches one directory per side, so a request can be half-warm: the
// shared dataset's directory hits while the new partner's builds. Such runs
// report partial_index_cache_hit, and — since their build_seconds covers
// only the missing side — are not calibration evidence.
TEST(QueryEngineCalibrationTest, PartialPbsmHitsAreNotEvidence) {
  QueryEngine engine;
  Dataset big;
  for (int x = 0; x < 20; ++x) {
    for (int y = 0; y < 20; ++y) {
      for (int z = 0; z < 20; ++z) {
        big.push_back(CenteredBox(5.0f * x, 5.0f * y, 5.0f * z));
      }
    }
  }
  Dataset sub1;
  Dataset sub2;
  for (int i = 0; i < 4000; ++i) {
    sub1.push_back(CenteredBox(10.0f + (i % 70), 10.0f + (i % 60),
                               12.0f + (i % 50)));
    sub2.push_back(CenteredBox(12.0f + (i % 65), 14.0f + (i % 55),
                               20.0f + (i % 40)));
  }
  // Both partners sit strictly inside big's extent, so every request shares
  // one joint grid domain — the precondition for the big directory to hit.
  const DatasetHandle a = engine.RegisterDataset("big", std::move(big));
  const DatasetHandle b = engine.RegisterDataset("sub1", std::move(sub1));
  const DatasetHandle c = engine.RegisterDataset("sub2", std::move(sub2));

  CountingCollector out;
  const JoinResult cold = engine.ExecuteFixed("pbsm-50", {a, b, 0.0f}, out);
  ASSERT_TRUE(cold.error.empty());
  EXPECT_FALSE(cold.index_cache_hit);
  EXPECT_FALSE(cold.partial_index_cache_hit);
  EXPECT_EQ(engine.feedback().total_recorded(), 1u);

  const JoinResult partial = engine.ExecuteFixed("pbsm-50", {a, c, 0.0f}, out);
  ASSERT_TRUE(partial.error.empty());
  EXPECT_FALSE(partial.index_cache_hit);
  EXPECT_TRUE(partial.partial_index_cache_hit);
  EXPECT_EQ(engine.feedback().total_recorded(), 1u);  // half-warm: no record

  const JoinResult warm = engine.ExecuteFixed("pbsm-50", {a, b, 0.0f}, out);
  ASSERT_TRUE(warm.error.empty());
  EXPECT_TRUE(warm.index_cache_hit);
  EXPECT_FALSE(warm.partial_index_cache_hit);
  EXPECT_EQ(engine.feedback().total_recorded(), 1u);
}

TEST(QueryEngineCalibrationTest, DisabledToggleRecordsAndOverridesNothing) {
  EngineOptions options;
  options.calibration.enabled = false;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset(
      "small", GenerateSynthetic(Distribution::kClustered, 4000, 51));
  const DatasetHandle b = engine.RegisterDataset(
      "large", GenerateSynthetic(Distribution::kClustered, 8000, 52));
  const JoinRequest request{a, b, 2.0f};

  CountingCollector out;
  ASSERT_TRUE(engine.Execute(request, out).error.empty());
  EXPECT_EQ(engine.feedback().total_recorded(), 0u);

  // Even with (externally injected) evidence, the disabled engine plans
  // statically.
  Teach(&engine.feedback(), "touch", 1e-5);
  Teach(&engine.feedback(), "inl", 1e-9);
  const JoinPlan plan = engine.Plan(request);
  EXPECT_EQ(plan.algorithm, "touch");
  EXPECT_FALSE(plan.calibrated);
}

}  // namespace
}  // namespace touch
