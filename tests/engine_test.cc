#include "engine/engine.h"

#include <gtest/gtest.h>

#include <string>

#include "datagen/distributions.h"
#include "join/nested_loop.h"
#include "obs/trace.h"
#include "test_util.h"

namespace touch {
namespace {

/// Ground truth for the engine's distance join: enlarge A, nested loop.
std::vector<IdPair> DistanceOracle(const Dataset& a, const Dataset& b,
                                   float epsilon) {
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  return OracleJoin(enlarged, b);
}

std::vector<IdPair> SortedPairs(VectorCollector& collector) {
  std::vector<IdPair> pairs = collector.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  // Clustered and big enough that the planner reaches the TOUCH branch.
  Dataset small_ = GenerateSynthetic(Distribution::kClustered, 4000, 51);
  Dataset large_ = GenerateSynthetic(Distribution::kClustered, 8000, 52);
};

TEST_F(QueryEngineTest, ColdAndCachedRunsProduceIdenticalPairs) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};
  ASSERT_EQ(engine.Plan(request).algorithm, "touch");

  VectorCollector cold;
  const JoinResult cold_result = engine.Execute(request, cold);
  ASSERT_TRUE(cold_result.error.empty());
  EXPECT_FALSE(cold_result.index_cache_hit);
  IndexCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  VectorCollector cached;
  const JoinResult cached_result = engine.Execute(request, cached);
  ASSERT_TRUE(cached_result.error.empty());
  EXPECT_TRUE(cached_result.index_cache_hit);
  EXPECT_EQ(cached_result.stats.build_seconds, 0.0);
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const std::vector<IdPair> oracle = DistanceOracle(small_, large_, 2.0f);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(SortedPairs(cold), oracle);
  EXPECT_EQ(SortedPairs(cached), oracle);
}

// When A is the larger dataset the plan builds the tree on B and the engine
// must still emit pairs in (a, b) order.
TEST_F(QueryEngineTest, BuildOnBKeepsPairOrder) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("large", large_);
  const DatasetHandle b = engine.RegisterDataset("small", small_);
  const JoinRequest request{a, b, 2.0f};
  const JoinPlan plan = engine.Plan(request);
  ASSERT_EQ(plan.algorithm, "touch");
  ASSERT_FALSE(plan.build_on_a);

  VectorCollector out;
  ASSERT_TRUE(engine.Execute(request, out).error.empty());
  EXPECT_EQ(SortedPairs(out), DistanceOracle(large_, small_, 2.0f));

  // The cached tree (built over raw B) is epsilon-independent: a second
  // query with a different epsilon reuses it.
  VectorCollector other;
  const JoinResult second = engine.Execute({a, b, 4.0f}, other);
  EXPECT_TRUE(second.index_cache_hit);
  EXPECT_EQ(SortedPairs(other), DistanceOracle(large_, small_, 4.0f));
}

// Regression for the TOUCH cached path: a build-on-B distance join used to
// materialize an O(|A|) enlarged probe copy on every query, cache hit or
// not. The probe side is now enlarged on the fly (like the cached INL
// path), so warm hits run allocation-free: TouchJoin's analytic footprint —
// which counts any probe copy it owns — must be byte-identical between the
// cold run and the hit, and the pairs must still match the oracle at every
// epsilon sharing the raw cached tree.
TEST_F(QueryEngineTest, CachedBuildOnBDistanceJoinIsAllocationFree) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("large", large_);
  const DatasetHandle b = engine.RegisterDataset("small", small_);
  const JoinRequest request{a, b, 2.0f};
  const JoinPlan plan = engine.Plan(request);
  ASSERT_EQ(plan.algorithm, "touch");
  ASSERT_FALSE(plan.build_on_a);

  VectorCollector cold;
  const JoinResult cold_result = engine.Execute(request, cold);
  ASSERT_TRUE(cold_result.error.empty());
  ASSERT_FALSE(cold_result.index_cache_hit);
  VectorCollector warm;
  const JoinResult warm_result = engine.Execute(request, warm);
  ASSERT_TRUE(warm_result.error.empty());
  ASSERT_TRUE(warm_result.index_cache_hit);

  EXPECT_EQ(SortedPairs(warm), SortedPairs(cold));
  EXPECT_EQ(SortedPairs(warm), DistanceOracle(large_, small_, 2.0f));
  EXPECT_EQ(warm_result.stats.memory_bytes, cold_result.stats.memory_bytes);

  // A different epsilon still hits the same raw tree and still needs no
  // probe copy.
  VectorCollector wider;
  const JoinResult wider_result = engine.Execute({a, b, 5.0f}, wider);
  EXPECT_TRUE(wider_result.index_cache_hit);
  EXPECT_EQ(SortedPairs(wider), DistanceOracle(large_, small_, 5.0f));
}

TEST_F(QueryEngineTest, BuildOnACacheDistinguishesEpsilon) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  CountingCollector out;
  EXPECT_FALSE(engine.Execute({a, b, 2.0f}, out).index_cache_hit);
  // The enlargement is baked into the tree over A, so a new epsilon is a
  // new index...
  EXPECT_FALSE(engine.Execute({a, b, 4.0f}, out).index_cache_hit);
  // ...while repeating either epsilon hits its entry.
  EXPECT_TRUE(engine.Execute({a, b, 2.0f}, out).index_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 2u);
}

TEST_F(QueryEngineTest, DisabledCacheStillProducesIdenticalResults) {
  EngineOptions options;
  options.cache_indexes = false;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector out;
  const JoinResult result = engine.Execute({a, b, 2.0f}, out);
  ASSERT_TRUE(result.error.empty());
  EXPECT_FALSE(result.index_cache_hit);
  EXPECT_EQ(engine.cache_stats().misses, 0u);
  EXPECT_EQ(SortedPairs(out), DistanceOracle(small_, large_, 2.0f));
}

TEST_F(QueryEngineTest, BatchMatchesIndividualExecution) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const std::vector<JoinRequest> requests = {
      {a, b, 2.0f}, {b, a, 1.0f}, {a, a, 0.5f}, {a, b, 2.0f}};

  QueryEngine reference;
  const DatasetHandle ra = reference.RegisterDataset("small", small_);
  const DatasetHandle rb = reference.RegisterDataset("large", large_);
  const std::vector<JoinRequest> reference_requests = {
      {ra, rb, 2.0f}, {rb, ra, 1.0f}, {ra, ra, 0.5f}, {ra, rb, 2.0f}};

  const std::vector<JoinResult> batch = engine.ExecuteBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].error.empty()) << i;
    CountingCollector expected;
    reference.Execute(reference_requests[i], expected);
    EXPECT_EQ(batch[i].stats.results, expected.count()) << i;
  }
  // The duplicated request shares one index with its twin.
  EXPECT_GE(engine.cache_stats().hits, 1u);
}

TEST_F(QueryEngineTest, ExecuteFixedRunsTheNamedAlgorithm) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector out;
  const JoinResult result = engine.ExecuteFixed("ps", {a, b, 2.0f}, out);
  ASSERT_TRUE(result.error.empty());
  EXPECT_EQ(result.plan.algorithm, "ps");
  EXPECT_EQ(SortedPairs(out), DistanceOracle(small_, large_, 2.0f));
}

TEST_F(QueryEngineTest, ExecuteFixedReportsUnknownNames) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector out;
  const JoinResult result = engine.ExecuteFixed("bogus", {a, b, 1.0f}, out);
  EXPECT_NE(result.error.find("unknown algorithm 'bogus'"), std::string::npos);
  EXPECT_NE(result.error.find("accepted:"), std::string::npos);
  EXPECT_TRUE(out.pairs().empty());
}

// The INL R-tree is a cacheable artifact: build-on-A bakes the enlargement
// into the cached tree (per-epsilon entries), build-on-B keeps the tree raw
// and epsilon-independent.
TEST_F(QueryEngineTest, InlIndexIsCachedAndMatchesOracle) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("large", large_);
  const DatasetHandle b = engine.RegisterDataset("small", small_);

  // |A| > |B| -> tree on B, built raw: different epsilons share the entry.
  VectorCollector first;
  const JoinResult cold = engine.ExecuteFixed("inl", {a, b, 2.0f}, first);
  ASSERT_TRUE(cold.error.empty());
  EXPECT_FALSE(cold.index_cache_hit);
  ASSERT_FALSE(cold.plan.build_on_a);
  EXPECT_EQ(SortedPairs(first), DistanceOracle(large_, small_, 2.0f));

  VectorCollector second;
  const JoinResult warm = engine.ExecuteFixed("inl", {a, b, 4.0f}, second);
  EXPECT_TRUE(warm.index_cache_hit);
  EXPECT_EQ(warm.stats.build_seconds, 0.0);
  EXPECT_EQ(SortedPairs(second), DistanceOracle(large_, small_, 4.0f));
  EXPECT_EQ(engine.cache_stats().entries, 1u);

  // Reversed handles -> tree on A with the enlargement baked in: a new
  // epsilon is a new entry.
  VectorCollector reversed;
  const JoinResult on_a = engine.ExecuteFixed("inl", {b, a, 2.0f}, reversed);
  ASSERT_TRUE(on_a.plan.build_on_a);
  EXPECT_FALSE(on_a.index_cache_hit);
  EXPECT_EQ(SortedPairs(reversed), DistanceOracle(small_, large_, 2.0f));
  EXPECT_FALSE(
      engine.ExecuteFixed("inl", {b, a, 4.0f}, reversed).index_cache_hit);
  EXPECT_TRUE(
      engine.ExecuteFixed("inl", {b, a, 2.0f}, reversed).index_cache_hit);
}

// PBSM caches one cell directory per dataset; a repeat query reuses both.
TEST_F(QueryEngineTest, PbsmDirectoriesAreCachedPerDataset) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector cold;
  const JoinResult cold_result =
      engine.ExecuteFixed("pbsm-100", {a, b, 2.0f}, cold);
  ASSERT_TRUE(cold_result.error.empty());
  EXPECT_FALSE(cold_result.index_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 2u);  // one directory per side
  EXPECT_EQ(SortedPairs(cold), DistanceOracle(small_, large_, 2.0f));

  VectorCollector warm;
  const JoinResult warm_result =
      engine.ExecuteFixed("pbsm-100", {a, b, 2.0f}, warm);
  EXPECT_TRUE(warm_result.index_cache_hit);
  EXPECT_EQ(warm_result.stats.build_seconds, 0.0);
  EXPECT_EQ(engine.cache_stats().entries, 2u);
  EXPECT_EQ(SortedPairs(warm), SortedPairs(cold));

  // A new epsilon moves the joint grid domain, so both directories rebuild
  // (the domain signature in the key keeps stale grids from aliasing).
  VectorCollector other;
  const JoinResult other_eps =
      engine.ExecuteFixed("pbsm-100", {a, b, 4.0f}, other);
  EXPECT_FALSE(other_eps.index_cache_hit);
  EXPECT_EQ(SortedPairs(other), DistanceOracle(small_, large_, 4.0f));
}

// TOUCH trees, INL R-trees and PBSM directories for the *same* dataset and
// epsilon live side by side: kinds never collide.
TEST_F(QueryEngineTest, MixedArtifactKindsNeverCollide) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};

  VectorCollector touch_out;
  VectorCollector inl_out;
  VectorCollector pbsm_out;
  ASSERT_TRUE(engine.ExecuteFixed("touch", request, touch_out).error.empty());
  ASSERT_TRUE(engine.ExecuteFixed("inl", request, inl_out).error.empty());
  ASSERT_TRUE(engine.ExecuteFixed("pbsm-100", request, pbsm_out).error.empty());
  // 1 TOUCH tree + 1 INL tree + 2 PBSM directories.
  EXPECT_EQ(engine.cache_stats().entries, 4u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);

  // Re-running each hits its own artifact and returns identical pairs.
  VectorCollector again;
  EXPECT_TRUE(engine.ExecuteFixed("touch", request, again).index_cache_hit);
  EXPECT_TRUE(engine.ExecuteFixed("inl", request, again).index_cache_hit);
  EXPECT_TRUE(engine.ExecuteFixed("pbsm-100", request, again).index_cache_hit);
  const std::vector<IdPair> oracle = DistanceOracle(small_, large_, 2.0f);
  EXPECT_EQ(SortedPairs(touch_out), oracle);
  EXPECT_EQ(SortedPairs(inl_out), oracle);
  EXPECT_EQ(SortedPairs(pbsm_out), oracle);
}

// max_cache_bytes caps the engine's cache: artifacts too big to retain are
// evicted LRU-style, queries still answer correctly, telemetry records it.
TEST_F(QueryEngineTest, MaxCacheBytesEvictsButNeverBreaksQueries) {
  EngineOptions options;
  options.max_cache_bytes = 1;  // nothing fits: every build evicts itself
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};

  VectorCollector first;
  VectorCollector second;
  ASSERT_TRUE(engine.Execute(request, first).error.empty());
  const JoinResult repeat = engine.Execute(request, second);
  ASSERT_TRUE(repeat.error.empty());
  EXPECT_FALSE(repeat.index_cache_hit);  // nothing was retained

  const IndexCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_LE(stats.bytes, options.max_cache_bytes);
  EXPECT_EQ(stats.capacity_bytes, 1u);
  EXPECT_EQ(SortedPairs(first), SortedPairs(second));
}

TEST_F(QueryEngineTest, InvalidHandlesAreRejected) {
  QueryEngine engine;
  CountingCollector out;
  const JoinResult result = engine.Execute({0, 1, 1.0f}, out);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(out.count(), 0u);
}

// --- Morsel helpers: a lone TOUCH request borrows idle pool workers --------

/// The engine's plan for `request` with TOUCH forced, so the tests below
/// exercise the morsel loops whatever the planner would pick.
JoinPlan TouchPlan(const QueryEngine& engine, const JoinRequest& request) {
  JoinPlan plan = engine.Plan(request);
  plan.algorithm = "touch";
  return plan;
}

/// `attr` of the named span of the request traced under `trace_id`, -1
/// when absent.
long SpanAttr(const Tracer& tracer, uint64_t trace_id, const std::string& name,
              const std::string& attr) {
  for (const SpanRecord& record : tracer.Snapshot()) {
    if (record.trace_id != trace_id || record.name != name) continue;
    for (const auto& [key, value] : record.attrs) {
      if (key == attr) return std::stol(value);
    }
  }
  return -1;
}

class MorselHelperTest : public ::testing::Test {
 protected:
  // Big enough that the root of the tree splits into many item morsels.
  Dataset a_ = GenerateSynthetic(Distribution::kClustered, 30000, 53);
  Dataset b_ = GenerateSynthetic(Distribution::kClustered, 60000, 54);
};

TEST_F(MorselHelperTest, LoneRequestBorrowsIdleWorkersAndKeepsTheSequence) {
  // The reference: the same plan on a one-thread pool, where nobody is idle
  // to help.
  std::vector<IdPair> reference;
  {
    EngineOptions options;
    options.threads = 1;
    QueryEngine engine(options);
    const JoinRequest request{engine.RegisterDataset("a", a_),
                              engine.RegisterDataset("b", b_), 2.0f};
    VectorCollector out;
    ASSERT_TRUE(engine
                    .SubmitPlanned(TouchPlan(engine, request), request,
                                   std::make_unique<ForwardingSink>(out))
                    .Get()
                    .ok());
    reference = out.pairs();
  }
  ASSERT_FALSE(reference.empty());

  EngineOptions options;
  options.threads = 4;
  options.tracer = std::make_shared<Tracer>();
  QueryEngine engine(options);
  const JoinRequest request{engine.RegisterDataset("a", a_),
                            engine.RegisterDataset("b", b_), 2.0f};
  // One request in flight leaves three workers idle. Whether they wake
  // before the caller runs out of morsels is up to the scheduler, so a few
  // attempts are allowed; every one must emit the reference sequence.
  long most_helpers = 0;
  for (int attempt = 0; attempt < 5 && most_helpers == 0; ++attempt) {
    VectorCollector out;
    const JoinResult result =
        engine
            .SubmitPlanned(TouchPlan(engine, request), request,
                           std::make_unique<ForwardingSink>(out))
            .Get();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(out.pairs(), reference);
    EXPECT_EQ(result.stats.results, reference.size());
    for (const char* phase : {"touch-assign", "touch-local-join"}) {
      EXPECT_GE(SpanAttr(*options.tracer, result.trace_id, phase, "morsels"),
                1)
          << phase;
      const long helpers =
          SpanAttr(*options.tracer, result.trace_id, phase, "helpers");
      EXPECT_GE(helpers, 0) << phase;
      EXPECT_LE(helpers, 3) << phase;  // the caller is one of four workers
      most_helpers = std::max(most_helpers, helpers);
    }
  }
  EXPECT_GE(most_helpers, 1);
}

TEST_F(MorselHelperTest, CalibrationRecordsSingleRunnerSeconds) {
  EngineOptions options;
  options.threads = 4;
  QueryEngine engine(options);
  ASSERT_TRUE(options.calibration.enabled);
  const JoinRequest request{engine.RegisterDataset("a", a_),
                            engine.RegisterDataset("b", b_), 2.0f};
  CountingCollector out;
  const JoinResult result =
      engine
          .SubmitPlanned(TouchPlan(engine, request), request,
                         std::make_unique<ForwardingSink>(out))
          .Get();
  ASSERT_TRUE(result.ok()) << result.error;
  // The first run builds the tree, so it is cold and recorded.
  ASSERT_FALSE(result.index_cache_hit);
  const std::vector<PlanOutcome> outcomes = engine.feedback().RecentOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  // Whatever the idle workers took off the request's worker is added back,
  // in the build as in the join.
  const double helped = result.stats.helper_seconds;
  const double build_helped = result.stats.build_helper_seconds;
  EXPECT_GE(helped, 0.0);
  EXPECT_GE(build_helped, 0.0);
  EXPECT_EQ(outcomes[0].family, "touch");
  EXPECT_EQ(outcomes[0].total_seconds,
            result.stats.total_seconds + build_helped + helped);
  EXPECT_EQ(outcomes[0].build_seconds,
            result.stats.build_seconds + build_helped);
  EXPECT_EQ(outcomes[0].probe_seconds, result.stats.assign_seconds +
                                           result.stats.join_seconds + helped);
}

TEST_F(MorselHelperTest, TreeBuildCostIsSingleRunnerSeconds) {
  EngineOptions options;
  options.threads = 4;
  options.tracer = std::make_shared<Tracer>();
  QueryEngine engine(options);
  const JoinRequest request{engine.RegisterDataset("a", a_),
                            engine.RegisterDataset("b", b_), 2.0f};
  const JoinPlan plan = TouchPlan(engine, request);
  CountingCollector out;
  // Cold runs until idle workers helped the build: whether they wake in
  // time is up to the scheduler.
  JoinResult cold;
  for (int attempt = 0; attempt < 5; ++attempt) {
    engine.ClearIndexCache();
    cold = engine
               .SubmitPlanned(plan, request,
                              std::make_unique<ForwardingSink>(out))
               .Get();
    ASSERT_TRUE(cold.ok()) << cold.error;
    ASSERT_FALSE(cold.index_cache_hit);
    // The build ran its STR slab sorts as morsels, helped or not.
    EXPECT_GE(
        SpanAttr(*options.tracer, cold.trace_id, "build-index", "morsels"), 2);
    const long helpers =
        SpanAttr(*options.tracer, cold.trace_id, "build-index", "helpers");
    EXPECT_GE(helpers, 0);
    EXPECT_LE(helpers, 3);
    if (cold.stats.build_helper_seconds > 0) break;
  }
  ASSERT_GT(cold.stats.build_helper_seconds, 0.0);
  // Calibration fits the build on what it would cost one runner...
  const double single_runner =
      cold.stats.build_seconds + cold.stats.build_helper_seconds;
  EXPECT_EQ(engine.feedback().RecentOutcomes().back().build_seconds,
            single_runner);
  // ...and the cache weighs the tree by the same cost: a hit saves it.
  const double saved_before = engine.cache_stats().cost_saved_seconds;
  const JoinResult warm =
      engine.SubmitPlanned(plan, request, std::make_unique<ForwardingSink>(out))
          .Get();
  ASSERT_TRUE(warm.ok()) << warm.error;
  ASSERT_TRUE(warm.index_cache_hit);
  EXPECT_EQ(warm.stats.build_seconds, 0.0);
  EXPECT_EQ(warm.stats.build_helper_seconds, 0.0);
  EXPECT_DOUBLE_EQ(engine.cache_stats().cost_saved_seconds - saved_before,
                   single_runner);
}

TEST_F(MorselHelperTest, SaturatedPoolRunsEveryMorselOnTheCaller) {
  EngineOptions options;
  options.threads = 1;
  options.tracer = std::make_shared<Tracer>();
  QueryEngine engine(options);
  const JoinRequest request{engine.RegisterDataset("a", a_),
                            engine.RegisterDataset("b", b_), 2.0f};
  CountingCollector out;
  const JoinResult result =
      engine
          .SubmitPlanned(TouchPlan(engine, request), request,
                         std::make_unique<ForwardingSink>(out))
          .Get();
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(out.count(), result.stats.results);
  EXPECT_EQ(result.stats.helper_seconds, 0.0);
  for (const char* phase : {"touch-assign", "touch-local-join"}) {
    EXPECT_GE(SpanAttr(*options.tracer, result.trace_id, phase, "morsels"), 2)
        << phase;
    EXPECT_EQ(SpanAttr(*options.tracer, result.trace_id, phase, "helpers"), 0)
        << phase;
  }
}

}  // namespace
}  // namespace touch
