#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datagen/distributions.h"
#include "engine/shard.h"
#include "test_util.h"
#include "util/timer.h"

namespace touch {
namespace {

// --- PartitionIntoShards (the STR-slab partitioner) -------------------------

TEST(ShardPartitionTest, CoversEveryBoxExactlyOnce) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 10000, 7);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 8);

  EXPECT_EQ(partition.kx * partition.ky * partition.kz, 8);
  ASSERT_EQ(partition.shards.size(), 8u);
  ASSERT_EQ(partition.shard_of.size(), boxes.size());

  size_t total = 0;
  std::vector<bool> seen(boxes.size(), false);
  for (size_t s = 0; s < partition.shards.size(); ++s) {
    const DatasetShard& shard = partition.shards[s];
    ASSERT_EQ(shard.boxes.size(), shard.to_global.size());
    total += shard.boxes.size();
    for (size_t i = 0; i < shard.to_global.size(); ++i) {
      const uint32_t global = shard.to_global[i];
      ASSERT_LT(global, boxes.size());
      EXPECT_FALSE(seen[global]) << "box assigned to two shards";
      seen[global] = true;
      EXPECT_EQ(partition.shard_of[global], s);
      EXPECT_EQ(shard.boxes[i], boxes[global]);
      EXPECT_TRUE(Contains(shard.mbr, boxes[global]));
    }
  }
  EXPECT_EQ(total, boxes.size());
}

TEST(ShardPartitionTest, BalancesUniformData) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 16000, 9);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 4);
  const size_t ideal = boxes.size() / 4;
  for (const DatasetShard& shard : partition.shards) {
    // Histogram-granular cuts cannot be exact, but uniform data must land
    // within a factor of two of the ideal share.
    EXPECT_GT(shard.boxes.size(), ideal / 2);
    EXPECT_LT(shard.boxes.size(), ideal * 2);
  }
}

TEST(ShardPartitionTest, SingleShardTakesEverything) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 500, 3);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 1);
  ASSERT_EQ(partition.shards.size(), 1u);
  EXPECT_EQ(partition.shards[0].boxes.size(), boxes.size());
}

TEST(ShardPartitionTest, EmptyDatasetYieldsEmptyShards) {
  const DatasetStats stats = ComputeDatasetStats(Dataset{});
  const ShardPartition partition = PartitionIntoShards(Dataset{}, stats, 4);
  ASSERT_EQ(partition.shards.size(), 4u);
  for (const DatasetShard& shard : partition.shards) {
    EXPECT_TRUE(shard.boxes.empty());
  }
}

TEST(ShardPartitionTest, SlabsComeFromHistogramNotGeometry) {
  // Two clusters along x: the x cut must fall between them, whatever the
  // box order was.
  Dataset boxes;
  for (int i = 0; i < 300; ++i) {
    boxes.push_back(CenteredBox(static_cast<float>(i % 10), i % 7, i % 5));
    boxes.push_back(
        CenteredBox(100.0f + static_cast<float>(i % 10), i % 7, i % 5));
  }
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 2);
  ASSERT_EQ(partition.shards.size(), 2u);
  EXPECT_EQ(partition.shards[0].boxes.size(), 300u);
  EXPECT_EQ(partition.shards[1].boxes.size(), 300u);
  // The slab boundary separates the clusters spatially.
  EXPECT_LT(partition.shards[0].mbr.hi.x, partition.shards[1].mbr.lo.x);
}

// --- ShardedCatalog shards live in the inner catalog ------------------------

/// Objects currently held by one shard, read from the inner catalog (the
/// only place shard geometry and stats live).
size_t ShardCount(const ShardedQueryEngine& engine, DatasetHandle dataset,
                  int shard) {
  return engine.engine()
      .catalog()
      .snapshot(engine.catalog().entry(dataset).shards[shard].engine_handle)
      ->stats.count;
}

TEST(ShardedCatalogTest, InnerShardCountsSumToTheDataset) {
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine engine(options);
  const DatasetHandle handle = engine.RegisterDataset(
      "data", GenerateSynthetic(Distribution::kGaussian, 8000, 21));

  const ShardedCatalog::Entry& entry = engine.catalog().entry(handle);
  ASSERT_EQ(entry.shards.size(), 4u);
  size_t total = 0;
  for (int k = 0; k < 4; ++k) {
    const size_t count = ShardCount(engine, handle, k);
    // Every shard's stats describe exactly the boxes its inner dataset
    // holds — the stats pair pruning and planning read.
    EXPECT_EQ(count, engine.engine()
                         .catalog()
                         .boxes(entry.shards[k].engine_handle)
                         .size());
    EXPECT_EQ(count, entry.shards[k].to_global->size());
    total += count;
  }
  EXPECT_EQ(total, entry.global_stats.count);
  EXPECT_EQ(total, 8000u);
  EXPECT_EQ(engine.catalog().Find("data"), handle);
}

// --- Sharded vs unsharded result identity -----------------------------------

/// Runs the same request sharded (K shards) and unsharded, both through
/// engines configured with `options`, and expects the exact same sorted
/// result set. Returns the sharded outcome for extra assertions.
ShardedJoinResult ExpectShardedMatchesUnsharded(const EngineOptions& options,
                                                int shards, const Dataset& a,
                                                const Dataset& b,
                                                float epsilon) {
  EngineOptions sharded_options = options;
  sharded_options.shards = shards;
  ShardedQueryEngine sharded(sharded_options);
  const JoinRequest sharded_request{sharded.RegisterDataset("A", a),
                                    sharded.RegisterDataset("B", b), epsilon};
  VectorCollector sharded_pairs;
  const ShardedJoinResult result =
      sharded.Execute(sharded_request, sharded_pairs);
  EXPECT_TRUE(result.merged.ok()) << result.merged.error;

  QueryEngine reference(options);
  const JoinRequest reference_request{reference.RegisterDataset("A", a),
                                      reference.RegisterDataset("B", b),
                                      epsilon};
  VectorCollector reference_pairs;
  const JoinResult reference_result =
      reference.Execute(reference_request, reference_pairs);
  EXPECT_TRUE(reference_result.ok()) << reference_result.error;

  std::vector<IdPair> lhs = sharded_pairs.pairs();
  std::vector<IdPair> rhs = reference_pairs.pairs();
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_TRUE(HasNoDuplicates(lhs));
  EXPECT_EQ(lhs, rhs);
  EXPECT_EQ(result.merged.stats.results, reference_result.stats.results);
  EXPECT_EQ(result.deduplicated, 0u)
      << "center-disjoint partitioning cannot produce boundary duplicates";
  return result;
}

/// True when some executed pair planned an algorithm of `family`.
bool AnyPairPlanned(const ShardedJoinResult& result,
                    const std::string& family) {
  return std::any_of(result.pairs.begin(), result.pairs.end(),
                     [&](const ShardPairReport& pair) {
                       return pair.plan.algorithm.rfind(family, 0) == 0;
                     });
}

TEST(ShardedEngineTest, MatchesUnshardedOnTouchPlans) {
  // Disable the tiny-input shortcuts and PBSM so every shard pair plans
  // TOUCH — the identity must hold under the heavyweight executor.
  EngineOptions options;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.pbsm_skew_max = -1.0;
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 6000, 31);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 9000, 32);
  const ShardedJoinResult result =
      ExpectShardedMatchesUnsharded(options, 4, a, b, 2.0f);
  EXPECT_TRUE(AnyPairPlanned(result, "touch"));
}

TEST(ShardedEngineTest, MatchesUnshardedOnPbsmPlans) {
  EngineOptions options;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.pbsm_skew_max = 1e9;  // PBSM whenever it fits
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 6000, 33);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 8000, 34);
  const ShardedJoinResult result =
      ExpectShardedMatchesUnsharded(options, 4, a, b, 3.0f);
  EXPECT_TRUE(AnyPairPlanned(result, "pbsm"));
}

TEST(ShardedEngineTest, MatchesUnshardedOnInlPlans) {
  // A violated memory budget with no asymmetry requirement forces the
  // indexed nested loop everywhere.
  EngineOptions options;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.memory_budget_bytes = 1;
  options.planner.inl_asymmetry = 1.0;
  const Dataset a = GenerateSynthetic(Distribution::kGaussian, 3000, 35);
  const Dataset b = GenerateSynthetic(Distribution::kGaussian, 12000, 36);
  const ShardedJoinResult result =
      ExpectShardedMatchesUnsharded(options, 4, a, b, 1.5f);
  EXPECT_TRUE(AnyPairPlanned(result, "inl"));
}

TEST(ShardedEngineTest, MatchesUnshardedWithDefaultPlannerAndManyShards) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 5000, 37);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 7000, 38);
  ExpectShardedMatchesUnsharded(EngineOptions{}, 8, a, b, 2.5f);
}

// --- Shard-pair pruning goldens ---------------------------------------------

/// Two clusters per dataset, 90 units of empty space along x between them.
/// K=2 splits exactly at the gap, so the cross pairs prune iff epsilon
/// cannot bridge the gap.
Dataset TwoClusters(float offset, int count, int jitter_seed) {
  Dataset boxes;
  for (int i = 0; i < count; ++i) {
    const float dx = static_cast<float>((i * 13 + jitter_seed) % 10);
    const float dy = static_cast<float>(i % 8);
    const float dz = static_cast<float>(i % 6);
    boxes.push_back(CenteredBox(dx, dy, dz));
    boxes.push_back(CenteredBox(offset + dx, dy, dz));
  }
  return boxes;
}

TEST(ShardedEngineTest, PrunesShardPairsWhoseMbrsCannotMeet) {
  const Dataset a = TwoClusters(100.0f, 400, 1);
  const Dataset b = TwoClusters(100.0f, 400, 2);
  EngineOptions options;
  options.shards = 2;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", a);
  const DatasetHandle hb = engine.RegisterDataset("B", b);

  // Epsilon far below the ~90-unit gap: the two cross pairs prune.
  CountingCollector out_small;
  const ShardedJoinResult small =
      engine.Execute({ha, hb, 1.0f}, out_small);
  EXPECT_TRUE(small.merged.ok());
  EXPECT_EQ(small.shard_pairs_total, 4u);
  EXPECT_EQ(small.pairs.size(), 2u);
  ASSERT_EQ(small.pruned.size(), 2u);
  const std::vector<std::pair<int, int>> expected_pruned = {{0, 1}, {1, 0}};
  std::vector<std::pair<int, int>> pruned = small.pruned;
  std::sort(pruned.begin(), pruned.end());
  EXPECT_EQ(pruned, expected_pruned);

  // Epsilon wider than the gap: nothing prunes.
  CountingCollector out_large;
  const ShardedJoinResult large =
      engine.Execute({ha, hb, 150.0f}, out_large);
  EXPECT_TRUE(large.merged.ok());
  EXPECT_EQ(large.pruned.size(), 0u);
  EXPECT_EQ(large.pairs.size(), 4u);

  // Pruning must not change the result: compare against the oracle.
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(1.0f);
  const std::vector<IdPair> oracle = OracleJoin(enlarged, b);
  EXPECT_EQ(out_small.count(), oracle.size());
}

TEST(ShardedEngineTest, EmptyShardPairsArePruned) {
  // All of A's mass sits in a single histogram cell: only one of its 8
  // shards is populated, and pairs against the empty shards must prune
  // rather than execute.
  Dataset a(500, CenteredBox(0, 0, 0));
  EngineOptions options;
  options.shards = 8;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", std::move(a));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 1000, 5));

  size_t populated = 0;
  for (int k = 0; k < 8; ++k) {
    if (ShardCount(engine, ha, k) > 0) ++populated;
  }
  EXPECT_EQ(populated, 1u);

  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 1.0f}, out);
  EXPECT_TRUE(result.merged.ok());
  EXPECT_GE(result.pruned.size(), 7u * 8u);
  for (const ShardPairReport& pair : result.pairs) {
    EXPECT_GT(ShardCount(engine, ha, pair.shard_a), 0u);
    EXPECT_GT(ShardCount(engine, hb, pair.shard_b), 0u);
  }
}

// --- Cancellation fan-out ---------------------------------------------------

TEST(ShardedEngineTest, CancelFansOutToAllShardPairs) {
  EngineOptions options;
  options.shards = 2;  // 4 shard pairs
  options.threads = 2;
  std::atomic<int> entered{0};
  std::atomic<bool> released{false};
  // Park every claimed pair at its kPlanning transition so the cancel
  // deterministically lands before any pair finishes.
  options.phase_observer = [&](RequestPhase phase) {
    if (phase != RequestPhase::kPlanning) return;
    entered.fetch_add(1);
    while (!released.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 4000, 41));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 4000, 42));

  ShardedRequestHandle handle = engine.Submit({ha, hb, 2.0f});
  ASSERT_EQ(handle.pair_count(), 4u);
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(handle.Cancel());
  released.store(true);

  const Timer gather;
  const ShardedJoinResult result = handle.Get();
  EXPECT_EQ(result.merged.status, RequestStatus::kCancelled);
  ASSERT_EQ(result.pairs.size(), 4u);
  for (const ShardPairReport& pair : result.pairs) {
    EXPECT_EQ(pair.status, RequestStatus::kCancelled)
        << "cancel must fan out to shard pair (" << pair.shard_a << ", "
        << pair.shard_b << ")";
  }
  // Promptness: the gather returns in interactive time, not join time.
  EXPECT_LT(gather.Seconds(), 5.0);
}

// --- Error paths and handle semantics ---------------------------------------

TEST(ShardedEngineTest, InvalidHandleReportsError) {
  ShardedQueryEngine engine;
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({5, 6, 1.0f}, out);
  EXPECT_EQ(result.merged.status, RequestStatus::kError);
  EXPECT_NE(result.merged.error.find("invalid dataset handle"),
            std::string::npos);
}

TEST(ShardedEngineTest, SecondGatherReportsError) {
  ShardedQueryEngine engine;
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 300, 44));
  ShardedRequestHandle handle = engine.Submit({ha, ha, 1.0f});
  EXPECT_TRUE(handle.Get().merged.ok());
  EXPECT_EQ(handle.Get().merged.status, RequestStatus::kError);
}

TEST(ShardedEngineTest, SinkReceivesGlobalIdsAndOneCompletion) {
  // The engine owns the sink and drops it after OnComplete, so everything
  // the test wants to inspect is copied into this shared record there.
  struct Record {
    std::vector<IdPair> pairs;
    int completions = 0;
    uint64_t final_results = 0;
  };
  class RecordingSink : public ResultSink {
   public:
    explicit RecordingSink(std::shared_ptr<Record> record)
        : record_(std::move(record)) {}
    void Emit(uint32_t a_id, uint32_t b_id) override {
      record_->pairs.emplace_back(a_id, b_id);
    }
    void OnComplete(const JoinResult& result) override {
      ++record_->completions;
      record_->final_results = result.stats.results;
    }

   private:
    std::shared_ptr<Record> record_;
  };
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine engine(options);
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 2000, 51);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2000, 52);
  const DatasetHandle ha = engine.RegisterDataset("A", a);
  const DatasetHandle hb = engine.RegisterDataset("B", b);
  auto record = std::make_shared<Record>();
  ShardedRequestHandle handle =
      engine.Submit({ha, hb, 5.0f}, std::make_unique<RecordingSink>(record));
  const ShardedJoinResult result = handle.Get();
  EXPECT_TRUE(result.merged.ok());
  EXPECT_EQ(record->completions, 1);
  EXPECT_EQ(record->final_results, result.merged.stats.results);
  EXPECT_EQ(record->pairs.size(), result.merged.stats.results);
  EXPECT_GT(record->pairs.size(), 0u);

  // Global id space: every emitted id addresses the *original* datasets.
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(5.0f);
  std::vector<IdPair> expected = OracleJoin(enlarged, b);
  std::vector<IdPair> emitted = record->pairs;
  std::sort(emitted.begin(), emitted.end());
  EXPECT_EQ(emitted, expected);
}

TEST(ShardedEngineTest, TouchPairsRunWithoutBorrowedWorkers) {
  // Every pair plans TOUCH on a pool wide enough to lend helpers to the
  // last pair left running; pairs of a sharded request never borrow.
  EngineOptions options;
  options.threads = 4;
  options.shards = 2;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.pbsm_skew_max = -1.0;
  ShardedQueryEngine engine(options);
  const JoinRequest request{
      engine.RegisterDataset(
          "A", GenerateSynthetic(Distribution::kClustered, 30000, 53)),
      engine.RegisterDataset(
          "B", GenerateSynthetic(Distribution::kClustered, 60000, 54)),
      2.0f};
  for (int round = 0; round < 3; ++round) {
    engine.engine().ClearIndexCache();
    CountingCollector out;
    const ShardedJoinResult result = engine.Execute(request, out);
    ASSERT_TRUE(result.merged.ok()) << result.merged.error;
    ASSERT_TRUE(AnyPairPlanned(result, "touch"));
    for (const ShardPairReport& pair : result.pairs) {
      EXPECT_FALSE(pair.plan.borrow_idle_workers);
      EXPECT_EQ(pair.stats.helper_seconds, 0.0)
          << "pair " << pair.shard_a << "x" << pair.shard_b;
    }
  }
}

TEST(ShardedEngineTest, MergedTelemetryAggregatesPairs) {
  EngineOptions options;
  options.shards = 2;
  ShardedQueryEngine engine(options);
  // Large enough that shard pairs plan a cacheable algorithm (PBSM/TOUCH),
  // so the warm re-run below can hit end to end.
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 12000, 61));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 12000, 62));
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 2.0f}, out);
  EXPECT_TRUE(result.merged.ok());

  uint64_t pair_results = 0;
  double pair_join_seconds = 0;
  for (const ShardPairReport& pair : result.pairs) {
    pair_results += pair.stats.results;
    pair_join_seconds += pair.stats.join_seconds;
  }
  EXPECT_EQ(result.merged.stats.results + result.deduplicated, pair_results);
  EXPECT_DOUBLE_EQ(result.merged.stats.join_seconds, pair_join_seconds);
  EXPECT_EQ(out.count(), result.merged.stats.results);
  EXPECT_EQ(result.cache.misses, engine.engine().cache_stats().misses);
  EXPECT_EQ(result.merged.plan.algorithm, "sharded");

  // A warm re-run hits the per-shard artifact cache end to end.
  CountingCollector warm_out;
  const ShardedJoinResult warm = engine.Execute({ha, hb, 2.0f}, warm_out);
  EXPECT_TRUE(warm.merged.index_cache_hit);
  EXPECT_EQ(warm.merged.stats.results, result.merged.stats.results);
}

// --- Pair plans come from the inner engine's one planning entry point -------

/// Every executed pair must carry exactly the plan QueryEngine::Plan makes
/// for that pair's inner datasets (bar borrow_idle_workers, which the
/// scatter clears) — the sharded engine has no planner of its own.
void ExpectPairPlansMatchInnerEngine(const ShardedQueryEngine& engine,
                                     const JoinRequest& request,
                                     const ShardedJoinResult& result,
                                     const std::string& context) {
  ASSERT_TRUE(result.merged.ok()) << context << ": " << result.merged.error;
  ASSERT_FALSE(result.pairs.empty()) << context;
  const ShardedCatalog::Entry& entry_a = engine.catalog().entry(request.a);
  const ShardedCatalog::Entry& entry_b = engine.catalog().entry(request.b);
  for (const ShardPairReport& pair : result.pairs) {
    const JoinRequest pair_request{
        entry_a.shards[pair.shard_a].engine_handle,
        entry_b.shards[pair.shard_b].engine_handle, request.epsilon};
    const JoinPlan expected = engine.engine().Plan(pair_request);
    const std::string where = context + ", pair (" +
                              std::to_string(pair.shard_a) + ", " +
                              std::to_string(pair.shard_b) + ")";
    EXPECT_EQ(pair.plan.algorithm, expected.algorithm) << where;
    EXPECT_EQ(pair.plan.build_on_a, expected.build_on_a) << where;
    EXPECT_EQ(pair.plan.rationale, expected.rationale) << where;
    EXPECT_EQ(pair.plan.expected_results, expected.expected_results) << where;
    EXPECT_FALSE(pair.plan.borrow_idle_workers) << where;
  }
}

TEST(ShardedEngineTest, PairPlansEqualInnerEnginePlans) {
  EngineOptions options;
  options.shards = 4;
  // Static plans, so a re-plan after the run sees what the scatter saw
  // (with calibration on, the pairs' own cold runs would become evidence).
  options.calibration.enabled = false;
  options.shard_repartition_drift = 1.3;
  ShardedQueryEngine engine(options);
  const JoinRequest request{
      engine.RegisterDataset(
          "A", GenerateSynthetic(Distribution::kClustered, 6000, 71)),
      engine.RegisterDataset(
          "B", GenerateSynthetic(Distribution::kUniform, 9000, 72)),
      2.0f};
  Counter& repartitions =
      engine.engine().metrics().counter("touch_shard_repartitions_total");
  CountingCollector out;
  ExpectPairPlansMatchInnerEngine(engine, request,
                                  engine.Execute(request, out),
                                  "at registration");

  // A batch inside the registration extent: the inner stats change, the
  // partition does not.
  std::vector<Mutation> batch;
  for (uint32_t id = 0; id < 300; ++id) {
    batch.push_back(Mutation{MutationKind::kUpdate, id * 7,
                             CenteredBox(static_cast<float>(id % 50) * 3.0f,
                                         500.0f, 500.0f, 2.0f)});
    batch.push_back(Mutation{MutationKind::kDelete, id * 7 + 3, Box{}});
  }
  engine.ApplyMutations(request.a, batch);
  ASSERT_EQ(repartitions.Value(), 0u);
  ExpectPairPlansMatchInnerEngine(engine, request,
                                  engine.Execute(request, out),
                                  "after a mutation batch");

  // Inserts far beyond the extent drift an edge shard past 1.3x its
  // partition-time margin: the whole dataset re-partitions.
  const DatasetHandle old_shard = engine.catalog()
                                      .entry(request.a)
                                      .shards[0]
                                      .engine_handle;
  batch.clear();
  for (int k = 0; k < 200; ++k) {
    batch.push_back(Mutation{
        MutationKind::kInsert, kInvalidObjectId,
        CenteredBox(2000.0f + static_cast<float>(k), 2000.0f, 2000.0f)});
  }
  engine.ApplyMutations(request.a, batch);
  ASSERT_EQ(repartitions.Value(), 1u);
  EXPECT_NE(engine.catalog().entry(request.a).shards[0].engine_handle,
            old_shard);
  ExpectPairPlansMatchInnerEngine(engine, request,
                                  engine.Execute(request, out),
                                  "after a re-partition");
}

// --- Mutation routing and failure paths -------------------------------------

TEST(ShardedMutationRoutingTest, ExplicitInsertOfALiveIdIsANoOp) {
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine engine(options);
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 2000, 81);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2000, 82);
  const JoinRequest request{engine.RegisterDataset("A", a),
                            engine.RegisterDataset("B", b), 5.0f};
  VectorCollector before;
  ASSERT_TRUE(engine.Execute(request, before).merged.ok());

  // Id 5 is live: like DatasetCatalog, the sharded engine skips the insert
  // rather than moving or duplicating the object.
  const Mutation live_insert{MutationKind::kInsert, 5,
                             CenteredBox(990.0f, 990.0f, 990.0f)};
  engine.ApplyMutations(request.a, std::span(&live_insert, 1));
  size_t total = 0;
  for (int k = 0; k < 4; ++k) total += ShardCount(engine, request.a, k);
  EXPECT_EQ(total, a.size());
  VectorCollector after;
  ASSERT_TRUE(engine.Execute(request, after).merged.ok());
  std::vector<IdPair> lhs = before.pairs();
  std::vector<IdPair> rhs = after.pairs();
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_EQ(lhs, rhs);

  // The skipped insert claimed no id: the next auto-id insert (a copy of
  // B's first box, so it must meet it) still gets the first id past the
  // registration count.
  const Mutation fresh{MutationKind::kInsert, kInvalidObjectId, b[0]};
  engine.ApplyMutations(request.a, std::span(&fresh, 1));
  VectorCollector grown;
  ASSERT_TRUE(engine.Execute(request, grown).merged.ok());
  const IdPair expected(static_cast<uint32_t>(a.size()), 0);
  EXPECT_NE(std::find(grown.pairs().begin(), grown.pairs().end(), expected),
            grown.pairs().end());
}

TEST(ShardedEngineTest, FailingPairNamesItsShards) {
  EngineOptions options;
  options.shards = 2;
  options.threads = 1;
  // Fail exactly one pair's execution; the others complete normally.
  std::atomic<bool> failed{false};
  options.phase_observer = [&](RequestPhase phase) {
    if (phase == RequestPhase::kExecuting && !failed.exchange(true)) {
      throw std::runtime_error("injected pair failure");
    }
  };
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 2000, 91));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 2000, 92));
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 5.0f}, out);
  EXPECT_EQ(result.merged.status, RequestStatus::kError);
  EXPECT_EQ(result.merged.error.rfind("shard pair (", 0), 0u)
      << result.merged.error;
  EXPECT_NE(result.merged.error.find("injected pair failure"),
            std::string::npos)
      << result.merged.error;
  const size_t failed_pairs = std::count_if(
      result.pairs.begin(), result.pairs.end(), [](const ShardPairReport& p) {
        return p.status == RequestStatus::kError;
      });
  EXPECT_EQ(failed_pairs, 1u);
}

TEST(ShardedEngineTest, DefaultHandleGetReportsError) {
  ShardedRequestHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.pair_count(), 0u);
  EXPECT_FALSE(handle.Cancel());
  const ShardedJoinResult result = handle.Get();
  EXPECT_EQ(result.merged.status, RequestStatus::kError);
  EXPECT_NE(result.merged.error.find("invalid sharded request handle"),
            std::string::npos);
}

}  // namespace
}  // namespace touch
