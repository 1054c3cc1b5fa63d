// Differential oracle for the dynamic-dataset subsystem: every assertion
// here compares an *incremental* path against a recompute-from-scratch
// reference after randomized mutation batches.
//
//   - DatasetStats maintained across mutations must equal ComputeDatasetStats
//     over the current geometry bit-for-bit (extent min/max is a multiset
//     reduction, extent sums go through ExactSum, histogram counts are
//     integers — nothing is allowed to drift).
//   - A continuous join's folded delta stream (kAdded inserts, kRemoved
//     erases) must equal a full brute-force re-join of the current snapshots.
//   - A sharded engine fed the same mutation stream as an unsharded one must
//     produce the same result pair set in global id space.
//   - Versioned index-cache keys must prevent any post-mutation query from
//     being served by a stale artifact.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "datagen/distributions.h"
#include "datagen/neuro.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "test_util.h"
#include "util/exact_sum.h"
#include "util/rng.h"

namespace touch {
namespace {

// --- shared generators ------------------------------------------------------

Box RandomBox(Rng& rng, float space, float max_side, double reach) {
  // Centers may land outside [0, space] — up to `reach * space` — so
  // mutations also exercise the out-of-domain routing/clamping paths.
  const Vec3 center(static_cast<float>(rng.Uniform(-0.05, reach)) * space,
                    static_cast<float>(rng.Uniform(-0.05, reach)) * space,
                    static_cast<float>(rng.Uniform(-0.05, reach)) * space);
  const Vec3 half(rng.NextFloat() * max_side * 0.5f,
                  rng.NextFloat() * max_side * 0.5f,
                  rng.NextFloat() * max_side * 0.5f);
  return Box(center - half, center + half);
}

/// Client-side mirror of a mutating dataset: generates deterministic
/// insert/delete/update batches and tracks which ids are live. Inserts use
/// kInvalidObjectId and rely on the catalog's deterministic id assignment
/// (registration count, then +1 per applied insert in stream order).
/// Inserted and updated boxes have centers in [-0.05, reach] * space.
class MutationFuzzer {
 public:
  MutationFuzzer(uint64_t seed, size_t initial_count, float space,
                 double reach = 1.05)
      : rng_(seed), space_(space), reach_(reach) {
    live_.resize(initial_count);
    for (uint32_t i = 0; i < initial_count; ++i) live_[i] = i;
    next_id_ = static_cast<uint32_t>(initial_count);
  }

  std::vector<Mutation> NextBatch(int ops) {
    std::vector<Mutation> batch;
    batch.reserve(ops);
    for (int k = 0; k < ops; ++k) {
      const uint64_t dice = rng_.UniformInt(10);
      if (live_.empty() || dice < 4) {
        batch.push_back(Mutation{MutationKind::kInsert, kInvalidObjectId,
                                 RandomBox(rng_, space_, 6.0f, reach_)});
        live_.push_back(next_id_++);
      } else if (dice < 7) {
        const size_t pick = rng_.UniformInt(live_.size());
        batch.push_back(Mutation{MutationKind::kDelete, live_[pick], Box()});
        live_[pick] = live_.back();
        live_.pop_back();
      } else {
        const size_t pick = rng_.UniformInt(live_.size());
        batch.push_back(Mutation{MutationKind::kUpdate, live_[pick],
                                 RandomBox(rng_, space_, 6.0f, reach_)});
      }
    }
    return batch;
  }

 private:
  Rng rng_;
  float space_;
  double reach_;
  std::vector<uint32_t> live_;
  uint32_t next_id_ = 0;
};

/// Brute-force epsilon join of two snapshots, in stable id space.
std::set<IdPair> BruteForcePairs(const DatasetSnapshot& a,
                                 const DatasetSnapshot& b, float epsilon) {
  std::set<IdPair> pairs;
  for (size_t i = 0; i < a.boxes.size(); ++i) {
    const Box probe = a.boxes[i].Enlarged(epsilon);
    for (size_t j = 0; j < b.boxes.size(); ++j) {
      if (Intersects(probe, b.boxes[j])) {
        pairs.emplace(a.id_of(i), b.id_of(j));
      }
    }
  }
  return pairs;
}

/// Bit-for-bit comparison of incremental vs recomputed stats. Floating
/// fields are compared with ==, not a tolerance: the incremental path is
/// designed to be exactly order-independent (ExactSum for sums, min/max for
/// extents, integer histogram), so any ULP of drift is a bug.
void ExpectStatsBitEqual(const DatasetStats& incremental,
                         const DatasetStats& recomputed,
                         const std::string& context) {
  EXPECT_EQ(incremental.count, recomputed.count) << context;
  EXPECT_EQ(incremental.extent.lo, recomputed.extent.lo) << context;
  EXPECT_EQ(incremental.extent.hi, recomputed.extent.hi) << context;
  EXPECT_EQ(incremental.avg_object_extent, recomputed.avg_object_extent)
      << context;
  EXPECT_EQ(incremental.density, recomputed.density) << context;
  EXPECT_EQ(incremental.histogram_resolution, recomputed.histogram_resolution)
      << context;
  EXPECT_EQ(incremental.histogram, recomputed.histogram) << context;
}

// --- ExactSum sanity --------------------------------------------------------

TEST(ExactSumTest, SubtractExactlyInvertsAddInAnyOrder) {
  Rng rng(7);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back((rng.NextFloat() - 0.5f) * 1e6f);
  }
  ExactSum forward;
  for (float v : values) forward.Add(v);
  // Remove every value in a different order; the sum must return to an
  // exact zero, not an epsilon-ball around it.
  ExactSum drained = forward;
  std::reverse(values.begin(), values.end());
  for (float v : values) drained.Subtract(v);
  EXPECT_TRUE(drained.IsZero());
  EXPECT_EQ(drained.ToDouble(), 0.0);
  EXPECT_EQ(drained, ExactSum());
}

// --- incremental stats vs recompute-from-scratch ----------------------------

struct StatsCase {
  const char* name;
  Dataset (*make)(uint64_t seed);
};

Dataset MakeUniform(uint64_t seed) {
  return GenerateSynthetic(Distribution::kUniform, 1500, seed);
}
Dataset MakeClustered(uint64_t seed) {
  return GenerateSynthetic(Distribution::kClustered, 1500, seed);
}
Dataset MakeNeuro(uint64_t seed) {
  NeuroOptions options;
  options.neurons = 12;
  const NeuroModel model = GenerateNeuroscience(options, seed);
  return CylinderMbrs(model.axons);
}

class DynamicStatsTest : public ::testing::TestWithParam<StatsCase> {};

TEST_P(DynamicStatsTest, IncrementalStatsMatchRecomputeBitForBit) {
  const StatsCase& test_case = GetParam();
  DatasetCatalog catalog;
  const Dataset initial = test_case.make(11);
  const DatasetHandle handle = catalog.Register(test_case.name, initial);

  MutationFuzzer fuzzer(/*seed=*/101, initial.size(), /*space=*/1000.0f);
  for (int batch = 0; batch < 30; ++batch) {
    const std::vector<Mutation> muts = fuzzer.NextBatch(50);
    catalog.ApplyMutations(handle, muts);
    const DatasetSnapshotPtr snap = catalog.snapshot(handle);
    ASSERT_EQ(snap->version, static_cast<uint64_t>(batch + 1));
    const DatasetStats recomputed = ComputeDatasetStats(
        snap->boxes, std::max(1, snap->stats.histogram_resolution));
    ExpectStatsBitEqual(snap->stats, recomputed,
                        std::string(test_case.name) + " batch " +
                            std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, DynamicStatsTest,
                         ::testing::Values(StatsCase{"uniform", MakeUniform},
                                           StatsCase{"clustered",
                                                     MakeClustered},
                                           StatsCase{"neuro", MakeNeuro}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- continuous joins: folded deltas == full re-join ------------------------

/// Folded view of a delta stream. Kept behind a shared_ptr *outside* the
/// sink: the engine owns (and frees) the sink itself when the request
/// delivers, so the test must not read through the sink after Cancel.
struct FoldState {
  std::set<IdPair> pairs;
  uint64_t deltas = 0;
  std::vector<RequestStatus> completions;
};

class FoldingSink : public ResultSink {
 public:
  explicit FoldingSink(std::shared_ptr<FoldState> state)
      : state_(std::move(state)) {}
  void Emit(uint32_t, uint32_t) override {}
  void EmitDelta(DeltaKind kind, uint32_t a_id, uint32_t b_id) override {
    ++state_->deltas;
    if (kind == DeltaKind::kAdded) {
      const bool inserted = state_->pairs.emplace(a_id, b_id).second;
      EXPECT_TRUE(inserted) << "duplicate kAdded for (" << a_id << ", "
                            << b_id << ")";
    } else {
      const bool erased = state_->pairs.erase(IdPair(a_id, b_id)) > 0;
      EXPECT_TRUE(erased) << "kRemoved for absent (" << a_id << ", " << b_id
                          << ")";
    }
  }
  void OnComplete(const JoinResult& result) override {
    state_->completions.push_back(result.status);
  }

 private:
  std::shared_ptr<FoldState> state_;
};

TEST(ContinuousJoinTest, FoldedDeltaStreamEqualsFullRejoin) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 400, 21));
  const DatasetHandle b = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kClustered, 400, 22));
  const float epsilon = 25.0f;

  auto fold = std::make_shared<FoldState>();
  JoinRequest request{a, b, epsilon};
  request.continuous = true;
  RequestHandle handle =
      engine.Submit(request, std::make_unique<FoldingSink>(fold));
  ASSERT_TRUE(handle.valid());

  // The baseline burst must already equal the static join.
  EXPECT_EQ(fold->pairs,
            BruteForcePairs(*engine.catalog().snapshot(a),
                            *engine.catalog().snapshot(b), epsilon));

  MutationFuzzer fuzz_a(/*seed=*/31, 400, /*space=*/1000.0f);
  MutationFuzzer fuzz_b(/*seed=*/32, 400, /*space=*/1000.0f);
  for (int batch = 0; batch < 12; ++batch) {
    // Alternate which side mutates: subscriptions must probe correctly
    // whether the mutated dataset is the request's A or its B.
    if (batch % 2 == 0) {
      engine.ApplyMutations(a, fuzz_a.NextBatch(40));
    } else {
      engine.ApplyMutations(b, fuzz_b.NextBatch(40));
    }
    EXPECT_EQ(fold->pairs,
              BruteForcePairs(*engine.catalog().snapshot(a),
                              *engine.catalog().snapshot(b), epsilon))
        << "batch " << batch;
  }
  EXPECT_GT(fold->deltas, 0u);

  // Cancel unsubscribes: exactly one (cancelled) completion, and further
  // mutations must not reach the sink.
  EXPECT_TRUE(handle.Cancel());
  const JoinResult final_result = handle.Get();
  EXPECT_EQ(final_result.status, RequestStatus::kCancelled);
  ASSERT_EQ(fold->completions.size(), 1u);
  EXPECT_EQ(fold->completions[0], RequestStatus::kCancelled);
  const uint64_t deltas_at_cancel = fold->deltas;
  engine.ApplyMutations(a, fuzz_a.NextBatch(40));
  EXPECT_EQ(fold->deltas, deltas_at_cancel);
}

TEST(ContinuousJoinTest, RejectsMissingSinkAndSelfJoin) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 50, 5));
  JoinRequest request{a, a, 1.0f};
  request.continuous = true;
  JoinResult no_sink = engine.Submit(request).Get();
  EXPECT_EQ(no_sink.status, RequestStatus::kError);
  JoinResult self_join =
      engine
          .Submit(request, std::make_unique<FoldingSink>(
                               std::make_shared<FoldState>()))
          .Get();
  EXPECT_EQ(self_join.status, RequestStatus::kError);
}

// --- sharded vs unsharded under mutation ------------------------------------

std::set<IdPair> CollectPairs(const std::vector<IdPair>& pairs) {
  return std::set<IdPair>(pairs.begin(), pairs.end());
}

TEST(ShardedMutationTest, ShardedEqualsUnshardedUnderMutation) {
  const Dataset initial_a = GenerateSynthetic(Distribution::kClustered, 800, 41);
  const Dataset initial_b = GenerateSynthetic(Distribution::kUniform, 800, 42);
  const float epsilon = 15.0f;

  QueryEngine flat;
  const DatasetHandle flat_a = flat.RegisterDataset("A", initial_a);
  const DatasetHandle flat_b = flat.RegisterDataset("B", initial_b);

  EngineOptions sharded_options;
  sharded_options.shards = 4;
  // A tight drift threshold, and a stream that inserts and moves boxes up
  // to twice the registration extent (routing clamps them into the edge
  // shards, whose MBRs then outgrow 1.3x), so RepartitionLocked really
  // runs, not just the routing fast path.
  sharded_options.shard_repartition_drift = 1.3;
  ShardedQueryEngine sharded(sharded_options);
  const DatasetHandle shard_a = sharded.RegisterDataset("A", initial_a);
  const DatasetHandle shard_b = sharded.RegisterDataset("B", initial_b);

  // Two identical fuzzers: both engines see the exact same stream, so ids
  // assigned to inserts must line up between them.
  MutationFuzzer flat_fuzz(/*seed=*/77, initial_a.size(), 1000.0f,
                           /*reach=*/2.0);
  MutationFuzzer shard_fuzz(/*seed=*/77, initial_a.size(), 1000.0f,
                            /*reach=*/2.0);
  for (int batch = 0; batch < 10; ++batch) {
    const std::vector<Mutation> flat_muts = flat_fuzz.NextBatch(80);
    const std::vector<Mutation> shard_muts = shard_fuzz.NextBatch(80);
    const uint64_t flat_version = flat.ApplyMutations(flat_a, flat_muts);
    const uint64_t shard_version =
        sharded.ApplyMutations(shard_a, shard_muts);
    EXPECT_EQ(flat_version, shard_version) << "batch " << batch;

    const JoinRequest request{flat_a, flat_b, epsilon};
    VectorCollector flat_out;
    const JoinResult flat_result = flat.Execute(request, flat_out);
    ASSERT_EQ(flat_result.status, RequestStatus::kOk) << flat_result.error;

    const JoinRequest shard_request{shard_a, shard_b, epsilon};
    VectorCollector shard_out;
    const ShardedJoinResult shard_result =
        sharded.Execute(shard_request, shard_out);
    ASSERT_EQ(shard_result.merged.status, RequestStatus::kOk)
        << shard_result.merged.error;

    EXPECT_EQ(CollectPairs(flat_out.pairs()), CollectPairs(shard_out.pairs()))
        << "batch " << batch;
    // Both must also agree with the brute-force oracle over the unsharded
    // snapshots.
    EXPECT_EQ(CollectPairs(flat_out.pairs()),
              BruteForcePairs(*flat.catalog().snapshot(flat_a),
                              *flat.catalog().snapshot(flat_b), epsilon))
        << "batch " << batch;
  }
  EXPECT_GE(sharded.engine()
                .metrics()
                .counter("touch_shard_repartitions_total")
                .Value(),
            1u)
      << "the stream never drifted a shard past the re-partition threshold";
}

// --- versioned index-cache keys (latent-bug regression) ---------------------

TEST(VersionedCacheTest, MutationInvalidatesStaleArtifactsOnFirstQuery) {
  EngineOptions options;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 600, 51));
  const DatasetHandle b = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 600, 52));
  const JoinRequest request{a, b, 20.0f};

  // Warm the cache: second identical run must be a full artifact hit.
  VectorCollector cold;
  ASSERT_EQ(engine.ExecuteFixed("touch", request, cold).status,
            RequestStatus::kOk);
  VectorCollector warm;
  const JoinResult warm_result = engine.ExecuteFixed("touch", request, warm);
  EXPECT_TRUE(warm_result.index_cache_hit);

  // Mutate A; the versioned key must make the next query miss (and the
  // stale artifact's eviction must be counted in cache telemetry).
  const IndexCache::Stats before = engine.cache_stats();
  std::vector<Mutation> muts;
  muts.push_back(Mutation{MutationKind::kDelete, 0, Box()});
  muts.push_back(Mutation{MutationKind::kInsert, kInvalidObjectId,
                          Box(Vec3(0, 0, 0), Vec3(3, 3, 3))});
  engine.ApplyMutations(a, muts);
  const IndexCache::Stats after_invalidate = engine.cache_stats();
  EXPECT_GT(after_invalidate.evictions, before.evictions)
      << "stale artifact was not evicted on mutation";

  VectorCollector post;
  const JoinResult post_result = engine.ExecuteFixed("touch", request, post);
  ASSERT_EQ(post_result.status, RequestStatus::kOk) << post_result.error;
  EXPECT_FALSE(post_result.index_cache_hit)
      << "post-mutation query was served by a stale artifact";
  EXPECT_EQ(CollectPairs(post.pairs()),
            BruteForcePairs(*engine.catalog().snapshot(a),
                            *engine.catalog().snapshot(b), request.epsilon));
}

// --- 10k-mutation randomized acceptance run ---------------------------------

TEST(DynamicAcceptanceTest, TenThousandMutationsStayConsistent) {
  QueryEngine engine;
  const Dataset initial_a = GenerateSynthetic(Distribution::kClustered, 1200, 61);
  const Dataset initial_b = GenerateSynthetic(Distribution::kUniform, 1200, 62);
  const DatasetHandle a = engine.RegisterDataset("A", initial_a);
  const DatasetHandle b = engine.RegisterDataset("B", initial_b);
  const float epsilon = 10.0f;

  MutationFuzzer fuzz_a(/*seed=*/91, initial_a.size(), 1000.0f);
  MutationFuzzer fuzz_b(/*seed=*/92, initial_b.size(), 1000.0f);
  constexpr int kBatches = 100;
  constexpr int kOpsPerBatch = 100;  // 10k mutations total, split over A and B
  for (int batch = 0; batch < kBatches; ++batch) {
    if (batch % 2 == 0) {
      engine.ApplyMutations(a, fuzz_a.NextBatch(kOpsPerBatch));
    } else {
      engine.ApplyMutations(b, fuzz_b.NextBatch(kOpsPerBatch));
    }
    // Stats oracle on the mutated side, every batch.
    const DatasetHandle mutated = batch % 2 == 0 ? a : b;
    const DatasetSnapshotPtr snap = engine.catalog().snapshot(mutated);
    const DatasetStats recomputed = ComputeDatasetStats(
        snap->boxes, std::max(1, snap->stats.histogram_resolution));
    ExpectStatsBitEqual(snap->stats, recomputed,
                        "batch " + std::to_string(batch));
    if (::testing::Test::HasFailure()) break;
    // Join oracle sampled every 10th batch (the planner is free to pick any
    // algorithm; whatever it picks must match brute force in id space).
    if (batch % 10 == 9) {
      VectorCollector out;
      const JoinResult result =
          engine.Execute(JoinRequest{a, b, epsilon}, out);
      ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
      EXPECT_EQ(CollectPairs(out.pairs()),
                BruteForcePairs(*engine.catalog().snapshot(a),
                                *engine.catalog().snapshot(b), epsilon))
          << "batch " << batch;
    }
  }
}

}  // namespace
}  // namespace touch
