// Tests of the morsel-parallel TOUCH phases: whatever the runner count, the
// join emits the single runner's exact pair sequence and reports the same
// counters; only wall-clock may vary.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/morsel.h"
#include "core/touch.h"
#include "datagen/distributions.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/rng.h"

// Set on a thread to make that thread's next allocation fail: how the tests
// below make a helper's morsel throw. Every replaceable form of the global
// allocation functions is defined here, so memory never crosses between
// these and a sanitizer's own.
namespace {
thread_local bool fail_next_allocation = false;

void* Allocate(std::size_t size, std::size_t alignment, bool nothrow) {
  if (fail_next_allocation) {
    fail_next_allocation = false;
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  if (size == 0) size = 1;
  void* block =
      alignment <= alignof(std::max_align_t)
          ? std::malloc(size)
          : std::aligned_alloc(alignment,
                               (size + alignment - 1) / alignment * alignment);
  if (block == nullptr && !nothrow) throw std::bad_alloc();
  return block;
}

constexpr std::size_t kDefaultAlignment = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t size) {
  return Allocate(size, kDefaultAlignment, false);
}
void* operator new[](std::size_t size) {
  return Allocate(size, kDefaultAlignment, false);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kDefaultAlignment, true);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, kDefaultAlignment, true);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return Allocate(size, static_cast<std::size_t>(alignment), false);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return Allocate(size, static_cast<std::size_t>(alignment), false);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(alignment), true);
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, static_cast<std::size_t>(alignment), true);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::size_t, std::align_val_t) noexcept {
  std::free(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace touch {
namespace {

struct Emitted {
  std::vector<IdPair> sequence;  // in the order the sink saw them
  JoinStats stats;
};

Emitted RunInOrder(const TouchOptions& options, const Dataset& a,
                   const Dataset& b) {
  TouchJoin join(options);
  VectorCollector out;
  Emitted emitted;
  emitted.stats = join.Join(a, b, out);
  emitted.sequence = out.pairs();
  return emitted;
}

void ExpectSameAsSingleRunner(TouchOptions options, const Dataset& a,
                              const Dataset& b, int runners) {
  options.threads = 1;
  const Emitted single = RunInOrder(options, a, b);
  options.threads = runners;
  const Emitted many = RunInOrder(options, a, b);
  EXPECT_EQ(many.sequence, single.sequence) << runners << " runners";
  EXPECT_EQ(many.stats.comparisons, single.stats.comparisons);
  EXPECT_EQ(many.stats.node_comparisons, single.stats.node_comparisons);
  EXPECT_EQ(many.stats.filtered, single.stats.filtered);
  EXPECT_EQ(many.stats.results, single.stats.results);
  EXPECT_EQ(many.stats.results, single.sequence.size());
  EXPECT_EQ(many.stats.memory_bytes, single.stats.memory_bytes);
}

// Build items scattered through the cube and probe rods spanning it along
// x. Both children of this tree's root span the whole x and y range and
// split z near the top of the cube, so every rod below that split overlaps
// both and is assigned to the root: one node holds all the work.
Dataset ScatteredItems(size_t count, uint64_t seed) {
  Rng rng(seed);
  Dataset boxes;
  for (size_t i = 0; i < count; ++i) {
    const float x = static_cast<float>(rng.Uniform(0, 1000));
    const float y = static_cast<float>(rng.Uniform(0, 1000));
    const float z = static_cast<float>(rng.Uniform(0, 1000));
    boxes.push_back(MakeBox(x, y, z, x + 2, y + 2, z + 2));
  }
  return boxes;
}

Dataset RodsAlongX(size_t count, uint64_t seed) {
  Rng rng(seed);
  Dataset rods;
  for (size_t i = 0; i < count; ++i) {
    const float y = static_cast<float>(rng.Uniform(0, 970));
    const float z = static_cast<float>(rng.Uniform(10, 840));
    rods.push_back(MakeBox(0, y, z, 1000, y + 30, z + 30));
  }
  return rods;
}

class TouchParallelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    a_ = GenerateSynthetic(Distribution::kClustered, 3000, 111);
    for (Box& box : a_) box = box.Enlarged(6.0f);
    b_ = GenerateSynthetic(Distribution::kClustered, 6000, 112);
  }
  Dataset a_;
  Dataset b_;
};

TEST_P(TouchParallelTest, ResultsMatchSequentialRun) {
  TouchJoin sequential;
  const auto expected = RunJoinSorted(sequential, a_, b_);

  TouchOptions opt;
  opt.threads = GetParam();
  TouchJoin parallel(opt);
  JoinStats stats;
  EXPECT_EQ(RunJoinSorted(parallel, a_, b_, &stats), expected);
  EXPECT_EQ(stats.results, expected.size());
}

TEST_P(TouchParallelTest, CountersMatchSequentialRun) {
  TouchJoin sequential;
  JoinStats seq_stats;
  RunJoinSorted(sequential, a_, b_, &seq_stats);

  TouchOptions opt;
  opt.threads = GetParam();
  TouchJoin parallel(opt);
  JoinStats par_stats;
  RunJoinSorted(parallel, a_, b_, &par_stats);
  // The same local joins run, just on different threads.
  EXPECT_EQ(par_stats.comparisons, seq_stats.comparisons);
  EXPECT_EQ(par_stats.filtered, seq_stats.filtered);
  EXPECT_EQ(par_stats.results, seq_stats.results);
}

TEST_P(TouchParallelTest, EmittedSequenceAndStatsMatchSingleRunner) {
  ExpectSameAsSingleRunner(TouchOptions{}, a_, b_, GetParam());
}

TEST_P(TouchParallelTest, SwappedBuildSideKeepsTheSequence) {
  // kAuto builds on the smaller input: here B, so pairs are flipped back.
  ExpectSameAsSingleRunner(TouchOptions{}, b_, a_, GetParam());
}

TEST_P(TouchParallelTest, DominantNodeSplitKeepsTheSequence) {
  TouchOptions options;
  options.join_order = TouchOptions::JoinOrder::kBuildOnA;
  ExpectSameAsSingleRunner(options, ScatteredItems(20000, 117),
                           RodsAlongX(1500, 118), GetParam());
}

TEST_P(TouchParallelTest, EveryLocalJoinStrategyKeepsTheSequence) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 1500, 115);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2500, 116);
  for (const LocalJoinStrategy strategy :
       {LocalJoinStrategy::kGrid, LocalJoinStrategy::kPlaneSweep,
        LocalJoinStrategy::kNestedLoop}) {
    SCOPED_TRACE(LocalJoinStrategyName(strategy));
    TouchOptions options;
    options.local_join = strategy;
    ExpectSameAsSingleRunner(options, a, b, GetParam());
  }
}

// TouchOptions::threads is capped at the host's cores; the TestHelpers
// tests below run eight runners on any host.
INSTANTIATE_TEST_SUITE_P(ThreadCounts, TouchParallelTest,
                         ::testing::Values(1, 2, 4, 8));

// The morsel figures the join attaches to its phase spans.
struct PhaseAttrs {
  long morsels = -1;
  long helpers = -1;
  bool has_max_morsel_ms = false;
};

PhaseAttrs FindPhase(const Tracer& tracer, const std::string& name) {
  PhaseAttrs attrs;
  for (const SpanRecord& record : tracer.Snapshot()) {
    if (record.name != name) continue;
    for (const auto& [key, value] : record.attrs) {
      if (key == "morsels") attrs.morsels = std::stol(value);
      if (key == "helpers") attrs.helpers = std::stol(value);
      if (key == "max_morsel_ms") attrs.has_max_morsel_ms = true;
    }
  }
  return attrs;
}

TEST(TouchMorselTest, DominantNodeIsSplitIntoItemMorsels) {
  const Dataset items = ScatteredItems(20000, 117);
  const Dataset rods = RodsAlongX(1500, 118);
  TouchOptions options;
  options.join_order = TouchOptions::JoinOrder::kBuildOnA;

  // Precondition, through the public tree API: every rod overlaps two
  // children of the root, so the root is the only node with entities.
  const TouchTree tree(items, (items.size() + options.partitions - 1) /
                                  options.partitions,
                       options.fanout);
  const TouchTree::Node& root = tree.nodes()[tree.root()];
  for (const Box& rod : rods) {
    int overlapped = 0;
    for (uint32_t c = 0; c < root.children_count; ++c) {
      const uint32_t child = tree.child_ids()[root.children_begin + c];
      if (Intersects(rod, tree.nodes()[child].mbr)) ++overlapped;
    }
    ASSERT_GE(overlapped, 2);
  }

  Tracer tracer;
  JoinStats stats;
  std::vector<IdPair> pairs;
  {
    SpanScope test_span(TraceContext{&tracer, tracer.NewTraceId(), 0},
                        "test");
    TouchJoin join(options);
    VectorCollector out;
    stats = join.Join(items, rods, out);
    pairs = out.pairs();
  }
  // One node with entities and at least two morsels: its items were split.
  const PhaseAttrs local_join = FindPhase(tracer, "touch-local-join");
  EXPECT_GE(local_join.morsels, 2);
  EXPECT_EQ(local_join.helpers, 0);  // threads = 1: the caller alone
  EXPECT_TRUE(local_join.has_max_morsel_ms);
  const PhaseAttrs assign = FindPhase(tracer, "touch-assign");
  EXPECT_GE(assign.morsels, 1);
  EXPECT_EQ(assign.helpers, 0);
  EXPECT_TRUE(assign.has_max_morsel_ms);

  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, OracleJoin(items, rods));
  EXPECT_EQ(stats.results, pairs.size());
}

TEST(TouchParallelEdgeTest, ParallelDistanceJoinMatches) {
  const Dataset a = GenerateSynthetic(Distribution::kGaussian, 2000, 113);
  const Dataset b = GenerateSynthetic(Distribution::kGaussian, 4000, 114);

  TouchJoin sequential;
  VectorCollector seq_out;
  DistanceJoin(sequential, a, b, 7.5f, seq_out);

  TouchOptions opt;
  opt.threads = 4;
  TouchJoin parallel(opt);
  VectorCollector par_out;
  DistanceJoin(parallel, a, b, 7.5f, par_out);
  EXPECT_EQ(par_out.pairs(), seq_out.pairs());
}

TEST(TouchParallelEdgeTest, TinyInputsWithManyThreads) {
  Dataset a = {CenteredBox(5, 5, 5), CenteredBox(6, 5, 5)};
  Dataset b = {CenteredBox(5, 5, 5)};
  TouchOptions opt;
  opt.threads = 16;
  TouchJoin join(opt);
  EXPECT_EQ(RunJoinSorted(join, a, b), OracleJoin(a, b));
}

TEST(TouchParallelEdgeTest, AllLocalJoinStrategiesParallelize) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 1500, 115);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2500, 116);
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(9.0f);
  const auto oracle = OracleJoin(enlarged, b);

  for (const LocalJoinStrategy strategy :
       {LocalJoinStrategy::kGrid, LocalJoinStrategy::kPlaneSweep,
        LocalJoinStrategy::kNestedLoop}) {
    TouchOptions opt;
    opt.threads = 4;
    opt.local_join = strategy;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, enlarged, b), oracle)
        << LocalJoinStrategyName(strategy);
  }
}

// A sink that runs a join of its own inside Emit: the nested join must not
// reuse the scratch (and grid) the outer join's helpers may be reading.
class NestedJoinCollector : public ResultCollector {
 public:
  NestedJoinCollector(const Dataset& a, const Dataset& b) : a_(a), b_(b) {}
  void Emit(uint32_t a_id, uint32_t b_id) override {
    outer_.emplace_back(a_id, b_id);
    if (outer_.size() == 1) {
      TouchJoin inner;
      inner_ = RunJoinSorted(inner, a_, b_);
    }
  }
  std::vector<IdPair> outer_;
  std::vector<IdPair> inner_;

 private:
  const Dataset& a_;
  const Dataset& b_;
};

TEST(TouchParallelEdgeTest, JoinNestedInsideEmitLeavesTheOuterJoinIntact) {
  const Dataset items = ScatteredItems(20000, 117);
  const Dataset rods = RodsAlongX(1500, 118);
  const Dataset small_a = GenerateSynthetic(Distribution::kUniform, 500, 119);
  const Dataset small_b = GenerateSynthetic(Distribution::kUniform, 800, 120);
  TouchOptions options;
  options.join_order = TouchOptions::JoinOrder::kBuildOnA;
  options.threads = 4;
  TouchJoin join(options);
  NestedJoinCollector out(small_a, small_b);
  join.Join(items, rods, out);

  options.threads = 1;
  EXPECT_EQ(out.outer_, RunInOrder(options, items, rods).sequence);
  EXPECT_EQ(out.inner_, OracleJoin(small_a, small_b));
}

// Helpers on threads of the test's own, as many as asked for whatever the
// host's core count (TouchOptions::threads is capped at it). `wait` runs
// each loop's helpers to the end inside Offer, before the caller claims a
// morsel: they take every morsel but the ones they fail on.
// `fail_first_allocation` makes each helper's first allocation throw.
class TestHelpers final : public MorselHelpers {
 public:
  TestHelpers(int threads, bool wait, bool fail_first_allocation)
      : threads_(threads), wait_(wait), fail_(fail_first_allocation) {}
  ~TestHelpers() override { JoinAll(); }
  TestHelpers(const TestHelpers&) = delete;
  TestHelpers& operator=(const TestHelpers&) = delete;

  int Offer(int max_helpers, const std::function<void()>& help) override {
    JoinAll();
    const int count = std::min(max_helpers, threads_);
    for (int i = 0; i < count; ++i) {
      running_.emplace_back([help, fail = fail_] {
        fail_next_allocation = fail;
        help();
        fail_next_allocation = false;
      });
    }
    if (wait_) JoinAll();
    return count;
  }

 private:
  void JoinAll() {
    for (std::thread& thread : running_) thread.join();
    running_.clear();
  }

  const int threads_;
  const bool wait_;
  const bool fail_;
  std::vector<std::thread> running_;
};

// The dominant-node inputs joined over a prebuilt tree with `helpers`.
class PrebuiltTreeJoin {
 public:
  PrebuiltTreeJoin()
      : items_(ScatteredItems(20000, 117)),
        rods_(RodsAlongX(1500, 118)),
        tree_(items_, (items_.size() + TouchOptions{}.partitions - 1) /
                          TouchOptions{}.partitions,
              TouchOptions{}.fanout) {}

  Emitted Run(MorselHelpers* helpers) const {
    TouchJoin join;
    VectorCollector out;
    Emitted emitted;
    emitted.stats = join.JoinWithPrebuiltTree(tree_, items_, rods_, out, 0.0f,
                                              CancellationToken(), helpers);
    emitted.sequence = out.pairs();
    return emitted;
  }

 private:
  Dataset items_;
  Dataset rods_;
  TouchTree tree_;
};

TEST(TouchMorselHelpersTest, EightRunnersKeepTheSequence) {
  const PrebuiltTreeJoin join;
  const Emitted single = join.Run(nullptr);
  ASSERT_FALSE(single.sequence.empty());
  EXPECT_EQ(single.stats.helper_seconds, 0.0);
  TestHelpers helpers(/*threads=*/7, /*wait=*/false,
                      /*fail_first_allocation=*/false);
  const Emitted many = join.Run(&helpers);
  EXPECT_EQ(many.sequence, single.sequence);
  EXPECT_EQ(many.stats.comparisons, single.stats.comparisons);
  EXPECT_EQ(many.stats.node_comparisons, single.stats.node_comparisons);
  EXPECT_EQ(many.stats.filtered, single.stats.filtered);
  EXPECT_EQ(many.stats.results, single.stats.results);
}

TEST(TouchMorselHelpersTest, HelperSecondsCountTheHelpersWork) {
  const PrebuiltTreeJoin join;
  const Emitted single = join.Run(nullptr);
  // The helper runs every morsel before the caller claims one, so the
  // caller never waits and all the morsel time is the helper's.
  TestHelpers helpers(/*threads=*/1, /*wait=*/true,
                      /*fail_first_allocation=*/false);
  const Emitted helped = join.Run(&helpers);
  EXPECT_EQ(helped.sequence, single.sequence);
  EXPECT_GT(helped.stats.helper_seconds, 0.0);
}

TEST(TouchMorselHelpersTest, HelperFailureIsRethrownByTheCaller) {
  const PrebuiltTreeJoin join;
  // The helper fails its first morsel that allocates and leaves; the
  // caller runs the rest. The failed morsel's pairs are missing, so the
  // join must throw rather than return a short result.
  TestHelpers helpers(/*threads=*/1, /*wait=*/true,
                      /*fail_first_allocation=*/true);
  EXPECT_THROW(join.Run(&helpers), std::bad_alloc);
  // The failed join released this thread's scratch: the next one is whole.
  TestHelpers healthy(/*threads=*/1, /*wait=*/true,
                      /*fail_first_allocation=*/false);
  EXPECT_EQ(join.Run(&healthy).sequence, join.Run(nullptr).sequence);
}

}  // namespace
}  // namespace touch
