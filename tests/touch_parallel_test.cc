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

#include "core/touch.h"
#include "core/touch_scratch.h"
#include "datagen/distributions.h"
#include "morsel_test_helpers.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/morsel.h"
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

// A small join on a thread whose scratch last served a tree of millions of
// nodes. Its assignment morsels left per-node counts too large for the
// scratch budget, so the lease's Trim releases them; the counts and the
// list of nodes they hold go together, and the next, smaller join never
// clears a count past the end of its own array. (A join whose tree is big
// enough for that needs hundreds of megabytes, so the test puts the
// scratch in the state it leaves.)
TEST(TouchParallelEdgeTest, SmallJoinAfterTrimmedNodeCountsOnTheSameThread) {
  {
    ScratchLease lease;
    NodeCounter& counter = lease.get().node_counts;
    constexpr size_t kNodes = 5'000'000;
    counter.Start(kNodes, 1);
    counter.Add(kNodes - 1);
    ASSERT_GT(counter.CapacityBytes(), kRetainedScratchBytes);
  }
  {
    ScratchLease lease;  // the same thread's scratch, trimmed
    EXPECT_LE(lease.get().node_counts.CapacityBytes(), kRetainedScratchBytes);
  }
  Dataset a = GenerateSynthetic(Distribution::kClustered, 2000, 121);
  for (Box& box : a) box = box.Enlarged(6.0f);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 3000, 122);
  TouchOptions options;
  options.threads = 1;  // assignment runs on this thread's scratch
  options.leaf_capacity = 4;
  TouchJoin join(options);
  JoinStats stats;
  const std::vector<IdPair> expected = OracleJoin(a, b);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(RunJoinSorted(join, a, b, &stats), expected);
  EXPECT_EQ(stats.results, expected.size());
  // And again, on the counts the first small join left.
  EXPECT_EQ(RunJoinSorted(join, a, b), expected);
}

// Makes the first allocation of the helper thread it wraps throw.
void FailFirstAllocation(const std::function<void()>& help) {
  fail_next_allocation = true;
  help();
  fail_next_allocation = false;
}

// Inputs joined over a prebuilt tree with `helpers`; by default the
// dominant-node inputs.
class PrebuiltTreeJoin {
 public:
  PrebuiltTreeJoin()
      : PrebuiltTreeJoin(ScatteredItems(20000, 117), RodsAlongX(1500, 118)) {}
  PrebuiltTreeJoin(Dataset items, Dataset rods)
      : items_(std::move(items)),
        rods_(std::move(rods)),
        tree_(items_, (items_.size() + TouchOptions{}.partitions - 1) /
                          TouchOptions{}.partitions,
              TouchOptions{}.fanout) {}

  Emitted Run(MorselHelpers* helpers,
              CancellationToken cancel = CancellationToken()) const {
    TouchJoin join;
    VectorCollector out;
    Emitted emitted;
    emitted.stats = join.JoinWithPrebuiltTree(tree_, items_, rods_, out, 0.0f,
                                              std::move(cancel), helpers);
    emitted.sequence = out.pairs();
    return emitted;
  }

  const Dataset& items() const { return items_; }
  const Dataset& rods() const { return rods_; }

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
  TestHelpers helpers(/*threads=*/7, /*wait=*/false);
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
  TestHelpers helpers(/*threads=*/1, /*wait=*/true);
  const Emitted helped = join.Run(&helpers);
  EXPECT_EQ(helped.sequence, single.sequence);
  EXPECT_GT(helped.stats.helper_seconds, 0.0);
}

TEST(TouchMorselHelpersTest, HelperFailureIsRethrownByTheCaller) {
  const PrebuiltTreeJoin join;
  // The helper fails its first morsel that allocates and leaves; the
  // caller runs the rest. The failed morsel's pairs are missing, so the
  // join must throw rather than return a short result.
  TestHelpers helpers(/*threads=*/1, /*wait=*/true, FailFirstAllocation);
  EXPECT_THROW(join.Run(&helpers), std::bad_alloc);
  // The failed join released this thread's scratch: the next one is whole.
  TestHelpers healthy(/*threads=*/1, /*wait=*/true);
  EXPECT_EQ(join.Run(&healthy).sequence, join.Run(nullptr).sequence);
}

// FNV-1a over the ids of a pair sequence, in order.
uint64_t SequenceHash(const std::vector<IdPair>& sequence) {
  uint64_t hash = 1469598103934665603ull;
  for (const auto& [a_id, b_id] : sequence) {
    for (const uint32_t id : {a_id, b_id}) {
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (id >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ull;
      }
    }
  }
  return hash;
}

// The single runner emits `golden_hash`'s sequence over `join`'s inputs,
// and every runner count and schedule emits it too, with the same
// counters. The goldens pin the sequence the single-runner join emitted
// before split nodes scattered their grids by x-part: a change to the
// order of any cell's entities changes it.
void ExpectHelpersKeepTheSequence(const PrebuiltTreeJoin& join,
                                  uint64_t golden_hash) {
  const Emitted single = join.Run(nullptr);
  ASSERT_FALSE(single.sequence.empty());
  EXPECT_EQ(SequenceHash(single.sequence), golden_hash);
  std::vector<IdPair> sorted = single.sequence;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, OracleJoin(join.items(), join.rods()));
  for (const auto& [threads, wait] :
       {std::pair{1, false}, std::pair{3, false}, std::pair{7, false},
        std::pair{3, true}}) {
    SCOPED_TRACE(testing::Message() << threads << " helpers, wait " << wait);
    TestHelpers helpers(threads, wait);
    const Emitted many = join.Run(&helpers);
    EXPECT_EQ(many.sequence, single.sequence);
    EXPECT_EQ(many.stats.comparisons, single.stats.comparisons);
    EXPECT_EQ(many.stats.node_comparisons, single.stats.node_comparisons);
    EXPECT_EQ(many.stats.filtered, single.stats.filtered);
    EXPECT_EQ(many.stats.results, single.stats.results);
    EXPECT_EQ(many.stats.memory_bytes, single.stats.memory_bytes);
  }
}

// The local-join span's wall time of split-node scatters, -1 when absent.
double ScatterMs(const Tracer& tracer) {
  for (const SpanRecord& record : tracer.Snapshot()) {
    if (record.name != "touch-local-join") continue;
    for (const auto& [key, value] : record.attrs) {
      if (key == "scatter_ms") return std::stod(value);
    }
  }
  return -1;
}

TEST(TouchScatterPartsTest, SplitNodeNarrowerThanThePartCount) {
  // Items in a slab 20 wide along x: with cells at least 4x the 2-wide
  // items, every node's grid is at most 3 cells wide along x, fewer than
  // the scatter's x-parts, so the split root scatters over fewer parts.
  Rng rng(121);
  Dataset items;
  for (int i = 0; i < 20000; ++i) {
    const float x = static_cast<float>(rng.Uniform(0, 20));
    const float y = static_cast<float>(rng.Uniform(0, 1000));
    const float z = static_cast<float>(rng.Uniform(0, 1000));
    items.push_back(MakeBox(x, y, z, x + 2, y + 2, z + 2));
  }
  Dataset rods;
  for (int i = 0; i < 1500; ++i) {
    const float y = static_cast<float>(rng.Uniform(0, 970));
    const float z = static_cast<float>(rng.Uniform(10, 840));
    rods.push_back(MakeBox(0, y, z, 22, y + 30, z + 30));
  }
  const PrebuiltTreeJoin join(items, rods);
  // Precondition: a split node was scattered.
  Tracer tracer;
  {
    SpanScope test_span(TraceContext{&tracer, tracer.NewTraceId(), 0},
                        "test");
    join.Run(nullptr);
  }
  EXPECT_GT(ScatterMs(tracer), 0.0);
  ExpectHelpersKeepTheSequence(join, 0x15be4d32678b8048ull);
}

TEST(TouchScatterPartsTest, EntitiesSpanningEveryPart) {
  // Rods along the whole x range of the cube: the root's grid is far wider
  // than the part count along x, and every rod reaches every part.
  ExpectHelpersKeepTheSequence(PrebuiltTreeJoin(), 0x943c6f0c04eedba7ull);
}

TEST(TouchScatterPartsTest, EntitiesSpanningSomeParts) {
  Rng rng(122);
  Dataset rods;
  for (int i = 0; i < 1500; ++i) {
    const float x = static_cast<float>(rng.Uniform(0, 700));
    const float y = static_cast<float>(rng.Uniform(0, 970));
    const float z = static_cast<float>(rng.Uniform(10, 840));
    rods.push_back(MakeBox(x, y, z, x + 300, y + 30, z + 30));
  }
  ExpectHelpersKeepTheSequence(
      PrebuiltTreeJoin(ScatteredItems(20000, 117), std::move(rods)),
      0xecd3097751406fe5ull);
}

// Cancels its source when the `cancel_at`-th morsel loop is offered, then
// lends three helpers like any other loop's.
class CancelOnOffer final : public MorselHelpers {
 public:
  CancelOnOffer(int cancel_at, CancellationSource& source)
      : cancel_at_(cancel_at), source_(source) {}

  int Offer(int max_helpers, const std::function<void()>& help) override {
    if (++offers_ == cancel_at_) source_.RequestStop();
    return helpers_.Offer(max_helpers, help);
  }

  int Idle() const override { return helpers_.Idle(); }

 private:
  const int cancel_at_;
  CancellationSource& source_;
  int offers_ = 0;
  TestHelpers helpers_{3, /*wait=*/false};
};

// Cancels at each morsel loop `join` offers in turn: every cut run emits a
// prefix of the whole sequence and counts exactly what it emitted.
void ExpectCancelAtAnyLoopEmitsAPrefix(const PrebuiltTreeJoin& join,
                                       int expected_loops) {
  const Emitted whole = join.Run(nullptr);
  TestHelpers counting(3, /*wait=*/false);
  join.Run(&counting);
  ASSERT_GE(counting.offers(), expected_loops);
  for (int cancel_at = 1; cancel_at <= counting.offers(); ++cancel_at) {
    SCOPED_TRACE(cancel_at);
    CancellationSource source;
    CancelOnOffer helpers(cancel_at, source);
    const Emitted cut = join.Run(&helpers, source.token());
    EXPECT_EQ(cut.stats.results, cut.sequence.size());
    ASSERT_LE(cut.sequence.size(), whole.sequence.size());
    EXPECT_TRUE(std::equal(cut.sequence.begin(), cut.sequence.end(),
                           whole.sequence.begin()));
  }
}

TEST(TouchScatterPartsTest, CancelAtAnyLoopEmitsAPrefix) {
  // The dominant root is split, so three loops are offered: the scatter's
  // count and fill loops, then the probe loop. A cancel landing on any of
  // them stops the join cleanly — a grid the cancel cut short is never
  // probed.
  ExpectCancelAtAnyLoopEmitsAPrefix(PrebuiltTreeJoin(), 3);
  // Many nodes: assignment, split nodes and rounds of small ones.
  Dataset a = GenerateSynthetic(Distribution::kClustered, 20000, 123);
  for (Box& box : a) box = box.Enlarged(6.0f);
  ExpectCancelAtAnyLoopEmitsAPrefix(
      PrebuiltTreeJoin(std::move(a),
                       GenerateSynthetic(Distribution::kClustered, 40000, 124)),
      4);
}

}  // namespace
}  // namespace touch
