#include "core/touch.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/overlap_kernel.h"
#include "geom/grid.h"
#include "obs/trace.h"
#include "util/format.h"
#include "util/memory.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace touch {
namespace {

// Probe objects per assignment morsel, and build items (grid nodes) or
// assigned entities (subtree descent) per local-join morsel: fine enough
// that the root of a skewed tree spreads over every runner, coarse enough
// that claiming a morsel costs nothing next to running it.
constexpr uint32_t kProbesPerMorsel = 16384;
constexpr uint32_t kItemsPerMorsel = 4096;
constexpr uint32_t kEntitiesPerMorsel = 512;

constexpr uint32_t kNoNode = UINT32_MAX;

// Average extent per axis over a dataset (used to size local-join grid
// cells, paper section 5.2.2).
Vec3 AverageExtent(std::span<const Box> boxes) {
  if (boxes.empty()) return Vec3(0, 0, 0);
  double sx = 0;
  double sy = 0;
  double sz = 0;
  for (const Box& box : boxes) {
    const Vec3 e = box.Extent();
    sx += e.x;
    sy += e.y;
    sz += e.z;
  }
  const double inv = 1.0 / static_cast<double>(boxes.size());
  return Vec3(static_cast<float>(sx * inv), static_cast<float>(sy * inv),
              static_cast<float>(sz * inv));
}

// Per-axis grid resolution for one inner node: cells no smaller than
// `min_cell_edge` on each axis, capped at `max_resolution` per axis and at
// `max_total_cells` overall (halving resolutions until the product fits).
void NodeGridResolution(const Box& node_mbr, const Vec3& min_cell_edge,
                        int max_resolution, uint64_t max_total_cells,
                        int out_res[3]) {
  const Vec3 extent = node_mbr.Extent();
  const float ext[3] = {extent.x, extent.y, extent.z};
  const float edge[3] = {min_cell_edge.x, min_cell_edge.y, min_cell_edge.z};
  for (int axis = 0; axis < 3; ++axis) {
    int res = max_resolution;
    if (edge[axis] > 0) {
      res = static_cast<int>(ext[axis] / edge[axis]);
    }
    out_res[axis] = std::clamp(res, 1, max_resolution);
  }
  while (static_cast<uint64_t>(out_res[0]) * out_res[1] * out_res[2] >
         max_total_cells) {
    for (int axis = 0; axis < 3; ++axis) {
      out_res[axis] = std::max(1, out_res[axis] / 2);
    }
  }
}

// Id lists of many buckets in compressed rows: bucket k's ids are
// ids_[begin_[k], begin_[k + 1]), in insertion order. Built by counting, so
// it holds one offset per bucket and one id per entry — and, reused across
// joins, its two arrays stop growing at the largest build they served,
// where a vector per bucket would keep the longest list any build ever
// left in it. Serves as a node's grid (buckets = cells) and as the
// per-node entity lists (buckets = tree nodes).
class IdBuckets {
 public:
  // `for_each_bucket(id, visit)` calls visit(bucket) for every bucket `id`
  // goes into, if any.
  template <typename Ids, typename ForEachBucket>
  void Build(uint64_t buckets, const Ids& ids,
             const ForEachBucket& for_each_bucket) {
    begin_.assign(buckets + 1, 0);
    for (const uint32_t id : ids) {
      for_each_bucket(id, [&](uint64_t bucket) { ++begin_[bucket + 1]; });
    }
    for (uint64_t bucket = 1; bucket <= buckets; ++bucket) {
      begin_[bucket] += begin_[bucket - 1];
    }
    ids_.resize(begin_[buckets]);
    for (const uint32_t id : ids) {
      for_each_bucket(id,
                      [&](uint64_t bucket) { ids_[begin_[bucket]++] = id; });
    }
    // The fill advanced every begin to the next bucket's; shift them back.
    for (uint64_t bucket = buckets; bucket > 0; --bucket) {
      begin_[bucket] = begin_[bucket - 1];
    }
    begin_[0] = 0;
  }

  std::span<const uint32_t> operator[](uint64_t bucket) const {
    return std::span<const uint32_t>(ids_).subspan(
        begin_[bucket], begin_[bucket + 1] - begin_[bucket]);
  }

  // Analytic footprint of the current build (sizes, not the capacity left
  // over from earlier builds).
  size_t Bytes() const {
    return begin_.size() * sizeof(size_t) + ids_.size() * sizeof(uint32_t);
  }

  // Bytes held, including capacity left over from earlier builds.
  size_t CapacityBytes() const {
    return VectorBytes(begin_) + VectorBytes(ids_);
  }

 private:
  // size_t: a grid of huge boxes can hold more than 2^32 copies, which
  // must fail to allocate rather than wrap.
  std::vector<size_t> begin_;
  std::vector<uint32_t> ids_;
};

// Bytes of scratch a thread keeps between joins. A join grows its scratch
// as far as it needs; when it returns, the largest arrays are released
// until the rest fits. So every thread that ever joined (engine workers,
// library callers) holds at most this much, whatever the largest join it
// ran — enough for a 2^18-cell grid plus the slabs of a join of about
// 200k objects, which then reuse their arrays from join to join.
constexpr size_t kRetainedScratchBytes = size_t{16} << 20;

// Working state of one runner. The calling thread's also holds the join's
// shared arrays, which every runner reads: the slabs, the assignment and
// per-node entity lists, and a split node's grid (`cells`).
struct LocalJoinScratch {
  IdBuckets cells;
  std::vector<uint32_t> descent_stack;
  std::vector<uint32_t> hits;
  BoxSlab child_mbr_slab;
  BoxSlab item_slab;
  BoxSlab probe_slab;
  std::vector<uint32_t> assigned_node;
  IdBuckets entities;

  // Releases the largest arrays until the rest holds at most `budget`
  // bytes. Allocates nothing.
  void Trim(size_t budget) {
    constexpr int kArrays = 8;
    for (int released = 0; released < kArrays; ++released) {
      const size_t bytes[kArrays] = {
          cells.CapacityBytes(),          VectorBytes(descent_stack),
          VectorBytes(hits),              child_mbr_slab.MemoryUsageBytes(),
          item_slab.MemoryUsageBytes(),   probe_slab.MemoryUsageBytes(),
          VectorBytes(assigned_node),     entities.CapacityBytes()};
      size_t total = 0;
      int largest = 0;
      for (int i = 0; i < kArrays; ++i) {
        total += bytes[i];
        if (bytes[i] > bytes[largest]) largest = i;
      }
      if (total <= budget) return;
      switch (largest) {
        case 0:
          cells = IdBuckets();
          break;
        case 1:
          descent_stack = {};
          break;
        case 2:
          hits = {};
          break;
        case 3:
          child_mbr_slab = BoxSlab();
          break;
        case 4:
          item_slab = BoxSlab();
          break;
        case 5:
          probe_slab = BoxSlab();
          break;
        case 6:
          assigned_node = {};
          break;
        default:
          entities = IdBuckets();
          break;
      }
    }
  }
};

// One scratch per thread, reused across joins: its arrays grow to the
// largest join a thread has run once, not once per join, and are trimmed
// to kRetainedScratchBytes when the lease ends. A join nested on a thread
// that already holds the scratch (a sink joining inside Emit) gets a
// private one instead of clobbering a grid helpers may be reading.
class ScratchLease {
 public:
  ScratchLease() {
    thread_local LocalJoinScratch scratch;
    thread_local bool leased = false;
    if (!leased) {
      leased = true;
      leased_ = &leased;
      scratch_ = &scratch;
    } else {
      owned_ = std::make_unique<LocalJoinScratch>();
      scratch_ = owned_.get();
    }
  }
  ~ScratchLease() {
    if (leased_ == nullptr) return;
    scratch_->Trim(kRetainedScratchBytes);
    *leased_ = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  LocalJoinScratch& get() { return *scratch_; }

 private:
  bool* leased_ = nullptr;
  LocalJoinScratch* scratch_ = nullptr;
  std::unique_ptr<LocalJoinScratch> owned_;
};

// Helpers on threads of their own, spawned per offer and joined by the
// next offer or the destructor: the runners behind TouchOptions::threads.
class ThreadHelpers final : public MorselHelpers {
 public:
  explicit ThreadHelpers(int max_threads) : max_threads_(max_threads) {}
  ~ThreadHelpers() override { JoinAll(); }
  ThreadHelpers(const ThreadHelpers&) = delete;
  ThreadHelpers& operator=(const ThreadHelpers&) = delete;

  int Offer(int max_helpers, const std::function<void()>& help) override {
    // The previous loop's helpers have nothing left to claim; joining them
    // first keeps at most max_threads_ helpers alive at once.
    JoinAll();
    const int count = std::clamp(max_helpers, 0, max_threads_);
    threads_.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      try {
        threads_.emplace_back(help);
      } catch (const std::system_error&) {
        return i;  // out of threads: the ones started still count
      }
    }
    return count;
  }

 private:
  void JoinAll() {
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }

  const int max_threads_;
  std::vector<std::thread> threads_;
};

// Runs morsel `index` on a runner's scratch; `direct` is true when the
// calling thread runs the whole loop alone and may emit straight into the
// sink.
using MorselRun = std::function<void(size_t index, LocalJoinScratch& scratch,
                                     bool direct)>;

// Claim state of one morsel loop, shared by the calling thread and its
// helpers. Helpers hold it through a shared_ptr: a helper that starts after
// every morsel is claimed reads `next`, leaves, and never touches the
// caller's stack — `run` is only invoked under a claim the caller is still
// waiting for.
struct MorselClaims {
  MorselClaims(size_t morsels, MorselRun body, std::function<bool()> yield_fn,
               CancellationToken token)
      : count(morsels),
        run(std::move(body)),
        yield(std::move(yield_fn)),
        done(std::make_unique<std::atomic<bool>[]>(morsels)) {
    cancel = std::move(token);
  }

  const size_t count;
  const MorselRun run;
  const std::function<bool()> yield;
  CancellationToken cancel;  // set once, before any helper is offered
  std::atomic<size_t> next{0};
  const std::unique_ptr<std::atomic<bool>[]> done;
  std::atomic<int> helpers{0};
  std::atomic<int64_t> helper_ns{0};  // morsel time spent by helpers
  Mutex mutex;
  CondVar finished;
  // A helper's exception. Set before that helper marks its morsel done, so
  // whoever sees the morsel done also sees the failure.
  std::exception_ptr failure GUARDED_BY(mutex);
};

void HelpMorsels(MorselClaims& claims) {
  ScratchLease lease;  // taken before claiming: nothing throws under a claim
  bool ran = false;
  while (!claims.cancel.stop_requested()) {
    const size_t index = claims.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= claims.count) return;
    if (!ran) {
      ran = true;
      claims.helpers.fetch_add(1, std::memory_order_relaxed);
    }
    std::exception_ptr failure;
    Timer morsel;
    try {
      claims.run(index, lease.get(), /*direct=*/false);
    } catch (...) {
      failure = std::current_exception();
    }
    claims.helper_ns.fetch_add(static_cast<int64_t>(morsel.Seconds() * 1e9),
                               std::memory_order_relaxed);
    {
      const MutexLock lock(claims.mutex);
      if (failure && !claims.failure) claims.failure = failure;
      claims.done[index].store(true, std::memory_order_release);
    }
    claims.finished.NotifyAll();
    if (failure || (claims.yield && claims.yield())) return;
  }
}

// What one morsel loop's helpers did.
struct HelpReport {
  int helpers = 0;  // helpers that ran at least one morsel
  // Morsel time the helpers took off the calling thread, less the time it
  // spent waiting for them: the loop's wall time plus this estimates the
  // loop on the calling thread alone.
  double seconds = 0;
};

// Runs morsels [0, count) on the calling thread and on whatever helpers
// `helpers` (may be null) lends. `finish(i)` folds morsel i's output into
// the join on the calling thread, strictly in index order, so the join's
// output never depends on who ran what. Stops claiming once `cancel` fires;
// every morsel that did run is still finished. An exception from any
// runner's morsel or from `finish` is rethrown here, and no morsel from a
// failed one on is finished. Never returns — or throws — while a helper
// still runs a morsel.
HelpReport RunMorsels(MorselHelpers* helpers, size_t count,
                      LocalJoinScratch& scratch,
                      const CancellationToken& cancel, const MorselRun& run,
                      const std::function<void(size_t)>& finish) {
  std::shared_ptr<MorselClaims> claims;
  int offered = 0;
  if (helpers != nullptr && count > 1 && !cancel.stop_requested()) {
    claims = std::make_shared<MorselClaims>(count, run, helpers->YieldSignal(),
                                            cancel);
    offered = helpers->Offer(
        static_cast<int>(std::min<size_t>(count - 1, INT_MAX)),
        [claims] { HelpMorsels(*claims); });
  }
  if (offered == 0) {
    for (size_t i = 0; i < count && !cancel.stop_requested(); ++i) {
      run(i, scratch, /*direct=*/true);
      finish(i);
    }
    return {};
  }

  MorselClaims& shared = *claims;
  const auto helper_failure = [&shared] {
    const MutexLock lock(shared.mutex);
    return shared.failure;
  };
  size_t finished = 0;
  size_t current = count;  // the morsel this thread is running, if any
  std::exception_ptr failure;
  try {
    while (!cancel.stop_requested()) {
      current = shared.next.fetch_add(1, std::memory_order_relaxed);
      if (current >= count) break;
      run(current, scratch, /*direct=*/false);
      shared.done[current].store(true, std::memory_order_release);
      current = count;
      while (finished < count &&
             shared.done[finished].load(std::memory_order_acquire)) {
        // A morsel a helper failed on is done but left no output.
        if (std::exception_ptr helper = helper_failure()) {
          std::rethrow_exception(helper);
        }
        finish(finished++);
      }
    }
  } catch (...) {
    failure = std::current_exception();
    if (current < count) {
      shared.done[current].store(true, std::memory_order_release);
    }
  }
  // Close the loop (a later claim sees the end) and wait out the morsels
  // helpers still hold — claims form the prefix [0, claimed) — finishing
  // them in order as they land.
  const size_t claimed =
      std::min(shared.next.exchange(count, std::memory_order_relaxed), count);
  double waited = 0;
  for (size_t i = finished; i < claimed; ++i) {
    {
      MutexLock lock(shared.mutex);
      if (!shared.done[i].load(std::memory_order_acquire)) {
        Timer wait;
        while (!shared.done[i].load(std::memory_order_acquire)) {
          shared.finished.Wait(lock);
        }
        waited += wait.Seconds();
      }
      if (!failure) failure = shared.failure;
    }
    if (!failure) {
      try {
        finish(i);
      } catch (...) {
        failure = std::current_exception();
      }
    }
  }
  // Every claimed morsel is done now: a helper that failed has recorded it.
  if (!failure) failure = helper_failure();
  if (failure) std::rethrow_exception(failure);
  HelpReport report;
  report.helpers = shared.helpers.load(std::memory_order_relaxed);
  const double helped =
      static_cast<double>(shared.helper_ns.load(std::memory_order_relaxed)) *
      1e-9;
  report.seconds = std::max(0.0, helped - waited);
  return report;
}

// One phase's morsel figures, reported on its span.
struct MorselReport {
  size_t morsels = 0;
  int helpers = 0;  // most helpers in any one loop of the phase
  double max_morsel_ms = 0;

  void Annotate(SpanScope& span) const {
    if (!span.active()) return;
    span.AddAttr("morsels", std::to_string(morsels));
    span.AddAttr("helpers", std::to_string(helpers));
    span.AddAttr("max_morsel_ms", StrFormat("%.3f", max_morsel_ms));
  }
};

// Output of one morsel, folded into the join by the calling thread.
struct MorselOutput {
  JoinStats stats;
  // Pairs in (a, b) order, buffered while helpers may be running.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  size_t grid_bytes = 0;
  double ms = 0;
};

}  // namespace

JoinStats TouchJoin::Join(std::span<const Box> a, std::span<const Box> b,
                          ResultCollector& out) {
  bool build_on_a = true;
  switch (options_.join_order) {
    case TouchOptions::JoinOrder::kAuto:
      // The smaller dataset builds the tree: it is sparser (or has a smaller
      // extent), which improves filtering, and the tree is cheaper to build.
      build_on_a = a.size() <= b.size();
      break;
    case TouchOptions::JoinOrder::kBuildOnA:
      build_on_a = true;
      break;
    case TouchOptions::JoinOrder::kBuildOnB:
      build_on_a = false;
      break;
  }
  if (build_on_a) return JoinOriented(a, b, /*swapped=*/false, out);
  return JoinOriented(b, a, /*swapped=*/true, out);
}

JoinStats TouchJoin::JoinWithPrebuiltTree(const TouchTree& tree,
                                          std::span<const Box> a,
                                          std::span<const Box> b,
                                          ResultCollector& out,
                                          float probe_epsilon,
                                          CancellationToken cancel,
                                          MorselHelpers* helpers) {
  return JoinOriented(a, b, /*swapped=*/false, out, &tree, probe_epsilon,
                      std::move(cancel), helpers);
}

JoinStats TouchJoin::JoinOriented(std::span<const Box> build,
                                  std::span<const Box> probe, bool swapped,
                                  ResultCollector& out,
                                  const TouchTree* prebuilt,
                                  float probe_epsilon,
                                  CancellationToken cancel,
                                  MorselHelpers* helpers) {
  JoinStats stats;
  Timer total;
  if (build.empty() || probe.empty()) {
    stats.filtered = probe.size();
    stats.total_seconds = total.Seconds();
    return stats;
  }

  // The grid local join reads probe boxes through ProbeBox and needs no
  // copy; the nested-loop / plane-sweep ablations take raw spans, so for
  // them the enlargement is materialized once (and reported in
  // memory_bytes).
  std::vector<Box> enlarged_probe;
  if (probe_epsilon > 0 &&
      options_.local_join != LocalJoinStrategy::kGrid) {
    enlarged_probe.reserve(probe.size());
    for (const Box& box : probe) {
      enlarged_probe.push_back(box.Enlarged(probe_epsilon));
    }
    probe = enlarged_probe;
    probe_epsilon = 0;
  }
  const auto ProbeBox = [probe, probe_epsilon](uint32_t probe_id) {
    return probe_epsilon > 0 ? probe[probe_id].Enlarged(probe_epsilon)
                             : probe[probe_id];
  };

  // Runners: the calling thread plus the caller's helpers, or threads of
  // the join's own when TouchOptions::threads asks for them.
  std::optional<ThreadHelpers> own_helpers;
  const int hardware_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int own_threads = std::clamp(options_.threads, 1, hardware_threads);
  if (helpers == nullptr && own_threads > 1) {
    own_helpers.emplace(own_threads - 1);
    helpers = &*own_helpers;
  }
  ScratchLease lease;
  LocalJoinScratch& scratch = lease.get();

  // ---- Phase 1: tree building (Algorithm 2) — skipped when the caller
  // supplies a prebuilt/converted tree (paper section 4.3). ----
  Timer phase;
  std::optional<TouchTree> owned_tree;
  if (prebuilt == nullptr) {
    size_t leaf_capacity = options_.leaf_capacity;
    if (leaf_capacity == 0) {
      const size_t partitions = std::max<size_t>(1, options_.partitions);
      leaf_capacity = (build.size() + partitions - 1) / partitions;
    }
    owned_tree.emplace(build, leaf_capacity, options_.fanout);
  }
  const TouchTree& tree = prebuilt != nullptr ? *prebuilt : *owned_tree;
  stats.build_seconds = prebuilt != nullptr ? 0.0 : phase.Seconds();

  // ---- Phase 2: assignment of the probe dataset (Algorithm 3). ----
  phase.Reset();
  // Ambient phase span: attaches under the engine's "execute" span when one
  // is open on this thread, no-op otherwise (library callers untouched).
  SpanScope assign_span("touch-assign");
  const std::span<const TouchTree::Node> nodes = tree.nodes();
  const std::span<const uint32_t> child_ids = tree.child_ids();
  // SoA slab over every node's child MBRs, in child_ids order, so each
  // descent step classifies a node's whole child range with the batched
  // overlap kernel (one node.children_begin/count range per node). Built
  // once per join, shared read-only with the local-join phase below.
  BoxSlab& child_mbr_slab = scratch.child_mbr_slab;
  child_mbr_slab.AssignGenerated(
      child_ids.size(), [&](size_t i) { return nodes[child_ids[i]].mbr; });
  // Morsels of consecutive probe ids record each object's node here; the
  // per-node entity lists are then laid out in probe-id order, exactly the
  // order a single runner appends them in.
  std::vector<uint32_t>& assigned_node = scratch.assigned_node;
  assigned_node.assign(probe.size(), kNoNode);
  const auto assign_range = [&](uint32_t begin, uint32_t end,
                                JoinStats& counts) {
    for (uint32_t probe_id = begin; probe_id < end; ++probe_id) {
      // Cooperative cancellation, amortized over a power-of-two stride so
      // the check costs one branch on the hot path.
      if ((probe_id & 2047u) == 0 && cancel.stop_requested()) return;
      const Box box = ProbeBox(probe_id);
      uint32_t current = tree.root();
      ++counts.node_comparisons;
      if (!Intersects(box, nodes[current].mbr)) {
        ++counts.filtered;
        continue;
      }
      bool placed = false;
      while (!nodes[current].IsLeaf()) {
        // Count children whose MBR overlaps the object; stop at the second
        // (ClassifyOverlaps keeps the scalar loop's early exit and examined
        // count, so node_comparisons stays the paper's metric).
        const TouchTree::Node& node = nodes[current];
        size_t first = 0;
        const int hits = ClassifyOverlaps(
            child_mbr_slab, node.children_begin,
            node.children_begin + node.children_count, box, &first,
            &counts.node_comparisons);
        if (hits >= 2) {
          // Overlaps several children: assign to their parent (this node).
          assigned_node[probe_id] = current;
          placed = true;
          break;
        }
        if (hits == 0) {
          // Inside the node's MBR but outside every child: dead space, the
          // object cannot intersect anything in this subtree.
          ++counts.filtered;
          placed = true;  // handled (filtered)
          break;
        }
        current = child_ids[first];
      }
      if (!placed) {
        // Reached a leaf: assign to the leaf (lowest possible placement).
        assigned_node[probe_id] = current;
      }
    }
  };
  const uint32_t probe_count = static_cast<uint32_t>(probe.size());
  MorselReport assign_report;
  assign_report.morsels =
      (probe.size() + kProbesPerMorsel - 1) / kProbesPerMorsel;
  std::vector<MorselOutput> assign_out(assign_report.morsels);
  const HelpReport assign_help = RunMorsels(
      helpers, assign_report.morsels, scratch, cancel,
      [&](size_t index, LocalJoinScratch&, bool) {
        MorselOutput output;  // stack-local, like the local join's below
        Timer morsel;
        const uint32_t begin = static_cast<uint32_t>(index) * kProbesPerMorsel;
        assign_range(begin, std::min(begin + kProbesPerMorsel, probe_count),
                     output.stats);
        output.ms = morsel.Seconds() * 1e3;
        assign_out[index] = std::move(output);
      },
      [&](size_t index) {
        stats.MergeCounters(assign_out[index].stats);
        assign_report.max_morsel_ms =
            std::max(assign_report.max_morsel_ms, assign_out[index].ms);
      });
  assign_report.helpers = assign_help.helpers;
  stats.helper_seconds = assign_help.seconds;
  IdBuckets& entities = scratch.entities;
  entities.Build(nodes.size(), std::views::iota(uint32_t{0}, probe_count),
                 [&](uint32_t probe_id, auto&& visit) {
                   if (assigned_node[probe_id] != kNoNode) {
                     visit(assigned_node[probe_id]);
                   }
                 });
  stats.assign_seconds = phase.Seconds();
  assign_report.Annotate(assign_span);
  assign_span.End();

  // ---- Phase 3: per-node local join (Algorithm 4). ----
  phase.Reset();
  // Helpers attach no spans (they carry no ambient context); this one
  // covers the phase's wall clock and reports the morsels on it.
  SpanScope local_join_span("touch-local-join");
  const std::span<const uint32_t> item_ids = tree.item_ids();

  // Minimum grid cell edge: a multiple of the average *raw* object extent
  // (the smaller of the two datasets' averages — the enlarged side of a
  // distance join must not dictate the cell size, see TouchOptions).
  const Vec3 avg_build = AverageExtent(build);
  const Vec3 avg_probe = AverageExtent(probe);
  const Vec3 min_cell_edge(
      options_.cell_size_multiplier * std::min(avg_build.x, avg_probe.x),
      options_.cell_size_multiplier * std::min(avg_build.y, avg_probe.y),
      options_.cell_size_multiplier * std::min(avg_build.z, avg_probe.z));

  // Slabs for the grid local join, rebuilt per join in the calling
  // thread's scratch and read by every runner: the build items in item_ids
  // order (so every leaf's items are one contiguous range) and the probe
  // boxes by probe id with the remaining enlargement folded in (BoxAt
  // round-trips the exact ProbeBox floats, so reference-point dedup is
  // unchanged). Like the sweep's sorted copies, this probe scratch stays
  // out of memory_bytes.
  BoxSlab& item_slab = scratch.item_slab;
  BoxSlab& probe_slab = scratch.probe_slab;
  if (options_.local_join == LocalJoinStrategy::kGrid) {
    item_slab.AssignGenerated(
        item_ids.size(), [&](size_t i) { return build[item_ids[i]]; });
    probe_slab.Assign(probe, probe_epsilon);
  }

  // Subtree descent for entity-poor nodes: the probe object walks this
  // node's own hierarchy, pruning children by MBR, and is compared only
  // against the items of the leaves it reaches. `emit(build_id, probe_id)`
  // here and below must already handle the swap back to (a, b) order.
  const auto subtree_join = [&](uint32_t start_node, uint32_t probe_id,
                                LocalJoinScratch& s, JoinStats& counts,
                                auto&& emit) {
    const Box probe_box = probe_slab.BoxAt(probe_id);
    s.descent_stack.clear();
    s.descent_stack.push_back(start_node);
    while (!s.descent_stack.empty()) {
      const TouchTree::Node& current = nodes[s.descent_stack.back()];
      s.descent_stack.pop_back();
      s.hits.clear();
      if (current.IsLeaf()) {
        counts.comparisons += CollectOverlaps(
            item_slab, current.item_begin, current.item_end, probe_box,
            s.hits);
        for (const uint32_t pos : s.hits) emit(item_ids[pos], probe_id);
        continue;
      }
      // Matching children push in ascending order, as the scalar loop
      // did — this stack visits them last-pushed-first either way.
      counts.node_comparisons += CollectOverlaps(
          child_mbr_slab, current.children_begin,
          current.children_begin + current.children_count, probe_box,
          s.hits);
      for (const uint32_t pos : s.hits) {
        s.descent_stack.push_back(child_ids[pos]);
      }
    }
  };

  // Equi-width grid over one node's region with the node's B entities
  // scattered into the cells they overlap (into `cells`, which holds the
  // occupants); `bytes` is the grid's analytic footprint.
  struct NodeGrid {
    GridMapper mapper;
    uint64_t stride_x;
    uint64_t stride_y;
    size_t bytes;
  };
  const auto scatter = [&](uint32_t node_id, IdBuckets& cells) {
    int res[3];
    NodeGridResolution(nodes[node_id].mbr, min_cell_edge,
                       options_.grid_resolution,
                       /*max_total_cells=*/uint64_t{1} << 18, res);
    const uint64_t stride_y = static_cast<uint64_t>(res[2]);
    NodeGrid grid{GridMapper(nodes[node_id].mbr, res[0], res[1], res[2]),
                  stride_y * static_cast<uint64_t>(res[1]), stride_y, 0};
    cells.Build(grid.mapper.TotalCells(), entities[node_id],
                [&](uint32_t probe_id, auto&& visit) {
                  const CellRange range =
                      grid.mapper.RangeOf(probe_slab.BoxAt(probe_id));
                  for (int x = range.lo.x; x <= range.hi.x; ++x) {
                    for (int y = range.lo.y; y <= range.hi.y; ++y) {
                      const uint64_t base =
                          static_cast<uint64_t>(x) * grid.stride_x +
                          static_cast<uint64_t>(y) * grid.stride_y;
                      for (int z = range.lo.z; z <= range.hi.z; ++z) {
                        visit(base + static_cast<uint64_t>(z));
                      }
                    }
                  }
                });
    grid.bytes = cells.Bytes();
    return grid;
  };

  // Every descendant A object in `items` probes the cells it overlaps. A
  // pair straddling several shared cells is reported only by the cell
  // holding its reference point. Reads `cells` only, so the runners of a
  // split node share one scattered grid.
  const auto probe_grid = [&](const NodeGrid& grid, const IdBuckets& cells,
                              std::span<const uint32_t> items,
                              LocalJoinScratch& s, JoinStats& counts,
                              auto&& emit) {
    for (size_t item_index = 0; item_index < items.size(); ++item_index) {
      if ((item_index & 4095u) == 0 && cancel.stop_requested()) return;
      const uint32_t build_id = items[item_index];
      const Box& build_box = build[build_id];
      const CellRange range = grid.mapper.RangeOf(build_box);
      for (int x = range.lo.x; x <= range.hi.x; ++x) {
        for (int y = range.lo.y; y <= range.hi.y; ++y) {
          const uint64_t base = static_cast<uint64_t>(x) * grid.stride_x +
                                static_cast<uint64_t>(y) * grid.stride_y;
          for (int z = range.lo.z; z <= range.hi.z; ++z) {
            // The cell's occupants are probe ids in scatter order; the
            // gather kernel tests them against this item in that order
            // and counts one comparison per occupant, like the scalar
            // loop it replaces.
            s.hits.clear();
            counts.comparisons += CollectOverlapsGather(
                probe_slab, cells[base + static_cast<uint64_t>(z)],
                build_box, s.hits);
            for (const uint32_t probe_id : s.hits) {
              const Box probe_box = probe_slab.BoxAt(probe_id);
              const CellCoord home =
                  grid.mapper.CellOf(ReferencePoint(build_box, probe_box));
              if (home.x == x && home.y == y && home.z == z) {
                emit(build_id, probe_id);
              }
            }
          }
        }
      }
    }
  };

  // The local join as morsels, in the order a single runner emits. Grid
  // nodes with more than kItemsPerMorsel items are split by item range
  // and share one grid the calling thread scatters first; descent nodes
  // split by entity range; every other node is one morsel.
  enum class MorselKind : uint8_t { kGrid, kSharedGrid, kDescent, kWhole };
  struct JoinMorsel {
    uint32_t node;
    MorselKind kind;
    uint32_t begin;  // item range (grid kinds) or entity range (descent)
    uint32_t end;
  };
  // A loop of consecutive morsels; `shared_node` names the split node whose
  // morsels make up the whole round, kNoNode for a run of unsplit nodes.
  struct Round {
    size_t first;
    size_t last;
    uint32_t shared_node;
  };
  std::vector<JoinMorsel> morsels;
  std::vector<Round> rounds;
  const auto open_round = [&](uint32_t shared_node) {
    if (rounds.empty() || rounds.back().shared_node != kNoNode ||
        shared_node != kNoNode) {
      rounds.push_back(Round{morsels.size(), morsels.size(), shared_node});
    }
  };
  const auto add_split = [&](uint32_t node_id, MorselKind kind, uint32_t size,
                             uint32_t per_morsel) {
    for (uint32_t begin = 0; begin < size; begin += per_morsel) {
      morsels.push_back(
          JoinMorsel{node_id, kind, begin, std::min(size, begin + per_morsel)});
    }
  };
  for (uint32_t node_id = 0; node_id < nodes.size(); ++node_id) {
    const size_t entity_count = entities[node_id].size();
    const uint32_t item_count = nodes[node_id].ItemCount();
    if (entity_count == 0 || item_count == 0) continue;
    if (options_.local_join != LocalJoinStrategy::kGrid) {
      open_round(kNoNode);
      morsels.push_back(JoinMorsel{node_id, MorselKind::kWhole, 0, 0});
    } else if (entity_count < options_.grid_min_entities ||
               entity_count * 16 < item_count) {
      // Grid only where it pays: enough entities to amortize building it,
      // and not vastly fewer entities than descendant items (a handful of
      // objects descending a big subtree prunes most of it; a grid would
      // make every item probe cells for nothing).
      open_round(kNoNode);
      add_split(node_id, MorselKind::kDescent,
                static_cast<uint32_t>(entity_count), kEntitiesPerMorsel);
    } else if (item_count > kItemsPerMorsel) {
      open_round(node_id);
      add_split(node_id, MorselKind::kSharedGrid, item_count, kItemsPerMorsel);
    } else {
      open_round(kNoNode);
      morsels.push_back(JoinMorsel{node_id, MorselKind::kGrid, 0, item_count});
    }
    rounds.back().last = morsels.size();
  }

  std::optional<NodeGrid> shared_grid;  // the current round's split node
  const auto join_morsel = [&](const JoinMorsel& m, LocalJoinScratch& s,
                               MorselOutput& output, auto&& emit) {
    const TouchTree::Node& node = nodes[m.node];
    const auto items = item_ids.subspan(node.item_begin, node.ItemCount());
    switch (m.kind) {
      case MorselKind::kSharedGrid:
        probe_grid(*shared_grid, scratch.cells,
                   items.subspan(m.begin, m.end - m.begin), s, output.stats,
                   emit);
        break;
      case MorselKind::kGrid: {
        const NodeGrid grid = scatter(m.node, s.cells);
        output.grid_bytes = grid.bytes;
        probe_grid(grid, s.cells, items, s, output.stats, emit);
        break;
      }
      case MorselKind::kDescent: {
        const auto node_entities = entities[m.node];
        for (uint32_t i = m.begin; i < m.end; ++i) {
          if ((i & 1023u) == 0 && cancel.stop_requested()) return;
          subtree_join(m.node, node_entities[i], s, output.stats, emit);
        }
        break;
      }
      case MorselKind::kWhole:
        if (options_.local_join == LocalJoinStrategy::kNestedLoop) {
          LocalNestedLoop(build, items, probe, entities[m.node],
                          &output.stats, emit);
        } else {
          LocalPlaneSweep(build, items, probe, entities[m.node],
                          &output.stats, emit);
        }
        break;
    }
  };

  std::vector<MorselOutput> join_out(morsels.size());
  MorselReport join_report;
  join_report.morsels = morsels.size();
  size_t max_grid_bytes = 0;
  for (const Round& round : rounds) {
    if (cancel.stop_requested()) break;
    if (round.shared_node != kNoNode) {
      // Scatter once on the calling thread; the round's morsels only read
      // the grid, from every runner.
      shared_grid.emplace(scatter(round.shared_node, scratch.cells));
      max_grid_bytes = std::max(max_grid_bytes, shared_grid->bytes);
    }
    const HelpReport round_help = RunMorsels(
        helpers, round.last - round.first, scratch, cancel,
        [&](size_t index, LocalJoinScratch& s, bool direct) {
          // Built on this runner's stack and stored once: runners bumping
          // counters in neighbouring outputs would share cache lines.
          MorselOutput output;
          const JoinMorsel& m = morsels[round.first + index];
          Timer morsel;
          if (direct) {
            join_morsel(m, s, output,
                        [&](uint32_t build_id, uint32_t probe_id) {
                          ++output.stats.results;
                          if (swapped) {
                            out.Emit(probe_id, build_id);
                          } else {
                            out.Emit(build_id, probe_id);
                          }
                        });
          } else {
            join_morsel(m, s, output,
                        [&](uint32_t build_id, uint32_t probe_id) {
                          ++output.stats.results;
                          if (swapped) {
                            output.pairs.emplace_back(probe_id, build_id);
                          } else {
                            output.pairs.emplace_back(build_id, probe_id);
                          }
                        });
          }
          output.ms = morsel.Seconds() * 1e3;
          join_out[round.first + index] = std::move(output);
        },
        [&](size_t index) {
          MorselOutput& output = join_out[round.first + index];
          stats.MergeCounters(output.stats);
          max_grid_bytes = std::max(max_grid_bytes, output.grid_bytes);
          join_report.max_morsel_ms =
              std::max(join_report.max_morsel_ms, output.ms);
          // The sink's single-thread contract: only this thread emits,
          // in morsel order — the sequence a single runner produces.
          if (!cancel.stop_requested()) {
            for (const auto& [a_id, b_id] : output.pairs) out.Emit(a_id, b_id);
          }
          output.pairs = {};
        });
    join_report.helpers = std::max(join_report.helpers, round_help.helpers);
    stats.helper_seconds += round_help.seconds;
    shared_grid.reset();
  }
  stats.join_seconds = phase.Seconds();
  join_report.Annotate(local_join_span);
  local_join_span.End();

  stats.memory_bytes = tree.MemoryUsageBytes() +
                       assigned_node.size() * sizeof(uint32_t) +
                       entities.Bytes() + max_grid_bytes +
                       VectorBytes(enlarged_probe);
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
