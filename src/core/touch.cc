#include "core/touch.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/overlap_kernel.h"
#include "core/touch_scratch.h"
#include "geom/grid.h"
#include "obs/trace.h"
#include "util/format.h"
#include "util/memory.h"
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
// X-parts of a split node's grid, each one scatter morsel: enough to keep
// every runner busy when the entities crowd a few x-slabs.
constexpr int kScatterParts = 16;

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

// Helpers on threads of their own, spawned per offer and joined by the
// next offer or the destructor: the runners behind TouchOptions::threads.
class ThreadHelpers final : public MorselHelpers {
 public:
  explicit ThreadHelpers(int max_threads) : max_threads_(max_threads) {}
  ~ThreadHelpers() override { JoinAll(); }
  ThreadHelpers(const ThreadHelpers&) = delete;
  ThreadHelpers& operator=(const ThreadHelpers&) = delete;

  int Idle() const override { return max_threads_; }

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

// A loop of `count` morsels that run `body(index, scratch, direct)` on a
// runner's scratch: the calling thread's `scratch`, or a lease each helper
// takes on its own thread's. `body` must outlive the loop.
template <typename Body>
MorselLoop ScratchLoop(size_t count, LocalJoinScratch& scratch,
                       const Body& body,
                       std::function<void(size_t)> finish = {}) {
  return MorselLoop{
      .count = count,
      .run = [&scratch, &body](size_t index,
                               bool direct) { body(index, scratch, direct); },
      .helper_scope =
          [&body](const std::function<void(const MorselRun&)>& stay) {
            ScratchLease lease;
            LocalJoinScratch* helper_scratch = &lease.get();
            // A pointer and a reference: the run fits in std::function's
            // own storage, so a helper's setup allocates nothing.
            stay([helper_scratch, &body](size_t index, bool direct) {
              body(index, *helper_scratch, direct);
            });
          },
      .finish = std::move(finish)};
}

// Output of one morsel, folded into the join by the calling thread.
struct MorselOutput {
  JoinStats stats;
  // Pairs in (a, b) order, buffered while helpers may be running.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  // (node, entities) an assignment morsel placed.
  std::vector<std::pair<uint32_t, uint32_t>> node_counts;
  size_t grid_bytes = 0;
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
    MorselReport build_report;
    owned_tree.emplace(build, leaf_capacity, options_.fanout, helpers,
                       &build_report);
    stats.build_helper_seconds = build_report.helper_seconds;
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
  // Morsels of consecutive probe ids record each object's node here and
  // count the objects per node as they place them; the per-node entity
  // lists are then laid out in probe-id order, exactly the order a single
  // runner appends them in.
  std::vector<uint32_t>& assigned_node = scratch.assigned_node;
  assigned_node.assign(probe.size(), kNoNode);
  IdBuckets& entities = scratch.entities;
  entities.Reset(nodes.size());
  const auto assign_range = [&](uint32_t begin, uint32_t end,
                                LocalJoinScratch& s, MorselOutput& output) {
    s.node_counts.Start(nodes.size(), end - begin);
    const auto place = [&](uint32_t probe_id, uint32_t node) {
      assigned_node[probe_id] = node;
      s.node_counts.Add(node);
    };
    JoinStats& counts = output.stats;
    for (uint32_t probe_id = begin; probe_id < end; ++probe_id) {
      // Cooperative cancellation, amortized over a power-of-two stride so
      // the check costs one branch on the hot path.
      if ((probe_id & 2047u) == 0 && cancel.stop_requested()) break;
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
          place(probe_id, current);
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
        place(probe_id, current);
      }
    }
    // Every placed object is counted, even when a cancel cut the range
    // short: the layout below relies on it.
    output.node_counts.reserve(s.node_counts.Nodes().size());
    for (const uint32_t node : s.node_counts.Nodes()) {
      output.node_counts.emplace_back(node, s.node_counts.Count(node));
    }
  };
  const uint32_t probe_count = static_cast<uint32_t>(probe.size());
  const size_t assign_morsels =
      (probe.size() + kProbesPerMorsel - 1) / kProbesPerMorsel;
  std::vector<MorselOutput> assign_out(assign_morsels);
  const auto assign_morsel = [&](size_t index, LocalJoinScratch& s, bool) {
    MorselOutput output;  // stack-local, like the local join's below
    const uint32_t begin = static_cast<uint32_t>(index) * kProbesPerMorsel;
    assign_range(begin, std::min(begin + kProbesPerMorsel, probe_count), s,
                 output);
    assign_out[index] = std::move(output);
  };
  MorselReport assign_report;
  RunMorsels(helpers, cancel,
             ScratchLoop(assign_morsels, scratch, assign_morsel,
                         [&](size_t index) {
                           MorselOutput& output = assign_out[index];
                           stats.MergeCounters(output.stats);
                           for (const auto& [node, count] :
                                output.node_counts) {
                             entities.Count(node, count);
                           }
                         }),
             assign_report);
  stats.helper_seconds = assign_report.helper_seconds;
  // Backwards, so each node's list ends up in probe-id order.
  entities.Layout();
  for (uint32_t probe_id = probe_count; probe_id-- > 0;) {
    if ((probe_id & 4095u) == 0 && cancel.stop_requested()) break;
    if (assigned_node[probe_id] != kNoNode) {
      entities.Place(assigned_node[probe_id], probe_id);
    }
  }
  stats.assign_seconds = phase.Seconds();
  assign_report.Annotate(assign_span);
  assign_span.End();
  if (cancel.stop_requested()) {
    // The entity lists may be partial: no local join reads them.
    stats.total_seconds = total.Seconds();
    return stats;
  }

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

  // Equi-width grid over one node's region; its cells (an IdBuckets)
  // hold the node's B entities, each in every cell it overlaps, in entity
  // order. `bytes` is the grid's analytic footprint.
  struct NodeGrid {
    GridMapper mapper;
    uint64_t stride_x;
    uint64_t stride_y;
    size_t bytes;
  };
  const auto node_grid = [&](uint32_t node_id) {
    int res[3];
    NodeGridResolution(nodes[node_id].mbr, min_cell_edge,
                       options_.grid_resolution,
                       /*max_total_cells=*/uint64_t{1} << 18, res);
    const uint64_t stride_y = static_cast<uint64_t>(res[2]);
    return NodeGrid{GridMapper(nodes[node_id].mbr, res[0], res[1], res[2]),
                    stride_y * static_cast<uint64_t>(res[1]), stride_y, 0};
  };
  // Calls visit(cell) for every cell of `range` whose x lies in
  // [x_lo, x_hi].
  const auto for_each_cell = [](const NodeGrid& grid, const CellRange& range,
                                int x_lo, int x_hi, auto&& visit) {
    for (int x = x_lo; x <= x_hi; ++x) {
      for (int y = range.lo.y; y <= range.hi.y; ++y) {
        const uint64_t base = static_cast<uint64_t>(x) * grid.stride_x +
                              static_cast<uint64_t>(y) * grid.stride_y;
        for (int z = range.lo.z; z <= range.hi.z; ++z) {
          visit(base + static_cast<uint64_t>(z));
        }
      }
    }
  };
  // A node's grid scattered by one runner, into its own `cells`.
  const auto scatter = [&](uint32_t node_id, IdBuckets& cells) {
    NodeGrid grid = node_grid(node_id);
    cells.Build(grid.mapper.TotalCells(), entities[node_id],
                [&](uint32_t probe_id, auto&& visit) {
                  const CellRange range =
                      grid.mapper.RangeOf(probe_slab.BoxAt(probe_id));
                  for_each_cell(grid, range, range.lo.x, range.hi.x, visit);
                });
    grid.bytes = cells.Bytes();
    return grid;
  };

  // A split node's grid, scattered into the calling thread's cells by
  // every runner. The x-slabs of cells are cut into parts: a part's cells
  // are one contiguous range of cell ids, and it counts, then fills, only
  // those, walking its entities in entity order — so every cell lists its
  // entities as a single runner's scatter does. Only bucketing the
  // entities by part, the prefix sum and sizing the id array run on the
  // calling thread alone. With no helper idle, the bucketing would buy
  // nothing, and the calling thread scatters the grid in one pass, as any
  // unsplit node's. Returns nothing when a cancel cut the scatter short:
  // the grid may be partial and must not be probed.
  MorselReport join_report;
  const auto scatter_shared = [&](uint32_t node_id) -> std::optional<NodeGrid> {
    if (helpers == nullptr || helpers->Idle() == 0) {
      return scatter(node_id, scratch.cells);
    }
    NodeGrid grid = node_grid(node_id);
    const std::span<const uint32_t> node_entities = entities[node_id];
    const int res_x = grid.mapper.res_x();
    const int parts = std::min(kScatterParts, res_x);
    // Part p owns x-slabs [first_x(p), first_x(p + 1)); part_of(x) is the
    // part owning x-slab x.
    const auto first_x = [&](int part) { return part * res_x / parts; };
    const auto part_of = [&](int x) { return ((x + 1) * parts - 1) / res_x; };
    // Calls visit(part) for every part entity i's x-slabs reach.
    const auto for_each_part = [&](uint32_t i, auto&& visit) {
      const Box box = probe_slab.BoxAt(node_entities[i]);
      const int last = part_of(grid.mapper.AxisCell(0, box.hi.x));
      for (int part = part_of(grid.mapper.AxisCell(0, box.lo.x));
           part <= last; ++part) {
        visit(static_cast<uint64_t>(part));
      }
    };
    // Local to the scatter: kept in the scratch, a split node's lists
    // would stay with every thread that ever ran a join and raise the
    // process's peak memory.
    IdBuckets part_entities;
    part_entities.Reset(static_cast<uint64_t>(parts));
    for (uint32_t i = 0; i < node_entities.size(); ++i) {
      if ((i & 4095u) == 0 && cancel.stop_requested()) return std::nullopt;
      for_each_part(i, [&](uint64_t part) { part_entities.Count(part); });
    }
    part_entities.Layout();
    for (uint32_t i = static_cast<uint32_t>(node_entities.size()); i-- > 0;) {
      for_each_part(i, [&](uint64_t part) { part_entities.Place(part, i); });
    }
    // Calls visit(cell) for every cell of entity i inside `part`.
    const auto part_cells = [&](uint32_t i, size_t part, auto&& visit) {
      const CellRange range =
          grid.mapper.RangeOf(probe_slab.BoxAt(node_entities[i]));
      const int p = static_cast<int>(part);
      for_each_cell(grid, range, std::max(range.lo.x, first_x(p)),
                    std::min(range.hi.x, first_x(p + 1) - 1), visit);
    };
    IdBuckets& cells = scratch.cells;
    cells.Reset(grid.mapper.TotalCells());
    RunMorsels(helpers, cancel,
               {.count = static_cast<size_t>(parts),
                .run =
                    [&](size_t part, bool) {
                      const auto members = part_entities[part];
                      for (size_t k = 0; k < members.size(); ++k) {
                        if ((k & 1023u) == 0 && cancel.stop_requested()) {
                          return;
                        }
                        part_cells(members[k], part,
                                   [&](uint64_t cell) { cells.Count(cell); });
                      }
                    }},
               join_report);
    if (cancel.stop_requested()) return std::nullopt;
    cells.Layout();
    RunMorsels(helpers, cancel,
               {.count = static_cast<size_t>(parts),
                .run =
                    [&](size_t part, bool) {
                      // Backwards, so each cell ends up in entity order.
                      const auto members = part_entities[part];
                      for (size_t k = members.size(); k-- > 0;) {
                        if ((k & 1023u) == 0 && cancel.stop_requested()) {
                          return;
                        }
                        const uint32_t probe_id = node_entities[members[k]];
                        part_cells(members[k], part, [&](uint64_t cell) {
                          cells.Place(cell, probe_id);
                        });
                      }
                    }},
               join_report);
    if (cancel.stop_requested()) return std::nullopt;
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
  // and share one grid every runner scatters first; descent nodes split by
  // entity range; every other node is one morsel.
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
  size_t max_grid_bytes = 0;
  double scatter_seconds = 0;  // wall time of the split nodes' scatters
  for (const Round& round : rounds) {
    if (cancel.stop_requested()) break;
    if (round.shared_node != kNoNode) {
      // Scatter once with every runner; the round's morsels only read the
      // grid, from every runner.
      const Timer scatter_wall;
      shared_grid = scatter_shared(round.shared_node);
      scatter_seconds += scatter_wall.Seconds();
      if (!shared_grid) break;
      max_grid_bytes = std::max(max_grid_bytes, shared_grid->bytes);
    }
    const auto round_morsel = [&](size_t index, LocalJoinScratch& s,
                                  bool direct) {
      // Built on this runner's stack and stored once: runners bumping
      // counters in neighbouring outputs would share cache lines.
      MorselOutput output;
      const JoinMorsel& m = morsels[round.first + index];
      if (direct) {
        join_morsel(m, s, output, [&](uint32_t build_id, uint32_t probe_id) {
          ++output.stats.results;
          if (swapped) {
            out.Emit(probe_id, build_id);
          } else {
            out.Emit(build_id, probe_id);
          }
        });
      } else {
        join_morsel(m, s, output, [&](uint32_t build_id, uint32_t probe_id) {
          ++output.stats.results;
          if (swapped) {
            output.pairs.emplace_back(probe_id, build_id);
          } else {
            output.pairs.emplace_back(build_id, probe_id);
          }
        });
      }
      join_out[round.first + index] = std::move(output);
    };
    RunMorsels(
        helpers, cancel,
        ScratchLoop(round.last - round.first, scratch, round_morsel,
                    [&](size_t index) {
                      MorselOutput& output = join_out[round.first + index];
                      stats.MergeCounters(output.stats);
                      max_grid_bytes =
                          std::max(max_grid_bytes, output.grid_bytes);
                      // The sink's single-thread contract: only this thread
                      // emits, in morsel order — the sequence a single
                      // runner produces.
                      if (!cancel.stop_requested()) {
                        for (const auto& [a_id, b_id] : output.pairs) {
                          out.Emit(a_id, b_id);
                        }
                      }
                      // Released as soon as emitted (`= {}` would keep
                      // the capacity until the join returns).
                      output.pairs = decltype(output.pairs)();
                    }),
        join_report);
    shared_grid.reset();
  }
  stats.helper_seconds += join_report.helper_seconds;
  stats.join_seconds = phase.Seconds();
  join_report.Annotate(local_join_span);
  if (local_join_span.active()) {
    local_join_span.AddAttr("scatter_ms",
                            StrFormat("%.3f", scatter_seconds * 1e3));
  }
  local_join_span.End();

  stats.memory_bytes = tree.MemoryUsageBytes() +
                       assigned_node.size() * sizeof(uint32_t) +
                       entities.Bytes() + max_grid_bytes +
                       VectorBytes(enlarged_probe);
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
