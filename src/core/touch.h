#ifndef TOUCH_CORE_TOUCH_H_
#define TOUCH_CORE_TOUCH_H_

#include "core/touch_tree.h"
#include "join/algorithm.h"
#include "join/local_join.h"
#include "util/cancellation.h"
#include "util/morsel.h"

namespace touch {

/// Tunable parameters of TOUCH (paper section 5.2). The defaults are the
/// paper's evaluated configuration: fanout 2, 1024 partitions, local-join
/// grid resolution 500.
struct TouchOptions {
  /// Number of STR buckets dataset A is grouped into (leaf count target);
  /// the leaf capacity becomes ceil(|A| / partitions).
  size_t partitions = 1024;
  /// If nonzero, a fixed leaf capacity overriding `partitions`.
  size_t leaf_capacity = 0;
  /// Children per inner node. Smaller fanout -> taller tree -> objects of B
  /// spread over more levels -> fewer comparisons (paper Figure 14).
  size_t fanout = 2;

  /// Local join strategy for inner-node vs descendant-leaf joins. The paper
  /// uses the space-oriented grid (Algorithm 4); the others are ablations.
  LocalJoinStrategy local_join = LocalJoinStrategy::kGrid;
  /// Maximum grid cells per dimension in the local join.
  int grid_resolution = 500;
  /// Lower bound of the grid cell edge, as a multiple of the average object
  /// extent ("considerably larger than the average size of the objects",
  /// section 5.2.2). The reference is the *smaller* of the two datasets'
  /// average extents: a distance join enlarges one dataset by epsilon, and
  /// keying the cells off the bloated side would make them an order of
  /// magnitude too coarse (the paper's 500-cell grid over the 1000-unit
  /// space is 4x the raw object size, not 4x the enlarged size).
  float cell_size_multiplier = 4.0f;
  /// Nodes with fewer assigned entities than this skip the grid: each entity
  /// instead descends the node's own subtree, pruned by child MBRs — cheaper
  /// than building a grid (or sorting the whole descendant item range) for a
  /// handful of objects.
  size_t grid_min_entities = 8;

  /// Which dataset builds the tree (paper section 5.2.3 argues for the
  /// smaller one, which kAuto picks).
  enum class JoinOrder { kAuto, kBuildOnA, kBuildOnB };
  JoinOrder join_order = JoinOrder::kAuto;

  /// Runners for all three phases when the caller lends none: the calling
  /// thread plus `threads - 1` helper threads of the join's own. Every
  /// phase runs as morsels claimed from one shared counter: the STR slab
  /// sorts of the tree build, fixed ranges of probe objects, the x-parts
  /// of a split node's grid and (inner node, item range) slices — so even
  /// one dominant node (the root of a skewed tree) spreads over every
  /// runner. The tree, the results, their emission order and every
  /// JoinStats counter are identical at any thread count; only the calling
  /// thread emits. 0 or 1 runs the paper's single-threaded execution.
  int threads = 1;
};

/// TOUCH: in-memory spatial join by hierarchical data-oriented partitioning
/// (the paper's contribution, section 4).
///
/// Three phases: (1) bulk-load a TouchTree over the build dataset with STR;
/// (2) assign every probe object to the lowest tree node whose MBR covers it
/// without overlapping a sibling — objects overlapping nothing are *filtered*
/// out entirely; (3) join each node's assigned probe objects against the A
/// objects in its descendant leaves through a per-node equi-width grid.
/// Single assignment means no replication, no duplicate results, and a small
/// memory footprint; data-oriented partitioning keeps comparison counts low
/// on skewed data.
class TouchJoin : public SpatialJoinAlgorithm {
 public:
  explicit TouchJoin(const TouchOptions& options = {}) : options_(options) {}

  std::string_view name() const override { return "touch"; }
  JoinStats Join(std::span<const Box> a, std::span<const Box> b,
                 ResultCollector& out) override;

  /// Runs phases 2 and 3 against a tree that is already built over dataset
  /// `a` (constructed directly or converted with TouchTree::FromRTree) —
  /// the paper's section-4.3 shortcut for pre-indexed datasets. The tree's
  /// item ids must index into `a`. Join order is not swapped; build time is
  /// whatever the caller already paid.
  ///
  /// `probe_epsilon` enlarges every box of `b` on the fly (assignment and
  /// local join read b[i].Enlarged(probe_epsilon)), equivalent to passing a
  /// pre-enlarged copy of `b` but without materializing one — with the
  /// default grid local join, no per-call probe copy exists at all, which is
  /// what makes the engine's cached distance joins allocation-free. The
  /// nested-loop / plane-sweep local-join ablations still materialize one
  /// copy (and account for it in JoinStats::memory_bytes).
  ///
  /// `cancel` is polled cooperatively inside the assignment and local-join
  /// loops (every few thousand objects / before every morsel): once it
  /// fires, the join stops emitting and returns early with partial stats.
  /// The caller decides what a partial run means (the engine flags the
  /// request Cancelled); a default token makes every check free.
  ///
  /// `helpers`, when given, lends the threads that run morsels beside the
  /// calling thread in place of TouchOptions::threads (the engine lends its
  /// idle pool workers). The output is the same with or without them.
  JoinStats JoinWithPrebuiltTree(const TouchTree& tree,
                                 std::span<const Box> a,
                                 std::span<const Box> b, ResultCollector& out,
                                 float probe_epsilon = 0.0f,
                                 CancellationToken cancel = {},
                                 MorselHelpers* helpers = nullptr);

  const TouchOptions& options() const { return options_; }

 private:
  /// Runs the three phases with `build` as the tree-building dataset and
  /// `probe` as the assigned dataset. `swapped` is true when build==B, in
  /// which case emitted pairs are flipped back to (a, b) order.
  /// `probe_epsilon` enlarges probe boxes on the fly, `cancel` stops the
  /// run early and `helpers` lends runners (see JoinWithPrebuiltTree).
  JoinStats JoinOriented(std::span<const Box> build,
                         std::span<const Box> probe, bool swapped,
                         ResultCollector& out,
                         const TouchTree* prebuilt = nullptr,
                         float probe_epsilon = 0.0f,
                         CancellationToken cancel = {},
                         MorselHelpers* helpers = nullptr);

  TouchOptions options_;
};

}  // namespace touch

#endif  // TOUCH_CORE_TOUCH_H_
