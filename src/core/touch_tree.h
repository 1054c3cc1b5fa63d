#ifndef TOUCH_CORE_TOUCH_TREE_H_
#define TOUCH_CORE_TOUCH_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.h"
#include "index/rtree.h"
#include "util/morsel.h"

namespace touch {

/// The hierarchical data-oriented partitioning tree of TOUCH (paper sections
/// 4.3 and 5, Figure 5): an R-tree-like hierarchy bulk-loaded with STR over
/// dataset A. Leaf nodes reference the objects of A; inner nodes exist to
/// receive the objects of B during the assignment phase.
///
/// The tree is immutable after construction. Items (A object ids) are stored
/// in one flat array in DFS order, so *every* node's descendant objects form
/// one contiguous range — the join phase walks [item_begin, item_end) instead
/// of re-collecting leaves.
class TouchTree {
 public:
  struct Node {
    Box mbr;
    /// Children range in child_ids(); empty for leaves.
    uint32_t children_begin = 0;
    uint32_t children_count = 0;
    /// Descendant A objects: range in item_ids().
    uint32_t item_begin = 0;
    uint32_t item_end = 0;
    /// 0 = leaf; the root has the highest level.
    uint8_t level = 0;

    bool IsLeaf() const { return children_count == 0; }
    uint32_t ItemCount() const { return item_end - item_begin; }
  };

  /// Builds the tree over `boxes` with STR packing: leaves hold up to
  /// `leaf_capacity` objects, inner nodes have up to `fanout` children.
  /// `helpers`, when given, lends threads that run the STR slab sorts as
  /// morsels beside the calling thread (see StrPartition); the tree is the
  /// same with or without them. `report`, when given, receives the morsel
  /// figures of every STR pass.
  TouchTree(std::span<const Box> boxes, size_t leaf_capacity, size_t fanout,
            MorselHelpers* helpers = nullptr, MorselReport* report = nullptr);

  /// Converts an existing bulk-loaded R-tree over dataset A into the TOUCH
  /// tree, skipping the tree-building phase entirely — the paper's section
  /// 4.3: "Should one of the datasets already be indexed with a hierarchical
  /// index which uses data-oriented partitioning, then this index can easily
  /// be converted to the tree needed for TOUCH". The item ids of `index`
  /// must refer to the same dataset span later passed to the join.
  static TouchTree FromRTree(const RTree& index);

  size_t size() const { return item_ids_.size(); }
  bool empty() const { return item_ids_.empty(); }

  uint32_t root() const { return root_; }
  std::span<const Node> nodes() const { return nodes_; }
  std::span<const uint32_t> child_ids() const { return child_ids_; }
  /// A object ids in DFS leaf order.
  std::span<const uint32_t> item_ids() const { return item_ids_; }

  /// Number of levels (1 for a single-leaf tree, 0 when empty).
  int height() const { return height_; }
  size_t num_leaves() const { return num_leaves_; }

  /// Exact bytes held by the tree structures.
  size_t MemoryUsageBytes() const;

 private:
  TouchTree() = default;  // used by FromRTree

  std::vector<Node> nodes_;
  std::vector<uint32_t> child_ids_;
  std::vector<uint32_t> item_ids_;
  uint32_t root_ = 0;
  int height_ = 0;
  size_t num_leaves_ = 0;
};

}  // namespace touch

#endif  // TOUCH_CORE_TOUCH_TREE_H_
