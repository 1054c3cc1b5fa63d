#include "core/touch_tree.h"

#include <algorithm>

#include "index/str.h"
#include "util/memory.h"

namespace touch {

TouchTree::TouchTree(std::span<const Box> boxes, size_t leaf_capacity,
                     size_t fanout, MorselHelpers* helpers,
                     MorselReport* report) {
  leaf_capacity = std::max<size_t>(1, leaf_capacity);
  fanout = std::max<size_t>(2, fanout);
  if (boxes.empty()) return;

  // Phase 1a: STR-pack the objects into leaf buckets (paper section 5.1).
  const StrPartitioning leaves =
      StrPartition(boxes, leaf_capacity, helpers, report);
  num_leaves_ = leaves.NumBuckets();
  std::vector<uint32_t> current_level;
  current_level.reserve(num_leaves_);
  for (size_t bucket = 0; bucket < num_leaves_; ++bucket) {
    Node node;
    node.mbr = BucketMbr(boxes, leaves.Bucket(bucket));
    // Temporarily store the bucket range over leaves.order; the DFS pass
    // below rewrites these into final item ranges.
    node.item_begin = leaves.bucket_begin[bucket];
    node.item_end = leaves.bucket_begin[bucket + 1];
    node.level = 0;
    current_level.push_back(static_cast<uint32_t>(nodes_.size()));
    nodes_.push_back(node);
  }
  height_ = 1;

  // Phase 1b: recursively summarize `fanout` nodes per parent, re-tiling each
  // level with STR over the node MBRs (Algorithm 2).
  while (current_level.size() > 1) {
    std::vector<Box> level_mbrs;
    level_mbrs.reserve(current_level.size());
    for (uint32_t id : current_level) level_mbrs.push_back(nodes_[id].mbr);

    const StrPartitioning packed =
        StrPartition(level_mbrs, fanout, helpers, report);
    std::vector<uint32_t> next_level;
    next_level.reserve(packed.NumBuckets());
    for (size_t bucket = 0; bucket < packed.NumBuckets(); ++bucket) {
      Node node;
      node.mbr = Box::Empty();
      node.children_begin = static_cast<uint32_t>(child_ids_.size());
      node.children_count = static_cast<uint32_t>(packed.Bucket(bucket).size());
      node.level = static_cast<uint8_t>(height_);
      for (uint32_t local : packed.Bucket(bucket)) {
        const uint32_t child = current_level[local];
        child_ids_.push_back(child);
        node.mbr.ExpandToContain(nodes_[child].mbr);
      }
      next_level.push_back(static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(node);
    }
    current_level = std::move(next_level);
    ++height_;
  }
  root_ = current_level.front();

  // Phase 1c: DFS renumbering — emit leaf items in DFS order so that every
  // node's descendant objects are contiguous in item_ids_.
  item_ids_.reserve(boxes.size());
  // Iterative DFS with explicit item-range bookkeeping: record the position
  // before visiting a subtree, set the range after.
  struct Frame {
    uint32_t node;
    uint32_t next_child = 0;
    uint32_t start = 0;
  };
  std::vector<Frame> frames;
  frames.push_back(
      Frame{root_, 0, static_cast<uint32_t>(item_ids_.size())});
  while (!frames.empty()) {
    Frame& frame = frames.back();
    Node& node = nodes_[frame.node];
    if (node.IsLeaf()) {
      const uint32_t start = static_cast<uint32_t>(item_ids_.size());
      for (uint32_t i = node.item_begin; i < node.item_end; ++i) {
        item_ids_.push_back(leaves.order[i]);
      }
      node.item_begin = start;
      node.item_end = static_cast<uint32_t>(item_ids_.size());
      frames.pop_back();
      continue;
    }
    if (frame.next_child < node.children_count) {
      const uint32_t child =
          child_ids_[node.children_begin + frame.next_child];
      ++frame.next_child;
      frames.push_back(
          Frame{child, 0, static_cast<uint32_t>(item_ids_.size())});
      continue;
    }
    node.item_begin = frame.start;
    node.item_end = static_cast<uint32_t>(item_ids_.size());
    frames.pop_back();
  }
}

TouchTree TouchTree::FromRTree(const RTree& index) {
  TouchTree tree;
  if (index.empty()) return tree;

  // One DFS over the R-tree: nodes and child ranges are emitted parent-
  // before-children, items in leaf-visit order, so every node's descendant
  // items are contiguous — exactly the layout the STR constructor produces.
  struct Frame {
    uint32_t source;  // node id in `index`
    uint32_t target;  // node id in `tree`
    uint32_t next_child = 0;
  };
  tree.item_ids_.reserve(index.size());
  tree.nodes_.reserve(index.nodes().size());

  const auto make_node = [&](uint32_t source) {
    const RTree::Node& src = index.nodes()[source];
    Node node;
    node.mbr = src.mbr;
    node.level = src.level;
    node.item_begin = static_cast<uint32_t>(tree.item_ids_.size());
    if (src.IsLeaf()) {
      ++tree.num_leaves_;
      for (uint32_t i = src.begin; i < src.begin + src.count; ++i) {
        tree.item_ids_.push_back(index.item_ids()[i]);
      }
      node.item_end = static_cast<uint32_t>(tree.item_ids_.size());
    } else {
      node.children_begin = static_cast<uint32_t>(tree.child_ids_.size());
      node.children_count = src.count;
      tree.child_ids_.resize(tree.child_ids_.size() + src.count);
    }
    tree.nodes_.push_back(node);
    return static_cast<uint32_t>(tree.nodes_.size() - 1);
  };

  std::vector<Frame> frames;
  tree.root_ = make_node(index.root());
  frames.push_back(Frame{index.root(), tree.root_});
  while (!frames.empty()) {
    Frame& frame = frames.back();
    const RTree::Node& src = index.nodes()[frame.source];
    if (src.IsLeaf() || frame.next_child == src.count) {
      tree.nodes_[frame.target].item_end =
          static_cast<uint32_t>(tree.item_ids_.size());
      frames.pop_back();
      continue;
    }
    const uint32_t source_child =
        index.child_ids()[src.begin + frame.next_child];
    const uint32_t slot =
        tree.nodes_[frame.target].children_begin + frame.next_child;
    ++frame.next_child;
    const uint32_t target_child = make_node(source_child);
    tree.child_ids_[slot] = target_child;
    frames.push_back(Frame{source_child, target_child});
  }
  tree.height_ = index.height();
  return tree;
}

size_t TouchTree::MemoryUsageBytes() const {
  return VectorBytes(nodes_) + VectorBytes(child_ids_) + VectorBytes(item_ids_);
}

}  // namespace touch
