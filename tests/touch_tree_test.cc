#include "core/touch_tree.h"

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "morsel_test_helpers.h"
#include "test_util.h"

namespace touch {
namespace {

TEST(TouchTreeTest, EmptyTree) {
  const TouchTree tree({}, 8, 2);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
}

TEST(TouchTreeTest, SingleLeafTree) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 5, 1);
  const TouchTree tree(boxes, 8, 2);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_leaves(), 1u);
  const TouchTree::Node& root = tree.nodes()[tree.root()];
  EXPECT_TRUE(root.IsLeaf());
  EXPECT_EQ(root.ItemCount(), 5u);
}

TEST(TouchTreeTest, ItemsAreAPermutationOfInput) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 1000, 2);
  const TouchTree tree(boxes, 16, 2);
  std::vector<uint32_t> all(tree.item_ids().begin(), tree.item_ids().end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), boxes.size());
  for (uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(TouchTreeTest, RootCoversAllItems) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 500, 3);
  const TouchTree tree(boxes, 16, 2);
  const TouchTree::Node& root = tree.nodes()[tree.root()];
  EXPECT_EQ(root.item_begin, 0u);
  EXPECT_EQ(root.item_end, boxes.size());
  for (const Box& box : boxes) EXPECT_TRUE(Contains(root.mbr, box));
}

TEST(TouchTreeTest, NodeMbrsEncloseDescendantItems) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 800, 4);
  const TouchTree tree(boxes, 16, 4);
  for (const TouchTree::Node& node : tree.nodes()) {
    for (uint32_t i = node.item_begin; i < node.item_end; ++i) {
      EXPECT_TRUE(Contains(node.mbr, boxes[tree.item_ids()[i]]));
    }
  }
}

TEST(TouchTreeTest, ChildItemRangesTileTheParentRange) {
  // The DFS renumbering invariant: children's item ranges are contiguous and
  // exactly cover the parent's range.
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 5);
  const TouchTree tree(boxes, 8, 3);
  for (const TouchTree::Node& node : tree.nodes()) {
    if (node.IsLeaf()) continue;
    uint32_t covered = 0;
    uint32_t min_begin = UINT32_MAX;
    uint32_t max_end = 0;
    for (uint32_t i = 0; i < node.children_count; ++i) {
      const TouchTree::Node& child =
          tree.nodes()[tree.child_ids()[node.children_begin + i]];
      covered += child.ItemCount();
      min_begin = std::min(min_begin, child.item_begin);
      max_end = std::max(max_end, child.item_end);
    }
    EXPECT_EQ(covered, node.ItemCount());
    EXPECT_EQ(min_begin, node.item_begin);
    EXPECT_EQ(max_end, node.item_end);
  }
}

TEST(TouchTreeTest, ParentMbrsEncloseChildMbrs) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 600, 6);
  const TouchTree tree(boxes, 8, 2);
  for (const TouchTree::Node& node : tree.nodes()) {
    for (uint32_t i = 0; i < node.children_count; ++i) {
      const TouchTree::Node& child =
          tree.nodes()[tree.child_ids()[node.children_begin + i]];
      EXPECT_TRUE(Contains(node.mbr, child.mbr));
      EXPECT_EQ(child.level + 1, node.level);
    }
  }
}

TEST(TouchTreeTest, FanoutBoundsChildrenCount) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 7);
  for (const size_t fanout : {2u, 4u, 7u}) {
    const TouchTree tree(boxes, 8, fanout);
    for (const TouchTree::Node& node : tree.nodes()) {
      if (!node.IsLeaf()) {
        EXPECT_LE(node.children_count, fanout);
        EXPECT_GE(node.children_count, 1u);
      }
    }
  }
}

TEST(TouchTreeTest, SmallerFanoutYieldsTallerTree) {
  // Paper section 5.2.1: smaller fanout -> higher tree.
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 4000, 8);
  const TouchTree tall(boxes, 8, 2);
  const TouchTree flat(boxes, 8, 16);
  EXPECT_GT(tall.height(), flat.height());
}

TEST(TouchTreeTest, LeafCapacityControlsLeafCount) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1024, 9);
  const TouchTree fine(boxes, 4, 2);
  const TouchTree coarse(boxes, 128, 2);
  EXPECT_GT(fine.num_leaves(), coarse.num_leaves());
  EXPECT_GE(fine.num_leaves(), 256u);
  EXPECT_LE(coarse.num_leaves(), 16u);
}

TEST(TouchTreeTest, HeightMatchesRootLevel) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 2000, 10);
  const TouchTree tree(boxes, 8, 2);
  EXPECT_EQ(tree.nodes()[tree.root()].level + 1, tree.height());
}

TEST(TouchTreeTest, IdenticalBoxesBuildValidTree) {
  const Dataset boxes(300, MakeBox(1, 1, 1, 2, 2, 2));
  const TouchTree tree(boxes, 8, 2);
  EXPECT_EQ(tree.size(), 300u);
  const TouchTree::Node& root = tree.nodes()[tree.root()];
  EXPECT_EQ(root.mbr, MakeBox(1, 1, 1, 2, 2, 2));
}

TEST(TouchTreeTest, MemoryUsageIsPositiveAndGrows) {
  const Dataset small = GenerateSynthetic(Distribution::kUniform, 100, 11);
  const Dataset large = GenerateSynthetic(Distribution::kUniform, 10000, 11);
  const TouchTree t1(small, 8, 2);
  const TouchTree t2(large, 8, 2);
  EXPECT_GT(t1.MemoryUsageBytes(), 0u);
  EXPECT_LT(t1.MemoryUsageBytes(), t2.MemoryUsageBytes());
}

TEST(TouchTreeTest, HelpedBuildIsIdentical) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 30000, 9);
  const TouchTree alone(boxes, 30, 2);
  for (const int threads : {1, 3, 7}) {
    SCOPED_TRACE(threads);
    TestHelpers helpers(threads, /*wait=*/false);
    MorselReport report;
    const TouchTree helped(boxes, 30, 2, &helpers, &report);
    EXPECT_GE(report.morsels, 2u);  // the leaf level's x-slabs at least
    EXPECT_EQ(helped.root(), alone.root());
    EXPECT_EQ(helped.height(), alone.height());
    ASSERT_EQ(helped.nodes().size(), alone.nodes().size());
    for (size_t i = 0; i < alone.nodes().size(); ++i) {
      const TouchTree::Node& a = alone.nodes()[i];
      const TouchTree::Node& b = helped.nodes()[i];
      EXPECT_EQ(b.mbr.lo, a.mbr.lo) << i;
      EXPECT_EQ(b.mbr.hi, a.mbr.hi) << i;
      EXPECT_EQ(b.children_begin, a.children_begin) << i;
      EXPECT_EQ(b.children_count, a.children_count) << i;
      EXPECT_EQ(b.item_begin, a.item_begin) << i;
      EXPECT_EQ(b.item_end, a.item_end) << i;
      EXPECT_EQ(b.level, a.level) << i;
    }
    EXPECT_TRUE(std::ranges::equal(helped.child_ids(), alone.child_ids()));
    EXPECT_TRUE(std::ranges::equal(helped.item_ids(), alone.item_ids()));
  }
}

}  // namespace
}  // namespace touch
