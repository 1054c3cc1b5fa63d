#include "index/str.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "datagen/distributions.h"
#include "morsel_test_helpers.h"
#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

TEST(StrTest, EmptyInput) {
  const StrPartitioning p = StrPartition({}, 8);
  EXPECT_EQ(p.NumBuckets(), 0u);
  EXPECT_TRUE(p.order.empty());
}

TEST(StrTest, SingleObject) {
  const Dataset boxes = {MakeBox(0, 0, 0, 1, 1, 1)};
  const StrPartitioning p = StrPartition(boxes, 8);
  ASSERT_EQ(p.NumBuckets(), 1u);
  EXPECT_EQ(p.Bucket(0).size(), 1u);
  EXPECT_EQ(p.Bucket(0)[0], 0u);
}

TEST(StrTest, OrderIsAPermutation) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 1000, 1);
  const StrPartitioning p = StrPartition(boxes, 16);
  std::vector<uint32_t> sorted = p.order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(StrTest, BucketSizesRespectCapacity) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 2);
  const StrPartitioning p = StrPartition(boxes, 16);
  size_t total = 0;
  for (size_t b = 0; b < p.NumBuckets(); ++b) {
    EXPECT_LE(p.Bucket(b).size(), 16u);
    EXPECT_GE(p.Bucket(b).size(), 1u);
    total += p.Bucket(b).size();
  }
  EXPECT_EQ(total, boxes.size());
}

TEST(StrTest, BucketCountNearOptimal) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 3);
  const StrPartitioning p = StrPartition(boxes, 10);
  // ceil(1000/10) = 100 ideal buckets; STR's slab rounding may add a few.
  EXPECT_GE(p.NumBuckets(), 100u);
  EXPECT_LE(p.NumBuckets(), 130u);
}

TEST(StrTest, BucketBeginIsMonotone) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 777, 4);
  const StrPartitioning p = StrPartition(boxes, 8);
  for (size_t i = 1; i < p.bucket_begin.size(); ++i) {
    EXPECT_LT(p.bucket_begin[i - 1], p.bucket_begin[i]);
  }
  EXPECT_EQ(p.bucket_begin.back(), boxes.size());
}

TEST(StrTest, DeterministicOnTies) {
  // All-identical boxes: ordering must still be a deterministic permutation.
  const Dataset boxes(100, MakeBox(1, 1, 1, 2, 2, 2));
  const StrPartitioning p1 = StrPartition(boxes, 7);
  const StrPartitioning p2 = StrPartition(boxes, 7);
  EXPECT_EQ(p1.order, p2.order);
  EXPECT_EQ(p1.bucket_begin, p2.bucket_begin);
}

TEST(StrTest, TilingBeatsRandomBucketsOnMbrVolume) {
  // STR's point: spatially grouped buckets have far smaller MBRs than
  // arbitrary buckets of the same size.
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 2000, 5);
  const size_t bucket = 20;
  const StrPartitioning p = StrPartition(boxes, bucket);
  double str_volume = 0;
  for (size_t b = 0; b < p.NumBuckets(); ++b) {
    str_volume += BucketMbr(boxes, p.Bucket(b)).Volume();
  }
  // Random (insertion-order) buckets.
  std::vector<uint32_t> ids(boxes.size());
  std::iota(ids.begin(), ids.end(), 0);
  double random_volume = 0;
  for (size_t begin = 0; begin < ids.size(); begin += bucket) {
    const size_t end = std::min(ids.size(), begin + bucket);
    random_volume +=
        BucketMbr(boxes, std::span<const uint32_t>(ids).subspan(
                             begin, end - begin))
            .Volume();
  }
  EXPECT_LT(str_volume, random_volume / 10);
}

TEST(StrTest, BucketMbrEnclosesAllMembers) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 500, 6);
  const StrPartitioning p = StrPartition(boxes, 32);
  for (size_t b = 0; b < p.NumBuckets(); ++b) {
    const Box mbr = BucketMbr(boxes, p.Bucket(b));
    for (uint32_t id : p.Bucket(b)) {
      EXPECT_TRUE(Contains(mbr, boxes[id]));
    }
  }
}

TEST(StrTest, BucketSizeOneYieldsOneBucketPerObject) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 50, 7);
  const StrPartitioning p = StrPartition(boxes, 1);
  EXPECT_EQ(p.NumBuckets(), boxes.size());
}

TEST(StrTest, BucketSizeLargerThanInputYieldsSingleBucket) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 50, 8);
  const StrPartitioning p = StrPartition(boxes, 1000);
  EXPECT_EQ(p.NumBuckets(), 1u);
  EXPECT_EQ(p.Bucket(0).size(), 50u);
}

TEST(StrTest, BucketSizeZeroIsTreatedAsOne) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 10, 9);
  const StrPartitioning p = StrPartition(boxes, 0);
  EXPECT_EQ(p.NumBuckets(), 10u);
}

// STR as it sorted before the keyed sort: ids through a comparator on the
// float center, ties by id. The keyed sort must give the same partitioning.
StrPartitioning ComparatorPartition(std::span<const Box> boxes,
                                    size_t bucket_size) {
  StrPartitioning out;
  const size_t n = boxes.size();
  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), 0u);
  out.bucket_begin.push_back(0);
  if (n == 0) return out;
  const auto sort = [&](size_t begin, size_t end, int axis) {
    std::sort(out.order.begin() + static_cast<ptrdiff_t>(begin),
              out.order.begin() + static_cast<ptrdiff_t>(end),
              [&](uint32_t a, uint32_t b) {
                const float ca = boxes[a].lo[axis] + boxes[a].hi[axis];
                const float cb = boxes[b].lo[axis] + boxes[b].hi[axis];
                if (ca != cb) return ca < cb;
                return a < b;
              });
  };
  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;
  const size_t s = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::cbrt(static_cast<double>(num_buckets)) - 1e-9)));
  const size_t slab_x = bucket_size * s * s;
  sort(0, n, 0);
  for (size_t x0 = 0; x0 < n; x0 += slab_x) {
    const size_t x1 = std::min(n, x0 + slab_x);
    sort(x0, x1, 1);
    for (size_t y0 = x0; y0 < x1; y0 += bucket_size * s) {
      const size_t y1 = std::min(x1, y0 + bucket_size * s);
      sort(y0, y1, 2);
      for (size_t z0 = y0; z0 < y1; z0 += bucket_size) {
        out.bucket_begin.push_back(
            static_cast<uint32_t>(std::min(y1, z0 + bucket_size)));
      }
    }
  }
  return out;
}

void ExpectSamePartitioning(const Dataset& boxes, size_t bucket_size) {
  const StrPartitioning expected = ComparatorPartition(boxes, bucket_size);
  const StrPartitioning keyed = StrPartition(boxes, bucket_size);
  EXPECT_EQ(keyed.order, expected.order);
  EXPECT_EQ(keyed.bucket_begin, expected.bucket_begin);
  // Identical at 1, 2, 4 and 8 runners, whether the helpers race the
  // calling thread or take every slab first.
  for (const int helpers : {1, 3, 7}) {
    for (const bool wait : {false, true}) {
      SCOPED_TRACE(testing::Message() << helpers << " helpers, wait " << wait);
      TestHelpers lent(helpers, wait);
      MorselReport report;
      const StrPartitioning helped =
          StrPartition(boxes, bucket_size, &lent, &report);
      EXPECT_EQ(helped.order, expected.order);
      EXPECT_EQ(helped.bucket_begin, expected.bucket_begin);
    }
  }
}

TEST(StrKeyedSortTest, RandomInputMatchesTheComparatorSort) {
  ExpectSamePartitioning(GenerateSynthetic(Distribution::kUniform, 5000, 11),
                         16);
  ExpectSamePartitioning(GenerateSynthetic(Distribution::kClustered, 5000, 12),
                         7);
  // Centers on both sides of zero, so both halves of the key mapping run.
  Dataset signed_boxes = GenerateSynthetic(Distribution::kGaussian, 5000, 13);
  for (Box& box : signed_boxes) {
    box = MakeBox(box.lo.x - 500, box.lo.y - 500, box.lo.z - 500,
                  box.hi.x - 500, box.hi.y - 500, box.hi.z - 500);
  }
  ExpectSamePartitioning(signed_boxes, 9);
}

TEST(StrKeyedSortTest, TieHeavyInputBreaksTiesById) {
  // Few distinct centers per axis, boxes of different extents around them.
  Rng rng(14);
  Dataset boxes;
  for (int i = 0; i < 4000; ++i) {
    const float c[3] = {static_cast<float>(rng.UniformInt(5)),
                        static_cast<float>(rng.UniformInt(3)),
                        static_cast<float>(rng.UniformInt(4))};
    const float h = static_cast<float>(1 + rng.UniformInt(3));
    boxes.push_back(MakeBox(c[0] - h, c[1] - h, c[2] - h, c[0] + h, c[1] + h,
                            c[2] + h));
  }
  ExpectSamePartitioning(boxes, 8);
  ExpectSamePartitioning(Dataset(500, MakeBox(1, 1, 1, 2, 2, 2)), 7);
}

TEST(StrKeyedSortTest, NegativeAndPositiveZeroCentersTie) {
  // Centers of -0.0 (lo = hi = -0) and +0.0 (lo = hi = +0, or -1 and 1)
  // compare equal as floats, so they must tie and order by id.
  Rng rng(15);
  Dataset boxes;
  for (int i = 0; i < 3000; ++i) {
    float lo[3];
    float hi[3];
    for (int axis = 0; axis < 3; ++axis) {
      switch (rng.UniformInt(4)) {
        case 0:
          lo[axis] = hi[axis] = -0.0f;
          break;
        case 1:
          lo[axis] = hi[axis] = 0.0f;
          break;
        case 2:
          lo[axis] = -1.0f;
          hi[axis] = 1.0f;
          break;
        default:
          lo[axis] = -2.0f;
          hi[axis] = -1.0f;
          break;
      }
    }
    boxes.push_back(MakeBox(lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]));
  }
  ASSERT_TRUE(std::any_of(boxes.begin(), boxes.end(), [](const Box& box) {
    const float center = box.lo.x + box.hi.x;
    return center == 0 && std::signbit(center);
  }));
  ExpectSamePartitioning(boxes, 5);
  ExpectSamePartitioning(boxes, 1);
}

}  // namespace
}  // namespace touch
