#include "index/str.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace touch {
namespace {

// Sort key of `id` along `axis` (see StrPartition): the center's float
// bits made unsigned-ordered above the id. Adding +0.0f folds -0 into +0,
// which compare equal as floats, so they tie and break by id.
uint64_t CenterKey(std::span<const Box> boxes, uint32_t id, int axis) {
  const float center = boxes[id].lo[axis] + boxes[id].hi[axis] + 0.0f;
  const auto bits = std::bit_cast<uint32_t>(center);
  const uint32_t ordered = (bits & 0x80000000u) != 0 ? ~bits
                                                     : bits | 0x80000000u;
  return (static_cast<uint64_t>(ordered) << 32) | id;
}

// Sorts order[begin, end) by box center along `axis`, ties by id, through
// keys[begin, end): a sort of plain integers instead of an indirect
// comparator that loads two boxes per comparison.
void SortByCenter(std::span<const Box> boxes, std::span<uint32_t> order,
                  std::span<uint64_t> keys, size_t begin, size_t end,
                  int axis) {
  for (size_t i = begin; i < end; ++i) {
    keys[i] = CenterKey(boxes, order[i], axis);
  }
  std::sort(keys.begin() + static_cast<ptrdiff_t>(begin),
            keys.begin() + static_cast<ptrdiff_t>(end));
  for (size_t i = begin; i < end; ++i) {
    order[i] = static_cast<uint32_t>(keys[i]);
  }
}

}  // namespace

StrPartitioning StrPartition(std::span<const Box> boxes, size_t bucket_size,
                             MorselHelpers* helpers, MorselReport* report) {
  StrPartitioning out;
  const size_t n = boxes.size();
  if (bucket_size == 0) bucket_size = 1;
  out.order.resize(n);
  for (size_t i = 0; i < n; ++i) out.order[i] = static_cast<uint32_t>(i);
  if (n == 0) {
    out.bucket_begin.push_back(0);
    return out;
  }

  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;
  // S slabs per dimension, S = ceil(P^(1/3)).
  const size_t s = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::cbrt(static_cast<double>(num_buckets)) - 1e-9)));
  const size_t slab_x = bucket_size * s * s;  // objects per x-slab
  const size_t slab_y = bucket_size * s;      // objects per y-tile

  std::vector<uint64_t> keys(n);
  const std::span<uint32_t> order(out.order);

  SortByCenter(boxes, order, keys, 0, n, /*axis=*/0);
  // Each x-slab re-sorts by y and its tiles by z within its own range of
  // `order` and `keys`, so the slabs are independent morsels.
  const size_t slabs = (n + slab_x - 1) / slab_x;
  MorselReport unreported;
  RunMorsels(helpers, CancellationToken(),
             {.count = slabs,
              .run =
                  [&](size_t slab, bool) {
                    const size_t x0 = slab * slab_x;
                    const size_t x1 = std::min(n, x0 + slab_x);
                    SortByCenter(boxes, order, keys, x0, x1, /*axis=*/1);
                    for (size_t y0 = x0; y0 < x1; y0 += slab_y) {
                      SortByCenter(boxes, order, keys, y0,
                                   std::min(x1, y0 + slab_y), /*axis=*/2);
                    }
                  }},
             report != nullptr ? *report : unreported);

  out.bucket_begin.push_back(0);
  for (size_t x0 = 0; x0 < n; x0 += slab_x) {
    const size_t x1 = std::min(n, x0 + slab_x);
    for (size_t y0 = x0; y0 < x1; y0 += slab_y) {
      const size_t y1 = std::min(x1, y0 + slab_y);
      for (size_t z0 = y0; z0 < y1; z0 += bucket_size) {
        const size_t z1 = std::min(y1, z0 + bucket_size);
        out.bucket_begin.push_back(static_cast<uint32_t>(z1));
      }
    }
  }
  return out;
}

Box BucketMbr(std::span<const Box> boxes, std::span<const uint32_t> ids) {
  Box mbr = Box::Empty();
  for (uint32_t id : ids) mbr.ExpandToContain(boxes[id]);
  return mbr;
}

}  // namespace touch
