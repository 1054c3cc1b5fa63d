#ifndef TOUCH_INDEX_STR_H_
#define TOUCH_INDEX_STR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.h"
#include "util/morsel.h"

namespace touch {

/// Result of Sort-Tile-Recursive packing: a permutation of the input ids
/// grouped into consecutive buckets.
///
/// Bucket i consists of `order[bucket_begin[i] .. bucket_begin[i+1])`;
/// `bucket_begin` has NumBuckets()+1 entries (last one = input size).
struct StrPartitioning {
  std::vector<uint32_t> order;
  std::vector<uint32_t> bucket_begin;

  size_t NumBuckets() const {
    return bucket_begin.empty() ? 0 : bucket_begin.size() - 1;
  }

  /// Ids of bucket `i`.
  std::span<const uint32_t> Bucket(size_t i) const {
    return std::span<const uint32_t>(order).subspan(
        bucket_begin[i], bucket_begin[i + 1] - bucket_begin[i]);
  }
};

/// Sort-Tile-Recursive packing (Leutenegger et al., ICDE'97) of 3D boxes into
/// buckets of at most `bucket_size` objects.
///
/// Sorts by x-center into vertical slabs, re-sorts each slab by y-center into
/// tiles, re-sorts each tile by z-center and chops it into buckets. STR
/// "typically produces leaf nodes with the smallest MBRs" (paper section 5.1)
/// which is why both the R-tree bulk loader and TOUCH's partitioning phase
/// use it.
///
/// Every sort orders ids by the center along its axis, ties by id. It sorts
/// 64-bit keys rather than ids through a comparator: a key holds the bits
/// of the float `lo + hi + 0.0f` in its high half, mapped so that unsigned
/// order is float order (sign bit set: all bits flipped; clear: sign bit
/// set), and the id in its low half. The `+ 0.0f` turns a center of -0
/// into +0: the two compare equal as floats, so they must tie and fall back
/// to the id, exactly as the comparator sort does.
///
/// The x-sort runs on the calling thread; the slabs' y- and z-sorts touch
/// disjoint ranges and run as morsels on `helpers` too, when given. The
/// output is identical at any runner count. `report`, when given, receives
/// the slab loop's morsel figures.
StrPartitioning StrPartition(std::span<const Box> boxes, size_t bucket_size,
                             MorselHelpers* helpers = nullptr,
                             MorselReport* report = nullptr);

/// MBR of a bucket of object ids.
Box BucketMbr(std::span<const Box> boxes, std::span<const uint32_t> ids);

}  // namespace touch

#endif  // TOUCH_INDEX_STR_H_
