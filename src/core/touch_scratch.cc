#include "core/touch_scratch.h"

#include <type_traits>

namespace touch {
namespace {

size_t HeldBytes(const IdBuckets& buckets) { return buckets.CapacityBytes(); }
size_t HeldBytes(const NodeCounter& counter) {
  return counter.CapacityBytes();
}
size_t HeldBytes(const BoxSlab& slab) { return slab.MemoryUsageBytes(); }
template <typename T>
size_t HeldBytes(const std::vector<T>& array) {
  return VectorBytes(array);
}

}  // namespace

void LocalJoinScratch::Trim(size_t budget) {
  for (;;) {
    size_t total = 0;
    size_t largest_bytes = 0;
    int largest = 0;
    int index = 0;
    ForEachArray(*this, [&](const auto& array) {
      const size_t bytes = HeldBytes(array);
      total += bytes;
      if (bytes > largest_bytes) {
        largest_bytes = bytes;
        largest = index;
      }
      ++index;
    });
    if (total <= budget) return;
    index = 0;
    ForEachArray(*this, [&](auto& array) {
      if (index++ == largest) array = std::remove_cvref_t<decltype(array)>();
    });
  }
}

ScratchLease::ScratchLease() {
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

ScratchLease::~ScratchLease() {
  if (leased_ == nullptr) return;
  scratch_->Trim(kRetainedScratchBytes);
  *leased_ = false;
}

}  // namespace touch
