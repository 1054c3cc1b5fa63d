#ifndef TOUCH_CORE_TOUCH_SCRATCH_H_
#define TOUCH_CORE_TOUCH_SCRATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/overlap_kernel.h"
#include "util/memory.h"

namespace touch {

/// Id lists of many buckets in compressed rows: bucket k's ids are
/// ids_[begin_[k], begin_[k + 1]). Built by counting, so it holds one
/// offset per bucket and one id per entry — and, reused across joins, its
/// two arrays stop growing at the largest build they served, where a
/// vector per bucket would keep the longest list any build ever left in
/// it. Serves as a node's grid (buckets = cells), as the per-node entity
/// lists (buckets = tree nodes) and as a split node's x-parts.
///
/// A build runs Reset, Count for every entry, Layout, then Place for every
/// entry. Count and Place touch only the bucket they name, so several
/// threads may count or place at once as long as no two share a bucket.
class IdBuckets {
 public:
  /// Starts a build of `buckets` empty buckets.
  void Reset(uint64_t buckets) { begin_.assign(buckets + 1, 0); }

  /// Adds `entries` to the size of `bucket`.
  void Count(uint64_t bucket, size_t entries = 1) {
    begin_[bucket] += entries;
  }

  /// Sizes the id array for the counted entries; each begin_[k] becomes
  /// the end of bucket k, from which Place fills the bucket backwards.
  void Layout() {
    const size_t buckets = begin_.size() - 1;
    for (size_t bucket = 1; bucket < buckets; ++bucket) {
      begin_[bucket] += begin_[bucket - 1];
    }
    begin_[buckets] = buckets > 0 ? begin_[buckets - 1] : 0;
    ids_.resize(begin_[buckets]);
  }

  /// Puts `id` in front of the ids placed in `bucket` so far: placing a
  /// bucket's ids in reverse order leaves them in order. Once every counted
  /// entry is placed, each begin_[k] is the start of bucket k again.
  void Place(uint64_t bucket, uint32_t id) { ids_[--begin_[bucket]] = id; }

  /// The whole build on one thread: `for_each_bucket(id, visit)` calls
  /// visit(bucket) for every bucket `id` goes into, if any. Each bucket
  /// lists its ids in the order of `ids`.
  template <typename ForEachBucket>
  void Build(uint64_t buckets, std::span<const uint32_t> ids,
             const ForEachBucket& for_each_bucket) {
    Reset(buckets);
    for (const uint32_t id : ids) {
      for_each_bucket(id, [&](uint64_t bucket) { Count(bucket); });
    }
    Layout();
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      for_each_bucket(*it, [&](uint64_t bucket) { Place(bucket, *it); });
    }
  }

  std::span<const uint32_t> operator[](uint64_t bucket) const {
    return std::span<const uint32_t>(ids_).subspan(
        begin_[bucket], begin_[bucket + 1] - begin_[bucket]);
  }

  /// Analytic footprint of the current build (sizes, not the capacity left
  /// over from earlier builds).
  size_t Bytes() const {
    return begin_.size() * sizeof(size_t) + ids_.size() * sizeof(uint32_t);
  }

  /// Bytes held, including capacity left over from earlier builds.
  size_t CapacityBytes() const {
    return VectorBytes(begin_) + VectorBytes(ids_);
  }

 private:
  // size_t: a grid of huge boxes can hold more than 2^32 copies, which
  // must fail to allocate rather than wrap.
  std::vector<size_t> begin_;
  std::vector<uint32_t> ids_;
};

/// Bytes of scratch a thread keeps between joins. A join grows its scratch
/// as far as it needs; when it returns, the largest arrays are released
/// until the rest fits. So every thread that ever joined (engine workers,
/// library callers) holds at most this much, whatever the largest join it
/// ran — enough for a 2^18-cell grid plus the slabs of a join of about
/// 200k objects, which then reuse their arrays from join to join.
constexpr size_t kRetainedScratchBytes = size_t{16} << 20;

/// Entities per tree node of one assignment morsel. A count is zero unless
/// its node is listed in Nodes(), so each morsel clears only the nodes the
/// previous one counted. The two arrays are one unit: LocalJoinScratch::Trim
/// releases them together, so no listed node ever lies past the counts.
class NodeCounter {
 public:
  /// Clears the last morsel's counts and readies counts for `nodes` nodes,
  /// of which at most `max_counted` get an entity.
  void Start(size_t nodes, size_t max_counted) {
    for (const uint32_t node : counted_) counts_[node] = 0;
    counted_.clear();
    if (counts_.size() < nodes) counts_.resize(nodes, 0);
    counted_.reserve(std::min(nodes, max_counted));
  }

  /// Counts one entity of `node`.
  void Add(uint32_t node) {
    if (counts_[node]++ == 0) counted_.push_back(node);
  }

  /// Nodes with at least one entity, in the order first counted.
  std::span<const uint32_t> Nodes() const { return counted_; }
  uint32_t Count(uint32_t node) const { return counts_[node]; }

  /// Bytes held, including capacity left over from earlier morsels.
  size_t CapacityBytes() const {
    return VectorBytes(counts_) + VectorBytes(counted_);
  }

 private:
  std::vector<uint32_t> counts_;
  std::vector<uint32_t> counted_;
};

/// Working state of one runner of TOUCH's morsel loops. The calling
/// thread's also holds the arrays its runners share: the slabs, the
/// assignment and per-node entity lists and a split node's grid (`cells`).
struct LocalJoinScratch {
  IdBuckets cells;
  std::vector<uint32_t> descent_stack;
  std::vector<uint32_t> hits;
  BoxSlab child_mbr_slab;
  BoxSlab item_slab;
  BoxSlab probe_slab;
  std::vector<uint32_t> assigned_node;
  IdBuckets entities;
  /// Entities per node of this runner's current assignment morsel.
  NodeCounter node_counts;

  /// Releases the largest arrays until the rest holds at most `budget`
  /// bytes. Allocates nothing.
  void Trim(size_t budget);

 private:
  template <typename Self, typename Visit>
  static void ForEachArray(Self& self, const Visit& visit) {
    visit(self.cells);
    visit(self.descent_stack);
    visit(self.hits);
    visit(self.child_mbr_slab);
    visit(self.item_slab);
    visit(self.probe_slab);
    visit(self.assigned_node);
    visit(self.entities);
    visit(self.node_counts);
  }
};

/// One scratch per thread, reused across joins: its arrays grow to the
/// largest join a thread has run once, not once per join, and are trimmed
/// to kRetainedScratchBytes when the lease ends. A lease taken on a thread
/// that already holds the scratch (a sink joining inside Emit) gets a
/// private one instead of clobbering a grid helpers may be reading.
class ScratchLease {
 public:
  ScratchLease();
  ~ScratchLease();
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  LocalJoinScratch& get() { return *scratch_; }

 private:
  bool* leased_ = nullptr;
  LocalJoinScratch* scratch_ = nullptr;
  std::unique_ptr<LocalJoinScratch> owned_;
};

}  // namespace touch

#endif  // TOUCH_CORE_TOUCH_SCRATCH_H_
