#ifndef TOUCH_ENGINE_SHARD_H_
#define TOUCH_ENGINE_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "datagen/dataset.h"
#include "engine/catalog.h"
#include "geom/box.h"

namespace touch {

/// Shared immutable id map (global<->local remaps). The sharded mutation
/// path publishes a fresh vector per change (copy-on-write) instead of
/// editing in place, so gathers that pinned a map at scatter time keep a
/// consistent view however many batches land mid-flight.
using IdMapPtr = std::shared_ptr<const std::vector<uint32_t>>;

/// Sentinel in a shard_of map: this global id is not live (deleted, or
/// never assigned).
inline constexpr uint32_t kNoShard = 0xffffffffu;

/// One shard of a spatially partitioned dataset: a cell-aligned slab of the
/// dataset's registration histogram plus the boxes whose *centers* fall
/// into it. Assignment is center-based and therefore disjoint — every box
/// lives in exactly one shard — but a shard's tight MBR can stick out of
/// its slab (boxes straddle slab boundaries), which is why shard-pair
/// pruning tests MBRs, never slabs.
struct DatasetShard {
  /// Slab bounds in histogram-cell coordinates, [lo, hi) per axis. Records
  /// the partitioning decision for explain output and goldens.
  int cell_lo[3] = {0, 0, 0};
  int cell_hi[3] = {0, 0, 0};
  /// Tight MBR of the assigned boxes (Box::Empty() for an empty shard).
  Box mbr = Box::Empty();
  /// Global (pre-partition) index of each shard-local box: shard-local id i
  /// is global id to_global[i].
  std::vector<uint32_t> to_global;
  Dataset boxes;
};

/// Result of PartitionIntoShards: the shards plus the inverse id map.
struct ShardPartition {
  /// Slab counts per axis; kx * ky * kz == shards.size().
  int kx = 1;
  int ky = 1;
  int kz = 1;
  std::vector<DatasetShard> shards;
  /// Global box index -> shard index (the merge layer's owner map).
  std::vector<uint32_t> shard_of;
};

/// Spatially partitions `boxes` into exactly `shards` pieces with STR-style
/// slabs computed over the registration histogram in `stats` — never over
/// the geometry itself. The shard count is factored into per-axis slab
/// counts (kx, ky, kz), largest factor on the longest extent axis; cut
/// planes come from histogram marginals (x cuts globally, y cuts per
/// x-slab, z cuts per (x, y) block), each balancing the object count of its
/// slabs. The only geometry pass is the final O(N) center-to-shard
/// assignment, which reuses the exact cell mapping the histogram was built
/// with. `stats` must be the stats of `boxes` (histogram included);
/// `shards` < 1 is treated as 1. Shards may come out empty when the data
/// cannot be balanced (fewer boxes than shards, mass concentrated in one
/// histogram cell).
ShardPartition PartitionIntoShards(const Dataset& boxes,
                                   const DatasetStats& stats, int shards);

/// The sharded engine's registry: one logical dataset maps to K shard
/// datasets that live in an inner QueryEngine's catalog. This catalog
/// stores routing and merge metadata only — the slabs mutations are
/// routed by and the id remaps the gather needs — never geometry or
/// stats: each shard's geometry and stats (count, extent, histogram) live
/// in the inner DatasetCatalog under `engine_handle`, which keeps them
/// current across mutation batches.
class ShardedCatalog {
 public:
  struct Shard {
    /// The shard dataset's handle in the inner engine's DatasetCatalog.
    DatasetHandle engine_handle = 0;
    /// Shard-local object id -> global id (copy-on-write; see IdMapPtr).
    IdMapPtr to_global;
    /// Slab [cell_lo, cell_hi) on the entry's routing grid — the partition
    /// decision, and the center-cell rule mutations are routed by.
    int cell_lo[3] = {0, 0, 0};
    int cell_hi[3] = {0, 0, 0};
    /// The shard's MBR when it was (re)partitioned: the drift baseline for
    /// EngineOptions::shard_repartition_drift.
    Box base_mbr = Box::Empty();
    /// Mutation-path state (materialized lazily on the entry's first
    /// mutation batch; see ShardedQueryEngine::ApplyMutations):
    /// mirror of the inner dataset's next free object id, and the inverse
    /// id map a delete/update needs to find its shard-local target.
    uint32_t next_local = 0;
    std::unordered_map<uint32_t, uint32_t> local_of;
  };

  struct Entry {
    std::string name;
    /// Stats of the whole (unsharded) dataset as registered, for reporting.
    DatasetStats global_stats;
    std::vector<Shard> shards;
    /// Global id -> owning shard, kNoShard for deleted ids (the merge
    /// layer's dedup filter; copy-on-write like the per-shard id maps).
    IdMapPtr shard_of;
    /// The routing grid of the current partition epoch: the exact
    /// (domain, resolution) the assignment pass mapped centers with. A
    /// repartition replaces it along with the slabs.
    Box route_domain = Box::Empty();
    int route_resolution = 1;
    /// Monotonic per-dataset version: +1 per sharded mutation batch.
    uint64_t version = 0;
    /// Next free global id for inserts.
    uint32_t next_global = 0;
    /// True once the mutation-path state (next_local/local_of) has been
    /// materialized.
    bool mutable_ready = false;
  };

  /// Adds a fully built entry (the sharded engine assembles it during
  /// registration) and returns its handle. Entry references stay stable
  /// across later Add calls.
  DatasetHandle Add(Entry entry);

  size_t size() const { return entries_.size(); }
  bool Contains(DatasetHandle handle) const { return handle < entries_.size(); }
  const Entry& entry(DatasetHandle handle) const { return *entries_[handle]; }
  /// Mutable access for the sharded engine's mutation path; callers must
  /// hold the engine's catalog serialization (never exposed to users).
  Entry& mutable_entry(DatasetHandle handle) { return *entries_[handle]; }
  const std::string& name(DatasetHandle handle) const {
    return entries_[handle]->name;
  }

  /// Handle of the most recently added dataset named `name`.
  std::optional<DatasetHandle> Find(const std::string& name) const;

 private:
  // unique_ptr keeps Entry references stable across Add calls (the gather
  // holds shard pointers while requests are in flight).
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace touch

#endif  // TOUCH_ENGINE_SHARD_H_
