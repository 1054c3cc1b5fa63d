#ifndef TOUCH_ENGINE_CATALOG_H_
#define TOUCH_ENGINE_CATALOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "datagen/dataset.h"
#include "geom/box.h"
#include "geom/vec3.h"
#include "index/dynamic_rtree.h"
#include "util/exact_sum.h"
#include "util/thread_annotations.h"

namespace touch {

/// Identifier of a dataset registered with a DatasetCatalog: a dense index,
/// stable for the catalog's lifetime.
using DatasetHandle = uint32_t;

/// Sentinel object id: "assign the next free id" in Mutation::id.
inline constexpr uint32_t kInvalidObjectId = 0xffffffffu;

/// Statistics computed at registration, then *incrementally maintained*
/// across mutations, and consumed by the planner on every query — planning
/// never rescans the data it already knows about. The incremental path is
/// held bit-for-bit identical to ComputeDatasetStats over the current boxes
/// by the dynamic-catalog differential oracle (see docs/DYNAMIC.md): extent
/// is a multiset min/max (order-independent), extent sums use ExactSum
/// (order-independent by construction), histogram counts are integers, and
/// density/avg are pure functions of the above.
struct DatasetStats {
  size_t count = 0;
  /// Tight bounding box of all objects.
  Box extent = Box::Empty();
  /// Average per-axis object extent.
  Vec3 avg_object_extent{0, 0, 0};
  /// Objects per unit volume of `extent` (0 when the extent is degenerate).
  double density = 0;
  /// Center-count histogram over `extent` (resolution^3 cells, x-major like
  /// SelectivityEstimator) — the planner's skew signal and, pair-combined
  /// with another dataset's histogram (CombineHistograms), its plan-time
  /// selectivity estimate. The default resolution matches the planner's
  /// combine grid so pair-combination loses no detail it could use.
  int histogram_resolution = 0;
  std::vector<uint32_t> histogram;

  /// Peak cell count divided by the mean count of *occupied* cells: near 1
  /// for uniform data, large for clustered data. 0 for empty datasets.
  /// Always measured at (at most) 16 cells/axis — finer histograms, any
  /// resolution, are block-aggregated down first — so the skew scale (and
  /// the planner's pbsm_skew_max threshold) does not drift with histogram
  /// resolution.
  double HistogramSkew() const;
};

/// Computes the stats of one dataset (exposed for tests and tools).
DatasetStats ComputeDatasetStats(std::span<const Box> boxes,
                                 int histogram_resolution = 32);

/// Join-level estimate derived purely from two datasets' precomputed
/// histograms — the planner's plan-time replacement for rescanning raw
/// geometry (see CombineHistograms).
struct PairEstimate {
  /// Expected number of result pairs of the epsilon-distance join.
  double expected_results = 0;
  /// expected_results / (|A| * |B|); 0 for empty inputs.
  double selectivity = 0;
  /// Peak-over-mean of the per-cell expected result contribution on the
  /// joint grid: near 1 when the output is spread evenly, large when it is
  /// concentrated in a few hotspots. 0 when nothing is expected to overlap.
  double pair_skew = 0;
};

/// Pair-combines two datasets' registration-time histograms into a join
/// estimate, without touching raw geometry: each per-dataset center
/// histogram is resampled onto a shared grid over the joint extent (counts
/// spread volume-proportionally across overlapping cells), then the same
/// center-offset probability model as SelectivityEstimator
/// (AxisOverlapProbabilities) turns co-located mass into expected results.
/// A distance join enlarges side `a` by `epsilon`. `resolution` is the
/// target joint-grid cells per axis, clamped so cells stay larger than the
/// average object. O(resolution^3), independent of dataset sizes.
PairEstimate CombineHistograms(const DatasetStats& a, const DatasetStats& b,
                               float epsilon, int resolution = 32);

/// One change to a registered dataset. `box` is the object's new geometry
/// (ignored for kDelete).
enum class MutationKind : uint8_t { kInsert, kDelete, kUpdate };

struct Mutation {
  MutationKind kind = MutationKind::kInsert;
  /// Object id. For kInsert, kInvalidObjectId asks the catalog to assign the
  /// next free id; explicit ids let a sharded owner preserve global identity
  /// when a cross-shard move turns into delete+insert.
  uint32_t id = kInvalidObjectId;
  Box box;
};

/// Effect of one applied mutation, reported so the engine's delta-probe can
/// diff an object's old and new epsilon-windows without rescanning geometry.
/// Mutations that do not apply (delete/update of an unknown id, insert of a
/// live id) are skipped and not reported.
struct AppliedMutation {
  uint32_t id = 0;
  bool had_old = false;
  bool has_new = false;
  Box old_box;
  Box new_box;
};

/// Immutable copy-on-write view of a dataset at one version. Mutation
/// batches publish a fresh snapshot; readers that pinned an older snapshot
/// keep a consistent (boxes, ids, stats, version) quadruple for as long as
/// they hold the shared_ptr.
struct DatasetSnapshot {
  /// Dense slot-ordered geometry (deletes swap the last slot down).
  Dataset boxes;
  /// slot -> stable object id. Empty means identity (slot i is object i) —
  /// the fast path for never-mutated datasets, where executors can emit
  /// slot indices unremapped.
  std::vector<uint32_t> ids;
  DatasetStats stats;
  /// Monotonically increasing per-dataset version: 0 at registration, +1
  /// per applied mutation batch. IndexCache keys embed it, so artifacts
  /// built against an older snapshot can never serve a newer one.
  uint64_t version = 0;

  uint32_t id_of(size_t slot) const {
    return ids.empty() ? static_cast<uint32_t>(slot) : ids[slot];
  }
  bool identity_ids() const { return ids.empty(); }
};

using DatasetSnapshotPtr = std::shared_ptr<const DatasetSnapshot>;

/// Registry of named datasets with precomputed stats — the engine's notion
/// of "a dataset the system serves queries against", as opposed to the
/// anonymous spans the algorithm layer joins.
///
/// Registration moves the boxes in; the catalog owns them for its lifetime.
/// Datasets are *mutable*: Insert/Delete/Update (or a batched
/// ApplyMutations) change a registered dataset in place, bump its version,
/// and incrementally maintain its stats, backed by a per-dataset
/// DynamicRTree so extent shrink on delete and epsilon-window probes never
/// rescan geometry. Lookup by name returns the most recently registered
/// dataset of that name.
///
/// Thread safety: the catalog is internally synchronized — registrations,
/// mutations and lookups may race. snapshot() is the mutation-safe read
/// path: it pins an immutable copy-on-write view that stays valid (and
/// consistent) for as long as the caller holds it. The reference-returning
/// accessors (boxes/stats) read the *current* snapshot and are only safe
/// while no mutation of the same dataset can run concurrently; mutating
/// deployments must use snapshot().
class DatasetCatalog {
 public:
  DatasetHandle Register(std::string name, Dataset boxes) EXCLUDES(mutex_);

  size_t size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return entries_.size();
  }
  bool Contains(DatasetHandle handle) const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return handle < entries_.size();
  }

  const std::string& name(DatasetHandle handle) const EXCLUDES(mutex_);

  /// Current geometry/stats by reference. Valid until the next mutation of
  /// this dataset; concurrent mutators must use snapshot() instead.
  const Dataset& boxes(DatasetHandle handle) const EXCLUDES(mutex_);
  const DatasetStats& stats(DatasetHandle handle) const EXCLUDES(mutex_);

  /// Pins the current immutable snapshot — the mutation-safe read path.
  DatasetSnapshotPtr snapshot(DatasetHandle handle) const EXCLUDES(mutex_);

  /// Current version of a dataset (0 until its first mutation batch).
  uint64_t version(DatasetHandle handle) const EXCLUDES(mutex_);

  /// Single-op conveniences; each is a one-mutation batch (version +1).
  /// Insert returns the object's id (kInvalidObjectId if `id` was live);
  /// Delete/Update return false when `id` is unknown.
  uint32_t Insert(DatasetHandle handle, const Box& box,
                  uint32_t id = kInvalidObjectId) EXCLUDES(mutex_);
  bool Delete(DatasetHandle handle, uint32_t id) EXCLUDES(mutex_);
  bool Update(DatasetHandle handle, uint32_t id, const Box& box)
      EXCLUDES(mutex_);

  /// Applies a batch of mutations atomically with respect to readers: one
  /// version bump, one new snapshot. Inapplicable mutations are skipped.
  /// When `applied` is non-null, the per-object old/new geometry of every
  /// applied mutation is appended (in application order) for delta probing.
  /// Returns the dataset's new version.
  uint64_t ApplyMutations(DatasetHandle handle,
                          std::span<const Mutation> mutations,
                          std::vector<AppliedMutation>* applied = nullptr)
      EXCLUDES(mutex_);

  /// Current box of a live object, or nullopt.
  std::optional<Box> FindObject(DatasetHandle handle, uint32_t id) const
      EXCLUDES(mutex_);

  /// Probes the dataset's backing DynamicRTree: `emit(id, box)` for every
  /// live object whose box intersects `query`. This is the delta-probe's
  /// epsilon-window primitive — O(log n + answers), no geometry rescans.
  void QueryObjects(DatasetHandle handle, const Box& query,
                    const std::function<void(uint32_t, const Box&)>& emit)
      const EXCLUDES(mutex_);

  /// Handle of the most recently registered dataset named `name`.
  std::optional<DatasetHandle> Find(const std::string& name) const
      EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string name;  // immutable after registration
    mutable Mutex m;
    /// Published view; replaced wholesale by each mutation batch.
    DatasetSnapshotPtr snapshot GUARDED_BY(m);
    /// Mutable working state, materialized lazily on the first mutation or
    /// tree probe (EnsureDynamicLocked) so purely static datasets pay
    /// nothing beyond the registration scan.
    bool dynamic_ready GUARDED_BY(m) = false;
    DynamicRTree tree GUARDED_BY(m);
    std::vector<Box> cur_boxes GUARDED_BY(m);
    std::vector<uint32_t> cur_ids GUARDED_BY(m);
    std::unordered_map<uint32_t, uint32_t> slot_of GUARDED_BY(m);
    ExactSum sum_x GUARDED_BY(m);
    ExactSum sum_y GUARDED_BY(m);
    ExactSum sum_z GUARDED_BY(m);
    uint64_t version GUARDED_BY(m) = 0;
    uint32_t next_id GUARDED_BY(m) = 0;
    /// True while slot i holds object i for every slot (no remap needed).
    bool identity GUARDED_BY(m) = true;
  };

  Entry* entry(DatasetHandle handle) const EXCLUDES(mutex_);
  static void EnsureDynamicLocked(Entry& e) REQUIRES(e.m);
  static void RebuildStatsLocked(Entry& e, DatasetStats* stats) REQUIRES(e.m);

  mutable Mutex mutex_;
  // unique_ptr keeps entries stable across Register calls.
  std::vector<std::unique_ptr<Entry>> entries_ GUARDED_BY(mutex_);
};

}  // namespace touch

#endif  // TOUCH_ENGINE_CATALOG_H_
