#include "core/partitioned.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "util/memory.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace touch {
namespace {

// The slab axis is the longest axis of the joint extent.
int LongestAxis(const Box& domain) {
  const Vec3 e = domain.Extent();
  if (e.x >= e.y && e.x >= e.z) return 0;
  if (e.y >= e.z) return 1;
  return 2;
}

// Emits into the shared output under a lock (slabs may run concurrently) and
// translates slab-local ids back to global ids. Pairs spanning a slab
// boundary are reported by every slab both objects were assigned to, so the
// 1D reference-point rule keeps exactly one copy: only the slab containing
// max(a.lo, b.lo) on the slab axis reports the pair.
class SlabCollector : public ResultCollector {
 public:
  SlabCollector(std::span<const Box> a, std::span<const Box> b, int axis,
                float origin, float inv_width, int slab, int max_slab,
                const std::vector<uint32_t>& a_ids,
                const std::vector<uint32_t>& b_ids, Mutex* sink_mutex,
                ResultCollector* out)
      : a_(a), b_(b), axis_(axis), origin_(origin), inv_width_(inv_width),
        slab_(slab), max_slab_(max_slab), a_ids_(a_ids), b_ids_(b_ids),
        sink_mutex_(sink_mutex), out_(out) {}

  void Emit(uint32_t local_a, uint32_t local_b) override {
    const uint32_t global_a = a_ids_[local_a];
    const uint32_t global_b = b_ids_[local_b];
    const float ref =
        std::max(a_[global_a].lo[axis_], b_[global_b].lo[axis_]);
    const int home = std::clamp(
        static_cast<int>(std::floor((ref - origin_) * inv_width_)), 0,
        max_slab_);
    if (home != slab_) return;
    ++emitted_;
    const MutexLock lock(*sink_mutex_);
    out_->Emit(global_a, global_b);
  }

  uint64_t emitted() const { return emitted_; }

 private:
  std::span<const Box> a_;
  std::span<const Box> b_;
  const int axis_;
  const float origin_;
  const float inv_width_;
  const int slab_;
  const int max_slab_;
  const std::vector<uint32_t>& a_ids_;
  const std::vector<uint32_t>& b_ids_;
  Mutex* sink_mutex_;  // serializes Emit across the slab workers
  ResultCollector* out_;
  uint64_t emitted_ = 0;
};

}  // namespace

JoinStats PartitionedJoin(
    const std::function<std::unique_ptr<SpatialJoinAlgorithm>()>&
        make_algorithm,
    std::span<const Box> a, std::span<const Box> b,
    const PartitionedOptions& options, ResultCollector& out) {
  JoinStats stats;
  Timer total;
  if (a.empty() || b.empty()) {
    stats.total_seconds = total.Seconds();
    return stats;
  }
  const int partitions = std::max(1, options.partitions);

  // Cut the joint extent into equi-width slabs along its longest axis and
  // assign each object to every slab it overlaps (the halo that keeps
  // cross-boundary pairs joinable).
  Timer phase;
  Box domain = Box::Empty();
  for (const Box& box : a) domain.ExpandToContain(box);
  for (const Box& box : b) domain.ExpandToContain(box);
  const int axis = LongestAxis(domain);
  const float origin = domain.lo[axis];
  const float extent = domain.hi[axis] - domain.lo[axis];
  const float inv_width =
      extent > 0 ? static_cast<float>(partitions) / extent : 0.0f;
  auto slab_range = [&](const Box& box) {
    const int lo = std::clamp(
        static_cast<int>(std::floor((box.lo[axis] - origin) * inv_width)), 0,
        partitions - 1);
    const int hi = std::clamp(
        static_cast<int>(std::floor((box.hi[axis] - origin) * inv_width)), lo,
        partitions - 1);
    return std::pair<int, int>(lo, hi);
  };

  std::vector<std::vector<uint32_t>> slab_a(partitions);
  std::vector<std::vector<uint32_t>> slab_b(partitions);
  for (uint32_t id = 0; id < a.size(); ++id) {
    const auto [lo, hi] = slab_range(a[id]);
    for (int s = lo; s <= hi; ++s) slab_a[s].push_back(id);
  }
  for (uint32_t id = 0; id < b.size(); ++id) {
    const auto [lo, hi] = slab_range(b[id]);
    for (int s = lo; s <= hi; ++s) slab_b[s].push_back(id);
  }
  stats.build_seconds = phase.Seconds();

  // Join each slab independently — the paper's per-core local join. Each
  // worker materializes its slab's boxes, joins them with a fresh algorithm
  // instance, and reports globally-unique pairs through SlabCollector.
  phase.Reset();
  Mutex sink_mutex;
  Mutex stats_mutex;
  size_t max_slab_bytes = 0;
  std::vector<int> schedule(partitions);
  for (int s = 0; s < partitions; ++s) schedule[s] = s;

  std::atomic<size_t> next{0};
  auto worker = [&] {
    const std::unique_ptr<SpatialJoinAlgorithm> algorithm = make_algorithm();
    for (;;) {
      const size_t task = next.fetch_add(1);
      if (task >= schedule.size()) return;
      const int slab = schedule[task];
      if (slab_a[slab].empty() || slab_b[slab].empty()) continue;
      std::vector<Box> boxes_a;
      std::vector<Box> boxes_b;
      boxes_a.reserve(slab_a[slab].size());
      boxes_b.reserve(slab_b[slab].size());
      for (uint32_t id : slab_a[slab]) boxes_a.push_back(a[id]);
      for (uint32_t id : slab_b[slab]) boxes_b.push_back(b[id]);

      SlabCollector collector(a, b, axis, origin, inv_width, slab,
                              partitions - 1, slab_a[slab], slab_b[slab],
                              &sink_mutex, &out);
      JoinStats slab_stats = algorithm->Join(boxes_a, boxes_b, collector);
      slab_stats.results = collector.emitted();

      const MutexLock lock(stats_mutex);
      stats.MergeCounters(slab_stats);
      max_slab_bytes =
          std::max(max_slab_bytes, slab_stats.memory_bytes +
                                       VectorBytes(boxes_a) +
                                       VectorBytes(boxes_b));
    }
  };

  const int threads = std::max(1, options.threads);
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  stats.join_seconds = phase.Seconds();

  stats.memory_bytes = max_slab_bytes + NestedVectorBytes(slab_a) +
                       NestedVectorBytes(slab_b);
  stats.total_seconds = total.Seconds();
  return stats;
}

JoinStats PartitionedDistanceJoin(
    const std::function<std::unique_ptr<SpatialJoinAlgorithm>()>&
        make_algorithm,
    std::span<const Box> a, std::span<const Box> b, float epsilon,
    const PartitionedOptions& options, ResultCollector& out) {
  Timer timer;
  std::vector<Box> enlarged;
  enlarged.reserve(a.size());
  for (const Box& box : a) enlarged.push_back(box.Enlarged(epsilon));
  const double enlarge_seconds = timer.Seconds();
  JoinStats stats = PartitionedJoin(make_algorithm, enlarged, b, options, out);
  stats.total_seconds += enlarge_seconds;
  return stats;
}

}  // namespace touch
