// Shared declarations of the engine benchmark: workload inputs and their
// reference answers, the engine under test (plain or sharded) behind one
// interface, the mutation stream, and the metric report.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_math.h"
#include "datagen/dataset.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Engine worker threads and the in-flight cap of the serving workloads.
inline constexpr int kEngineThreads = 4;
/// Ops per mutation batch.
inline constexpr size_t kBatchOps = 256;

// --- Workload definition ----------------------------------------------------

/// One request shape: datasets by index into WorkloadData::datasets.
struct Shape {
  int a = 0;
  int b = 0;
  float epsilon = 0;
};

enum class Kind { kColdNeuro, kWarmServe, kShardedServe, kContinuousChurn };

bool ParseKind(const std::string& name, Kind* kind);
const char* KindName(Kind kind);

struct WorkloadData {
  Kind kind = Kind::kWarmServe;
  uint64_t seed = 0;
  std::vector<std::string> names;
  std::vector<touch::Dataset> datasets;
  std::vector<Shape> shapes;
  /// Request sequence the closed-loop clients cycle through (shape ids).
  std::vector<int> mix;
  /// Standing continuous joins (continuous-churn only).
  std::vector<Shape> standing;
  /// Dataset the mutation stream writes to.
  int write_dataset = 0;
  /// Plane-sweep reference of every shape over the registered (unmutated)
  /// datasets, in stable-id space.
  std::vector<PairChecksum> reference;
  std::vector<PairChecksum> standing_reference;
  /// True for shapes whose result changes under the mutation stream.
  bool ShapeMutates(int shape) const {
    return kind == Kind::kContinuousChurn &&
           (shapes[shape].a == write_dataset ||
            shapes[shape].b == write_dataset);
  }
};

/// Seed of the workload's mutation stream.
inline uint64_t StreamSeed(const WorkloadData& data) {
  return data.seed * 7919 + 17;
}

/// Generates the workload's datasets from `seed` and computes every
/// reference answer (library plane sweep, outside any timed region).
WorkloadData MakeWorkload(Kind kind, uint64_t seed);

/// Plane-sweep distance join of `a` x `b`, folded in stable-id space
/// (ids_a/ids_b empty = identity).
PairChecksum ReferenceJoin(std::span<const touch::Box> a,
                           std::span<const uint32_t> ids_a,
                           std::span<const touch::Box> b,
                           std::span<const uint32_t> ids_b, float epsilon);

// --- Engine under test --------------------------------------------------------

/// What one completed one-shot join reported.
struct JoinOutcome {
  int shape = 0;
  double latency_ms = 0;
  /// Completion time, seconds since the window's origin.
  double done_s = 0;
  bool ok = false;
  PairChecksum got;
  std::string algorithm;
  touch::JoinStats stats;
  double expected_results = 0;
  /// Counters of the TOUCH-planned work (a sharded join: its TOUCH pairs).
  touch::JoinStats touch;
  /// Sharded only: executed shard pairs and max / median pair seconds.
  size_t pairs_run = 0;
  double pair_skew = 0;
};

/// Folds every delta of one continuous join into its current pair set.
struct StandingFold {
  PairChecksum state;
  uint64_t deltas = 0;
};

/// The engine a workload drives: a QueryEngine, or a ShardedQueryEngine
/// with four shards, with the workload's datasets registered and (on the
/// warm workloads) every request shape prebuilt.
class Service {
 public:
  /// Constructs, registers and warms the engine; the constructor is the
  /// timed set-up. `register_ms` receives the RegisterDataset call time.
  Service(const WorkloadData& data, std::shared_ptr<touch::Tracer> tracer,
          double* register_ms);
  ~Service();

  JoinOutcome Join(int shape, bool clear_cache = false);
  void Mutate(std::span<const touch::Mutation> batch);

  /// Current live object count of the written dataset (on a sharded
  /// engine: summed over its current shards).
  size_t WrittenCount() const;
  /// Pinned snapshot of a dataset (plain engine only).
  touch::DatasetSnapshotPtr Snapshot(int dataset) const;

  touch::QueryEngine& engine();
  bool sharded() const { return sharded_ != nullptr; }
  touch::DatasetHandle handle(int dataset) const { return handles_[dataset]; }
  touch::JoinRequest Request(int shape) const;
  /// A request the QueryEngine behind engine() can plan: the shape itself,
  /// or on a sharded engine the pair of the two datasets' first shards.
  touch::JoinRequest PlannableRequest(int shape) const;
  const std::vector<StandingFold>& standing() const { return *standing_; }
  /// Set-up joins that disagreed with the reference.
  const OpCounts& setup_ops() const { return setup_ops_; }
  /// Set-up outcome of every shape (the first plan of each shape).
  const std::vector<JoinOutcome>& first() const { return first_; }

 private:
  const WorkloadData& data_;
  std::unique_ptr<touch::QueryEngine> plain_;
  std::unique_ptr<touch::ShardedQueryEngine> sharded_;
  std::vector<touch::DatasetHandle> handles_;
  std::shared_ptr<std::vector<StandingFold>> standing_;
  std::vector<touch::RequestHandle> standing_handles_;
  std::vector<JoinOutcome> first_;
  OpCounts setup_ops_;
};

// --- Mutation stream ------------------------------------------------------------

/// Deterministic insert/delete/update stream over one dataset whose ids
/// start as 0..n-1. Keeps a mirror of the live objects so every generated
/// op applies (deletes and updates name live ids, inserts fresh ids).
class MutationStream {
 public:
  MutationStream(const touch::Dataset& initial, uint64_t seed);

  /// Next batch; `old_boxes[i]` is the box mutations[i] replaces or
  /// removes (unused for inserts).
  void Next(size_t ops, std::vector<touch::Mutation>* batch,
            std::vector<touch::Box>* old_boxes);
  size_t live() const { return live_.size(); }

 private:
  uint32_t PickLive();
  void Erase(uint32_t id);

  touch::Rng rng_;
  std::vector<touch::Box> box_of_;      // by id
  size_t registered_;                   // ids 0..registered_-1 came first
  std::vector<uint32_t> live_;          // live ids
  std::vector<uint32_t> position_of_;   // id -> index in live_
};

// --- Report -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run measured, in print order.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  OpCounts ops;
  /// Stationarity or oracle violations: any entry makes the run incorrect.
  std::vector<std::string> defects;

  void EndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The measured intervals of every data instance of a run, end to end.
struct Measurement {
  Series joins;
  double join_span = 0;
  Series batches;
  double write_span = 0;
  std::vector<double> setup_s;
};

/// Data instances per untraced run: independent inputs drawn from the run's
/// seed, measured back to back, so one run averages over inputs as well as
/// over time.
inline constexpr int kInstances = 3;

/// Seed of data instance `k` of a run with seed `seed` (instance 0 uses the
/// seed itself, so the traced run measures the first instance's inputs).
inline uint64_t InstanceSeed(uint64_t seed, int k) {
  return seed + 1000003ull * static_cast<uint64_t>(k);
}

struct RunOptions {
  Kind kind = Kind::kWarmServe;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts the first measured result, to prove the oracle fires.
  bool inject_fault = false;
};

/// Runs one data instance of a workload: untraced, appending its measured
/// intervals to `measurement`; or the traced per-layer run (which reports
/// its metrics itself and leaves `measurement` alone).
void RunWorkload(const RunOptions& options, const WorkloadData& data,
                 Report* report, Measurement* measurement);

/// The end-to-end metrics of a run's combined measurement.
void EndToEndMetrics(const Measurement& measurement, Report* report);

// --- Traced per-layer probes (layers.cc) -------------------------------------------

/// Aggregates of one traced window's spans, by span name.
struct SpanTotals {
  struct Entry {
    size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Entry> by_name;
  const Entry* Find(const std::string& name) const;
  double MeanSelfMs(const std::string& name) const;
  double MeanMs(const std::string& name) const;
};

SpanTotals SummarizeSpans(const std::vector<touch::SpanRecord>& records);

/// Direct calls into each layer's public functions on the workload's own
/// boxes, each wrapped in a benchmark SpanScope under `tracer`.
void ProbeLayers(const WorkloadData& data, Service& service,
                 touch::Tracer& tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
