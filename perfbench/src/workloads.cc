// Workload inputs, the engine under test, and the timed closed-loop windows.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "bench.h"
#include "core/factory.h"
#include "datagen/distributions.h"
#include "datagen/neuro.h"

namespace perfbench {

using touch::Box;
using touch::Dataset;
using touch::DatasetHandle;
using touch::JoinRequest;
using touch::Mutation;
using touch::MutationKind;
using touch::Vec3;

namespace {

constexpr int kSetupRepeats = 3;
/// Share of a non-churn window spent in the write phase after the joins.
constexpr double kWriteShare = 0.2;
/// Leading share of each phase that warms per-thread state and is not
/// measured (its results are still verified).
constexpr double kWarmShare = 0.15;
/// Every kPinEvery-th read of a mutating shape on continuous-churn holds
/// the writer off for its duration, so its snapshot is known and checked;
/// at most kMaxPins per window, so pinned snapshots stay a small part of
/// the process's memory.
constexpr int kPinEvery = 8;
constexpr size_t kMaxPins = 4;
/// Mutation batches between delta-state samples, and the sample cap.
constexpr size_t kSampleEvery = 256;
constexpr size_t kMaxSamples = 4;

/// Folds every emitted pair of one one-shot request.
class ChecksumSink : public touch::ResultSink {
 public:
  explicit ChecksumSink(PairChecksum* out) : out_(out) {}
  void Emit(uint32_t a, uint32_t b) override { out_->Add(a, b); }

 private:
  PairChecksum* out_;
};

/// Folds one continuous join's delta stream. Deltas arrive on the thread
/// that applies the mutation batch (or submits the join), which is the
/// thread that reads the fold.
class DeltaFoldSink : public touch::ResultSink {
 public:
  DeltaFoldSink(std::shared_ptr<std::vector<StandingFold>> folds, size_t i)
      : folds_(std::move(folds)), i_(i) {}
  void EmitDelta(touch::DeltaKind kind, uint32_t a, uint32_t b) override {
    StandingFold& fold = (*folds_)[i_];
    ++fold.deltas;
    if (kind == touch::DeltaKind::kAdded) {
      fold.state.Add(a, b);
    } else {
      fold.state.Remove(a, b);
    }
  }

 private:
  std::shared_ptr<std::vector<StandingFold>> folds_;
  size_t i_;
};

/// Maps emitted slot indices to stable ids before folding.
class IdFoldCollector : public touch::ResultCollector {
 public:
  IdFoldCollector(std::span<const uint32_t> ids_a,
                  std::span<const uint32_t> ids_b)
      : ids_a_(ids_a), ids_b_(ids_b) {}
  void Emit(uint32_t a, uint32_t b) override {
    fold.Add(ids_a_.empty() ? a : ids_a_[a], ids_b_.empty() ? b : ids_b_[b]);
  }
  PairChecksum fold;

 private:
  std::span<const uint32_t> ids_a_;
  std::span<const uint32_t> ids_b_;
};

Box Shifted(const Box& box, float dx, float dy, float dz) {
  return Box(Vec3(box.lo.x + dx, box.lo.y + dy, box.lo.z + dz),
             Vec3(box.hi.x + dx, box.hi.y + dy, box.hi.z + dz));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Stationarity guards: the first outcome of each shape fixes its plan and
/// exact counts; later outcomes must repeat them.
class Tracker {
 public:
  explicit Tracker(const WorkloadData& data) : data_(data) {
    first_.resize(data.shapes.size());
  }

  void Observe(const JoinOutcome& o, Report* report) {
    if (!o.ok) return;
    std::optional<JoinOutcome>& first = first_[o.shape];
    if (!first) {
      first = o;
      return;
    }
    if (o.algorithm != first->algorithm) {
      ++flips_;
      Defect(report, o, "plan " + first->algorithm + " -> " + o.algorithm);
      return;
    }
    if (data_.ShapeMutates(o.shape)) return;
    if (o.stats.results != first->stats.results ||
        o.stats.comparisons != first->stats.comparisons ||
        o.stats.filtered != first->stats.filtered ||
        o.pairs_run != first->pairs_run) {
      Defect(report, o, "exact counts changed between requests");
    }
  }

  uint64_t flips() const { return flips_; }
  const std::vector<std::optional<JoinOutcome>>& first() const {
    return first_;
  }

 private:
  void Defect(Report* report, const JoinOutcome& o, const std::string& what) {
    if (report->defects.size() < 8) {
      report->defects.push_back("stationarity: shape " +
                                std::to_string(o.shape) + ": " + what);
    }
  }

  const WorkloadData& data_;
  std::vector<std::optional<JoinOutcome>> first_;
  uint64_t flips_ = 0;
};

/// What one timed window measured.
struct Window {
  std::vector<JoinOutcome> joins;
  /// Measured interval of each phase, seconds since the window's origin.
  double join_from = 0;
  double join_to = 0;
  Series batches;
  double write_from = 0;
  double write_to = 0;
  double busy_frac = 0;
  touch::IndexCache::Stats cache_before;
  touch::IndexCache::Stats cache_after;
  uint64_t deltas = 0;
};

/// Samples pool occupancy every millisecond while alive.
class BusySampler {
 public:
  explicit BusySampler(const touch::QueryEngine& engine)
      : thread_([this, &engine] {
          while (!stop_.load(std::memory_order_relaxed)) {
            sum_ += static_cast<double>(engine.pool().busy_workers()) /
                    engine.threads();
            ++samples_;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  double Stop() {
    stop_.store(true);
    thread_.join();
    return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
  }

 private:
  std::atomic<bool> stop_{false};
  double sum_ = 0;
  uint64_t samples_ = 0;
  std::thread thread_;
};

struct PinnedRead {
  size_t index = 0;  // into Window::joins
  touch::DatasetSnapshotPtr a;
  touch::DatasetSnapshotPtr b;
};

struct DeltaSample {
  size_t batch = 0;
  std::vector<PairChecksum> folds;
  std::vector<std::pair<touch::DatasetSnapshotPtr, touch::DatasetSnapshotPtr>>
      snaps;
};

uint64_t TotalDeltas(const Service& service) {
  uint64_t total = 0;
  for (const StandingFold& fold : service.standing()) total += fold.deltas;
  return total;
}

/// Single-writer loop: batches back to back until `deadline`. Batch
/// latency covers the ApplyMutations call, which returns after every
/// standing sink received the batch's deltas.
void WriteLoop(const WorkloadData& data, Service& service,
               MutationStream& stream, Clock::time_point origin,
               Clock::time_point deadline, std::mutex* gate, Window* w,
               std::vector<char>* batch_ok,
               std::vector<DeltaSample>* samples) {
  std::vector<Mutation> batch;
  std::vector<Box> old_boxes;
  const double start = SecondsSince(origin);
  const double end = std::chrono::duration<double>(deadline - origin).count();
  w->write_from = start + kWarmShare * (end - start);
  while (Clock::now() < deadline) {
    stream.Next(kBatchOps, &batch, &old_boxes);
    {
      std::unique_lock<std::mutex> lock;
      if (gate != nullptr) lock = std::unique_lock<std::mutex>(*gate);
      const auto t0 = Clock::now();
      service.Mutate(batch);
      const double ms = SecondsSince(t0) * 1e3;
      w->batches.Add(SecondsSince(origin), ms);
    }
    batch_ok->push_back(service.WrittenCount() == stream.live());
    const size_t n = batch_ok->size();
    if (samples != nullptr && !data.standing.empty() &&
        samples->size() < kMaxSamples && (n == 1 || n % kSampleEvery == 0)) {
      DeltaSample sample;
      sample.batch = n - 1;
      for (size_t i = 0; i < data.standing.size(); ++i) {
        sample.folds.push_back(service.standing()[i].state);
        sample.snaps.emplace_back(service.Snapshot(data.standing[i].a),
                                  service.Snapshot(data.standing[i].b));
      }
      samples->push_back(std::move(sample));
    }
  }
  w->write_to = SecondsSince(origin);
}

/// One timed window: the workload's closed-loop clients, then (outside
/// continuous-churn) the write phase. Verification runs afterwards, out of
/// the timed region.
Window RunWindow(const RunOptions& options, const WorkloadData& data,
                 Service& service, double seconds, bool sample_pool,
                 Tracker* tracker, Report* report) {
  Window w;
  w.cache_before = service.engine().cache_stats();
  const uint64_t deltas_before = TotalDeltas(service);
  MutationStream stream(data.datasets[data.write_dataset], StreamSeed(data));
  std::vector<char> batch_ok;
  std::vector<DeltaSample> samples;
  std::vector<PinnedRead> pins;
  std::unique_ptr<BusySampler> sampler;
  if (sample_pool) sampler = std::make_unique<BusySampler>(service.engine());

  const bool churn = data.kind == Kind::kContinuousChurn;
  const double join_seconds = churn ? seconds : seconds * (1 - kWriteShare);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(join_seconds));
  w.join_from = kWarmShare * join_seconds;
  const auto join = [&](int shape, bool clear_cache) {
    JoinOutcome o = service.Join(shape, clear_cache);
    o.done_s = SecondsSince(start);
    return o;
  };
  if (churn) {
    // One writer beside one reader; pinned reads hold the writer off.
    std::mutex gate;
    std::thread writer([&] {
      WriteLoop(data, service, stream, start, deadline, &gate, &w, &batch_ok,
                &samples);
    });
    std::vector<int> reads_of(data.shapes.size(), 0);
    for (size_t i = 0; Clock::now() < deadline; ++i) {
      const int shape = data.mix[i % data.mix.size()];
      if (data.ShapeMutates(shape) && reads_of[shape]++ % kPinEvery == 0 &&
          pins.size() < kMaxPins) {
        std::lock_guard<std::mutex> lock(gate);
        PinnedRead pin{w.joins.size(), service.Snapshot(data.shapes[shape].a),
                       service.Snapshot(data.shapes[shape].b)};
        w.joins.push_back(join(shape, false));
        pins.push_back(std::move(pin));
      } else {
        w.joins.push_back(join(shape, false));
      }
    }
    w.join_to = SecondsSince(start);
    writer.join();
  } else {
    const bool cold = data.kind == Kind::kColdNeuro;
    const int clients = cold ? 1 : kEngineThreads;
    std::vector<std::vector<JoinOutcome>> per_client(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 2 * c; Clock::now() < deadline; ++i) {
          per_client[c].push_back(join(data.mix[i % data.mix.size()], cold));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    w.join_to = SecondsSince(start);
    for (auto& joins : per_client) {
      for (JoinOutcome& o : joins) w.joins.push_back(std::move(o));
    }
  }
  if (sampler) w.busy_frac = sampler->Stop();
  w.cache_after = service.engine().cache_stats();
  if (!churn) {
    const auto write_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds *
                                                         kWriteShare));
    WriteLoop(data, service, stream, start, write_deadline, nullptr, &w,
              &batch_ok, nullptr);
  }
  w.deltas = TotalDeltas(service) - deltas_before;
  if (data.kind == Kind::kWarmServe &&
      w.cache_after.misses != w.cache_before.misses) {
    report->defects.push_back(
        "stationarity: warm-serve window missed the index cache " +
        std::to_string(w.cache_after.misses - w.cache_before.misses) +
        " times");
  }

  // --- Verification (untimed) ---
  if (options.inject_fault && !w.joins.empty()) w.joins[0].got.Add(0, 0);
  // Expected answer per join: the reference, or for a pinned read the
  // re-join of its snapshots. Unpinned reads of mutating shapes have none.
  std::vector<std::optional<PairChecksum>> want(w.joins.size());
  for (size_t i = 0; i < w.joins.size(); ++i) {
    const int shape = w.joins[i].shape;
    if (!data.ShapeMutates(shape)) want[i] = data.reference[shape];
  }
  for (const PinnedRead& pin : pins) {
    want[pin.index] =
        ReferenceJoin(pin.a->boxes, pin.a->ids, pin.b->boxes, pin.b->ids,
                      data.shapes[w.joins[pin.index].shape].epsilon);
  }
  for (const DeltaSample& sample : samples) {
    for (size_t i = 0; i < sample.folds.size(); ++i) {
      const auto& [a, b] = sample.snaps[i];
      const PairChecksum want = ReferenceJoin(a->boxes, a->ids, b->boxes,
                                              b->ids,
                                              data.standing[i].epsilon);
      if (sample.folds[i] != want) {
        batch_ok[sample.batch] = 0;
        report->notes.push_back(
            "continuous join " + std::to_string(i) + " after batch " +
            std::to_string(sample.batch) + ": folded " +
            std::to_string(sample.folds[i].count) + " pairs, re-join " +
            std::to_string(want.count));
      }
    }
  }
  size_t reported = 0;
  for (size_t i = 0; i < w.joins.size(); ++i) {
    const JoinOutcome& o = w.joins[i];
    const bool ok = o.ok && (!want[i] || o.got == *want[i]);
    report->ops.Record(ok);
    if (ok) {
      tracker->Observe(o, report);
    } else if (reported++ < 4) {
      report->notes.push_back(
          "wrong result: shape " + std::to_string(o.shape) + " (" +
          o.algorithm + (o.ok ? "" : ", not kOk") + "): " +
          std::to_string(o.got.count) + " pairs, reference " +
          (want[i] ? std::to_string(want[i]->count) : "none"));
    }
  }
  for (const char ok : batch_ok) report->ops.Record(ok != 0);
  for (size_t s = 0; s < data.shapes.size(); ++s) {
    std::vector<double> ms;
    const JoinOutcome* any = nullptr;
    for (const JoinOutcome& o : w.joins) {
      if (o.shape != static_cast<int>(s)) continue;
      ms.push_back(o.latency_ms);
      any = &o;
    }
    if (any == nullptr) continue;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "shape %zu: %s, %llu results, %llu comparisons, %llu "
                  "filtered, %zu requests, p50 %.2f ms",
                  s, any->algorithm.c_str(),
                  static_cast<unsigned long long>(any->stats.results),
                  static_cast<unsigned long long>(any->stats.comparisons),
                  static_cast<unsigned long long>(any->stats.filtered),
                  ms.size(), Median(ms));
    report->notes.push_back(line);
  }
  report->notes.push_back(
      "verified " + std::to_string(w.joins.size()) + " joins (" +
      std::to_string(pins.size()) + " pinned reads of mutating shapes), " +
      std::to_string(batch_ok.size()) + " mutation batches (" +
      std::to_string(samples.size()) + " delta-state samples)");
  return w;
}

Series JoinSeries(const Window& w) {
  Series series;
  for (const JoinOutcome& o : w.joins) series.Add(o.done_s, o.latency_ms);
  return series;
}

SeriesSummary JoinSummary(const Window& w) {
  return Summarize(JoinSeries(w), w.join_from, w.join_to, 1);
}

SeriesSummary BatchSummary(const Window& w) {
  return Summarize(w.batches, w.write_from, w.write_to, kBatchOps);
}

void AddTail(Report* report, const std::string& name,
             const SeriesSummary& summary) {
  report->EndToEnd(name, summary.tail.value, "ms");
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: median over %zu sub-windows of p%.2f (%zu samples "
                "measured)%s",
                name.c_str(), summary.subwindows, summary.tail.percentile,
                summary.tail.samples,
                summary.tail.qualified ? ""
                                       : "; a sub-window had 10 samples or "
                                         "fewer, its maximum was used");
  report->notes.push_back(line);
}

void LayerMetrics(const WorkloadData& data, const Window& w,
                  const Window& untraced, const SpanTotals& spans,
                  const Tracker& tracker, double register_ms,
                  Report* report) {
  report->Layer("catalog.register_ms", register_ms, "ms");
  report->Layer("catalog.mutate_ms", spans.MeanSelfMs("mutate"), "ms");
  const SpanTotals::Entry* probe = spans.Find("delta-probe");
  const double batches = static_cast<double>(w.batches.ms.size());
  report->Layer("continuous.delta_probe_ms",
                probe != nullptr && batches > 0 ? probe->total_ms / batches
                                                : 0.0,
                "ms");
  report->Layer("continuous.deltas_per_batch",
                batches > 0 ? static_cast<double>(w.deltas) / batches : 0.0,
                "count");

  // Exact counts of each shape's first outcome (stationary per seed).
  double log_error = 0;
  size_t estimated = 0;
  touch::JoinStats touch_stats;
  size_t touch_memory = 0;
  uint64_t pairs_run = 0;
  for (const auto& first : tracker.first()) {
    if (!first) continue;
    if (first->expected_results > 0 && first->stats.results > 0) {
      log_error += std::fabs(std::log2(first->expected_results /
                                       first->stats.results));
      ++estimated;
    }
    touch_stats.MergeCounters(first->touch);
    touch_memory = std::max(touch_memory, first->touch.memory_bytes);
    pairs_run += first->pairs_run;
  }
  report->Layer("planner.estimate_error",
                estimated > 0 ? log_error / estimated : 0.0, "log2");
  report->Layer("planner.plan_flips", static_cast<double>(tracker.flips()),
                "count");

  const uint64_t hits = w.cache_after.hits - w.cache_before.hits;
  const uint64_t misses = w.cache_after.misses - w.cache_before.misses;
  report->Layer("cache.hit_ratio",
                hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                  : 0.0,
                "ratio");
  report->Layer("cache.misses", static_cast<double>(misses), "count");
  report->Layer("cache.evictions",
                static_cast<double>(w.cache_after.evictions -
                                    w.cache_before.evictions),
                "count");
  report->Layer("cache.mb", w.cache_after.bytes / (1024.0 * 1024.0), "MB");
  report->Layer("pool.queue_wait_ms", spans.MeanMs("queue-wait"), "ms");
  report->Layer("pool.busy_frac", w.busy_frac, "ratio");

  report->Layer("touch.comparisons",
                static_cast<double>(touch_stats.comparisons), "count");
  report->Layer("touch.filtered", static_cast<double>(touch_stats.filtered),
                "count");
  report->Layer("touch.results_per_comparison",
                touch_stats.comparisons > 0
                    ? static_cast<double>(touch_stats.results) /
                          touch_stats.comparisons
                    : 0.0,
                "ratio");
  report->Layer("touch.memory_mb", touch_memory / (1024.0 * 1024.0), "MB");

  report->Layer("sharded.scatter_ms", spans.MeanSelfMs("scatter"), "ms");
  report->Layer("sharded.gather_ms", spans.MeanSelfMs("gather"), "ms");
  report->Layer("sharded.pairs_run", static_cast<double>(pairs_run), "count");
  std::vector<double> skew;
  for (const JoinOutcome& o : w.joins) {
    if (o.pairs_run > 0) skew.push_back(o.pair_skew);
  }
  report->Layer("sharded.pair_skew", Median(skew), "ratio");

  const bool churn = data.kind == Kind::kContinuousChurn;
  const double traced = churn ? BatchSummary(w).per_s : JoinSummary(w).per_s;
  const double base = churn ? BatchSummary(untraced).per_s
                            : JoinSummary(untraced).per_s;
  report->Layer("obs.overhead_ratio", base > 0 ? traced / base : 0.0,
                "ratio");
}

}  // namespace

// --- Workload definition ------------------------------------------------------

bool ParseKind(const std::string& name, Kind* kind) {
  for (const Kind k : {Kind::kColdNeuro, Kind::kWarmServe,
                       Kind::kShardedServe, Kind::kContinuousChurn}) {
    if (name == KindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kColdNeuro:
      return "cold-neuro";
    case Kind::kWarmServe:
      return "warm-serve";
    case Kind::kShardedServe:
      return "sharded-serve";
    case Kind::kContinuousChurn:
      return "continuous-churn";
  }
  return "?";
}

PairChecksum ReferenceJoin(std::span<const Box> a,
                           std::span<const uint32_t> ids_a,
                           std::span<const Box> b,
                           std::span<const uint32_t> ids_b, float epsilon) {
  const auto sweep = touch::MakeAlgorithm("ps");
  IdFoldCollector out(ids_a, ids_b);
  touch::DistanceJoin(*sweep, a, b, epsilon, out);
  return out.fold;
}

WorkloadData MakeWorkload(Kind kind, uint64_t seed) {
  WorkloadData w;
  w.kind = kind;
  w.seed = seed;
  if (kind == Kind::kColdNeuro) {
    // The paper's workload: axons x dendrites of a dense tissue model.
    touch::NeuroOptions neuro;
    neuro.neurons = 1000;
    const touch::NeuroModel model = touch::GenerateNeuroscience(neuro, seed);
    w.names = {"axons", "dendrites"};
    w.datasets = {touch::CylinderMbrs(model.axons),
                  touch::CylinderMbrs(model.dendrites)};
    w.shapes = {{0, 1, 0.5f}};
    w.mix = {0};
  } else {
    // The engine_service example's catalog.
    touch::SyntheticOptions gen;
    gen.space = 800.0f;
    w.names = {"parcels", "roads", "antennas"};
    w.datasets = {
        touch::GenerateSynthetic(touch::Distribution::kClustered, 60'000,
                                 Mix64(seed * 3 + 1), gen),
        touch::GenerateSynthetic(touch::Distribution::kUniform, 40'000,
                                 Mix64(seed * 3 + 2), gen),
        touch::GenerateSynthetic(touch::Distribution::kUniform, 900,
                                 Mix64(seed * 3 + 3), gen)};
    w.shapes = {{0, 1, 2.0f},  {1, 0, 2.0f}, {2, 0, 10.0f}, {2, 2, 5.0f},
                {0, 0, 1.0f},  {2, 1, 5.0f}, {0, 1, 3.0f}};
    if (kind == Kind::kContinuousChurn) {
      w.standing = {{0, 1, 2.0f}, {2, 0, 10.0f}};
      // Reads on parcels race the writer; parcels x parcels builds its
      // index over parcels, so every batch invalidates it and the next
      // read rebuilds.
      w.mix = {0, 5, 2, 4, 3};
    } else {
      w.mix = {0, 1, 2, 3, 0, 4, 5, 6};
    }
  }
  for (const Shape& s : w.shapes) {
    w.reference.push_back(
        ReferenceJoin(w.datasets[s.a], {}, w.datasets[s.b], {}, s.epsilon));
  }
  for (const Shape& s : w.standing) {
    w.standing_reference.push_back(
        ReferenceJoin(w.datasets[s.a], {}, w.datasets[s.b], {}, s.epsilon));
  }
  return w;
}

// --- Engine under test --------------------------------------------------------

Service::Service(const WorkloadData& data,
                 std::shared_ptr<touch::Tracer> tracer, double* register_ms)
    : data_(data),
      standing_(std::make_shared<std::vector<StandingFold>>(
          data.standing.size())) {
  std::vector<Dataset> copies = data.datasets;  // registration moves them in
  touch::EngineOptions options;
  options.threads = kEngineThreads;
  options.max_cache_bytes = 0;  // unbounded: the warm windows are all hits
  // Static plans. With calibration on, uncached runs (plane sweep) keep
  // feeding the cost models while cache hits do not, and plans of cached
  // TOUCH shapes flip to plane sweep mid-window: the request mix would not
  // be stationary.
  options.calibration.enabled = false;
  options.tracer = std::move(tracer);
  double registered = 0;
  const auto register_all = [&](auto& engine) {
    for (size_t i = 0; i < copies.size(); ++i) {
      const auto t0 = Clock::now();
      handles_.push_back(
          engine.RegisterDataset(data.names[i], std::move(copies[i])));
      registered += SecondsSince(t0);
    }
  };
  if (data.kind == Kind::kShardedServe) {
    options.shards = 4;
    sharded_ = std::make_unique<touch::ShardedQueryEngine>(options);
    register_all(*sharded_);
  } else {
    plain_ = std::make_unique<touch::QueryEngine>(options);
    register_all(*plain_);
    // Materialize the written dataset's dynamic index (lazy on the first
    // probe) so the write path is warm before timing.
    const Box far(Vec3(-1e9f, -1e9f, -1e9f), Vec3(-1e9f, -1e9f, -1e9f));
    plain_->catalog().QueryObjects(handles_[data.write_dataset], far,
                                   [](uint32_t, const Box&) {});
  }
  if (register_ms != nullptr) *register_ms = registered * 1e3;

  for (size_t i = 0; i < data.standing.size(); ++i) {
    JoinRequest request{handles_[data.standing[i].a],
                        handles_[data.standing[i].b],
                        data.standing[i].epsilon};
    request.continuous = true;
    standing_handles_.push_back(
        plain_->Submit(request, std::make_unique<DeltaFoldSink>(standing_, i)));
    setup_ops_.Record((*standing_)[i].state == data.standing_reference[i]);
  }
  if (data.kind == Kind::kColdNeuro) return;
  // Prebuild: one request per shape fills the cache.
  for (size_t s = 0; s < data.shapes.size(); ++s) {
    first_.push_back(Join(static_cast<int>(s)));
    setup_ops_.Record(first_.back().ok &&
                      first_.back().got == data.reference[s]);
  }
}

Service::~Service() {
  for (touch::RequestHandle& handle : standing_handles_) {
    handle.Cancel();
    handle.Get();
  }
}

touch::QueryEngine& Service::engine() {
  return sharded_ ? sharded_->engine() : *plain_;
}

JoinRequest Service::Request(int shape) const {
  const Shape& s = data_.shapes[shape];
  return JoinRequest{handles_[s.a], handles_[s.b], s.epsilon};
}

JoinRequest Service::PlannableRequest(int shape) const {
  if (!sharded_) return Request(shape);
  const Shape& s = data_.shapes[shape];
  const auto& catalog = sharded_->catalog();
  return JoinRequest{catalog.entry(handles_[s.a]).shards[0].engine_handle,
                     catalog.entry(handles_[s.b]).shards[0].engine_handle,
                     s.epsilon};
}

JoinOutcome Service::Join(int shape, bool clear_cache) {
  JoinOutcome out;
  out.shape = shape;
  const JoinRequest request = Request(shape);
  if (clear_cache) engine().ClearIndexCache();
  auto sink = std::make_unique<ChecksumSink>(&out.got);
  const auto start = Clock::now();
  if (sharded_) {
    touch::ShardedJoinResult r =
        sharded_->Submit(request, std::move(sink)).Get();
    out.latency_ms = SecondsSince(start) * 1e3;
    out.ok = r.merged.ok();
    out.algorithm = r.merged.plan.algorithm;
    out.stats = r.merged.stats;
    out.pairs_run = r.pairs.size();
    std::vector<double> pair_seconds;
    for (const touch::ShardPairReport& pair : r.pairs) {
      out.expected_results += pair.plan.expected_results;
      pair_seconds.push_back(pair.stats.total_seconds);
      if (pair.plan.algorithm == "touch") out.touch.MergeCounters(pair.stats);
      out.touch.memory_bytes += pair.plan.algorithm == "touch"
                                    ? pair.stats.memory_bytes
                                    : 0;
    }
    const double median = Median(pair_seconds);
    if (median > 0) {
      out.pair_skew =
          *std::max_element(pair_seconds.begin(), pair_seconds.end()) /
          median;
    }
  } else {
    touch::JoinResult r = plain_->Submit(request, std::move(sink)).Get();
    out.latency_ms = SecondsSince(start) * 1e3;
    out.ok = r.ok();
    out.algorithm = r.plan.algorithm;
    out.stats = r.stats;
    out.expected_results = r.plan.expected_results;
    if (r.plan.algorithm == "touch") {
      out.touch.MergeCounters(r.stats);
      out.touch.memory_bytes = r.stats.memory_bytes;
    }
  }
  return out;
}

void Service::Mutate(std::span<const Mutation> batch) {
  const DatasetHandle h = handles_[data_.write_dataset];
  if (sharded_) {
    sharded_->ApplyMutations(h, batch);
  } else {
    plain_->ApplyMutations(h, batch);
  }
}

size_t Service::WrittenCount() const {
  const DatasetHandle h = handles_[data_.write_dataset];
  if (!sharded_) return plain_->catalog().snapshot(h)->boxes.size();
  size_t count = 0;
  for (const auto& shard : sharded_->catalog().entry(h).shards) {
    count += sharded_->engine().catalog().snapshot(shard.engine_handle)
                 ->boxes.size();
  }
  return count;
}

touch::DatasetSnapshotPtr Service::Snapshot(int dataset) const {
  return plain_->catalog().snapshot(handles_[dataset]);
}

// --- Mutation stream -------------------------------------------------------------

MutationStream::MutationStream(const Dataset& initial, uint64_t seed)
    : rng_(seed), box_of_(initial), registered_(initial.size()) {
  live_.resize(initial.size());
  position_of_.resize(initial.size());
  for (uint32_t i = 0; i < initial.size(); ++i) {
    live_[i] = i;
    position_of_[i] = i;
  }
}

uint32_t MutationStream::PickLive() {
  return live_[rng_.NextU64() % live_.size()];
}

void MutationStream::Erase(uint32_t id) {
  const uint32_t pos = position_of_[id];
  const uint32_t last = live_.back();
  live_[pos] = last;
  position_of_[last] = pos;
  live_.pop_back();
}

void MutationStream::Next(size_t ops, std::vector<Mutation>* batch,
                          std::vector<Box>* old_boxes) {
  batch->clear();
  old_boxes->clear();
  for (size_t i = 0; i < ops; ++i) {
    const double r = rng_.NextDouble();
    if (r < 0.25 || live_.empty()) {
      // Insert next to one of the registered objects (live or not), so the
      // dataset keeps its distribution however long the stream runs.
      const Box& near = box_of_[rng_.NextU64() % registered_];
      const Box box = Shifted(near, rng_.Uniform(-2, 2), rng_.Uniform(-2, 2),
                              rng_.Uniform(-2, 2));
      const uint32_t id = static_cast<uint32_t>(box_of_.size());
      box_of_.push_back(box);
      position_of_.push_back(static_cast<uint32_t>(live_.size()));
      live_.push_back(id);
      batch->push_back({MutationKind::kInsert, id, box});
      old_boxes->push_back(box);
    } else if (r < 0.5) {
      const uint32_t id = PickLive();
      batch->push_back({MutationKind::kDelete, id, Box()});
      old_boxes->push_back(box_of_[id]);
      Erase(id);
    } else {
      // Update: the object moves a short distance.
      const uint32_t id = PickLive();
      const Box moved = Shifted(box_of_[id], rng_.Uniform(-2, 2),
                                rng_.Uniform(-2, 2), rng_.Uniform(-2, 2));
      old_boxes->push_back(box_of_[id]);
      box_of_[id] = moved;
      batch->push_back({MutationKind::kUpdate, id, moved});
    }
  }
}

// --- Runs ---------------------------------------------------------------------------

void EndToEndMetrics(const Measurement& m, Report* report) {
  const SeriesSummary joins = Summarize(m.joins, 0, m.join_span, 1);
  const SeriesSummary batches =
      Summarize(m.batches, 0, m.write_span, kBatchOps);
  report->EndToEnd("setup_s", Median(m.setup_s), "s");
  report->EndToEnd("joins_per_s", joins.per_s, "1/s");
  report->EndToEnd("join_p50_ms", joins.p50_ms, "ms");
  AddTail(report, "join_tail_ms", joins);
  report->EndToEnd("mutations_per_s", batches.per_s, "1/s");
  report->EndToEnd("mutation_p50_ms", batches.p50_ms, "ms");
  AddTail(report, "mutation_tail_ms", batches);
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->notes.push_back(
      "failed_ratio " + std::to_string(report->ops.FailedRatio()) + " (" +
      std::to_string(report->ops.failed) + " of " +
      std::to_string(report->ops.attempted) + " operations)");
}

void RunWorkload(const RunOptions& options, const WorkloadData& data,
                 Report* report, Measurement* measurement) {
  Tracker tracker(data);
  const auto observe_setup = [&](const Service& service) {
    report->ops.Merge(service.setup_ops());
    for (const JoinOutcome& o : service.first()) tracker.Observe(o, report);
  };
  if (!options.trace) {
    // Set-up is repeated and reported as the median; the last engine is
    // the one measured.
    std::vector<double> setup_s;
    std::unique_ptr<Service> service;
    for (int r = 0; r < kSetupRepeats; ++r) {
      service.reset();
      const auto t0 = Clock::now();
      service = std::make_unique<Service>(data, nullptr, nullptr);
      setup_s.push_back(SecondsSince(t0));
      observe_setup(*service);
    }
    const Window w = RunWindow(options, data, *service, options.seconds,
                               false, &tracker, report);
    AppendMeasured(JoinSeries(w), w.join_from, w.join_to,
                   &measurement->joins, &measurement->join_span);
    AppendMeasured(w.batches, w.write_from, w.write_to,
                   &measurement->batches, &measurement->write_span);
    measurement->setup_s.insert(measurement->setup_s.end(), setup_s.begin(),
                                setup_s.end());
    return;
  }

  // Traced run: the same schedule on an untraced engine (the overhead
  // baseline), then on an engine with the tracer attached, then direct
  // calls into each layer.
  Window untraced;
  {
    Service service(data, nullptr, nullptr);
    observe_setup(service);
    untraced = RunWindow(options, data, service, options.seconds / 2, false,
                         &tracker, report);
  }
  touch::TracerOptions tracer_options;
  tracer_options.buffer_capacity = 1 << 15;
  tracer_options.buffers = 16;
  auto tracer = std::make_shared<touch::Tracer>(tracer_options);
  double register_ms = 0;
  Service service(data, tracer, &register_ms);
  observe_setup(service);
  const int64_t window_start = touch::TraceClockNs();
  const Window w = RunWindow(options, data, service, options.seconds / 2,
                             true, &tracker, report);
  const int64_t window_end = touch::TraceClockNs();
  std::vector<touch::SpanRecord> spans = tracer->Snapshot();
  std::erase_if(spans, [&](const touch::SpanRecord& r) {
    return r.start_ns < window_start || r.start_ns > window_end;
  });
  LayerMetrics(data, w, untraced, SummarizeSpans(spans), tracker,
               register_ms, report);
  ProbeLayers(data, service, *tracer, report);
  if (tracer->drops() != 0) {
    report->defects.push_back("tracer dropped " +
                              std::to_string(tracer->drops()) + " spans");
  }
}

}  // namespace perfbench
