#include "engine/engine.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/factory.h"
#include "core/overlap_kernel.h"
#include "core/touch.h"
#include "index/rtree.h"
#include "join/pbsm.h"
#include "join/rtree_join.h"
#include "util/memory.h"
#include "util/morsel.h"
#include "util/timer.h"

namespace touch {
namespace {

/// Lends the engine pool's idle workers to a request's TOUCH morsels. A
/// lone request gets every idle sibling; on a saturated pool nobody is
/// idle and the request's own worker runs every morsel. A helper hands its
/// worker back as soon as a submitted request waits in the queue.
class PoolHelpers : public MorselHelpers {
 public:
  explicit PoolHelpers(WorkerPool& pool) : pool_(pool) {}

  int Offer(int max_helpers, const std::function<void()>& help) override {
    return pool_.OfferHelp(max_helpers, help);
  }

  int Idle() const override { return pool_.idle_workers(); }

  std::function<bool()> YieldSignal() const override {
    const WorkerPool* pool = &pool_;  // outlives every task it runs
    return [pool] { return pool->has_queued_tasks(); };
  }

 private:
  WorkerPool& pool_;
};

/// Flips pairs back to (a, b) order when a join ran with swapped inputs.
class SwappedCollector : public ResultCollector {
 public:
  explicit SwappedCollector(ResultCollector& out) : out_(out) {}
  void Emit(uint32_t a_id, uint32_t b_id) override { out_.Emit(b_id, a_id); }

 private:
  ResultCollector& out_;
};

/// Translates the dense slot indices the kernels emit into stable object
/// ids (DatasetSnapshot::id_of). Only interposed when a dataset has been
/// mutated out of slot/id identity, so never-mutated datasets keep the
/// zero-cost emission path.
class RemapCollector : public ResultCollector {
 public:
  RemapCollector(ResultCollector& out, const DatasetSnapshot& a,
                 const DatasetSnapshot& b)
      : out_(out), a_(a), b_(b) {}
  void Emit(uint32_t a_slot, uint32_t b_slot) override {
    out_.Emit(a_.id_of(a_slot), b_.id_of(b_slot));
  }

 private:
  ResultCollector& out_;
  const DatasetSnapshot& a_;
  const DatasetSnapshot& b_;
};

/// Measures time-to-first-Emit generically — for every algorithm, not just
/// the streaming NBPS that historically self-reported it. Wrapped around
/// the request's collector in ExecuteRequest; single-threaded like every
/// engine sink (Emit calls are never concurrent per request).
class FirstEmitCollector : public ResultCollector {
 public:
  FirstEmitCollector(ResultCollector& out, const TraceContext& trace)
      : out_(out), trace_(trace) {}

  void Emit(uint32_t a_id, uint32_t b_id) override {
    if (!seen_) {
      seen_ = true;
      elapsed_seconds_ = timer_.Seconds();
      if (trace_.active()) {
        trace_.tracer->RecordInstant(trace_.trace_id, trace_.span_id,
                                     "first-result");
      }
    }
    out_.Emit(a_id, b_id);
  }

  bool seen() const { return seen_; }
  double elapsed_seconds() const { return elapsed_seconds_; }

 private:
  ResultCollector& out_;
  TraceContext trace_;
  Timer timer_;
  bool seen_ = false;
  double elapsed_seconds_ = 0.0;
};

/// The copy of `boxes` enlarged by `epsilon` that an artifact owns, or
/// nothing when `epsilon` is 0 (the artifact then reads `boxes` itself).
Dataset EnlargedCopy(std::span<const Box> boxes, float epsilon) {
  Dataset out;
  if (epsilon <= 0) return out;
  out.reserve(boxes.size());
  for (const Box& box : boxes) out.push_back(box.Enlarged(epsilon));
  return out;
}

/// The boxes an artifact was built over: its own enlarged copy, or the
/// catalog's `src` when it holds none.
std::span<const Box> ArtifactBoxes(const Dataset& owned,
                                   std::span<const Box> src) {
  return owned.empty() ? src : std::span<const Box>(owned);
}

// --- Cached artifact types (one per ArtifactKind) ---------------------------

/// A built TOUCH tree plus the exact boxes it was built over. `boxes` is the
/// enlarged copy when the key's epsilon is nonzero; it stays empty when the
/// tree was built directly over the catalog's boxes (the executor then
/// passes the catalog span to JoinWithPrebuiltTree instead).
/// `build_seconds` is single-runner seconds: the build's wall time plus
/// the STR slab sorts idle workers took off the building thread.
/// Calibration and the cache's cost-aware admission both read it, and an
/// idle pool must not make a rebuild look cheap to either.
struct CachedTouchIndex : CachedArtifact {
  Dataset boxes;
  TouchTree tree;
  double wall_seconds = 0;
  double helper_seconds = 0;

  CachedTouchIndex(Dataset boxes_in, TouchTree tree_in, double wall,
                   double helped)
      : boxes(std::move(boxes_in)),
        tree(std::move(tree_in)),
        wall_seconds(wall),
        helper_seconds(helped) {
    build_seconds = wall + helped;
  }
  size_t MemoryUsageBytes() const override {
    return tree.MemoryUsageBytes() + VectorBytes(boxes);
  }
};

/// A bulk-loaded STR R-tree for the indexed nested loop, same box-ownership
/// convention as CachedTouchIndex.
struct CachedInlIndex : CachedArtifact {
  Dataset boxes;
  RTree tree;
  /// SoA probe slabs over the tree's items and child MBRs
  /// (core/overlap_kernel.h): built once with the tree, reused by every
  /// probe of this cached artifact, and — unlike the library join's
  /// transient slabs — part of the artifact's accounted footprint, because
  /// the cache really does hold these bytes between requests.
  RTreeProbeSlabs slabs;

  /// `raw_boxes` is the un-enlarged source span, used for the slab build
  /// only when no enlarged copy is owned (boxes empty).
  CachedInlIndex(Dataset boxes_in, RTree tree_in,
                 std::span<const Box> raw_boxes, double seconds)
      : boxes(std::move(boxes_in)), tree(std::move(tree_in)) {
    slabs.Build(tree, ArtifactBoxes(boxes, raw_boxes));
    build_seconds = seconds;
  }
  size_t MemoryUsageBytes() const override {
    return tree.MemoryUsageBytes() + VectorBytes(boxes) +
           slabs.MemoryUsageBytes();
  }
};

/// One dataset's PBSM cell directory (key-sorted placements over a specific
/// joint grid), same box-ownership convention as CachedTouchIndex. `domain`
/// records the exact grid the placements were computed over, so a lookup
/// can verify it got the grid it asked for (the cache key only carries a
/// 64-bit signature of the domain).
struct CachedPbsmDirectory : CachedArtifact {
  Box domain = Box::Empty();
  Dataset boxes;
  std::vector<PbsmPlacement> placements;

  size_t MemoryUsageBytes() const override {
    return VectorBytes(placements) + VectorBytes(boxes);
  }
};

/// Exact (bit-level intent, float ==) domain equality for the collision
/// check above.
bool SameDomain(const Box& x, const Box& y) {
  return x.lo.x == y.lo.x && x.lo.y == y.lo.y && x.lo.z == y.lo.z &&
         x.hi.x == y.hi.x && x.hi.y == y.hi.y && x.hi.z == y.hi.z;
}

/// Cache-key signature of a PBSM joint grid domain: directories are only
/// interchangeable when they were placed over bit-identical grids, and the
/// grid depends on the *partner* dataset's extent — hashing the domain into
/// the key keeps directories built for different partners apart.
size_t DomainSignature(const Box& domain) {
  const float fields[6] = {domain.lo.x, domain.lo.y, domain.lo.z,
                           domain.hi.x, domain.hi.y, domain.hi.z};
  size_t hash = 0;
  for (const float field : fields) {
    uint32_t bits = 0;
    std::memcpy(&bits, &field, sizeof(bits));
    hash ^= bits + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  }
  return hash;
}

}  // namespace

const char* RequestPhaseName(RequestPhase phase) {
  switch (phase) {
    case RequestPhase::kQueued:
      return "queued";
    case RequestPhase::kPlanning:
      return "planning";
    case RequestPhase::kBuildingIndex:
      return "building-index";
    case RequestPhase::kExecuting:
      return "executing";
    case RequestPhase::kCompleted:
      return "completed";
    case RequestPhase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kError:
      return "error";
  }
  return "unknown";
}

/// Everything one submitted request needs to execute and complete,
/// reference-counted across the handle, the pool task and its completion
/// notification.
struct internal::RequestState {
  JoinRequest request;
  std::unique_ptr<ResultSink> sink;  // may be null (count-only)
  CompletionCallback on_complete;    // may be null
  /// Set for SubmitPlanned and ExecuteFixed requests: the plan the worker
  /// executes instead of planning (the sharded scatter path, fixed runs).
  std::optional<JoinPlan> preplanned;
  /// An ExecuteFixed run: its root span carries `fixed=true`.
  bool fixed = false;
  std::promise<JoinResult> promise;
  JoinResult result;
  /// Advanced by the executing worker; the kQueued→kPlanning transition is
  /// a CAS the worker and a prompt queued-cancel race for — exactly one of
  /// them claims the request.
  std::atomic<RequestPhase> phase{RequestPhase::kQueued};
  CancellationSource cancel;
  /// Exactly-once guard on result delivery (sink OnComplete + callback +
  /// promise): the worker's completion notification and a prompt
  /// queued-cancel both funnel through it.
  std::atomic<bool> delivered{false};
  /// Observability wiring (raw pointers into the engine; valid for the
  /// request's whole life because the engine's pool drains every request
  /// before tracer_/metrics_ are destroyed, and Deliver runs at most once).
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// This request's trace identity: the root "request" span every phase
  /// span parents onto, recorded by whoever delivers the result.
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;
  /// Parent span for the root (nonzero only for shard-pair requests, whose
  /// roots hang under the sharded request's root).
  uint64_t root_parent_id = 0;
  int64_t submit_ns = 0;
  /// Standing continuous join (JoinRequest::continuous): the request never
  /// enters the worker pool; its phase stays kExecuting while subscribed
  /// and Cancel is the only terminal transition.
  bool continuous = false;
  /// Serializes this subscription's delta emission against its Cancel:
  /// every EmitDelta runs under it, and Cancel barrier-locks it after
  /// raising the stop flag, so delivery (which frees the sink) can never
  /// race an in-flight delta burst. A probe that acquires it after the
  /// stop flag rose bails before touching the sink.
  Mutex cont_sink_mutex;
};

/// One standing continuous join: the submitted request plus the shared
/// state its deltas, Cancel and future run through. Registered in the
/// engine's subscription list under delta_sink_mutex_; removed lazily (on
/// the first mutation batch that finds it delivered) or by the engine's
/// destructor.
struct internal::ContinuousSub {
  JoinRequest request;
  std::shared_ptr<internal::RequestState> state;
};

namespace {

using RequestStatePtr = std::shared_ptr<internal::RequestState>;

JoinResult CancelledResult() {
  JoinResult result;
  result.status = RequestStatus::kCancelled;
  return result;
}

JoinResult ErrorResult(std::string message) {
  JoinResult result;
  result.status = RequestStatus::kError;
  result.error = std::move(message);
  return result;
}

JoinResult InvalidHandleResult(const DatasetCatalog& catalog) {
  return ErrorResult("invalid dataset handle (catalog has " +
                     std::to_string(catalog.size()) + " datasets)");
}

/// Delivers `result` exactly once: terminal phase, sink OnComplete,
/// completion callback, promise — in that order. Idempotent; safe to call
/// concurrently from the worker's completion notification and from a
/// cancelling thread, because each caller passes a result it owns (the
/// worker its task's state->result, a canceller a local CancelledResult) —
/// shared request state is never mutated outside the delivery claim.
void Deliver(const RequestStatePtr& state, JoinResult&& result) {
  if (state->delivered.exchange(true, std::memory_order_acq_rel)) return;
  state->phase.store(result.cancelled() ? RequestPhase::kCancelled
                                        : RequestPhase::kCompleted,
                     std::memory_order_release);
  result.trace_id = state->trace_id;
  if (state->metrics != nullptr) {
    state->metrics
        ->counter(std::string("touch_engine_requests_total{status=\"") +
                  RequestStatusName(result.status) + "\"}")
        .Increment();
  }
  if (state->tracer != nullptr) {
    // The root span covers submit → delivery (queue wait included); it is
    // recorded here — by the worker's completion notification or by a
    // prompt queued-cancel — because only delivery knows the outcome.
    if (result.cancelled()) {
      state->tracer->RecordInstant(state->trace_id, state->root_span_id,
                                   "cancelled");
    }
    SpanRecord root;
    root.trace_id = state->trace_id;
    root.span_id = state->root_span_id;
    root.parent_id = state->root_parent_id;
    root.start_ns = state->submit_ns;
    root.duration_ns = TraceClockNs() - state->submit_ns;
    root.thread = CurrentThreadIndex();
    root.name = "request";
    root.attrs.emplace_back("status", RequestStatusName(result.status));
    if (!result.plan.algorithm.empty()) {
      root.attrs.emplace_back("algorithm", result.plan.algorithm);
    }
    if (result.index_cache_hit) root.attrs.emplace_back("cache", "hit");
    if (state->fixed) root.attrs.emplace_back("fixed", "true");
    state->tracer->Record(std::move(root));
  }
  try {
    if (state->sink) state->sink->OnComplete(result);
  } catch (...) {
  }
  try {
    if (state->on_complete) state->on_complete(result);
  } catch (...) {
  }
  state->promise.set_value(std::move(result));
  state->sink.reset();
}

/// RequestHandle::Cancel's core. Requests the cooperative stop; if the
/// request is still queued, additionally claims it (the same CAS the worker
/// would do) and delivers the Cancelled result right here — the future
/// completes promptly and the pool will skip the task. The worker's
/// completion notification may race this delivery; both sides pass their
/// own result object and Deliver's exactly-once guard picks one.
bool CancelRequest(const RequestStatePtr& state) {
  if (state->delivered.load(std::memory_order_acquire)) return false;
  const bool first = state->cancel.RequestStop();
  if (first && state->tracer != nullptr) {
    state->tracer->RecordInstant(state->trace_id, state->root_span_id,
                                 "cancel-requested");
  }
  if (state->continuous) {
    // Unsubscribe a standing query: the stop flag is up, so no *new* delta
    // burst will touch the sink; the barrier lock waits out a burst already
    // holding the emission mutex. After it, delivery is safe — the sink can
    // no longer be mid-call. (The subscription list entry is pruned lazily
    // by the next mutation batch, which sees `delivered`.)
    { MutexLock barrier(state->cont_sink_mutex); }
    Deliver(state, CancelledResult());
    return first;
  }
  RequestPhase expected = RequestPhase::kQueued;
  if (state->phase.compare_exchange_strong(expected, RequestPhase::kCancelled,
                                           std::memory_order_acq_rel)) {
    Deliver(state, CancelledResult());
  }
  return first;
}

}  // namespace

// --- RequestHandle / BatchHandle --------------------------------------------

RequestHandle::RequestHandle() = default;
RequestHandle::RequestHandle(RequestHandle&&) noexcept = default;
RequestHandle& RequestHandle::operator=(RequestHandle&&) noexcept = default;
RequestHandle::~RequestHandle() = default;

RequestHandle::RequestHandle(std::shared_ptr<internal::RequestState> state,
                             std::future<JoinResult> future)
    : state_(std::move(state)), future_(std::move(future)) {}

bool RequestHandle::Cancel() {
  if (state_ == nullptr) return false;
  return CancelRequest(state_);
}

bool RequestHandle::cancel_requested() const {
  return state_ != nullptr && state_->cancel.stop_requested();
}

RequestPhase RequestHandle::phase() const {
  if (state_ == nullptr) return RequestPhase::kCompleted;
  return state_->phase.load(std::memory_order_acquire);
}

CancellationToken RequestHandle::token() const {
  if (state_ == nullptr) return {};
  return state_->cancel.token();
}

size_t BatchHandle::CancelAll() {
  size_t cancelled = 0;
  for (RequestHandle& request : requests_) {
    if (request.Cancel()) ++cancelled;
  }
  return cancelled;
}

std::vector<JoinResult> BatchHandle::GetAll() {
  std::vector<JoinResult> results;
  results.reserve(requests_.size());
  for (RequestHandle& request : requests_) results.push_back(request.Get());
  return results;
}

// --- QueryEngine ------------------------------------------------------------

QueryEngine::QueryEngine(const EngineOptions& options)
    : options_(options),
      tracer_(options.tracer),
      metrics_(options.metrics ? options.metrics
                               : std::make_shared<MetricsRegistry>()),
      planner_(options.planner),
      cache_(IndexCacheOptions{options.max_cache_bytes,
                               options.cache_admission,
                               options.cache_ghost_entries,
                               options.cache_preadmit_build_seconds}),
      feedback_(options.calibration.max_outcomes),
      pool_(options.threads) {
  // Resolve kernel dispatch now, not on the first worker probe: a bad
  // TOUCH_SIMD_LEVEL terminates at engine construction with its diagnostic
  // instead of mid-join on a pool thread.
  ActiveKernels();
  cache_.RegisterMetricProviders(*metrics_, "touch_cache_");
  metrics_->SetProvider("touch_pool_queue_depth", MetricType::kGauge, [this] {
    return static_cast<double>(pool_.queue_depth());
  });
  metrics_->SetProvider("touch_pool_busy_workers", MetricType::kGauge, [this] {
    return static_cast<double>(pool_.busy_workers());
  });
  metrics_->SetProvider("touch_pool_threads", MetricType::kGauge, [this] {
    return static_cast<double>(pool_.thread_count());
  });
  metrics_->SetProvider(
      "touch_pool_tasks_completed_total", MetricType::kCounter,
      [this] { return static_cast<double>(pool_.tasks_completed()); });
}

QueryEngine::~QueryEngine() {
  // Outstanding continuous subscriptions complete as Cancelled here, so
  // their futures and OnComplete fire exactly once even when the caller
  // never cancelled. Same barrier discipline as CancelRequest.
  {
    MutexLock lock(delta_sink_mutex_);
    for (const std::shared_ptr<internal::ContinuousSub>& sub : subs_) {
      sub->state->cancel.RequestStop();
      { MutexLock barrier(sub->state->cont_sink_mutex); }
      Deliver(sub->state, CancelledResult());
    }
    subs_.clear();
  }
  // Providers sample cache_/pool_, which die with this engine; a scrape
  // after this point must not reach them. (The pool itself drains after
  // this body, before the members destruct.)
  metrics_->RemoveProvidersWithPrefix("touch_cache_");
  metrics_->RemoveProvidersWithPrefix("touch_pool_");
}

DatasetHandle QueryEngine::RegisterDataset(std::string name, Dataset boxes) {
  return catalog_.Register(std::move(name), std::move(boxes));
}

uint64_t QueryEngine::ApplyMutations(DatasetHandle dataset,
                                     std::span<const Mutation> mutations) {
  if (!catalog_.Contains(dataset)) return 0;
  MutexLock mutation_lock(mutation_mutex_);
  // Mutation batches trace as their own root: they belong to no request,
  // and several requests' artifacts may be invalidated by one batch.
  TraceContext mutate_ctx;
  if (tracer_ != nullptr) {
    mutate_ctx = TraceContext{tracer_.get(), tracer_->NewTraceId(), 0};
  }
  SpanScope mutate_span(mutate_ctx, "mutate");
  std::vector<AppliedMutation> applied;
  const uint64_t version = catalog_.ApplyMutations(dataset, mutations,
                                                   &applied);
  // First post-mutation query must rebuild: drop every ready artifact built
  // against an older version of this dataset (counted as evictions).
  cache_.InvalidateDataset(dataset, version);
  metrics_->counter("touch_mutations_total").Increment(applied.size());
  mutate_span.AddAttr("dataset", catalog_.name(dataset));
  mutate_span.AddAttr("applied", std::to_string(applied.size()));
  mutate_span.AddAttr("version", std::to_string(version));

  // Fold the batch per object — first old box, last new box — so an object
  // mutated repeatedly in one batch is probed once, against its net move.
  std::vector<AppliedMutation> net;
  net.reserve(applied.size());
  {
    std::unordered_map<uint32_t, size_t> slot;
    for (const AppliedMutation& m : applied) {
      const auto [it, fresh] = slot.emplace(m.id, net.size());
      if (fresh) {
        net.push_back(m);
      } else {
        net[it->second].has_new = m.has_new;
        net[it->second].new_box = m.new_box;
      }
    }
    // An insert+delete that nets out inside the batch touches nothing.
    std::erase_if(net, [](const AppliedMutation& m) {
      return !m.had_old && !m.has_new;
    });
  }
  if (net.empty()) return version;

  MutexLock sink_lock(delta_sink_mutex_);
  for (auto it = subs_.begin(); it != subs_.end();) {
    const std::shared_ptr<internal::ContinuousSub>& sub = *it;
    if (sub->state->delivered.load(std::memory_order_acquire)) {
      it = subs_.erase(it);  // cancelled since the last batch
      continue;
    }
    if (sub->request.a == dataset || sub->request.b == dataset) {
      SpanScope probe_span(mutate_span.context(), "delta-probe");
      const size_t deltas = DeltaProbeLocked(**it, dataset, net);
      probe_span.AddAttr("deltas", std::to_string(deltas));
      metrics_->counter("touch_delta_results_total").Increment(deltas);
    }
    ++it;
  }
  return version;
}

JoinPlan QueryEngine::Plan(const JoinRequest& request) const {
  // Pinned reads: a mutation batch racing this plan cannot free the stats.
  return PlanFromStats(catalog_.snapshot(request.a)->stats,
                       catalog_.snapshot(request.b)->stats, request.epsilon);
}

JoinPlan QueryEngine::PlanFromStats(const DatasetStats& stats_a,
                                    const DatasetStats& stats_b,
                                    float epsilon) const {
  if (!options_.calibration.enabled) {
    return planner_.Plan(stats_a, stats_b, epsilon);
  }
  const CalibrationSnapshot snapshot =
      feedback_.Snapshot(options_.calibration.min_samples);
  return planner_.Plan(stats_a, stats_b, epsilon, &snapshot);
}

void QueryEngine::RecordOutcome(const DatasetStats& stats_a,
                                const DatasetStats& stats_b, float epsilon,
                                const JoinResult& result) {
  if (!options_.calibration.enabled) return;
  // Cache hits skipped (some of) the build the cost models are fitted
  // against; the planner compares cold costs, so only fully cold runs are
  // evidence. Partial hits (one PBSM directory warm, one built) would bias
  // the family's fit downward — and cancelled runs stopped mid-flight, so
  // their timings measure nothing the planner could compare.
  if (!result.ok() || result.index_cache_hit ||
      result.partial_index_cache_hit) {
    return;
  }
  PlanOutcome outcome;
  outcome.family = AlgorithmFamily(result.plan.algorithm);
  outcome.objects = stats_a.count + stats_b.count;
  outcome.results = result.stats.results;
  // The fit feature is the planner's own estimate (recomputed here so
  // fixed runs, whose plans skip estimation, get the same feature as auto
  // runs) — see PlanOutcome::estimated_results.
  outcome.estimated_results =
      CombineHistograms(stats_a, stats_b, epsilon,
                        options_.planner.estimator_resolution)
          .expected_results;
  // Single-runner times: how many idle workers helped a TOUCH request
  // depends on the load at that moment, and the other families never get
  // helpers, so wall time alone would make TOUCH look cheap whenever the
  // pool happened to be idle.
  const double build_helped = result.stats.build_helper_seconds;
  const double helped = result.stats.helper_seconds;
  outcome.build_seconds = result.stats.build_seconds + build_helped;
  outcome.probe_seconds =
      result.stats.assign_seconds + result.stats.join_seconds + helped;
  outcome.total_seconds =
      result.stats.total_seconds + build_helped + helped;
  feedback_.Record(outcome);
}

double QueryEngine::PredictedBuildSeconds(const char* family,
                                          const JoinRequest& request) const {
  // Only worth a snapshot when the cache can act on the prediction and the
  // feedback store has evidence to predict from.
  if (!options_.cache_admission || !options_.calibration.enabled) return 0.0;
  const CalibrationSnapshot snapshot =
      feedback_.Snapshot(options_.calibration.min_samples);
  // The fit's object feature is the request's total cardinality; the same
  // feature keeps prediction consistent with the recorded evidence even
  // though the artifact covers only the build side.
  const double objects =
      static_cast<double>(catalog_.snapshot(request.a)->stats.count) +
      static_cast<double>(catalog_.snapshot(request.b)->stats.count);
  return snapshot.PredictBuildSeconds(family, objects).value_or(0.0);
}

// --- Asynchronous submission ------------------------------------------------

void QueryEngine::EnterPhase(const ExecContext& ctx,
                             RequestPhase phase) const {
  ctx.state->phase.store(phase, std::memory_order_release);
  // One emission point drives both observers: the tracer gets a phase
  // instant under the request root, and the legacy phase_observer hook —
  // now a thin adapter over the same event — gets the enum.
  if (ctx.trace.active()) {
    ctx.trace.tracer->RecordInstant(ctx.trace.trace_id, ctx.trace.span_id,
                                    std::string("phase:") +
                                        RequestPhaseName(phase));
  }
  if (options_.phase_observer) options_.phase_observer(phase);
}

std::shared_ptr<internal::RequestState> QueryEngine::NewRequestState(
    const JoinRequest& request, std::unique_ptr<ResultSink> sink,
    CompletionCallback on_complete) const {
  auto state = std::make_shared<internal::RequestState>();
  state->request = request;
  state->sink = std::move(sink);
  state->on_complete = std::move(on_complete);
  // A request deadline rides on the cancellation flag: once it passes,
  // every phase boundary and cooperative kernel poll sees a requested stop,
  // so the timeout holds even when nobody waits on the handle.
  const bool deadline = request.deadline.time_since_epoch().count() != 0;
  if (deadline) state->cancel.SetDeadline(request.deadline);
  state->tracer = tracer_.get();
  state->metrics = metrics_.get();
  state->submit_ns = TraceClockNs();
  if (state->tracer != nullptr) {
    // Adopt the caller's trace identity when it brought one (the sharded
    // engine parenting shard-pair roots under its own), else start fresh.
    state->trace_id = request.trace_id != 0 ? request.trace_id
                                            : state->tracer->NewTraceId();
    state->root_span_id = state->tracer->NewSpanId();
    state->root_parent_id = request.trace_parent_span;
    if (deadline) {
      state->tracer->RecordInstant(state->trace_id, state->root_span_id,
                                   "deadline-armed");
    }
  }
  return state;
}

RequestHandle QueryEngine::Enqueue(
    std::shared_ptr<internal::RequestState> state) {
  RequestHandle handle(state, state->promise.get_future());
  if (state->request.continuous) {
    // Submit routes standing queries to SubmitContinuous, so only a planned
    // request arrives here with the flag, and a standing query has no
    // one-shot plan to run. The error completes through the caller's sink.
    Deliver(state, ErrorResult("planned requests cannot be continuous"));
    return handle;
  }
  // Pre-fill an error so that even an exception escaping ExecuteRequest's
  // own catch blocks (e.g. bad_alloc while building the error string)
  // completes the future as a *failure*, never as a silent empty success;
  // a normal return overwrites it.
  state->result = ErrorResult("execution failed: worker task aborted");
  pool_.Submit(
      [this, state] {
        const int64_t claimed_ns = TraceClockNs();
        metrics_->histogram("touch_engine_queue_wait_seconds")
            .Observe(static_cast<double>(claimed_ns - state->submit_ns) *
                     1e-9);
        ExecContext ctx{state->cancel.token(), state.get(),
                        TraceContext{state->tracer, state->trace_id,
                                     state->root_span_id}};
        if (state->tracer != nullptr) {
          // The queue wait as a span of its own: submit → worker claim.
          SpanRecord wait;
          wait.trace_id = state->trace_id;
          wait.span_id = state->tracer->NewSpanId();
          wait.parent_id = state->root_span_id;
          wait.start_ns = state->submit_ns;
          wait.duration_ns = claimed_ns - state->submit_ns;
          wait.thread = CurrentThreadIndex();
          wait.name = "queue-wait";
          state->tracer->Record(std::move(wait));
        }
        ResultSink null_sink;  // drops pairs; stats.results still counts
        ResultCollector& out =
            state->sink ? static_cast<ResultCollector&>(*state->sink)
                        : null_sink;
        state->result = ExecuteRequest(
            state->request, out, ctx,
            state->preplanned ? &*state->preplanned : nullptr);
      },
      // Delivery runs as the pool's completion notification so the future
      // completes even if the task itself escaped. A kCancelled phase here
      // means the should_run claim below lost to a queued-cancel and the
      // task never ran: state->result still holds the pre-filled error
      // sentinel and may be racing the canceller's own delivery, so this
      // side delivers a fresh Cancelled result instead of touching it
      // (Deliver's exactly-once guard picks whichever side gets there
      // first — both carry the same Cancelled content).
      [state] {
        if (state->phase.load(std::memory_order_acquire) ==
            RequestPhase::kCancelled) {
          Deliver(state, CancelledResult());
        } else {
          Deliver(state, std::move(state->result));
        }
      },
      // Claiming the request is the worker's kQueued→kPlanning transition;
      // losing the CAS means a queued-cancel already delivered the result,
      // and the task is skipped without burning the worker.
      [state] {
        RequestPhase expected = RequestPhase::kQueued;
        return state->phase.compare_exchange_strong(
            expected, RequestPhase::kPlanning, std::memory_order_acq_rel);
      });
  return handle;
}

RequestHandle QueryEngine::Submit(const JoinRequest& request,
                                  std::unique_ptr<ResultSink> sink,
                                  CompletionCallback on_complete) {
  auto state =
      NewRequestState(request, std::move(sink), std::move(on_complete));
  return request.continuous ? SubmitContinuous(std::move(state))
                            : Enqueue(std::move(state));
}

RequestHandle QueryEngine::SubmitPlanned(JoinPlan plan,
                                         const JoinRequest& request,
                                         std::unique_ptr<ResultSink> sink) {
  auto state = NewRequestState(request, std::move(sink), nullptr);
  state->preplanned = std::move(plan);
  return Enqueue(std::move(state));
}

BatchHandle QueryEngine::SubmitBatch(std::span<const JoinRequest> requests,
                                     const SinkFactory& make_sink) {
  BatchHandle batch;
  batch.requests_.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    batch.requests_.push_back(
        Submit(requests[i], make_sink ? make_sink(i) : nullptr));
  }
  return batch;
}

// --- Continuous joins -------------------------------------------------------

RequestHandle QueryEngine::SubmitContinuous(
    std::shared_ptr<internal::RequestState> state) {
  const JoinRequest& request = state->request;
  state->continuous = true;
  RequestHandle handle(state, state->promise.get_future());
  // Validation failures deliver an error result through the normal path, so
  // the future, sink OnComplete and completion callback all still fire.
  if (state->sink == nullptr) {
    Deliver(state, ErrorResult("continuous join requires a result sink "
                               "(deltas have nowhere to go)"));
    return handle;
  }
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    Deliver(state, InvalidHandleResult(catalog_));
    return handle;
  }
  if (request.a == request.b) {
    Deliver(state, ErrorResult(
                       "continuous join requires two distinct datasets"));
    return handle;
  }
  state->phase.store(RequestPhase::kExecuting, std::memory_order_release);

  // The baseline runs under the mutation serialization: no batch can land
  // between "current pair set emitted" and "subscribed for deltas", so the
  // caller's folded view is the full join at every instant.
  MutexLock mutation_lock(mutation_mutex_);
  TraceContext root{state->tracer, state->trace_id, state->root_span_id};
  SpanScope baseline_span(root, "baseline-join");
  const DatasetSnapshotPtr snap_a = catalog_.snapshot(request.a);
  size_t deltas = 0;
  {
    MutexLock emit_lock(state->cont_sink_mutex);
    for (size_t slot = 0; slot < snap_a->boxes.size(); ++slot) {
      if (state->cancel.stop_requested()) break;
      const uint32_t a_id = snap_a->id_of(slot);
      catalog_.QueryObjects(
          request.b, snap_a->boxes[slot].Enlarged(request.epsilon),
          [&](uint32_t b_id, const Box&) {
            state->sink->EmitDelta(DeltaKind::kAdded, a_id, b_id);
            ++deltas;
          });
    }
  }
  baseline_span.AddAttr("deltas", std::to_string(deltas));
  baseline_span.End();
  metrics_->counter("touch_delta_results_total").Increment(deltas);
  if (state->cancel.stop_requested()) {
    // Deadline (or a racing Cancel) fired during the baseline: complete now
    // instead of subscribing a dead query.
    Deliver(state, CancelledResult());
    return handle;
  }
  MutexLock sink_lock(delta_sink_mutex_);
  subs_.push_back(std::make_shared<internal::ContinuousSub>(
      internal::ContinuousSub{request, state}));
  return handle;
}

size_t QueryEngine::DeltaProbeLocked(internal::ContinuousSub& sub,
                                     DatasetHandle mutated,
                                     std::span<const AppliedMutation> net) {
  internal::RequestState& state = *sub.state;
  const bool mutated_is_a = sub.request.a == mutated;
  const DatasetHandle partner =
      mutated_is_a ? sub.request.b : sub.request.a;
  const float epsilon = sub.request.epsilon;
  size_t deltas = 0;
  MutexLock emit_lock(state.cont_sink_mutex);
  // A Cancel that raised the stop flag before we took the emission lock may
  // already be past its barrier and freeing the sink — the flag check must
  // come before any sink access, and a mid-burst stop only breaks the loop
  // (the canceller is then still parked on the barrier, so the sink stays
  // alive until we release).
  if (state.cancel.stop_requested() ||
      state.delivered.load(std::memory_order_acquire)) {
    return 0;
  }
  ResultSink& sink = *state.sink;
  std::vector<uint32_t> old_ids;
  std::vector<uint32_t> new_ids;
  const auto emit = [&](DeltaKind kind, uint32_t partner_id,
                        uint32_t moved_id) {
    if (mutated_is_a) {
      sink.EmitDelta(kind, moved_id, partner_id);
    } else {
      sink.EmitDelta(kind, partner_id, moved_id);
    }
    ++deltas;
  };
  for (const AppliedMutation& m : net) {
    // Cooperative cancellation between objects: a standing query being
    // torn down must not hold the mutation path for the whole burst.
    if (state.cancel.stop_requested()) break;
    old_ids.clear();
    new_ids.clear();
    // The epsilon window moves with the object: pairs live in the old
    // window, the new window, or both. Enlarging the moved side is
    // equivalent to enlarging the partner (closed-box intersection is
    // symmetric under enlargement), so one probe orientation serves both.
    if (m.had_old) {
      catalog_.QueryObjects(
          partner, m.old_box.Enlarged(epsilon),
          [&](uint32_t id, const Box&) { old_ids.push_back(id); });
    }
    if (m.has_new) {
      catalog_.QueryObjects(
          partner, m.new_box.Enlarged(epsilon),
          [&](uint32_t id, const Box&) { new_ids.push_back(id); });
    }
    std::sort(old_ids.begin(), old_ids.end());
    std::sort(new_ids.begin(), new_ids.end());
    // Merge-diff: in-old-only pairs left the result set, in-new-only pairs
    // entered it, in-both pairs persist and emit nothing.
    size_t oi = 0;
    size_t ni = 0;
    while (oi < old_ids.size() || ni < new_ids.size()) {
      if (ni == new_ids.size() ||
          (oi < old_ids.size() && old_ids[oi] < new_ids[ni])) {
        emit(DeltaKind::kRemoved, old_ids[oi], m.id);
        ++oi;
      } else if (oi == old_ids.size() || new_ids[ni] < old_ids[oi]) {
        emit(DeltaKind::kAdded, new_ids[ni], m.id);
        ++ni;
      } else {
        ++oi;
        ++ni;
      }
    }
  }
  return deltas;
}

// --- Synchronous wrappers ---------------------------------------------------

JoinResult QueryEngine::Execute(const JoinRequest& request,
                                ResultCollector& out) {
  return Submit(request, std::make_unique<ForwardingSink>(out)).Get();
}

JoinResult QueryEngine::ExecuteFixed(const std::string& algorithm,
                                     const JoinRequest& request,
                                     ResultCollector& out) {
  if (algorithm == "auto") return Execute(request, out);
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    return InvalidHandleResult(catalog_);
  }
  if (MakeAlgorithm(algorithm) == nullptr) {
    return ErrorResult(UnknownAlgorithmMessage(algorithm));
  }
  JoinPlan plan;
  plan.algorithm = algorithm;
  plan.build_on_a = catalog_.snapshot(request.a)->stats.count <=
                    catalog_.snapshot(request.b)->stats.count;
  plan.touch.join_order = plan.build_on_a ? TouchOptions::JoinOrder::kBuildOnA
                                          : TouchOptions::JoinOrder::kBuildOnB;
  plan.touch.threads = 1;
  plan.rationale = "algorithm fixed by caller";
  // A planned submission that marks its root span: it waits in the queue,
  // borrows idle workers, honours its deadline and feeds calibration
  // exactly like the auto request it is compared against.
  auto state = NewRequestState(request, std::make_unique<ForwardingSink>(out),
                               nullptr);
  state->preplanned = std::move(plan);
  state->fixed = true;
  return Enqueue(std::move(state)).Get();
}

// --- Execution core ---------------------------------------------------------

JoinResult QueryEngine::ExecuteRequest(const JoinRequest& request,
                                       ResultCollector& out,
                                       const ExecContext& ctx,
                                       JoinPlan* preplanned) {
  // Boundary check: cancelled while queued but claimed by the worker before
  // the canceller could deliver promptly.
  if (ctx.cancel.stop_requested()) return CancelledResult();
  if (!catalog_.Contains(request.a) || !catalog_.Contains(request.b)) {
    return InvalidHandleResult(catalog_);
  }
  // Pin both datasets for the request's whole execution: geometry, stats
  // and cache-key versions all come from these snapshots, so a mutation
  // batch landing mid-request affects the *next* request, never this one.
  ExecContext pinned = ctx;
  pinned.snap_a = catalog_.snapshot(request.a);
  pinned.snap_b = catalog_.snapshot(request.b);
  // Failures (e.g. an index build running out of memory) become per-request
  // errors instead of escaping — a batch must not die for one bad join, and
  // a submitted future must always complete with a result.
  try {
    EnterPhase(pinned, RequestPhase::kPlanning);
    JoinPlan plan;
    if (preplanned != nullptr) {
      // Scattered shard pairs execute the plan they arrived with; their
      // "plan" span lives at the scatter site that computed it. The caller
      // named the algorithm, so it is checked before the family counter
      // below turns it into a label.
      plan = std::move(*preplanned);
      if (MakeAlgorithm(plan.algorithm) == nullptr) {
        return ErrorResult(UnknownAlgorithmMessage(plan.algorithm));
      }
    } else {
      SpanScope plan_span(pinned.trace, "plan");
      Timer plan_timer;
      // Plan from the *pinned* stats (not a fresh catalog read), so the
      // plan and the execution below describe the same dataset version.
      plan = PlanFromStats(pinned.snap_a->stats, pinned.snap_b->stats,
                           request.epsilon);
      metrics_->histogram("touch_engine_plan_seconds")
          .Observe(plan_timer.Seconds());
      plan_span.AddAttr("algorithm", plan.algorithm);
      plan_span.AddAttr("family", AlgorithmFamily(plan.algorithm));
      if (plan.calibrated) {
        plan_span.AddAttr("calibrated", "true");
        plan_span.AddAttr("predicted_seconds",
                          std::to_string(plan.predicted_seconds));
        if (plan.static_algorithm != plan.algorithm) {
          plan_span.AddAttr("static_algorithm", plan.static_algorithm);
        }
      }
    }
    metrics_
        ->counter(std::string("touch_engine_plans_total{family=\"") +
                  AlgorithmFamily(plan.algorithm) + "\"}")
        .Increment();
    // Boundary: planned → index build.
    if (ctx.cancel.stop_requested()) return CancelledResult();
    FirstEmitCollector first_emit(out, pinned.trace);
    // The kernels emit dense slot indices. While a dataset keeps slot/id
    // identity (never mutated, or mutated append-only) that already *is*
    // the object id; once a delete has swapped slots around, remap on the
    // way out so callers always see stable ids.
    RemapCollector remapped(first_emit, *pinned.snap_a, *pinned.snap_b);
    const bool remap =
        !pinned.snap_a->identity_ids() || !pinned.snap_b->identity_ids();
    JoinResult result = ExecuteFamily(
        std::move(plan), request,
        remap ? static_cast<ResultCollector&>(remapped) : first_emit, pinned);
    // NBPS measures its own (stream-internal) first-result latency; keep
    // the tighter self-report when present, fill in generically otherwise.
    if (result.stats.first_result_seconds == 0.0 && first_emit.seen()) {
      result.stats.first_result_seconds = first_emit.elapsed_seconds();
    }
    if (result.ok() && result.stats.first_result_seconds > 0.0) {
      metrics_->histogram("touch_engine_first_result_seconds")
          .Observe(result.stats.first_result_seconds);
    }
    // One flag for every executor: a request whose cancel fired mid-run
    // (the kernels bail cooperatively) or right at the end reports
    // Cancelled — its sink may have seen partial pairs either way.
    if (result.ok() && ctx.cancel.stop_requested()) {
      result.status = RequestStatus::kCancelled;
    }
    RecordOutcome(pinned.snap_a->stats, pinned.snap_b->stats, request.epsilon,
                  result);
    return result;
  } catch (const std::exception& e) {
    return ErrorResult(std::string("execution failed: ") + e.what());
  } catch (...) {
    return ErrorResult("execution failed: unknown error");
  }
}

JoinResult QueryEngine::ExecuteFamily(JoinPlan plan,
                                      const JoinRequest& request,
                                      ResultCollector& out,
                                      const ExecContext& ctx) {
  JoinResult result;
  int resolution = 0;
  if (plan.algorithm == "touch") {
    result = ExecuteTouch(plan, request, out, ctx);
  } else if (plan.algorithm == "inl") {
    result = ExecuteInl(plan, request, out, ctx);
  } else if (ParsePbsmResolution(plan.algorithm, &resolution)) {
    result = ExecutePbsm(plan, request, resolution, out, ctx);
  } else {
    AlgorithmConfig config;
    config.touch = plan.touch;
    std::unique_ptr<SpatialJoinAlgorithm> algorithm =
        MakeAlgorithm(plan.algorithm, config);
    if (algorithm == nullptr) {
      return ErrorResult(UnknownAlgorithmMessage(plan.algorithm));
    }
    // The uncached path (nl, ps, the R-tree zoo) has no cooperative hooks:
    // a cancel takes effect at the next phase boundary, i.e. after the
    // join. The planner only sends small inputs here, so the latency gap is
    // bounded by design.
    EnterPhase(ctx, RequestPhase::kExecuting);
    SpanScope exec_span(ctx.trace, "execute");
    exec_span.AddAttr("algorithm", plan.algorithm);
    Timer exec_timer;
    // Orientation-sensitive algorithms get swapped inputs when the plan
    // builds on B; the symmetric ones are always planned with build_on_a.
    // A distance join may enlarge either side, so swapping keeps the same
    // result set.
    if (plan.build_on_a) {
      result.stats = DistanceJoin(*algorithm, ctx.snap_a->boxes,
                                  ctx.snap_b->boxes, request.epsilon, out);
    } else {
      SwappedCollector swapped(out);
      result.stats = DistanceJoin(*algorithm, ctx.snap_b->boxes,
                                  ctx.snap_a->boxes, request.epsilon, swapped);
    }
    exec_span.End();
    metrics_->histogram("touch_engine_execute_seconds")
        .Observe(exec_timer.Seconds());
  }
  result.plan = std::move(plan);
  return result;
}

namespace {

/// What a cached family's build step hands back to ExecuteCached: whether
/// its artifacts came from the cache, and the builds this request paid for
/// (a hit reuses the artifact for free — the productized section-4.3
/// shortcut).
struct CacheUse {
  bool hit = false;
  /// Some but not all artifacts were cached (PBSM's two directories).
  bool partial = false;
  double build_seconds = 0.0;
  double build_helper_seconds = 0.0;
};

}  // namespace

template <typename Build, typename Probe>
JoinResult QueryEngine::ExecuteCached(const JoinPlan& plan, const char* kind,
                                      const ExecContext& ctx, Build&& build,
                                      Probe&& probe) {
  JoinResult result;
  Timer total;
  EnterPhase(ctx, RequestPhase::kBuildingIndex);
  SpanScope build_span(ctx.trace, "build-index");
  build_span.AddAttr("kind", kind);
  Timer build_phase;
  const CacheUse use = build(build_span);
  result.index_cache_hit = use.hit;
  result.partial_index_cache_hit = use.partial;
  build_span.AddAttr("cache",
                     use.hit ? "hit" : (use.partial ? "partial" : "miss"));
  build_span.End();
  metrics_->histogram("touch_engine_build_seconds")
      .Observe(build_phase.Seconds());
  // Boundary: index build → execute. Builds are shared artifacts and always
  // run to completion (they stay cached for other requests); a cancel that
  // arrived mid-build takes effect here.
  if (ctx.cancel.stop_requested()) {
    result.status = RequestStatus::kCancelled;
    return result;
  }
  EnterPhase(ctx, RequestPhase::kExecuting);
  SpanScope exec_span(ctx.trace, "execute");
  exec_span.AddAttr("algorithm", plan.algorithm);
  Timer exec_timer;
  probe(result.stats);
  exec_span.End();
  metrics_->histogram("touch_engine_execute_seconds")
      .Observe(exec_timer.Seconds());
  result.stats.build_seconds = use.build_seconds;
  result.stats.build_helper_seconds = use.build_helper_seconds;
  result.stats.total_seconds = total.Seconds();
  return result;
}

JoinResult QueryEngine::ExecuteTouch(const JoinPlan& plan,
                                     const JoinRequest& request,
                                     ResultCollector& out,
                                     const ExecContext& ctx) {
  const DatasetHandle build_handle = plan.build_on_a ? request.a : request.b;
  const DatasetSnapshot& build_snap =
      plan.build_on_a ? *ctx.snap_a : *ctx.snap_b;
  const Dataset& build_src = build_snap.boxes;
  const Dataset& probe_src = plan.build_on_a ? ctx.snap_b->boxes
                                             : ctx.snap_a->boxes;
  // The distance join enlarges side A; when the tree is built over A the
  // enlargement is baked into the cached index (and into its cache key).
  const float build_epsilon = plan.build_on_a ? request.epsilon : 0.0f;
  const float probe_epsilon = plan.build_on_a ? 0.0f : request.epsilon;
  const TouchOptions& touch_options = plan.touch;
  size_t leaf_capacity = touch_options.leaf_capacity;
  if (leaf_capacity == 0) {
    const size_t partitions = std::max<size_t>(1, touch_options.partitions);
    leaf_capacity = (build_src.size() + partitions - 1) / partitions;
  }
  leaf_capacity = std::max<size_t>(1, leaf_capacity);
  const IndexCacheKey key{build_handle, build_snap.version, build_epsilon,
                          leaf_capacity, touch_options.fanout,
                          ArtifactKind::kTouchTree};
  // Idle workers help the build and the join alike, unless the plan keeps
  // this request off them (shard pairs).
  PoolHelpers pool_helpers(pool_);
  MorselHelpers* helpers = plan.borrow_idle_workers ? &pool_helpers : nullptr;
  std::shared_ptr<const CachedTouchIndex> entry;
  const auto build = [&](SpanScope& build_span) {
    bool missed = false;
    MorselReport report;
    entry = std::static_pointer_cast<const CachedTouchIndex>(cache_.GetOrBuild(
        key,
        [&]() -> IndexCache::ArtifactPtr {
          missed = true;
          Timer build_timer;
          Dataset boxes = EnlargedCopy(build_src, build_epsilon);
          // Builds are shared artifacts and always run to completion, so
          // the STR morsels never poll the request's cancel.
          TouchTree tree(ArtifactBoxes(boxes, build_src), leaf_capacity,
                         touch_options.fanout, helpers, &report);
          return std::make_shared<CachedTouchIndex>(
              std::move(boxes), std::move(tree), build_timer.Seconds(),
              report.helper_seconds);
        },
        [&] { return PredictedBuildSeconds("touch", request); }));
    CacheUse use{.hit = !missed};
    if (missed) {
      report.Annotate(build_span);
      use.build_seconds = entry->wall_seconds;
      use.build_helper_seconds = entry->helper_seconds;
    }
    return use;
  };
  const auto probe = [&](JoinStats& stats) {
    // A tree built raw over B leaves side A's distance-join enlargement to
    // the probe, applied on the fly per probe box (as the cached INL path
    // does), never as an O(|A|) copy: cache hits are allocation-free.
    SwappedCollector swapped(out);
    stats = TouchJoin(touch_options)
                .JoinWithPrebuiltTree(
                    entry->tree, ArtifactBoxes(entry->boxes, build_src),
                    probe_src, plan.build_on_a ? out : swapped, probe_epsilon,
                    ctx.cancel, helpers);
  };
  return ExecuteCached(plan, "touch-tree", ctx, build, probe);
}

JoinResult QueryEngine::ExecuteInl(const JoinPlan& plan,
                                   const JoinRequest& request,
                                   ResultCollector& out,
                                   const ExecContext& ctx) {
  const DatasetHandle build_handle = plan.build_on_a ? request.a : request.b;
  const DatasetSnapshot& build_snap =
      plan.build_on_a ? *ctx.snap_a : *ctx.snap_b;
  const Dataset& build_src = build_snap.boxes;
  // Side A carries the distance-join enlargement (same convention as the
  // TOUCH path and the oracle): a tree over A bakes it into the cached
  // index; a tree over B stays raw — and therefore epsilon-independent,
  // reusable across thresholds — with the enlargement moved into each probe
  // box (the intersection test is symmetric, so the result set is
  // identical).
  const Dataset& probe_src = plan.build_on_a ? ctx.snap_b->boxes
                                             : ctx.snap_a->boxes;
  const float build_epsilon = plan.build_on_a ? request.epsilon : 0.0f;
  const float probe_epsilon = plan.build_on_a ? 0.0f : request.epsilon;
  const RTreeJoinOptions tree_options;  // defaults: the paper's best config
  const IndexCacheKey key{build_handle, build_snap.version, build_epsilon,
                          tree_options.leaf_capacity, tree_options.fanout,
                          ArtifactKind::kInlRTree};
  std::shared_ptr<const CachedInlIndex> entry;
  const auto build = [&](SpanScope&) {
    bool missed = false;
    entry = std::static_pointer_cast<const CachedInlIndex>(cache_.GetOrBuild(
        key,
        [&]() -> IndexCache::ArtifactPtr {
          missed = true;
          Timer build_timer;
          Dataset boxes = EnlargedCopy(build_src, build_epsilon);
          RTree tree(ArtifactBoxes(boxes, build_src),
                     tree_options.leaf_capacity, tree_options.fanout,
                     tree_options.bulkload);
          return std::make_shared<CachedInlIndex>(
              std::move(boxes), std::move(tree),
              std::span<const Box>(build_src), build_timer.Seconds());
        },
        [&] { return PredictedBuildSeconds("inl", request); }));
    return CacheUse{.hit = !missed,
                    .build_seconds = missed ? entry->build_seconds : 0.0};
  };
  const auto probe = [&](JoinStats& stats) {
    Timer join_timer;
    // The probe loop is the INL kernel; it lives inline here, so its span
    // does too (the library's IndexedNestedLoopJoin opens its own). The
    // batched probe polls cancellation at the same power-of-two query
    // stride the scalar loops used, and emits in RTree::Query's DFS order.
    SpanScope probe_span("inl-probe");
    BatchedTreeProbe(entry->tree, entry->slabs, probe_src, probe_epsilon,
                     /*swap_emit=*/!plan.build_on_a, &stats, out, ctx.cancel);
    probe_span.End();
    stats.join_seconds = join_timer.Seconds();
    // Tree, any owned enlarged copy, and the probe slabs — the same
    // accounting the cache uses.
    stats.memory_bytes = entry->MemoryUsageBytes();
  };
  return ExecuteCached(plan, "inl-rtree", ctx, build, probe);
}

JoinResult QueryEngine::ExecutePbsm(const JoinPlan& plan,
                                    const JoinRequest& request,
                                    int resolution, ResultCollector& out,
                                    const ExecContext& ctx) {
  const Dataset& a = ctx.snap_a->boxes;
  const Dataset& b = ctx.snap_b->boxes;
  if (a.empty() || b.empty()) return JoinResult{};
  // The joint grid domain, derived from the pinned stats instead of a
  // rescan. This is bit-identical to PbsmJoin's internal joint MBR: the
  // stats extents are exact, and enlarging the extent equals the extent of
  // the enlarged boxes (subtracting/adding epsilon is monotone under
  // rounding).
  Box domain = ctx.snap_a->stats.extent.Enlarged(request.epsilon);
  domain.ExpandToContain(ctx.snap_b->stats.extent);
  const GridMapper grid(domain, resolution);
  const size_t signature = DomainSignature(domain);

  const auto build_directory = [&](float epsilon, const Dataset& src) {
    Timer build_timer;
    auto built = std::make_shared<CachedPbsmDirectory>();
    built->domain = domain;
    built->boxes = EnlargedCopy(src, epsilon);
    built->placements =
        BuildPbsmPlacements(ArtifactBoxes(built->boxes, src), grid);
    built->build_seconds = build_timer.Seconds();
    return built;
  };
  const auto expected_build = [&] {
    return PredictedBuildSeconds("pbsm", request);
  };
  const auto directory =
      [&](DatasetHandle handle, uint64_t version, float epsilon,
          const Dataset& src,
          bool* missed) -> std::shared_ptr<const CachedPbsmDirectory> {
    const IndexCacheKey key{handle, version, epsilon,
                            static_cast<size_t>(resolution), signature,
                            ArtifactKind::kPbsmDirectory};
    const auto cached = std::static_pointer_cast<const CachedPbsmDirectory>(
        cache_.GetOrBuild(
            key,
            [&]() -> IndexCache::ArtifactPtr {
              *missed = true;
              return build_directory(epsilon, src);
            },
            expected_build));
    if (SameDomain(cached->domain, domain)) return cached;
    // 64-bit signature collision: the cached placements were computed over
    // a *different* joint grid that hashed alike. Merging them with this
    // grid would silently drop or duplicate pairs, so serve this request
    // from a private, uncached build instead.
    *missed = true;
    return build_directory(epsilon, src);
  };
  std::shared_ptr<const CachedPbsmDirectory> dir_a;
  std::shared_ptr<const CachedPbsmDirectory> dir_b;
  const auto build = [&](SpanScope&) {
    // A's directory carries the enlargement; B's is epsilon-independent. A
    // self-join with epsilon 0 collapses both onto one cache entry.
    bool missed_a = false;
    bool missed_b = false;
    dir_a = directory(request.a, ctx.snap_a->version, request.epsilon, a,
                      &missed_a);
    dir_b = directory(request.b, ctx.snap_b->version, 0.0f, b, &missed_b);
    return CacheUse{.hit = !missed_a && !missed_b,
                    .partial = missed_a != missed_b,
                    .build_seconds = (missed_a ? dir_a->build_seconds : 0.0) +
                                     (missed_b ? dir_b->build_seconds : 0.0)};
  };
  const auto probe = [&](JoinStats& stats) {
    Timer join_timer;
    PbsmMergeJoin(ArtifactBoxes(dir_a->boxes, a), dir_a->placements, b,
                  dir_b->placements, grid, LocalJoinStrategy::kPlaneSweep,
                  &stats, out, ctx.cancel);
    stats.join_seconds = join_timer.Seconds();
    // Both resident directories (placements + owned enlarged copies), the
    // cache's own accounting; unlike PbsmJoin::Join, no transient
    // radix-sort scratch is in play on the cached path.
    stats.memory_bytes = dir_a->MemoryUsageBytes() + dir_b->MemoryUsageBytes();
  };
  return ExecuteCached(plan, "pbsm-directory", ctx, build, probe);
}

}  // namespace touch
