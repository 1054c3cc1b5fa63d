// Request lifecycle management: cancellation at every phase (queued,
// index-build, execute), prompt completion of abandoned requests, batch
// cancel, and the no-op edge cases. The deterministic tests park the worker
// at a chosen phase via EngineOptions::phase_observer, so "cancel while X"
// is exact, not a sleep-based race; the stress test at the bottom is the
// TSan/ASan target racing cancel against completion.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "engine/engine.h"
#include "test_util.h"

namespace touch {
namespace {

// Sanitizers slow execution ~10x; the promptness budget scales with them
// but stays far below any full join on the cancelled workloads. GCC
// defines __SANITIZE_*; clang signals the same through __has_feature.
#if !defined(TOUCH_UNDER_SANITIZER) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define TOUCH_UNDER_SANITIZER 1
#endif
#endif
#if !defined(TOUCH_UNDER_SANITIZER) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define TOUCH_UNDER_SANITIZER 1
#endif
#if defined(TOUCH_UNDER_SANITIZER)
constexpr auto kPromptBudget = std::chrono::milliseconds(1000);
#else
constexpr auto kPromptBudget = std::chrono::milliseconds(100);
#endif

/// Parks the executing worker the first time a request enters `block_at`,
/// until Release(). The test thread observes the arrival via WaitReached(),
/// making "cancel while the request is in phase X" deterministic.
class PhaseGate {
 public:
  explicit PhaseGate(RequestPhase block_at)
      : block_at_(block_at),
        reached_future_(reached_.get_future()),
        release_future_(release_.get_future().share()) {}

  std::function<void(RequestPhase)> Observer() {
    return [this](RequestPhase phase) {
      if (phase == block_at_ && armed_.exchange(false)) {
        reached_.set_value();
        release_future_.wait();
      }
    };
  }

  void WaitReached() { reached_future_.wait(); }
  void Release() { release_.set_value(); }

 private:
  const RequestPhase block_at_;
  std::atomic<bool> armed_{true};
  std::promise<void> reached_;
  std::future<void> reached_future_;
  std::promise<void> release_;
  std::shared_future<void> release_future_;
};

/// Sink parked in OnComplete until released: occupies the single worker of
/// a threads=1 engine deterministically, so later submissions stay queued.
class BlockingSink : public ResultSink {
 public:
  explicit BlockingSink(std::shared_future<void> release)
      : release_(std::move(release)) {}
  void OnComplete(const JoinResult&) override { release_.wait(); }

 private:
  std::shared_future<void> release_;
};

/// Records completion and pairs into test-owned storage (the engine
/// destroys the sink itself on delivery).
struct SinkLog {
  std::atomic<int> completions{0};
  std::atomic<int> emits{0};
  RequestStatus last_status = RequestStatus::kOk;
};

class LoggingSink : public ResultSink {
 public:
  explicit LoggingSink(SinkLog* log) : log_(*log) {}
  void Emit(uint32_t, uint32_t) override { ++log_.emits; }
  void OnComplete(const JoinResult& result) override {
    log_.last_status = result.status;
    ++log_.completions;
  }

 private:
  SinkLog& log_;
};

class EngineCancelTest : public ::testing::Test {
 protected:
  Dataset small_ = GenerateSynthetic(Distribution::kClustered, 4000, 61);
  Dataset large_ = GenerateSynthetic(Distribution::kClustered, 8000, 62);
};

TEST_F(EngineCancelTest, CancelWhileQueuedCompletesPromptlyWithoutExecuting) {
  EngineOptions options;
  options.threads = 1;  // one blocker saturates the pool
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  std::promise<void> release;
  RequestHandle blocker = engine.Submit(
      {a, b, 2.0f},
      std::make_unique<BlockingSink>(release.get_future().share()));

  SinkLog log;
  RequestHandle victim =
      engine.Submit({a, b, 2.0f}, std::make_unique<LoggingSink>(&log));
  EXPECT_EQ(victim.phase(), RequestPhase::kQueued);

  // Cancel() of a queued request delivers the result synchronously: the
  // future is ready the moment the call returns, with the worker still
  // parked on the blocker.
  EXPECT_TRUE(victim.Cancel());
  EXPECT_TRUE(victim.cancel_requested());
  EXPECT_EQ(victim.future().wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  EXPECT_EQ(victim.phase(), RequestPhase::kCancelled);
  const JoinResult result = victim.Get();
  EXPECT_TRUE(result.cancelled());
  EXPECT_EQ(result.status, RequestStatus::kCancelled);
  EXPECT_TRUE(result.error.empty());

  // The sink protocol held: one OnComplete (on the cancelling thread), no
  // pairs, cancelled status visible to the sink.
  EXPECT_EQ(log.completions.load(), 1);
  EXPECT_EQ(log.emits.load(), 0);
  EXPECT_EQ(log.last_status, RequestStatus::kCancelled);

  // A second cancel is a no-op.
  EXPECT_FALSE(victim.Cancel());

  release.set_value();
  EXPECT_TRUE(blocker.Get().ok());
  // The victim never executed: only the blocker touched the index cache.
  const IndexCache::Stats cache = engine.cache_stats();
  EXPECT_EQ(cache.hits + cache.misses, 1u);
}

TEST_F(EngineCancelTest, CancelDuringIndexBuildKeepsArtifactForOthers) {
  PhaseGate gate(RequestPhase::kBuildingIndex);
  EngineOptions options;
  options.threads = 1;
  options.phase_observer = gate.Observer();
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};

  RequestHandle handle = engine.Submit(request);
  gate.WaitReached();
  EXPECT_EQ(handle.phase(), RequestPhase::kBuildingIndex);
  EXPECT_TRUE(handle.Cancel());
  gate.Release();

  // Index builds are shared artifacts: the build ran to completion, the
  // request still completed Cancelled at the build→execute boundary...
  const JoinResult cancelled = handle.Get();
  EXPECT_TRUE(cancelled.cancelled());
  EXPECT_EQ(cancelled.stats.results, 0u);

  // ...and the artifact it paid for serves the next request for free.
  CountingCollector out;
  const JoinResult warm = engine.Execute(request, out);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.index_cache_hit);
  EXPECT_GE(engine.cache_stats().hits, 1u);
}

TEST_F(EngineCancelTest, CancelMidExecuteCompletesWithinPromptBudget) {
  // A workload whose execute phase takes much longer than the promptness
  // budget, so an in-budget completion proves the cooperative early exit.
  const Dataset big_a = GenerateSynthetic(Distribution::kClustered, 60000, 63);
  const Dataset big_b = GenerateSynthetic(Distribution::kClustered, 120000, 64);

  PhaseGate gate(RequestPhase::kExecuting);
  EngineOptions options;
  options.threads = 1;
  options.phase_observer = gate.Observer();
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("A", big_a);
  const DatasetHandle b = engine.RegisterDataset("B", big_b);

  const uint64_t recorded_before = engine.feedback().total_recorded();
  RequestHandle handle = engine.Submit({a, b, 2.0f});
  gate.WaitReached();
  EXPECT_EQ(handle.phase(), RequestPhase::kExecuting);
  EXPECT_TRUE(handle.Cancel());

  const auto released_at = std::chrono::steady_clock::now();
  gate.Release();
  const JoinResult result = handle.Get();
  const auto elapsed = std::chrono::steady_clock::now() - released_at;

  EXPECT_TRUE(result.cancelled());
  EXPECT_LT(elapsed, kPromptBudget);
  EXPECT_EQ(handle.phase(), RequestPhase::kCancelled);
  // Partial runs are not calibration evidence.
  EXPECT_EQ(engine.feedback().total_recorded(), recorded_before);

  // Other requests are unaffected: the worker is free again and the engine
  // serves normally.
  CountingCollector out;
  EXPECT_TRUE(engine.Execute({a, a, 0.5f}, out).ok());
}

// --- Engine-enforced deadlines (JoinRequest::deadline) ----------------------

TEST_F(EngineCancelTest, ExpiredDeadlineCancelsWithoutAnyCancelCall) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  JoinRequest request{a, a, 1.0f};
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  // Nobody calls Cancel and nobody has to: the engine's own boundary
  // checks see the passed deadline.
  const JoinResult result = engine.Submit(request).Get();
  EXPECT_TRUE(result.cancelled());
}

TEST_F(EngineCancelTest, DeadlineHoldsWhenCallerAbandonsTheHandle) {
  // The worker is parked in the planning phase (entered unconditionally
  // right after the claim, so the park cannot be raced by the deadline);
  // the caller abandons the handle while it is parked. Once the deadline
  // passes, the engine's own boundary check must stop the run — observed
  // through the sink, which the engine always completes.
  PhaseGate gate(RequestPhase::kPlanning);
  EngineOptions options;
  options.threads = 1;
  options.phase_observer = gate.Observer();
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);

  SinkLog log;
  JoinRequest request{a, a, 1.0f};
  request.deadline = std::chrono::steady_clock::now() + kPromptBudget;
  {
    RequestHandle handle =
        engine.Submit(request, std::make_unique<LoggingSink>(&log));
    gate.WaitReached();
    // Abandon: the handle dies here, with the worker parked pre-deadline.
  }
  std::this_thread::sleep_for(kPromptBudget + std::chrono::milliseconds(100));
  gate.Release();
  // The engine still owes the sink exactly one completion; the deadline
  // (now past) stops the request at the planned -> build boundary.
  const auto waited_from = std::chrono::steady_clock::now();
  while (log.completions.load() == 0 &&
         std::chrono::steady_clock::now() - waited_from <
             std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(log.completions.load(), 1);
  EXPECT_EQ(log.last_status, RequestStatus::kCancelled);
}

TEST_F(EngineCancelTest, FutureDeadlineDoesNotDisturbFastRequests) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  JoinRequest request{a, a, 1.0f};
  request.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  const JoinResult result = engine.Submit(request).Get();
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_GT(result.stats.results, 0u);
}

TEST_F(EngineCancelTest, PreEpochDeadlineCountsAsExpiredNotAsNone) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  JoinRequest request{a, a, 1.0f};
  // time_point::min() is before the steady-clock epoch; it must behave as
  // an expired deadline, not silently disable the timeout.
  request.deadline = std::chrono::steady_clock::time_point::min();
  const JoinResult result = engine.Submit(request).Get();
  EXPECT_TRUE(result.cancelled());
}

TEST(CancellationDeadlineTest, TokenReportsStopOnceDeadlinePasses) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_FALSE(token.stop_requested());
  source.SetDeadline(std::chrono::steady_clock::now() +
                     std::chrono::hours(1));
  EXPECT_FALSE(token.stop_requested());
  source.SetDeadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(source.stop_requested());
  // RequestStop still reports "first" correctly after a deadline expiry.
  EXPECT_TRUE(source.RequestStop());
  EXPECT_FALSE(source.RequestStop());
}

TEST_F(EngineCancelTest, CancelAfterCompletionIsANoOp) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  RequestHandle handle = engine.Submit({a, a, 1.0f});
  const JoinResult result = handle.Get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(handle.phase(), RequestPhase::kCompleted);
  EXPECT_FALSE(handle.Cancel());
  EXPECT_EQ(handle.phase(), RequestPhase::kCompleted);
}

TEST_F(EngineCancelTest, InvalidHandleIsInertlyCancelled) {
  RequestHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(handle.Cancel());
  EXPECT_FALSE(handle.cancel_requested());
  EXPECT_EQ(handle.phase(), RequestPhase::kCompleted);
}

TEST_F(EngineCancelTest, BatchCancelAllCompletesEveryFuturePromptly) {
  EngineOptions options;
  options.threads = 1;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  std::promise<void> release;
  RequestHandle blocker = engine.Submit(
      {a, b, 2.0f},
      std::make_unique<BlockingSink>(release.get_future().share()));

  const std::vector<JoinRequest> requests = {
      {a, b, 2.0f}, {b, a, 1.0f}, {a, a, 0.5f}, {a, b, 1.0f}};
  BatchHandle batch = engine.SubmitBatch(requests);
  EXPECT_EQ(batch.CancelAll(), requests.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].future().wait_for(std::chrono::milliseconds(0)),
              std::future_status::ready)
        << i;
  }
  for (const JoinResult& result : batch.GetAll()) {
    EXPECT_TRUE(result.cancelled());
  }

  release.set_value();
  EXPECT_TRUE(blocker.Get().ok());
}

TEST_F(EngineCancelTest, PerRequestCancelLeavesBatchSiblingsIntact) {
  EngineOptions options;
  options.threads = 1;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  std::promise<void> release;
  RequestHandle blocker = engine.Submit(
      {a, b, 2.0f},
      std::make_unique<BlockingSink>(release.get_future().share()));

  const std::vector<JoinRequest> requests = {
      {a, a, 0.5f}, {a, b, 2.0f}, {b, a, 1.0f}};
  BatchHandle batch = engine.SubmitBatch(requests);
  EXPECT_TRUE(batch[1].Cancel());
  release.set_value();

  EXPECT_TRUE(batch[0].Get().ok());
  EXPECT_TRUE(batch[1].Get().cancelled());
  EXPECT_TRUE(batch[2].Get().ok());
  EXPECT_TRUE(blocker.Get().ok());
}

// The TSan/ASan workhorse: cancels racing execution and completion from
// another thread, across every interleaving the scheduler produces. Every
// future must complete with kOk or kCancelled — never hang, never error —
// and the engine must stay fully usable.
TEST_F(EngineCancelTest, RacingCancelAgainstCompletionStress) {
  EngineOptions options;
  options.threads = 4;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  constexpr int kRounds = 32;
  int ok_count = 0;
  int cancelled_count = 0;
  for (int round = 0; round < kRounds; ++round) {
    RequestHandle handle = engine.Submit({a, b, 1.0f + (round % 3) * 0.5f});
    std::thread canceller;
    if (round % 4 != 3) {  // every 4th round runs to completion uncancelled
      canceller = std::thread([&handle, round] {
        // Vary the race window: immediate cancel, or after a short spin.
        volatile int sink = 0;
        for (int spin = 0; spin < (round % 4) * 20000; ++spin) sink = spin;
        (void)sink;
        handle.Cancel();
      });
    }
    const JoinResult result = handle.Get();
    if (canceller.joinable()) canceller.join();
    ASSERT_TRUE(result.ok() || result.cancelled())
        << "round " << round << ": " << result.error;
    if (result.ok()) ++ok_count;
    if (result.cancelled()) ++cancelled_count;
    if (round % 4 == 3) {
      EXPECT_TRUE(result.ok()) << round;
    }
  }
  EXPECT_EQ(ok_count + cancelled_count, kRounds);

  CountingCollector out;
  EXPECT_TRUE(engine.Execute({a, b, 2.0f}, out).ok());
}

/// Cancels its own request from inside its first Emit: on the request's
/// worker, in the middle of the TOUCH local join, while helpers may still
/// hold morsels. Records into test-owned storage like LoggingSink.
class CancelOnFirstEmitSink : public ResultSink {
 public:
  CancelOnFirstEmitSink(std::shared_future<RequestHandle*> handle,
                        SinkLog* log)
      : handle_(std::move(handle)), log_(*log) {}
  void Emit(uint32_t, uint32_t) override {
    ++log_.emits;
    if (!cancelled_) {
      cancelled_ = true;
      handle_.get()->Cancel();
    }
  }
  void OnComplete(const JoinResult& result) override {
    log_.last_status = result.status;
    ++log_.completions;
  }

 private:
  std::shared_future<RequestHandle*> handle_;
  SinkLog& log_;
  bool cancelled_ = false;
};

TEST_F(EngineCancelTest, CancelMidLocalJoinCompletesOnceWithHelpers) {
  const Dataset big_a = GenerateSynthetic(Distribution::kClustered, 30000, 65);
  const Dataset big_b = GenerateSynthetic(Distribution::kClustered, 60000, 66);
  SinkLog log;
  {
    EngineOptions options;
    options.threads = 4;  // one request in flight: three idle helpers
    QueryEngine engine(options);
    const JoinRequest request{engine.RegisterDataset("A", big_a),
                              engine.RegisterDataset("B", big_b), 2.0f};
    JoinPlan plan = engine.Plan(request);
    plan.algorithm = "touch";  // the morsel loops are what is under test

    for (int round = 0; round < 4; ++round) {
      const int completions_before = log.completions.load();
      std::promise<RequestHandle*> handle_ready;
      RequestHandle handle = engine.SubmitPlanned(
          plan, request,
          std::make_unique<CancelOnFirstEmitSink>(
              handle_ready.get_future().share(), &log));
      handle_ready.set_value(&handle);
      const JoinResult result = handle.Get();
      EXPECT_TRUE(result.cancelled()) << round;
      EXPECT_EQ(handle.phase(), RequestPhase::kCancelled);
      EXPECT_EQ(log.completions.load(), completions_before + 1) << round;
      EXPECT_EQ(log.last_status, RequestStatus::kCancelled);
    }
    // The pool is whole again: a plain request on the same workers (and
    // stacks) runs to completion.
    CountingCollector out;
    EXPECT_TRUE(engine.Execute(request, out).ok());
  }
  // The engine drained its pool on destruction; every cancelled request
  // completed exactly once, and no helper delivered anything afterwards.
  EXPECT_EQ(log.completions.load(), 4);
}

/// Records the emitted pairs and every completion into test-owned storage.
struct PairLog {
  std::vector<IdPair> pairs;
  std::atomic<int> completions{0};
  RequestStatus last_status = RequestStatus::kOk;
};

class PairLogSink : public ResultSink {
 public:
  explicit PairLogSink(PairLog* log) : log_(*log) {}
  void Emit(uint32_t a_id, uint32_t b_id) override {
    log_.pairs.emplace_back(a_id, b_id);
  }
  void OnComplete(const JoinResult& result) override {
    log_.last_status = result.status;
    ++log_.completions;
  }

 private:
  PairLog& log_;
};

/// The TOUCH pair sequence of `request`'s datasets on a one-worker engine,
/// where nobody is idle to help.
std::vector<IdPair> SingleRunnerSequence(const Dataset& a, const Dataset& b,
                                         float epsilon) {
  EngineOptions options;
  options.threads = 1;
  QueryEngine engine(options);
  const JoinRequest request{engine.RegisterDataset("A", a),
                            engine.RegisterDataset("B", b), epsilon};
  JoinPlan plan = engine.Plan(request);
  plan.algorithm = "touch";
  PairLog log;
  EXPECT_TRUE(engine
                  .SubmitPlanned(plan, request,
                                 std::make_unique<PairLogSink>(&log))
                  .Get()
                  .ok());
  return log.pairs;
}

TEST_F(EngineCancelTest, CancelDuringHelpedBuildCachesTheWholeTree) {
  const Dataset big_a = GenerateSynthetic(Distribution::kClustered, 30000, 67);
  const Dataset big_b = GenerateSynthetic(Distribution::kClustered, 60000, 68);
  const std::vector<IdPair> reference = SingleRunnerSequence(big_a, big_b, 2);
  ASSERT_FALSE(reference.empty());

  PairLog cancelled_log;
  {
    PhaseGate gate(RequestPhase::kBuildingIndex);
    EngineOptions options;
    options.threads = 4;  // one request in flight: three idle helpers
    options.phase_observer = gate.Observer();
    QueryEngine engine(options);
    const JoinRequest request{engine.RegisterDataset("A", big_a),
                              engine.RegisterDataset("B", big_b), 2.0f};
    JoinPlan plan = engine.Plan(request);
    plan.algorithm = "touch";

    RequestHandle handle = engine.SubmitPlanned(
        plan, request, std::make_unique<PairLogSink>(&cancelled_log));
    gate.WaitReached();
    EXPECT_TRUE(handle.Cancel());
    gate.Release();
    // The helped STR build ran to completion under the cancel, and the
    // request stopped at the build -> execute boundary.
    EXPECT_TRUE(handle.Get().cancelled());
    EXPECT_TRUE(cancelled_log.pairs.empty());

    // The next request finds the whole tree: it skips the build and emits
    // the single runner's sequence.
    PairLog warm_log;
    const JoinResult warm =
        engine
            .SubmitPlanned(plan, request,
                           std::make_unique<PairLogSink>(&warm_log))
            .Get();
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_TRUE(warm.index_cache_hit);
    EXPECT_EQ(warm_log.pairs, reference);
  }
  EXPECT_EQ(cancelled_log.completions.load(), 1);
  EXPECT_EQ(cancelled_log.last_status, RequestStatus::kCancelled);
}

TEST_F(EngineCancelTest, DeadlinesAcrossTheHelpedJoinEmitPrefixes) {
  // Deadlines spread over a cached-tree request: some land in assignment,
  // some in a split node's scatter, some in its probe. Each request
  // completes once, and what it emitted is a prefix of the whole sequence:
  // no round probes a grid its scatter did not finish.
  const Dataset big_a = GenerateSynthetic(Distribution::kClustered, 30000, 69);
  const Dataset big_b = GenerateSynthetic(Distribution::kClustered, 60000, 70);
  const std::vector<IdPair> reference = SingleRunnerSequence(big_a, big_b, 2);
  ASSERT_FALSE(reference.empty());

  EngineOptions options;
  options.threads = 4;
  QueryEngine engine(options);
  const JoinRequest request{engine.RegisterDataset("A", big_a),
                            engine.RegisterDataset("B", big_b), 2.0f};
  JoinPlan plan = engine.Plan(request);
  plan.algorithm = "touch";
  PairLog whole;
  ASSERT_TRUE(
      engine.SubmitPlanned(plan, request, std::make_unique<PairLogSink>(&whole))
          .Get()
          .ok());
  ASSERT_EQ(whole.pairs, reference);
  PairLog timed;
  const auto timed_start = std::chrono::steady_clock::now();
  engine.SubmitPlanned(plan, request, std::make_unique<PairLogSink>(&timed))
      .Get();
  const auto cached_run = std::chrono::steady_clock::now() - timed_start;

  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE(step);
    JoinRequest cut = request;
    cut.deadline = std::chrono::steady_clock::now() + cached_run * step / 10;
    PairLog log;
    const JoinResult result =
        engine.SubmitPlanned(plan, cut, std::make_unique<PairLogSink>(&log))
            .Get();
    EXPECT_EQ(log.completions.load(), 1);
    ASSERT_LE(log.pairs.size(), reference.size());
    EXPECT_TRUE(
        std::equal(log.pairs.begin(), log.pairs.end(), reference.begin()));
    if (result.ok()) {
      EXPECT_EQ(log.pairs, reference);
    }
  }
}

TEST(RequestLifecycleNamesTest, StableNamesForTelemetry) {
  EXPECT_STREQ(RequestPhaseName(RequestPhase::kQueued), "queued");
  EXPECT_STREQ(RequestPhaseName(RequestPhase::kBuildingIndex),
               "building-index");
  EXPECT_STREQ(RequestPhaseName(RequestPhase::kCancelled), "cancelled");
  EXPECT_STREQ(RequestStatusName(RequestStatus::kOk), "ok");
  EXPECT_STREQ(RequestStatusName(RequestStatus::kCancelled), "cancelled");
  EXPECT_STREQ(RequestStatusName(RequestStatus::kError), "error");
}

}  // namespace
}  // namespace touch
