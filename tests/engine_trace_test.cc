// End-to-end tracing and metrics through the engine: a traced request must
// produce a well-formed span tree (every span parented inside the trace),
// the legacy phase_observer must keep firing alongside the tracer, the
// engine sink wrapper must measure first_result_seconds for every
// algorithm, and a sharded cancelled request must still export a coherent
// tree — the hardest case, since its spans come from many worker threads
// that stopped at different phases.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace touch {
namespace {

struct TraceView {
  std::vector<SpanRecord> records;
  std::set<uint64_t> span_ids;
  std::map<std::string, int> names;

  explicit TraceView(const Tracer& tracer) : records(tracer.Snapshot()) {
    for (const SpanRecord& record : records) {
      span_ids.insert(record.span_id);
      ++names[record.name];
    }
  }

  const SpanRecord* Find(const std::string& name) const {
    for (const SpanRecord& record : records) {
      if (record.name == name) return &record;
    }
    return nullptr;
  }
};

/// Every record belongs to `trace_id` and parents onto a present span (or
/// is a root). This is the "well-formed span tree" acceptance predicate.
void ExpectWellFormed(const TraceView& view, uint64_t trace_id) {
  ASSERT_FALSE(view.records.empty());
  for (const SpanRecord& record : view.records) {
    EXPECT_EQ(record.trace_id, trace_id) << record.name;
    if (record.parent_id != 0) {
      EXPECT_TRUE(view.span_ids.count(record.parent_id))
          << record.name << " parents onto an absent span";
    }
  }
}

class EngineTraceTest : public ::testing::Test {
 protected:
  EngineOptions TracedOptions() {
    EngineOptions options;
    options.tracer = tracer_;
    options.metrics = metrics_;
    return options;
  }

  std::shared_ptr<Tracer> tracer_ = std::make_shared<Tracer>();
  std::shared_ptr<MetricsRegistry> metrics_ =
      std::make_shared<MetricsRegistry>();
  Dataset small_ = GenerateSynthetic(Distribution::kClustered, 4000, 61);
  Dataset large_ = GenerateSynthetic(Distribution::kClustered, 8000, 62);
};

TEST_F(EngineTraceTest, TracedRequestProducesARootedPhaseSpanTree) {
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  CountingCollector out;
  const JoinResult result = engine.Execute({a, b, 2.0f}, out);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_NE(result.trace_id, 0u);

  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.trace_id);
  const SpanRecord* root = view.Find("request");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  // The root span carries the outcome.
  const auto has_attr = [&](const std::string& key, const std::string& val) {
    return std::find(root->attrs.begin(), root->attrs.end(),
                     SpanAttr{key, val}) != root->attrs.end();
  };
  EXPECT_TRUE(has_attr("status", "ok"));
  EXPECT_TRUE(has_attr("algorithm", result.plan.algorithm));

  // Lifecycle spans all hang off the root; phases appear as instants.
  for (const std::string name : {"queue-wait", "plan", "execute"}) {
    const SpanRecord* span = view.Find(name);
    ASSERT_NE(span, nullptr) << name;
    EXPECT_EQ(span->parent_id, root->span_id) << name;
  }
  EXPECT_GE(view.names.count("phase:planning") +
                view.names.count("phase:executing"),
            1u);
}

TEST_F(EngineTraceTest, PhaseObserverStillFiresAlongsideTheTracer) {
  // EngineOptions::phase_observer is now an adapter over the same phase
  // transitions the tracer records; both must see every transition.
  std::atomic<int> observed{0};
  EngineOptions options = TracedOptions();
  options.phase_observer = [&observed](RequestPhase) { ++observed; };
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  CountingCollector out;
  ASSERT_TRUE(engine.Execute({a, a, 1.0f}, out).ok());
  const TraceView view(*tracer_);
  int phase_instants = 0;
  for (const auto& [name, count] : view.names) {
    if (name.rfind("phase:", 0) == 0) phase_instants += count;
  }
  EXPECT_GT(observed.load(), 0);
  EXPECT_EQ(phase_instants, observed.load());
}

TEST_F(EngineTraceTest, FirstResultSecondsIsMeasuredForEveryAlgorithm) {
  // The engine's sink wrapper measures time-to-first-result generically —
  // not just for NBPS, which reports its own streaming-phase value.
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  for (const std::string name : {"touch", "inl", "ps", "pbsm-100"}) {
    CountingCollector out;
    const JoinResult result = engine.ExecuteFixed(name, {a, b, 2.0f}, out);
    ASSERT_TRUE(result.ok()) << name << ": " << result.error;
    ASSERT_GT(result.stats.results, 0u) << name;
    EXPECT_GT(result.stats.first_result_seconds, 0.0) << name;
    EXPECT_LE(result.stats.first_result_seconds, result.stats.total_seconds)
        << name;
  }
  // Each run fed the time-to-first-result histogram.
  EXPECT_EQ(engine.metrics()
                .histogram("touch_engine_first_result_seconds")
                .Count(),
            4u);
}

TEST_F(EngineTraceTest, EngineRunPopulatesTheMetricCatalog) {
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  CountingCollector out;
  ASSERT_TRUE(engine.Execute({a, a, 1.0f}, out).ok());
  MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(&metrics, metrics_.get());
  EXPECT_EQ(
      metrics.counter("touch_engine_requests_total{status=\"ok\"}").Value(),
      1u);
  EXPECT_EQ(metrics.histogram("touch_engine_queue_wait_seconds").Count(), 1u);
  EXPECT_EQ(metrics.histogram("touch_engine_plan_seconds").Count(), 1u);
  EXPECT_EQ(metrics.histogram("touch_engine_execute_seconds").Count(), 1u);
  // Engine + cache + pool providers: the scrape surface the acceptance
  // criteria count ("at least 12 distinct metrics").
  EXPECT_GE(metrics.FamilyCount(), 12u);
}

TEST_F(EngineTraceTest, ShardedCancelledRequestYieldsWellFormedSpanTree) {
  EngineOptions options = TracedOptions();
  options.shards = 4;
  options.threads = 2;
  // Park every claimed pair at its kPlanning transition so the cancel
  // deterministically lands while pairs are mid-flight on worker threads.
  std::atomic<int> entered{0};
  std::atomic<bool> released{false};
  options.phase_observer = [&](RequestPhase phase) {
    if (phase != RequestPhase::kPlanning) return;
    entered.fetch_add(1);
    while (!released.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", small_);
  const DatasetHandle hb = engine.RegisterDataset("B", large_);

  ShardedRequestHandle handle = engine.Submit({ha, hb, 2.0f});
  ASSERT_GT(handle.pair_count(), 0u);
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(handle.Cancel());
  released.store(true);
  const ShardedJoinResult result = handle.Get();
  EXPECT_EQ(result.merged.status, RequestStatus::kCancelled);
  ASSERT_NE(result.merged.trace_id, 0u);

  // One trace spans the sharded root, the scatter/gather phases, and every
  // per-pair engine request — including the cancellation instants — with
  // no orphan parents even though the pairs died mid-phase.
  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.merged.trace_id);
  const SpanRecord* root = view.Find("sharded-request");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  const SpanRecord* scatter = view.Find("scatter");
  ASSERT_NE(scatter, nullptr);
  EXPECT_EQ(scatter->parent_id, root->span_id);
  const SpanRecord* gather = view.Find("gather");
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->parent_id, root->span_id);
  // Every shard-pair request span parents onto the sharded root.
  ASSERT_EQ(view.names.at("request"), static_cast<int>(handle.pair_count()));
  for (const SpanRecord& record : view.records) {
    if (record.name == "request") {
      EXPECT_EQ(record.parent_id, root->span_id);
    }
  }
  EXPECT_GE(view.names.count("cancel-requested") +
                view.names.count("cancelled"),
            1u);
  // The cancellation also landed in the metric catalog.
  EXPECT_GE(metrics_
                ->counter("touch_engine_requests_total{status=\"cancelled\"}")
                .Value(),
            1u);
  EXPECT_EQ(metrics_->counter("touch_sharded_requests_total").Value(), 1u);
}

TEST_F(EngineTraceTest, ShardedOkRequestCoversPlanBuildExecuteGather) {
  EngineOptions options = TracedOptions();
  options.shards = 2;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", small_);
  const DatasetHandle hb = engine.RegisterDataset("B", large_);
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 2.0f}, out);
  ASSERT_TRUE(result.merged.ok()) << result.merged.error;
  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.merged.trace_id);
  for (const std::string name :
       {"sharded-request", "scatter", "plan", "execute", "gather"}) {
    EXPECT_TRUE(view.names.count(name)) << name << " missing from trace";
  }
  EXPECT_GE(metrics_->counter("touch_sharded_pairs_executed_total").Value(),
            1u);
}

TEST_F(EngineTraceTest, TouchSpansCarryTheirMorselFigures) {
  EngineOptions options = TracedOptions();
  options.threads = 4;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  CountingCollector out;
  const JoinResult result = engine.ExecuteFixed("touch", {a, b, 2.0f}, out);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_FALSE(result.index_cache_hit);
  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.trace_id);
  const auto attrs_of = [](const TraceView& trace, const std::string& name) {
    std::map<std::string, std::string> attrs;
    const SpanRecord* span = trace.Find(name);
    if (span != nullptr) {
      for (const SpanAttr& attr : span->attrs) attrs[attr.first] = attr.second;
    }
    return attrs;
  };
  // Every morsel phase: the STR build, assignment and the local join.
  for (const std::string name :
       {"build-index", "touch-assign", "touch-local-join"}) {
    const auto attrs = attrs_of(view, name);
    ASSERT_TRUE(attrs.count("morsels")) << name;
    ASSERT_TRUE(attrs.count("helpers")) << name;
    ASSERT_TRUE(attrs.count("max_morsel_ms")) << name;
    EXPECT_GE(std::stol(attrs.at("morsels")), 1) << name;
    EXPECT_GE(std::stol(attrs.at("helpers")), 0) << name;
    // ExecuteFixed runs on this thread: every pool worker may help.
    EXPECT_LE(std::stol(attrs.at("helpers")), options.threads) << name;
    EXPECT_GE(std::stod(attrs.at("max_morsel_ms")), 0.0) << name;
  }
  EXPECT_EQ(attrs_of(view, "build-index").at("cache"), "miss");
  // The local join reports its split-node scatters' wall time.
  const auto local_join = attrs_of(view, "touch-local-join");
  ASSERT_TRUE(local_join.count("scatter_ms"));
  EXPECT_GE(std::stod(local_join.at("scatter_ms")), 0.0);

  // A cache hit builds nothing, so its build-index span has no morsels.
  tracer_->Clear();
  const JoinResult warm = engine.ExecuteFixed("touch", {a, b, 2.0f}, out);
  ASSERT_TRUE(warm.ok()) << warm.error;
  ASSERT_TRUE(warm.index_cache_hit);
  const auto warm_build = attrs_of(TraceView(*tracer_), "build-index");
  EXPECT_EQ(warm_build.at("cache"), "hit");
  EXPECT_FALSE(warm_build.count("morsels"));
}

TEST_F(EngineTraceTest, UntracedEngineStillSetsFirstResultAndMetrics) {
  // tracer == nullptr must not disable the sink wrapper or the registry.
  EngineOptions options;
  options.metrics = metrics_;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  CountingCollector out;
  const JoinResult result = engine.Execute({a, a, 1.0f}, out);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.trace_id, 0u);  // no tracer, no trace
  EXPECT_GT(result.stats.first_result_seconds, 0.0);
  EXPECT_EQ(
      metrics_->counter("touch_engine_requests_total{status=\"ok\"}").Value(),
      1u);
}

}  // namespace
}  // namespace touch
