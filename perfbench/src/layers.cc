// Traced per-layer probes: span aggregation, and direct calls into each
// layer's public functions on the workload's own boxes. Every direct call
// runs under a benchmark SpanScope, so spans the library records inside it
// (touch-assign, touch-local-join, ...) nest under the probe's span.

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "bench.h"
#include "core/factory.h"
#include "core/overlap_kernel.h"
#include "core/touch.h"
#include "engine/catalog.h"
#include "engine/planner.h"
#include "geom/grid.h"
#include "index/dynamic_rtree.h"
#include "join/pbsm.h"

namespace perfbench {

using touch::Box;
using touch::Dataset;
using touch::SpanScope;
using touch::TraceContext;

const SpanTotals::Entry* SpanTotals::Find(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? nullptr : &it->second;
}

double SpanTotals::MeanSelfMs(const std::string& name) const {
  const Entry* e = Find(name);
  return e == nullptr || e->count == 0 ? 0.0 : e->self_ms / e->count;
}

double SpanTotals::MeanMs(const std::string& name) const {
  const Entry* e = Find(name);
  return e == nullptr || e->count == 0 ? 0.0 : e->total_ms / e->count;
}

SpanTotals SummarizeSpans(const std::vector<touch::SpanRecord>& records) {
  // Self time = duration minus the durations of direct children.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const touch::SpanRecord& r : records) {
    if (!r.instant && r.parent_id != 0) child_ns[r.parent_id] += r.duration_ns;
  }
  SpanTotals totals;
  for (const touch::SpanRecord& r : records) {
    if (r.instant) continue;
    SpanTotals::Entry& e = totals.by_name[r.name];
    const auto it = child_ns.find(r.span_id);
    const int64_t children = it == child_ns.end() ? 0 : it->second;
    ++e.count;
    e.total_ms += r.duration_ns * 1e-6;
    e.self_ms += std::max<int64_t>(0, r.duration_ns - children) * 1e-6;
  }
  return totals;
}

namespace {

constexpr int kReps = 3;

Dataset Enlarged(const Dataset& boxes, float epsilon) {
  Dataset out;
  out.reserve(boxes.size());
  for (const Box& b : boxes) out.push_back(b.Enlarged(epsilon));
  return out;
}

/// Wall time of `fn` in milliseconds, under a span named `name`.
template <typename Fn>
double TimedMs(const TraceContext& parent, const char* name, Fn&& fn) {
  SpanScope span(parent, name);
  const auto start = Clock::now();
  fn();
  return SecondsSince(start) * 1e3;
}

void Defect(Report* report, const std::string& what) {
  report->defects.push_back("layer probe: " + what);
}

/// QueryEngine::Plan, called directly on every shape in turn.
void ProbePlanner(const WorkloadData& data, Service& service,
                  const TraceContext& root, Report* report) {
  std::vector<double> ms;
  SpanScope span(root, "bench.plan");
  for (int i = 0; i < 256; ++i) {
    const touch::JoinRequest request =
        service.PlannableRequest(i % static_cast<int>(data.shapes.size()));
    const auto start = Clock::now();
    const touch::JoinPlan plan = service.engine().Plan(request);
    ms.push_back(SecondsSince(start) * 1e3);
    if (plan.algorithm.empty()) Defect(report, "empty plan");
  }
  report->Layer("planner.plan_ms", Median(ms), "ms");
}

/// Auto plan vs every fixed family, all cold, on a separate engine so the
/// fixed runs never feed the measured engine's calibration.
void ProbeRegret(const WorkloadData& data, const TraceContext& root,
                 Report* report) {
  SpanScope span(root, "bench.regret");
  touch::EngineOptions options;
  options.threads = 1;
  touch::QueryEngine engine(options);
  std::vector<touch::DatasetHandle> handles;
  for (size_t i = 0; i < data.datasets.size(); ++i) {
    handles.push_back(engine.RegisterDataset(data.names[i], data.datasets[i]));
  }
  const auto cold_ms = [&](const std::string& algorithm, int s) {
    const Shape& shape = data.shapes[s];
    const touch::JoinRequest request{handles[shape.a], handles[shape.b],
                                     shape.epsilon};
    engine.ClearIndexCache();
    touch::CountingCollector out;
    const auto start = Clock::now();
    const touch::JoinResult r = algorithm == "auto"
                                    ? engine.Execute(request, out)
                                    : engine.ExecuteFixed(algorithm, request,
                                                          out);
    const double ms = SecondsSince(start) * 1e3;
    if (!r.ok() || out.count() != data.reference[s].count) {
      Defect(report, algorithm + " on shape " + std::to_string(s) + ": " +
                         std::to_string(out.count()) + " pairs, reference " +
                         std::to_string(data.reference[s].count));
    }
    return ms;
  };
  // Every auto run first: the fixed runs must not calibrate the auto plan.
  const int shapes = static_cast<int>(data.shapes.size());
  std::vector<double> auto_ms;
  for (int s = 0; s < shapes; ++s) auto_ms.push_back(cold_ms("auto", s));
  double regret = 0;
  for (int s = 0; s < shapes; ++s) {
    double best = std::numeric_limits<double>::infinity();
    for (const char* family : {"touch", "pbsm-100", "inl", "ps"}) {
      best = std::min(best, cold_ms(family, s));
    }
    regret += auto_ms[s] / best;
  }
  report->Layer("planner.regret", regret / shapes, "ratio");
}

/// TouchTree constructor and TouchJoin::JoinWithPrebuiltTree on the first
/// shape of the mix, with the plan's leaf capacity and fanout.
void ProbeTouch(const WorkloadData& data, const touch::JoinPlan& plan,
                touch::Tracer& tracer, const TraceContext& root,
                Report* report) {
  const int s = data.mix[0];
  const Shape& shape = data.shapes[s];
  const Dataset& a = data.datasets[shape.a];
  const Dataset& b = data.datasets[shape.b];
  touch::TouchOptions options = plan.touch;
  bool build_on_a = plan.build_on_a;
  if (plan.algorithm != "touch") {
    options = touch::TouchOptions{};
    options.partitions = std::max<size_t>(1, std::min(a.size(), b.size()) / 96);
    build_on_a = a.size() <= b.size();
  }
  const Dataset build = build_on_a ? Enlarged(a, shape.epsilon) : b;
  const Dataset& probe = build_on_a ? b : a;
  const float probe_epsilon = build_on_a ? 0.0f : shape.epsilon;
  size_t leaf_capacity = options.leaf_capacity;
  if (leaf_capacity == 0) {
    const size_t partitions = std::max<size_t>(1, options.partitions);
    leaf_capacity = std::max<size_t>(1, (build.size() + partitions - 1) /
                                            partitions);
  }

  std::vector<double> build_ms;
  std::unique_ptr<touch::TouchTree> tree;
  for (int r = 0; r < kReps; ++r) {
    build_ms.push_back(TimedMs(root, "bench.touch-build", [&] {
      tree = std::make_unique<touch::TouchTree>(build, leaf_capacity,
                                                options.fanout);
    }));
  }
  report->Layer("touch.build_ms", Median(build_ms), "ms");

  std::vector<uint64_t> join_spans;
  for (int r = 0; r < kReps; ++r) {
    SpanScope span(root, "bench.touch-join");
    join_spans.push_back(span.context().span_id);
    touch::TouchJoin join(options);
    touch::CountingCollector out;
    join.JoinWithPrebuiltTree(*tree, build, probe, out, probe_epsilon);
    if (out.count() != data.reference[s].count) {
      Defect(report, "TouchJoin::JoinWithPrebuiltTree returned " +
                         std::to_string(out.count()) + " pairs, reference " +
                         std::to_string(data.reference[s].count));
    }
  }
  // The phase spans the join recorded under the probe's own spans.
  std::vector<double> assign_ms;
  std::vector<double> local_join_ms;
  for (const touch::SpanRecord& r : tracer.Snapshot()) {
    if (std::find(join_spans.begin(), join_spans.end(), r.parent_id) ==
        join_spans.end()) {
      continue;
    }
    if (r.name == "touch-assign") assign_ms.push_back(r.duration_ns * 1e-6);
    if (r.name == "touch-local-join") {
      local_join_ms.push_back(r.duration_ns * 1e-6);
    }
  }
  report->Layer("touch.assign_ms", Median(assign_ms), "ms");
  report->Layer("touch.local_join_ms", Median(local_join_ms), "ms");
}

/// BuildPbsmPlacements and PbsmMergeJoin on the first shape of the mix, at
/// the plan's resolution when it picked PBSM, else 100.
void ProbePbsm(const WorkloadData& data, const touch::JoinPlan& plan,
               const TraceContext& root, Report* report) {
  const int s = data.mix[0];
  const Shape& shape = data.shapes[s];
  const Dataset a = Enlarged(data.datasets[shape.a], shape.epsilon);
  const Dataset& b = data.datasets[shape.b];
  int resolution = 100;
  touch::ParsePbsmResolution(plan.algorithm, &resolution);
  Box domain = Box::Empty();
  for (const Box& box : a) domain.ExpandToContain(box);
  for (const Box& box : b) domain.ExpandToContain(box);
  const touch::GridMapper grid(domain, resolution);

  std::vector<double> place_ms;
  std::vector<double> merge_ms;
  uint64_t comparisons = 0;
  for (int r = 0; r < kReps; ++r) {
    std::vector<touch::PbsmPlacement> pa;
    std::vector<touch::PbsmPlacement> pb;
    place_ms.push_back(TimedMs(root, "bench.pbsm-placements", [&] {
      pa = touch::BuildPbsmPlacements(a, grid);
      pb = touch::BuildPbsmPlacements(b, grid);
    }));
    touch::JoinStats stats;
    touch::CountingCollector out;
    merge_ms.push_back(TimedMs(root, "bench.pbsm-merge", [&] {
      touch::PbsmMergeJoin(a, pa, b, pb, grid,
                           touch::LocalJoinStrategy::kPlaneSweep, &stats,
                           out);
    }));
    comparisons = stats.comparisons;
    if (out.count() != data.reference[s].count) {
      Defect(report, "PbsmMergeJoin returned " + std::to_string(out.count()) +
                         " pairs, reference " +
                         std::to_string(data.reference[s].count));
    }
  }
  report->Layer("pbsm.placements_ms", Median(place_ms), "ms");
  report->Layer("pbsm.merge_ms", Median(merge_ms), "ms");
  report->Layer("pbsm.comparisons", static_cast<double>(comparisons),
                "count");
}

/// The overlap kernels at the dispatched SIMD level, in nanoseconds per
/// overlap test, on the first shape's boxes: queries from side A (enlarged
/// by the shape's epsilon), candidates from side B.
void ProbeKernels(const WorkloadData& data, const TraceContext& root,
                  Report* report) {
  const Shape& shape = data.shapes[data.mix[0]];
  const Dataset& a = data.datasets[shape.a];
  const Dataset& b = data.datasets[shape.b];
  const size_t nq = std::min<size_t>(a.size(), 1024);
  const size_t nc = std::min<size_t>(b.size(), 2048);
  Dataset queries;
  for (size_t i = 0; i < nq; ++i) queries.push_back(a[i].Enlarged(shape.epsilon));
  Dataset candidates(b.begin(), b.begin() + nc);
  std::sort(candidates.begin(), candidates.end(),
            [](const Box& x, const Box& y) { return x.lo.x < y.lo.x; });
  float max_extent_x = 0;
  for (const Box& c : candidates) {
    max_extent_x = std::max(max_extent_x, c.hi.x - c.lo.x);
  }
  touch::BoxSlab slab;
  slab.Assign(candidates);
  std::vector<uint32_t> positions(nc);
  for (size_t i = 0; i < nc; ++i) {
    positions[i] = static_cast<uint32_t>((i * 7919) % nc);  // scattered
  }
  std::vector<uint32_t> hits;

  // One timed pass over every query; returns ns per overlap test.
  const auto per_test = [&](const char* span_name, auto&& one_query) {
    std::vector<double> ns;
    for (int r = 0; r < 5; ++r) {
      uint64_t tests = 0;
      const double ms = TimedMs(root, span_name, [&] {
        for (const Box& q : queries) {
          hits.clear();
          tests += one_query(q);
        }
      });
      ns.push_back(tests == 0 ? 0.0 : ms * 1e6 / static_cast<double>(tests));
    }
    return Median(ns);
  };
  report->Layer("kernel.collect_ns",
                per_test("bench.kernel-collect",
                         [&](const Box& q) {
                           return touch::CollectOverlaps(slab, 0, nc, q, hits);
                         }),
                "ns");
  report->Layer(
      "kernel.sweep_ns",
      per_test("bench.kernel-sweep",
               [&](const Box& q) {
                 const float from = q.lo.x - max_extent_x;
                 const size_t begin = static_cast<size_t>(
                     std::lower_bound(slab.lo_x(), slab.lo_x() + nc, from) -
                     slab.lo_x());
                 return touch::CollectOverlapsUntilBeyondX(slab, begin, nc, q,
                                                           hits);
               }),
      "ns");
  report->Layer("kernel.classify_ns",
                per_test("bench.kernel-classify",
                         [&](const Box& q) {
                           uint64_t examined = 0;
                           size_t first = 0;
                           for (size_t i = 0; i + 16 <= nc; i += 16) {
                             touch::ClassifyOverlaps(slab, i, i + 16, q,
                                                     &first, &examined);
                           }
                           return examined;
                         }),
                "ns");
  report->Layer(
      "kernel.gather_ns",
      per_test("bench.kernel-gather",
               [&](const Box& q) {
                 size_t tests = 0;
                 for (size_t i = 0; i + 32 <= nc; i += 32) {
                   tests += touch::CollectOverlapsGather(
                       slab, std::span<const uint32_t>(positions).subspan(i, 32),
                       q, hits);
                 }
                 return tests;
               }),
      "ns");
}

/// DynamicRTree Insert/Remove/Update driven by the workload's mutation
/// stream over the written dataset.
void ProbeDynamicRTree(const WorkloadData& data, const TraceContext& root, Report* report) {
  const Dataset& boxes = data.datasets[data.write_dataset];
  touch::DynamicRTree tree;
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  MutationStream stream(boxes, StreamSeed(data));
  std::vector<touch::Mutation> batch;
  std::vector<Box> old_boxes;
  constexpr int kBatches = 64;
  uint64_t ops = 0;
  bool all_applied = true;
  const double ms = TimedMs(root, "bench.dynamic-rtree", [&] {
    for (int n = 0; n < kBatches; ++n) {
      stream.Next(kBatchOps, &batch, &old_boxes);
      for (size_t i = 0; i < batch.size(); ++i) {
        const touch::Mutation& m = batch[i];
        switch (m.kind) {
          case touch::MutationKind::kInsert:
            tree.Insert(m.id, m.box);
            break;
          case touch::MutationKind::kDelete:
            all_applied &= tree.Remove(m.id, old_boxes[i]);
            break;
          case touch::MutationKind::kUpdate:
            all_applied &= tree.Update(m.id, old_boxes[i], m.box);
            break;
        }
        ++ops;
      }
    }
  });
  if (!all_applied) Defect(report, "DynamicRTree rejected a live-id op");
  report->Layer("dynamic_rtree.op_us", ms * 1e3 / static_cast<double>(ops),
                "us");
}

}  // namespace

void ProbeLayers(const WorkloadData& data, Service& service,
                 touch::Tracer& tracer, Report* report) {
  const TraceContext root{&tracer, tracer.NewTraceId(), 0};
  ProbePlanner(data, service, root, report);
  // The first shape's plan over the whole (unsharded) datasets.
  const Shape& first = data.shapes[data.mix[0]];
  const touch::Planner planner;
  const touch::JoinPlan plan =
      planner.Plan(touch::ComputeDatasetStats(data.datasets[first.a]),
                   touch::ComputeDatasetStats(data.datasets[first.b]),
                   first.epsilon);
  ProbeTouch(data, plan, tracer, root, report);
  ProbePbsm(data, plan, root, report);
  ProbeKernels(data, root, report);
  ProbeDynamicRTree(data, root, report);
  ProbeRegret(data, root, report);
}

}  // namespace perfbench
