#include "engine/planner.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "engine/calibration.h"
#include "estimate/selectivity.h"
#include "util/format.h"

namespace touch {
namespace {

/// CellSizeCappedResolution over a domain's tightest axis: cells ~4x larger
/// than the average object (finer grids pair objects the histogramming
/// never sees together). `avg_edge` already includes any epsilon
/// enlargement.
int DomainResolution(const Box& domain, float avg_edge, int max_res) {
  const Vec3 extent = domain.Extent();
  return CellSizeCappedResolution(std::min({extent.x, extent.y, extent.z}),
                                  avg_edge, max_res);
}

float MaxComponent(const Vec3& v) { return std::max({v.x, v.y, v.z}); }

constexpr auto Format = StrFormat;  // local shorthand for the rationales

}  // namespace

std::string JoinPlan::ToString() const {
  std::string line;
  if (algorithm == "touch") {
    line = Format(
        "algorithm=touch build=%s partitions=%zu grid=%d "
        "expected_results=%.3g selectivity=%.3g",
        build_on_a ? "A" : "B", touch.partitions, touch.grid_resolution,
        expected_results, expected_selectivity);
  } else {
    line = Format("algorithm=%s build=%s expected_results=%.3g "
                  "selectivity=%.3g",
                  algorithm.c_str(), build_on_a ? "A" : "B", expected_results,
                  expected_selectivity);
  }
  if (calibrated) {
    line += Format(" predicted=%.3gs", predicted_seconds);
    if (!static_algorithm.empty() && static_algorithm != algorithm) {
      line += Format(" (static rule: %s)", static_algorithm.c_str());
    }
  }
  return line + "\n  reason: " + rationale;
}

bool Planner::PairMayProduceResults(const DatasetStats& stats_a,
                                    const DatasetStats& stats_b,
                                    float epsilon) {
  if (stats_a.count == 0 || stats_b.count == 0) return false;
  // The distance join enlarges side A; the extents are exact (registration
  // computed them over the real boxes), so a miss here is a proof.
  return Intersects(stats_a.extent.Enlarged(epsilon), stats_b.extent);
}

JoinPlan Planner::Plan(const DatasetStats& stats_a, const DatasetStats& stats_b,
                       float epsilon,
                       const CalibrationSnapshot* calibration) const {
  const size_t size_a = stats_a.count;
  const size_t size_b = stats_b.count;
  const size_t smaller = std::min(size_a, size_b);
  const size_t larger = std::max(size_a, size_b);

  JoinPlan plan;
  // No threads of the join's own: the engine lends a TOUCH request its
  // pool's idle workers as morsel helpers (none when the pool is busy).
  plan.touch.threads = 1;

  if (smaller == 0) {
    plan.algorithm = "nl";
    plan.rationale = "an input is empty: nested loop (no result, no setup)";
    return plan;
  }
  if (larger <= options_.nested_loop_max) {
    plan.algorithm = "nl";
    plan.rationale = Format(
        "tiny inputs (max(|A|,|B|)=%zu <= %zu): nested loop beats any setup "
        "cost",
        larger, options_.nested_loop_max);
    return plan;
  }
  if (larger <= options_.plane_sweep_max) {
    plan.algorithm = "ps";
    plan.rationale = Format(
        "small inputs (max(|A|,|B|)=%zu <= %zu): plane sweep (sort only, no "
        "index build)",
        larger, options_.plane_sweep_max);
    return plan;
  }

  // Beyond the tiny-input regime, plans are cost-based: pair-combine the
  // per-dataset histograms registration already paid for. No raw geometry
  // is touched — this overload cannot even reach it.
  const PairEstimate estimate = CombineHistograms(
      stats_a, stats_b, epsilon, options_.estimator_resolution);
  plan.expected_results = estimate.expected_results;
  plan.expected_selectivity = estimate.selectivity;

  const double skew =
      std::max(stats_a.HistogramSkew(), stats_b.HistogramSkew());
  Box joint = stats_a.extent;
  joint.ExpandToContain(stats_b.extent);
  // PBSM replicates the *enlarged* boxes into cells, so its cell-size rule
  // must account for the epsilon bloat.
  const float enlarged_edge =
      std::max(MaxComponent(stats_a.avg_object_extent) + 2.0f * epsilon,
               MaxComponent(stats_b.avg_object_extent));

  // Coarse per-object footprint of the partitioning algorithms, calibrated
  // against measured memMB counters (TOUCH ~50 B/object incl. tree + grids;
  // PBSM ~2x for replication).
  const size_t touch_bytes = 48 * (size_a + size_b);
  const size_t pbsm_bytes = 96 * (size_a + size_b);
  const size_t budget = options_.memory_budget_bytes;

  // Per-dataset skew is measured over each dataset's *own* extent, so two
  // individually-uniform datasets with very different extents still form a
  // joint hotspot (all of the small one in a few cells of the joint grid).
  // PBSM is only trusted when both extents fill a fair share of the joint
  // domain; degenerate (zero-volume) joints skip the check.
  const double joint_volume = joint.Volume();
  const bool extents_comparable =
      joint_volume <= 0 ||
      std::min(stats_a.extent.Volume(), stats_b.extent.Volume()) >=
          0.1 * joint_volume;

  // Hard eligibility: constraints no amount of measured evidence overrides
  // (memory budget, PBSM's replication ceiling and joint-grid sanity). The
  // soft rules below — skew crossover, partitioning-vs-sweep — are what
  // calibration may replace.
  const bool pbsm_fits = extents_comparable &&
                         size_a + size_b <= options_.pbsm_max_objects &&
                         (budget == 0 || pbsm_bytes <= budget);
  const bool touch_fits = budget == 0 || touch_bytes <= budget;
  const int pbsm_resolution = DomainResolution(joint, enlarged_edge, 500);

  // Candidate builders: the fully resolved, ready-to-execute configuration
  // of each family, shared by the static rules and the calibrated
  // comparison.
  const JoinPlan base = plan;
  const auto make_touch = [&]() {
    JoinPlan candidate = base;
    candidate.algorithm = "touch";
    candidate.build_on_a = size_a <= size_b;  // SelectivityEstimator::ShouldBuildOnA
    const size_t build_count = candidate.build_on_a ? size_a : size_b;
    candidate.touch.partitions = std::clamp<size_t>(
        build_count / std::max<size_t>(1, options_.touch_leaf_target), 16,
        8192);
    candidate.touch.join_order = candidate.build_on_a
                                     ? TouchOptions::JoinOrder::kBuildOnA
                                     : TouchOptions::JoinOrder::kBuildOnB;
    // TOUCH's local-join cells are keyed off the *raw* objects: the distance
    // join bloats one side by epsilon, and sizing cells by the bloated
    // average would make them an order of magnitude too coarse (see
    // TouchOptions::cell_size_multiplier).
    const float raw_edge = std::min(MaxComponent(stats_a.avg_object_extent),
                                    MaxComponent(stats_b.avg_object_extent));
    candidate.touch.grid_resolution =
        DomainResolution(joint, raw_edge, 500);
    return candidate;
  };
  const auto make_pbsm = [&]() {
    JoinPlan candidate = base;
    candidate.algorithm = Format("pbsm-%d", pbsm_resolution);
    return candidate;
  };
  const auto make_inl = [&]() {
    JoinPlan candidate = base;
    candidate.algorithm = "inl";
    candidate.build_on_a = size_a <= size_b;
    return candidate;
  };
  const auto make_ps = [&]() {
    JoinPlan candidate = base;
    candidate.algorithm = "ps";
    return candidate;
  };

  // --- Static decision rules (the paper-calibrated defaults). -------------
  if (skew <= options_.pbsm_skew_max && pbsm_fits) {
    plan = make_pbsm();
    plan.rationale = Format(
        "near-uniform data (histogram skew %.2f <= %.2f) and %zu total "
        "objects: PBSM, grid %d^3 (cells ~4x the %.2f-unit average enlarged "
        "object)",
        skew, options_.pbsm_skew_max, size_a + size_b, pbsm_resolution,
        enlarged_edge);
  } else if (!touch_fits) {
    if (static_cast<double>(larger) >=
        static_cast<double>(smaller) * options_.inl_asymmetry) {
      plan = make_inl();
      plan.rationale = Format(
          "memory budget %.1f MB below the ~%.1f MB partitioning estimate "
          "and %zu:%zu cardinality asymmetry (>= %.0fx): indexed nested "
          "loop, R-tree over only the smaller side (%s)",
          budget / 1048576.0, touch_bytes / 1048576.0, larger, smaller,
          options_.inl_asymmetry, plan.build_on_a ? "A" : "B");
    } else {
      plan = make_ps();
      plan.rationale = Format(
          "memory budget %.1f MB below the ~%.1f MB partitioning estimate: "
          "plane sweep (sort-only footprint)",
          budget / 1048576.0, touch_bytes / 1048576.0);
    }
  } else {
    plan = make_touch();
    plan.rationale = Format(
        "skewed or large workload (histogram skew %.2f, %zu+%zu objects): "
        "TOUCH; tree on the sparser side (%s, %zu objects) per the paper's "
        "join-order rule; %zu partitions (~%zu objects/leaf); local-join "
        "grid capped at %d cells/axis",
        skew, size_a, size_b, plan.build_on_a ? "A" : "B",
        plan.build_on_a ? size_a : size_b, plan.touch.partitions,
        options_.touch_leaf_target, plan.touch.grid_resolution);
  }

  // --- Calibrated override (measured-run feedback). -----------------------
  // Predict each eligible candidate's cold cost from the fitted per-family
  // models. The override only fires when the static choice itself is
  // measured (otherwise "slower than what?") and at least one measured
  // alternative exists; families without evidence stay listed as unmeasured.
  if (calibration != nullptr) {
    struct Candidate {
      JoinPlan plan;
      std::optional<double> predicted;
    };
    std::vector<Candidate> candidates;
    if (touch_fits) candidates.push_back({make_touch(), std::nullopt});
    if (pbsm_fits) candidates.push_back({make_pbsm(), std::nullopt});
    candidates.push_back({make_inl(), std::nullopt});
    candidates.push_back({make_ps(), std::nullopt});

    const double objects = static_cast<double>(size_a + size_b);
    size_t measured = 0;
    const Candidate* best = nullptr;
    const Candidate* static_choice = nullptr;
    std::string breakdown;
    for (Candidate& candidate : candidates) {
      const std::string family = AlgorithmFamily(candidate.plan.algorithm);
      candidate.predicted =
          calibration->Predict(family, objects, estimate.expected_results);
      if (!breakdown.empty()) breakdown += ", ";
      breakdown += candidate.predicted.has_value()
                       ? Format("%s %.3gs", family.c_str(),
                                *candidate.predicted)
                       : family + " unmeasured";
      if (candidate.predicted.has_value()) {
        ++measured;
        if (best == nullptr || *candidate.predicted < *best->predicted) {
          best = &candidate;
        }
      }
      if (candidate.plan.algorithm == plan.algorithm) {
        static_choice = &candidate;
      }
    }
    if (best != nullptr && static_choice != nullptr && measured >= 2 &&
        static_choice->predicted.has_value()) {
      const std::string static_algorithm = plan.algorithm;
      if (best->plan.algorithm != static_algorithm) {
        const std::string static_rationale = plan.rationale;
        plan = best->plan;
        plan.calibrated = true;
        plan.static_algorithm = static_algorithm;
        plan.predicted_seconds = *best->predicted;
        plan.rationale =
            Format("calibrated override (%zu measured cold runs): %s; ",
                   calibration->total_samples(), breakdown.c_str());
        plan.rationale +=
            "static rule chose " + static_algorithm + " — " + static_rationale;
      } else {
        plan.calibrated = true;
        plan.static_algorithm = static_algorithm;
        plan.predicted_seconds = *static_choice->predicted;
        plan.rationale += Format("; calibration agrees (%s)",
                                 breakdown.c_str());
      }
    }
  }
  return plan;
}

}  // namespace touch
