#ifndef TOUCH_ENGINE_CALIBRATION_H_
#define TOUCH_ENGINE_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace touch {

/// Controls the engine's measured-run feedback loop (the self-calibrating
/// planner). With `enabled`, every cold execution is recorded into the
/// engine's PlanFeedback store and planning consults the fitted cost models;
/// disabled restores the purely static planner and records nothing.
struct CalibrationOptions {
  bool enabled = true;
  /// An algorithm family only participates in calibrated planning once it
  /// has this many recorded cold runs (prevents one noisy measurement from
  /// flipping plans).
  size_t min_samples = 3;
  /// Cap on the retained outcome log (introspection only; the incremental
  /// fit is unaffected by log eviction).
  size_t max_outcomes = 1024;
};

/// One measured cold execution, as the engine records it after a request
/// that actually paid its build (cache hits are not recorded: the planner
/// compares cold costs).
struct PlanOutcome {
  /// Algorithm family ("touch", "pbsm", "inl", "ps", "nl"), see
  /// AlgorithmFamily.
  std::string family;
  /// |A| + |B| of the request.
  size_t objects = 0;
  /// Result pairs the run actually produced (introspection; not a fit
  /// feature).
  uint64_t results = 0;
  /// The planner's own estimate for this request (CombineHistograms). This
  /// — not `results` — is the regression feature: plan-time predictions can
  /// only ever feed the estimate in, so fitting against the same estimator
  /// keeps the features consistent and lets its bias cancel between fit
  /// and prediction.
  double estimated_results = 0;
  double build_seconds = 0;
  /// Assignment plus join phases (everything after the build). Both this
  /// and total_seconds are single-runner times: a TOUCH run that borrowed
  /// idle workers counts the work they did (JoinStats::helper_seconds).
  double probe_seconds = 0;
  double total_seconds = 0;
};

/// Family of a MakeAlgorithm-style name: the prefix before any '-' parameter
/// ("pbsm-250" -> "pbsm", "touch" -> "touch").
std::string AlgorithmFamily(const std::string& algorithm);

/// Fitted cost model of one algorithm family:
///   seconds ~= seconds_per_object * (|A|+|B|) + seconds_per_result * |R|.
/// Linear in the two quantities planning can estimate without running
/// anything (cardinalities from the catalog, |R| from CombineHistograms).
struct CostModel {
  double seconds_per_object = 0;
  double seconds_per_result = 0;
  /// Fitted *build-phase* rate (seconds ~= build_seconds_per_object *
  /// objects, least squares through the origin): what one index build over
  /// this family costs per object. Consumed by the cache's pre-admission
  /// policy, which wants the rebuild cost of an artifact, not the whole
  /// query.
  double build_seconds_per_object = 0;
  size_t samples = 0;

  double Predict(double objects, double results) const {
    return seconds_per_object * objects + seconds_per_result * results;
  }

  double PredictBuild(double objects) const {
    return build_seconds_per_object * objects;
  }
};

/// Immutable view of the fitted cost models, consulted by Planner::Plan.
/// Families under `min_samples` recorded runs answer nullopt, so the planner
/// falls back to its static rules until enough evidence accumulates.
class CalibrationSnapshot {
 public:
  CalibrationSnapshot() = default;
  CalibrationSnapshot(std::map<std::string, CostModel> models,
                      size_t min_samples)
      : models_(std::move(models)), min_samples_(min_samples) {}

  /// Predicted cold seconds for `family`, or nullopt while the family has
  /// fewer than min_samples measured runs.
  std::optional<double> Predict(const std::string& family, double objects,
                                double results) const;

  /// Predicted index-build seconds for `family` at `objects` total request
  /// objects, under the same min_samples gate. The cache's pre-admission
  /// consults this: an artifact whose predicted rebuild is expensive skips
  /// the ghost probation.
  std::optional<double> PredictBuildSeconds(const std::string& family,
                                            double objects) const;

  /// The fitted model regardless of sample count (telemetry/debugging).
  const CostModel* Find(const std::string& family) const;

  const std::map<std::string, CostModel>& models() const { return models_; }
  size_t min_samples() const { return min_samples_; }

  /// Families with enough samples to participate in calibrated planning.
  size_t calibrated_families() const;
  /// Measured runs across all families.
  size_t total_samples() const;

 private:
  std::map<std::string, CostModel> models_;
  size_t min_samples_ = 0;
};

/// Thread-safe store of measured plan outcomes plus the incremental
/// least-squares accumulators the Calibrator fits from. Recording is O(1);
/// the engine calls it from its worker threads after every cold run.
class PlanFeedback {
 public:
  explicit PlanFeedback(size_t max_outcomes = 1024)
      : max_outcomes_(max_outcomes) {}

  void Record(const PlanOutcome& outcome) EXCLUDES(mutex_);

  /// Fits one CostModel per family from the accumulated runs (see
  /// Calibrator) and snapshots them for the planner.
  CalibrationSnapshot Snapshot(size_t min_samples = 3) const EXCLUDES(mutex_);

  /// Copy of the retained outcome log, newest last (capped at
  /// max_outcomes; older entries are dropped from the log only, never from
  /// the fit).
  std::vector<PlanOutcome> RecentOutcomes() const EXCLUDES(mutex_);

  /// Total outcomes ever recorded (not capped).
  uint64_t total_recorded() const EXCLUDES(mutex_);

  void Clear() EXCLUDES(mutex_);

 private:
  struct FamilySums {
    size_t n = 0;
    double objects_sq = 0;       // sum o_i^2
    double objects_results = 0;  // sum o_i * r_i
    double results_sq = 0;       // sum r_i^2
    double objects_time = 0;     // sum o_i * t_i
    double results_time = 0;     // sum r_i * t_i
    double objects_build = 0;    // sum o_i * build_i (build-rate fit)
  };

  mutable Mutex mutex_;
  const size_t max_outcomes_;
  std::map<std::string, FamilySums> sums_ GUARDED_BY(mutex_);
  std::deque<PlanOutcome> log_ GUARDED_BY(mutex_);
  uint64_t recorded_ GUARDED_BY(mutex_) = 0;
};

/// The fit itself (exposed for tests): ridge-regularized least squares of
/// t ~= a*objects + b*results through the origin, with non-negativity
/// enforced by refitting the single-coefficient model when a corner of the
/// unconstrained solution goes negative.
CostModel FitCostModel(size_t samples, double objects_sq,
                       double objects_results, double results_sq,
                       double objects_time, double results_time);

}  // namespace touch

#endif  // TOUCH_ENGINE_CALIBRATION_H_
