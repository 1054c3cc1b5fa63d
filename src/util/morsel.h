#ifndef TOUCH_UTIL_MORSEL_H_
#define TOUCH_UTIL_MORSEL_H_

#include <cstddef>
#include <functional>

#include "util/cancellation.h"

namespace touch {

class SpanScope;

/// Lends threads to a morsel loop. A phase is cut into small independent
/// morsels that runners claim from one shared counter: the calling thread
/// always runs, and whatever helpers an implementation lends claim from the
/// same counter. Results never depend on how many helpers came (see
/// TouchJoin and StrPartition).
class MorselHelpers {
 public:
  virtual ~MorselHelpers() = default;

  /// Starts `help` on at most `max_helpers` threads, each calling it once,
  /// and returns how many it started (0 is always a valid answer). `help`
  /// may begin after the loop it was offered for is over; it owns what it
  /// reads at that point and returns at once. Must not throw once a helper
  /// has started: the caller would not wait for it.
  virtual int Offer(int max_helpers, const std::function<void()>& help) = 0;

  /// How many helpers an Offer made now would start, as far as the lender
  /// can tell: a hint that lets a phase skip preparing work for helpers
  /// that will not come. Results never depend on it.
  virtual int Idle() const = 0;

  /// Polled by a helper after each morsel it runs: true hands the thread
  /// back to its owner (the engine's pool: a submitted request is waiting).
  /// The loop keeps its own copy, so the signal must not refer to this
  /// object. Empty means "never yield".
  virtual std::function<bool()> YieldSignal() const { return {}; }
};

/// Runs morsel `index`; `direct` is true when the calling thread runs the
/// whole loop alone (and may, say, emit straight into a sink).
using MorselRun = std::function<void(size_t index, bool direct)>;

/// One loop of independent morsels [0, count).
struct MorselLoop {
  size_t count = 0;
  /// Runs a morsel on the calling thread.
  MorselRun run;
  /// Wraps a helper's whole stay in the loop, on the helper's thread: sets
  /// up what its morsels need (its own scratch, say) and calls
  /// `stay(helper's run)` once. It may be called after the loop is over,
  /// so only the run `stay` invokes may touch what the calling thread
  /// owns. A helper whose setup throws leaves without claiming a morsel.
  /// Empty: helpers use `run`.
  std::function<void(const std::function<void(const MorselRun&)>& stay)>
      helper_scope;
  /// Folds morsel `index`'s output into the result on the calling thread,
  /// strictly in index order, so the result never depends on who ran what.
  /// Empty when the morsels write their output in place.
  std::function<void(size_t index)> finish;
};

/// What the morsel loops of one phase did: attached to the phase's span,
/// and added to its wall time to get single-runner seconds.
struct MorselReport {
  size_t morsels = 0;
  int helpers = 0;  // most helpers that ran a morsel in any one loop
  double max_morsel_ms = 0;
  /// Morsel time the helpers took off the calling thread, less the time it
  /// spent waiting for them: the phase's wall time plus this estimates the
  /// phase on the calling thread alone.
  double helper_seconds = 0;

  /// Attaches `morsels`, `helpers` and `max_morsel_ms` to `span`.
  void Annotate(SpanScope& span) const;
};

/// Runs `loop` on the calling thread and on whatever `helpers` (may be
/// null) lends, and adds its figures to `report`. Stops claiming once
/// `cancel` fires; every morsel that did run is still finished. An
/// exception from any runner's morsel or from `finish` is rethrown here,
/// and no morsel from a failed one on is finished. Never returns — or
/// throws — while a helper still runs a morsel, so on return every write a
/// morsel made is visible to the calling thread.
void RunMorsels(MorselHelpers* helpers, const CancellationToken& cancel,
                const MorselLoop& loop, MorselReport& report);

}  // namespace touch

#endif  // TOUCH_UTIL_MORSEL_H_
