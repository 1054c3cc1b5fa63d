#ifndef TOUCH_CORE_MORSEL_H_
#define TOUCH_CORE_MORSEL_H_

#include <functional>

namespace touch {

/// Lends threads to a morsel loop. A join cuts a phase into small
/// independent morsels that runners claim from one shared counter: the
/// calling thread always runs, and whatever helpers an implementation lends
/// claim from the same counter. Results never depend on how many helpers
/// came (see TouchJoin).
class MorselHelpers {
 public:
  virtual ~MorselHelpers() = default;

  /// Starts `help` on at most `max_helpers` threads, each calling it once,
  /// and returns how many it started (0 is always a valid answer). `help`
  /// may begin after the loop it was offered for is over; it owns what it
  /// reads at that point and returns at once. Must not throw once a helper
  /// has started: the caller would not wait for it.
  virtual int Offer(int max_helpers, const std::function<void()>& help) = 0;

  /// Polled by a helper after each morsel it runs: true hands the thread
  /// back to its owner (the engine's pool: a submitted request is waiting).
  /// The loop keeps its own copy, so the signal must not refer to this
  /// object. Empty means "never yield".
  virtual std::function<bool()> YieldSignal() const { return {}; }
};

}  // namespace touch

#endif  // TOUCH_CORE_MORSEL_H_
