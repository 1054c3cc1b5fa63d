#include "util/morsel.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/format.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace touch {
namespace {

// Claim state of one morsel loop, shared by the calling thread and its
// helpers. Helpers hold it through a shared_ptr: a helper that starts after
// every morsel is claimed reads `next`, leaves, and never touches the
// caller's stack — a run is only invoked under a claim the caller is still
// waiting for.
struct MorselClaims {
  MorselClaims(const MorselLoop& loop_in, std::function<bool()> yield_fn,
               CancellationToken token)
      : loop(loop_in),
        yield(std::move(yield_fn)),
        done(std::make_unique<std::atomic<bool>[]>(loop_in.count)) {
    cancel = std::move(token);
  }

  const MorselLoop loop;
  const std::function<bool()> yield;
  CancellationToken cancel;  // set once, before any helper is offered
  std::atomic<size_t> next{0};
  const std::unique_ptr<std::atomic<bool>[]> done;
  std::atomic<int> helpers{0};
  std::atomic<int64_t> helper_ns{0};  // morsel time spent by helpers
  std::atomic<int64_t> max_helper_ns{0};
  Mutex mutex;
  CondVar finished;
  // A helper's exception. Set before that helper marks its morsel done, so
  // whoever sees the morsel done also sees the failure.
  std::exception_ptr failure GUARDED_BY(mutex);
};

// Claims and runs morsels with `run` until the loop is done, cancelled,
// failed, or the helper must yield.
void ClaimMorsels(MorselClaims& claims, const MorselRun& run) {
  const size_t count = claims.loop.count;
  bool ran = false;
  while (!claims.cancel.stop_requested()) {
    const size_t index = claims.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= count) return;
    if (!ran) {
      ran = true;
      claims.helpers.fetch_add(1, std::memory_order_relaxed);
    }
    std::exception_ptr failure;
    Timer morsel;
    try {
      run(index, /*direct=*/false);
    } catch (...) {
      failure = std::current_exception();
    }
    const auto ns = static_cast<int64_t>(morsel.Seconds() * 1e9);
    claims.helper_ns.fetch_add(ns, std::memory_order_relaxed);
    int64_t max_ns = claims.max_helper_ns.load(std::memory_order_relaxed);
    while (ns > max_ns && !claims.max_helper_ns.compare_exchange_weak(
                              max_ns, ns, std::memory_order_relaxed)) {
    }
    {
      const MutexLock lock(claims.mutex);
      if (failure && !claims.failure) claims.failure = failure;
      claims.done[index].store(true, std::memory_order_release);
    }
    claims.finished.NotifyAll();
    if (failure || (claims.yield && claims.yield())) return;
  }
}

void HelpMorsels(MorselClaims& claims) {
  if (claims.next.load(std::memory_order_relaxed) >= claims.loop.count) {
    return;
  }
  if (!claims.loop.helper_scope) {
    ClaimMorsels(claims, claims.loop.run);
    return;
  }
  try {
    claims.loop.helper_scope(
        [&claims](const MorselRun& run) { ClaimMorsels(claims, run); });
  } catch (...) {
    // Only the setup around the claims can throw here (ClaimMorsels keeps
    // a morsel's failure), before any claim: the loop goes on without
    // this helper, as if it had never started.
  }
}

}  // namespace

void MorselReport::Annotate(SpanScope& span) const {
  if (!span.active()) return;
  span.AddAttr("morsels", std::to_string(morsels));
  span.AddAttr("helpers", std::to_string(helpers));
  span.AddAttr("max_morsel_ms", StrFormat("%.3f", max_morsel_ms));
}

void RunMorsels(MorselHelpers* helpers, const CancellationToken& cancel,
                const MorselLoop& loop, MorselReport& report) {
  const size_t count = loop.count;
  report.morsels += count;
  double max_ms = 0;
  // Runs morsel i on this thread and times it.
  const auto run_here = [&](size_t i, bool direct) {
    Timer morsel;
    loop.run(i, direct);
    max_ms = std::max(max_ms, morsel.Seconds() * 1e3);
  };
  const auto finish = [&](size_t i) {
    if (loop.finish) loop.finish(i);
  };

  std::shared_ptr<MorselClaims> claims;
  int offered = 0;
  if (helpers != nullptr && count > 1 && !cancel.stop_requested()) {
    claims =
        std::make_shared<MorselClaims>(loop, helpers->YieldSignal(), cancel);
    offered = helpers->Offer(
        static_cast<int>(std::min<size_t>(count - 1, INT_MAX)),
        [claims] { HelpMorsels(*claims); });
  }
  if (offered == 0) {
    for (size_t i = 0; i < count && !cancel.stop_requested(); ++i) {
      run_here(i, /*direct=*/true);
      finish(i);
    }
    report.max_morsel_ms = std::max(report.max_morsel_ms, max_ms);
    return;
  }

  MorselClaims& shared = *claims;
  const auto helper_failure = [&shared] {
    const MutexLock lock(shared.mutex);
    return shared.failure;
  };
  size_t finished = 0;
  size_t current = count;  // the morsel this thread is running, if any
  std::exception_ptr failure;
  try {
    while (!cancel.stop_requested()) {
      current = shared.next.fetch_add(1, std::memory_order_relaxed);
      if (current >= count) break;
      run_here(current, /*direct=*/false);
      shared.done[current].store(true, std::memory_order_release);
      current = count;
      while (finished < count &&
             shared.done[finished].load(std::memory_order_acquire)) {
        // A morsel a helper failed on is done but left no output.
        if (std::exception_ptr helper = helper_failure()) {
          std::rethrow_exception(helper);
        }
        finish(finished++);
      }
    }
  } catch (...) {
    failure = std::current_exception();
    if (current < count) {
      shared.done[current].store(true, std::memory_order_release);
    }
  }
  // Close the loop (a later claim sees the end) and wait out the morsels
  // helpers still hold — claims form the prefix [0, claimed) — finishing
  // them in order as they land.
  const size_t claimed =
      std::min(shared.next.exchange(count, std::memory_order_relaxed), count);
  double waited = 0;
  for (size_t i = finished; i < claimed; ++i) {
    {
      MutexLock lock(shared.mutex);
      if (!shared.done[i].load(std::memory_order_acquire)) {
        Timer wait;
        while (!shared.done[i].load(std::memory_order_acquire)) {
          shared.finished.Wait(lock);
        }
        waited += wait.Seconds();
      }
      if (!failure) failure = shared.failure;
    }
    if (!failure) {
      try {
        finish(i);
      } catch (...) {
        failure = std::current_exception();
      }
    }
  }
  // Every claimed morsel is done now: a helper that failed has recorded it.
  if (!failure) failure = helper_failure();
  if (failure) std::rethrow_exception(failure);
  report.helpers =
      std::max(report.helpers, shared.helpers.load(std::memory_order_relaxed));
  const double helped =
      static_cast<double>(shared.helper_ns.load(std::memory_order_relaxed)) *
      1e-9;
  report.helper_seconds += std::max(0.0, helped - waited);
  max_ms = std::max(
      max_ms,
      static_cast<double>(shared.max_helper_ns.load(std::memory_order_relaxed)) *
          1e-6);
  report.max_morsel_ms = std::max(report.max_morsel_ms, max_ms);
}

}  // namespace touch
