#ifndef TOUCH_TESTS_MORSEL_TEST_HELPERS_H_
#define TOUCH_TESTS_MORSEL_TEST_HELPERS_H_

#include <algorithm>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/morsel.h"

namespace touch {

/// Helpers on threads of the test's own, as many as asked for whatever the
/// host's core count (TouchOptions::threads is capped at it). `wait` runs
/// each loop's helpers to the end inside Offer, before the caller claims a
/// morsel: they take every morsel but the ones they fail on. `wrap`, when
/// given, runs each helper's `help` (to inject a failure on that thread,
/// say).
class TestHelpers final : public MorselHelpers {
 public:
  using Wrap = std::function<void(const std::function<void()>& help)>;

  TestHelpers(int threads, bool wait, Wrap wrap = {})
      : threads_(threads), wait_(wait), wrap_(std::move(wrap)) {}
  ~TestHelpers() override { JoinAll(); }
  TestHelpers(const TestHelpers&) = delete;
  TestHelpers& operator=(const TestHelpers&) = delete;

  int Offer(int max_helpers, const std::function<void()>& help) override {
    JoinAll();
    ++offers_;
    const int count = std::min(max_helpers, threads_);
    for (int i = 0; i < count; ++i) {
      running_.emplace_back([help, wrap = wrap_] {
        if (wrap) {
          wrap(help);
        } else {
          help();
        }
      });
    }
    if (wait_) JoinAll();
    return count;
  }

  int Idle() const override { return threads_; }

  /// Loops offered so far.
  int offers() const { return offers_; }

 private:
  void JoinAll() {
    for (std::thread& thread : running_) thread.join();
    running_.clear();
  }

  const int threads_;
  const bool wait_;
  const Wrap wrap_;
  int offers_ = 0;
  std::vector<std::thread> running_;
};

}  // namespace touch

#endif  // TOUCH_TESTS_MORSEL_TEST_HELPERS_H_
