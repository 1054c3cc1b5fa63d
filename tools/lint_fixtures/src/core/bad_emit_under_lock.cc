// EXPECT-VIOLATION: emit-under-lock
// Fixture: a join kernel in src/core flushing worker-buffered pairs into
// the caller's collector under a mutex that is not a *sink_mutex* — the
// shape the morsel loops replaced (only the calling thread emits, lock
// free). The rule covers src/core as well as src/engine and src/obs.
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace touch {

class ResultCollector {
 public:
  virtual ~ResultCollector() = default;
  virtual void Emit(int a, int b) = 0;
};

class BadParallelJoin {
 public:
  void Flush(std::vector<std::pair<int, int>>& pending, ResultCollector& out) {
    const MutexLock lock(out_mutex_);
    for (const auto& [a, b] : pending) out.Emit(a, b);
    pending.clear();
  }

 private:
  Mutex out_mutex_;
};

}  // namespace touch
