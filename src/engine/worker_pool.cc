#include "engine/worker_pool.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace touch {

WorkerPool::WorkerPool(int threads) {
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::Submit(std::function<void()> task) {
  Submit(std::move(task), nullptr);
}

void WorkerPool::Submit(std::function<void()> task,
                        std::function<void()> on_done,
                        std::function<bool()> should_run) {
  bool rejected = false;
  {
    MutexLock lock(mutex_);
    // Submitting into a stopping pool is a lifetime bug on the caller's
    // side, but resolve the race deterministically rather than leaving a
    // task in a queue no worker will drain: skip the body, deliver the
    // completion inline below, and trip a debug assert.
    assert(!stopping_ && "WorkerPool::Submit after destruction began");
    if (stopping_) {
      rejected = true;
    } else {
      queue_.push_back(
          Task{std::move(task), std::move(on_done), std::move(should_run)});
      queued_tasks_.store(queue_.size(), std::memory_order_relaxed);
      ++in_flight_;
    }
  }
  if (rejected) {
    if (on_done) {
      try {
        on_done();
      } catch (...) {
      }
    }
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  work_available_.NotifyOne();
}

int WorkerPool::OfferHelp(int max_helpers,
                          const std::function<void()>& help) {
  int offered = 0;
  {
    MutexLock lock(mutex_);
    if (stopping_) return 0;
    // Waiting workers already promised to a queued task or help call are
    // not idle.
    const int idle = waiting_workers_ - static_cast<int>(queue_.size()) -
                     static_cast<int>(help_queue_.size());
    const int wanted = std::clamp(max_helpers, 0, std::max(idle, 0));
    for (; offered < wanted; ++offered) {
      // A failed copy ends the offer; the helpers queued so far stand.
      try {
        help_queue_.push_back(help);
      } catch (...) {
        break;
      }
      ++in_flight_;
    }
  }
  if (offered > 0) work_available_.NotifyAll();
  return offered;
}

size_t WorkerPool::queue_depth() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

void WorkerPool::WaitIdle() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.Wait(lock);
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Task task;
    std::function<void()> help;
    {
      MutexLock lock(mutex_);
      // Explicit predicate loop (not cv.wait(lock, pred)): the thread-safety
      // analysis checks lambda bodies without the enclosing capability set,
      // so a predicate lambda could not read the guarded fields.
      ++waiting_workers_;
      while (!stopping_ && queue_.empty() && help_queue_.empty()) {
        work_available_.Wait(lock);
      }
      --waiting_workers_;
      // Submitted tasks go first; help calls only fill otherwise idle time.
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        queued_tasks_.store(queue_.size(), std::memory_order_relaxed);
      } else if (!help_queue_.empty()) {
        help = std::move(help_queue_.front());
        help_queue_.pop_front();
      } else {
        return;  // stopping and drained
      }
    }
    if (help) {
      busy_workers_.fetch_add(1, std::memory_order_relaxed);
      try {
        help();
      } catch (...) {
      }
      busy_workers_.fetch_sub(1, std::memory_order_relaxed);
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) idle_.NotifyAll();
      continue;
    }
    // Tasks own their error reporting (the engine converts failures into
    // JoinResult::error); an escaping exception must not take down the pool
    // thread or leave in_flight_ stuck for WaitIdle. on_done runs either
    // way — completion must reach waiters even when the task failed or was
    // skipped by its should_run condition.
    busy_workers_.fetch_add(1, std::memory_order_relaxed);
    try {
      if (!task.should_run || task.should_run()) task.run();
    } catch (...) {
    }
    if (task.on_done) {
      try {
        task.on_done();
      } catch (...) {
      }
    }
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    tasks_completed_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

}  // namespace touch
