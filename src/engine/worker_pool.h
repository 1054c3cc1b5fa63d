#ifndef TOUCH_ENGINE_WORKER_POOL_H_
#define TOUCH_ENGINE_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace touch {

/// Reusable fixed-size worker pool. Unlike the per-call thread spawning of
/// PartitionedJoin, the engine keeps one pool alive across queries, so a
/// steady stream of batches pays thread start-up once.
///
/// ## Shutdown ordering
///
/// The destructor (1) sets `stopping_` under `mutex_`, (2) wakes every
/// worker, then (3) joins them. Workers drain the queue first: a worker only
/// exits when `stopping_` is set AND the queue is empty (help calls queued
/// by OfferHelp drain too), so every task that
/// was enqueued before the destructor ran still executes (and delivers its
/// `on_done`) before the join completes. Consequences callers rely on:
///
///   - Tasks and `on_done` callbacks may keep running between steps (1) and
///     (3); anything they reference must outlive the pool.
///   - `Submit` racing with destruction is a caller bug (the pool's memory
///     is about to vanish). It is still handled deterministically: once
///     `stopping_` is observed the task body is skipped, `on_done` runs
///     inline on the submitting thread, and a debug assert fires — the
///     completion contract ("every Submit is eventually delivered") holds
///     even in that window, and nothing is left in the queue for a worker
///     that may already have exited.
///   - `should_run` gates are consulted by the worker *after* dequeue, so a
///     task skipped by its gate still counts toward `tasks_completed()`.
class WorkerPool {
 public:
  /// `threads` <= 0 uses the hardware concurrency (at least 1).
  explicit WorkerPool(int threads = 0);

  /// Drains outstanding tasks, then joins the workers (see "Shutdown
  /// ordering" above).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // --- Load signals (the metrics registry's pool gauges) -------------------

  /// Tasks waiting in the queue right now (excludes running ones).
  size_t queue_depth() const EXCLUDES(mutex_);

  /// Workers currently inside a task, its on_done notification, or a
  /// help call (OfferHelp).
  int busy_workers() const {
    return busy_workers_.load(std::memory_order_relaxed);
  }

  /// Tasks finished since construction — including tasks whose should_run
  /// declined (their completion was still delivered), so this counter plus
  /// queue_depth plus busy_workers (minus running help calls) accounts for
  /// every Submit.
  uint64_t tasks_completed() const {
    return tasks_completed_.load(std::memory_order_relaxed);
  }

  /// Enqueues a task; returns immediately.
  void Submit(std::function<void()> task) EXCLUDES(mutex_);

  /// Enqueues a task with a per-task completion notification: `on_done`
  /// runs on the worker thread immediately after `task` returns — or after
  /// it throws, so completion is delivered even for failing tasks. This is
  /// what lets the engine complete per-request futures without waiting for
  /// a whole batch to drain.
  ///
  /// `should_run` (optional) makes the task conditional: the worker calls
  /// it once, right before running the task, outside the queue lock. When
  /// it returns false the task body is skipped entirely and the worker goes
  /// straight to `on_done` — a task obsoleted while queued (a cancelled
  /// request) costs the pool a function call, not an execution.
  void Submit(std::function<void()> task, std::function<void()> on_done,
              std::function<bool()> should_run = nullptr) EXCLUDES(mutex_);

  /// Hands `help` to at most `max_helpers` workers that are idle right now
  /// — blocked for work, with no queued task already headed their way — and
  /// returns how many took it (0 on a saturated pool). Each calls `help`
  /// once. A help call never delays a submitted task: workers take queued
  /// tasks first, and has_queued_tasks() tells a running help call to hand
  /// its worker back. Help calls count as busy workers and extend WaitIdle,
  /// but not tasks_completed. This is how a lone request borrows the pool's
  /// idle workers for its own morsels.
  int OfferHelp(int max_helpers, const std::function<void()>& help)
      EXCLUDES(mutex_);

  /// Workers OfferHelp would hand a help call to right now.
  int idle_workers() const EXCLUDES(mutex_);

  /// True while submitted tasks wait in the queue (lock-free).
  bool has_queued_tasks() const {
    return queued_tasks_.load(std::memory_order_relaxed) > 0;
  }

  /// Blocks until every task submitted so far has finished (tasks enqueued
  /// by other threads while waiting extend the wait).
  void WaitIdle() EXCLUDES(mutex_);

 private:
  struct Task {
    std::function<void()> run;
    std::function<void()> on_done;     // may be null
    std::function<bool()> should_run;  // may be null (always run)
  };

  void WorkerLoop() EXCLUDES(mutex_);
  // Waiting workers no queued task or help call is already headed to.
  int IdleLocked() const REQUIRES(mutex_);

  std::atomic<int> busy_workers_{0};
  std::atomic<uint64_t> tasks_completed_{0};
  std::atomic<size_t> queued_tasks_{0};  // mirrors queue_.size()
  mutable Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<Task> queue_ GUARDED_BY(mutex_);
  std::deque<std::function<void()>> help_queue_ GUARDED_BY(mutex_);
  int waiting_workers_ GUARDED_BY(mutex_) = 0;  // blocked for work
  // Queued + currently running, tasks and help calls alike.
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace touch

#endif  // TOUCH_ENGINE_WORKER_POOL_H_
