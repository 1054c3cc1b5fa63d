#include "engine/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>

namespace touch {
namespace {

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPoolTest, CompletionNotificationRunsAfterItsTask) {
  WorkerPool pool(2);
  std::atomic<bool> task_ran{false};
  std::promise<bool> order;
  pool.Submit([&task_ran] { task_ran = true; },
              [&] { order.set_value(task_ran.load()); });
  // The notification fires per task — observable without WaitIdle.
  EXPECT_TRUE(order.get_future().get());
}

TEST(WorkerPoolTest, CompletionNotificationRunsWhenTheTaskThrows) {
  WorkerPool pool(1);
  std::promise<void> done;
  pool.Submit([]() -> void { throw std::runtime_error("task failed"); },
              [&done] { done.set_value(); });
  done.get_future().wait();  // hangs (and times out the test) if dropped
  pool.WaitIdle();           // in_flight_ bookkeeping survived the throw
}

TEST(WorkerPoolTest, EveryTaskGetsItsOwnNotification) {
  WorkerPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> notified{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([] {},
                [&notified] { notified.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitIdle();
  EXPECT_EQ(notified.load(), kTasks);
}

TEST(WorkerPoolTest, ShouldRunFalseSkipsTheTaskButStillNotifies) {
  WorkerPool pool(1);
  std::atomic<bool> task_ran{false};
  std::promise<void> done;
  pool.Submit([&task_ran] { task_ran = true; },
              [&done] { done.set_value(); },
              [] { return false; });
  done.get_future().wait();
  EXPECT_FALSE(task_ran.load());
  pool.WaitIdle();  // in_flight_ bookkeeping covered the skipped task
}

TEST(WorkerPoolTest, ShouldRunIsConsultedOncePerTaskAtPopTime) {
  WorkerPool pool(2);
  constexpr int kTasks = 100;
  std::atomic<int> consulted{0};
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                nullptr,
                [&consulted, i] {
                  consulted.fetch_add(1, std::memory_order_relaxed);
                  return i % 2 == 0;  // every odd task is obsolete
                });
  }
  pool.WaitIdle();
  EXPECT_EQ(consulted.load(), kTasks);
  EXPECT_EQ(ran.load(), kTasks / 2);
}

TEST(WorkerPoolTest, DestructorDrainsPendingTasksAndNotifications) {
  std::atomic<int> ran{0};
  std::atomic<int> notified{0};
  {
    WorkerPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                  [&notified] {
                    notified.fetch_add(1, std::memory_order_relaxed);
                  });
    }
  }  // destructor joins after the queue drained
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(notified.load(), 50);
}

// --- Introspection (the metrics providers' data source) ---------------------

TEST(WorkerPoolTest, QueueDepthAndBusyWorkersObserveASaturatedPool) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_workers(), 0);

  std::promise<void> reached;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  pool.Submit([&reached, release_future] {
    reached.set_value();
    release_future.wait();
  });
  reached.get_future().wait();
  // The single worker is parked inside its task; everything behind it
  // queues deterministically.
  EXPECT_EQ(pool.busy_workers(), 1);
  for (int i = 0; i < 3; ++i) pool.Submit([] {});
  EXPECT_EQ(pool.queue_depth(), 3u);

  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_workers(), 0);
}

TEST(WorkerPoolTest, TasksCompletedCountsRunAndSkippedTasks) {
  WorkerPool pool(2);
  for (int i = 0; i < 40; ++i) pool.Submit([] {});
  // Skipped tasks (should_run false at pop) still count as completed: the
  // counter tracks queue throughput, not work performed.
  for (int i = 0; i < 10; ++i) {
    pool.Submit([] {}, nullptr, [] { return false; });
  }
  pool.WaitIdle();
  EXPECT_EQ(pool.tasks_completed(), 50u);
}

// OfferHelp lends only workers that are idle right now: on a saturated
// pool nobody takes the help, and every worker that did take it calls it
// exactly once.
TEST(WorkerPoolTest, OfferHelpGoesOnlyToIdleWorkers) {
  WorkerPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();
  std::atomic<int> helped{0};
  EXPECT_EQ(pool.OfferHelp(4, [&helped] { ++helped; }), 0);
  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(helped.load(), 0);

  WorkerPool wide(3);
  const int offered = wide.OfferHelp(8, [&helped] { ++helped; });
  EXPECT_GE(offered, 0);
  EXPECT_LE(offered, 3);
  wide.WaitIdle();  // help calls count as in flight
  EXPECT_EQ(helped.load(), offered);
}

// has_queued_tasks() is what tells a helper to hand its worker back.
TEST(WorkerPoolTest, HasQueuedTasksSeesWaitingSubmissions) {
  WorkerPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([&started, released] {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();
  EXPECT_FALSE(pool.has_queued_tasks());
  pool.Submit([] {});
  EXPECT_TRUE(pool.has_queued_tasks());
  release.set_value();
  pool.WaitIdle();
  EXPECT_FALSE(pool.has_queued_tasks());
}

}  // namespace
}  // namespace touch
