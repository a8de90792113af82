#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace epfis {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksToCompletion) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsTaskResult) {
  ThreadPool pool(2);
  auto f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
  auto g = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(g.get(), "ok");
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that ran the throwing task is still alive.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++counter;
      });
    }
    // Destructor must run all 20 queued tasks before joining.
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, TasksRunConcurrentlyAcrossWorkers) {
  // Two tasks that each wait for the other prove two workers are live.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived] {
    ++arrived;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto a = pool.Submit(rendezvous);
  auto b = pool.Submit(rendezvous);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace epfis
