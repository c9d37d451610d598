#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace mosaic {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitBlocksUntilQueueDrains) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++done;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, DestructorDrainsPendingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++done;
      });
    }
  }
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  auto id = std::this_thread::get_id();
  auto f = pool.Submit([id] { return std::this_thread::get_id() == id; });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPool, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ShutdownWithPendingWorkDrainsEverything) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    }));
  }
  // Shutdown must finish the queue, not drop it.
  pool.Shutdown();
  EXPECT_EQ(done.load(), 32);
  for (auto& f : futures) f.get();  // no broken promises
  // And the pool still accepts (inline) work afterwards.
  EXPECT_EQ(pool.Submit([] { return 3; }).get(), 3);
}

TEST(ThreadPool, ConcurrentShutdownWithPendingWorkIsSafe) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 24; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  }
  // Several threads race Shutdown while the queue is non-empty.
  std::vector<std::thread> closers;
  for (int i = 0; i < 3; ++i) {
    closers.emplace_back([&pool] { pool.Shutdown(); });
  }
  for (auto& t : closers) t.join();
  EXPECT_EQ(done.load(), 24);
}

TEST(ThreadPool, ManyProducersOneQueue) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &sum] {
      for (int i = 1; i <= 250; ++i) {
        pool.Submit([&sum, i] { sum += i; });
      }
    });
  }
  for (auto& t : producers) t.join();
  pool.Wait();
  EXPECT_EQ(sum.load(), 4L * 250 * 251 / 2);
}

}  // namespace
}  // namespace mosaic
