#include "common/thread_pool.h"

#include <algorithm>

namespace mosaic {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) wake_worker_.Wait(lock);
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      --scheduled_;
      if (scheduled_ == 0) all_done_.NotifyAll();
    }
  }
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (scheduled_ != 0) all_done_.Wait(lock);
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  wake_worker_.NotifyAll();
  // join_mu_ makes Shutdown safe to call from several threads: the
  // joinable() check and join() must be atomic per worker.
  MutexLock join_lock(join_mu_);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace mosaic
