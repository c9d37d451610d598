// A general-purpose fixed-size worker pool: callers Submit callables
// and get std::futures back; the destructor drains the queue and
// joins the workers (graceful shutdown).
//
// Two pools of this kind serve the query service
// (service/query_service.h):
//   - the request pool runs whole statements, one statement per
//     task, fanned out from sessions and the network server;
//   - the generation pool produces an OPEN query's generated samples
//     in parallel (core::OpenWorld, core/open_world.h).
// They are two pools because a request task blocks on the futures of
// its generation tasks. Were those queued on the request pool, every
// worker could end up waiting on work queued behind itself, and the
// pool would deadlock. A task must never block on futures served by
// its own pool.
#ifndef MOSAIC_COMMON_THREAD_POOL_H_
#define MOSAIC_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/synchronization.h"

namespace mosaic {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  /// Drains remaining queued tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a callable; returns a future for its result. Tasks
  /// submitted after Shutdown() run inline on the calling thread (the
  /// pool never silently drops work).
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mu_);
      if (!accepting_) {
        lock.Unlock();
        (*task)();
        return future;
      }
      queue_.emplace_back([task] { (*task)(); });
      ++scheduled_;
    }
    wake_worker_.NotifyOne();
    return future;
  }

  /// Blocks until every task submitted so far has finished.
  void Wait();

  /// Stop accepting new tasks, finish the queue, join the workers.
  /// Idempotent; also called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  Mutex mu_;
  /// Serializes concurrent Shutdown() callers over the join loop.
  Mutex join_mu_;
  CondVar wake_worker_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  /// Written only in the constructor (before any sharing), joined
  /// under join_mu_; num_threads() reads it lock-free.
  std::vector<std::thread> workers_;
  size_t scheduled_ GUARDED_BY(mu_) = 0;  ///< queued + running
  bool accepting_ GUARDED_BY(mu_) = true;
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_THREAD_POOL_H_
