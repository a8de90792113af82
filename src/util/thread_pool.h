#ifndef EPFIS_UTIL_THREAD_POOL_H_
#define EPFIS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace epfis {

/// Small fixed-size worker pool used by the parallel statistics-collection
/// pipeline (parallel stack-distance sharding and RunLruFitBatch).
///
/// Tasks are arbitrary callables; Submit returns a std::future carrying the
/// task's result. Exceptions thrown by a task are captured in its future
/// and rethrown from future::get(), so a worker thread never dies from a
/// task failure. The queue is unbounded: the two callers bound their own
/// fan-out (an in-flight shard window, a fixed job list).
///
/// Do not block a pool task on the future of another task submitted to the
/// same pool: with all workers blocked waiting, the dependency can never be
/// scheduled (classic nested-parallelism deadlock). RunLruFitBatch forces
/// per-trace computation serial for exactly this reason.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue — every task submitted before destruction runs to
  /// completion — then joins the workers.
  ~ThreadPool();

  /// Schedules `f` and returns a future for its result.
  template <typename F>
  auto Submit(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> result = promise->get_future();
    auto fn = std::make_shared<F>(std::move(f));
    Enqueue([promise, fn] {
      try {
        if constexpr (std::is_void_v<R>) {
          (*fn)();
          promise->set_value();
        } else {
          promise->set_value((*fn)());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return result;
  }

  size_t num_threads() const { return workers_.size(); }

  /// Hardware concurrency, never less than 1.
  static size_t DefaultThreadCount();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // Guarded by mu_.
  bool stopping_ = false;                     // Guarded by mu_.
  std::vector<std::thread> workers_;
};

}  // namespace epfis

#endif  // EPFIS_UTIL_THREAD_POOL_H_
