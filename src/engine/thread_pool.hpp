// Fixed-size thread pool used by the portfolio race and the resilience
// supervisor that drives it.
//
// Deliberately work-stealing-free: a single mutex-protected FIFO queue
// feeds all workers, so tasks start in exactly the order they were
// submitted. The engine never relies on *completion* order anyway — every
// result is written to a caller-owned slot keyed by task index and winners
// are chosen by (cost, strategy index), so outputs are identical no matter
// how the OS schedules the workers.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace qmap {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 fall back to
  /// std::thread::hardware_concurrency() (itself clamped to >= 1).
  explicit ThreadPool(int num_threads = 0);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues a fire-and-forget task.
  void submit(std::function<void()> task);

  /// Enqueues a task and returns a future for its result. Exceptions
  /// thrown by the task surface on future.get().
  template <typename F>
  [[nodiscard]] auto async(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    submit([packaged] { (*packaged)(); });
    return future;
  }

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;      // tasks currently executing
  bool stopping_ = false;
};

}  // namespace qmap
