#ifndef HQL_COMMON_THREAD_POOL_H_
#define HQL_COMMON_THREAD_POOL_H_

// A small fixed-size thread pool for fanning independent evaluation work
// across cores: one hypothetical alternative per task (opt/alternatives.h)
// or one columnar morsel per task (eval/vector_exec.cc). Tasks are plain
// std::function<void()>; results and errors travel through whatever state
// the task closes over. The pool is deliberately minimal: FIFO queue, no
// work stealing, no priorities — these callers produce a handful of coarse
// tasks, not millions of fine ones.
//
// A task that throws is caught and dropped: it never takes down a worker
// or deadlocks Wait() or the destructor, and later tasks run normally.
//
//   ThreadPool pool(4);
//   for (auto& item : items) pool.Submit([&item] { Process(&item); });
//   pool.Wait();

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hql {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1). Use
  /// DefaultThreads() for a hardware-sized pool.
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue (running every submitted task) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution on some worker. Thread-safe; may be
  /// called from inside a task.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. Does not stop
  /// the pool; more work may be submitted afterwards.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hql

#endif  // HQL_COMMON_THREAD_POOL_H_
