// Minimal fixed-size thread pool with a parallel_for helper.
//
// Used to parallelise embarrassingly parallel experiment work (per-sample
// coverage masks, attack trials). Determinism rule: parallel_for partitions
// work by index, and all per-index randomness is derived from (seed, index),
// so results are independent of thread count and scheduling.
#ifndef DNNV_UTIL_THREAD_POOL_H_
#define DNNV_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dnnv {

/// Fixed-size worker pool. Tasks are std::function<void()>; exceptions thrown
/// by tasks are captured and rethrown from wait_all()/parallel_for().
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished; rethrows the first
  /// captured task exception (if any). After the rethrow the pool is fully
  /// reusable: the error slot is cleared and the workers keep running.
  ///
  /// Note: waits for ALL tasks in flight, including other callers'. Code
  /// that shares the pool with concurrent producers (predict_all) should
  /// track its own tasks with a TaskGroup instead.
  void wait_all();

  /// Runs body(i) for i in [0, count) across the pool and waits.
  /// body must be safe to invoke concurrently for distinct i.
  ///
  /// Work is split into at most num_threads() * 4 contiguous-range chunks
  /// (static partition), not one std::function per index — per-mask
  /// workloads with ~1e5 cheap indices measure the difference. Determinism:
  /// each index runs exactly once, so index-seeded work is schedule-invariant.
  /// The chunks rebalance mildly uneven per-index costs, but an index space
  /// sorted by cost class defeats them: all the costly indices land in one
  /// chunk on one thread. Deal such work round-robin onto lanes and run
  /// parallel_for over the lanes instead, as fault::FaultSimulator does
  /// with its layer-sorted fault universe.
  ///
  /// Nested use is safe AND parallel (bounded work-splitting): the caller
  /// claims chunks from a shared atomic cursor itself while idle workers
  /// help through queued helper tasks, so a GEMM tiled from inside a pool
  /// worker (a validation-service lane, an outer parallel_for chunk) still
  /// spreads across free threads instead of falling back to serial. The
  /// wait condition is "all chunks executed", which the caller can satisfy
  /// alone — helpers that arrive late find no work and return, so no
  /// combination of nesting and pool saturation can deadlock. Splitting is
  /// depth-bounded: at two active parallel_for levels on a thread, deeper
  /// calls run inline (two levels already cover the pool).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// True when the calling thread is a worker of any ThreadPool. Callers can
  /// use it to pick batch shapes; parallel_for itself no longer serializes
  /// on it (see above).
  static bool in_worker();

  /// Process-wide shared pool (created on first use, hardware concurrency).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Tracks a private set of tasks on a shared ThreadPool. Unlike
/// ThreadPool::wait_all(), TaskGroup::wait() blocks only for the tasks
/// submitted through THIS group and rethrows only their errors, so several
/// producers (predict_all replays, a bench driver) can share one pool
/// without waiting on — or stealing exceptions from — each other's work
/// queues.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  /// Waits for any still-pending tasks; a pending error is dropped (call
  /// wait() yourself to observe it).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` to the pool, tracked by this group. Task exceptions are
  /// captured per group and rethrown from wait().
  void run(std::function<void()> task);

  /// Blocks until every task submitted through run() has finished, then
  /// rethrows the group's first captured exception (if any). The group is
  /// reusable afterwards.
  void wait();

  /// Tasks submitted but not yet finished.
  std::size_t pending() const;

 private:
  ThreadPool& pool_;
  mutable std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
};

}  // namespace dnnv

#endif  // DNNV_UTIL_THREAD_POOL_H_
