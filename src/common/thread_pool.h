#ifndef JUST_COMMON_THREAD_POOL_H_
#define JUST_COMMON_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace just {

/// Fixed-size worker pool used to fan out parallel SCANs across region
/// servers (the role Spark executors play in the paper's data flow).
///
/// Jobs are caller-first: the calling thread runs a job's indices itself,
/// and pool helpers are woken only once the job *spreads*, i.e. has proved
/// slower than a hand-off to them costs. A small in-process scan therefore
/// runs on the thread that asked for it, with no wake-up or sleep.
class ThreadPool {
 public:
  /// Job time on the caller after which its remaining indices spread to
  /// helpers. A hand-off costs about 40 us of CPU (an in-process Fig 12
  /// scan: 0.31 ms with four pool hand-offs, 0.135 ms run serially), so a
  /// job that has not finished by then is worth sharing.
  static constexpr std::chrono::microseconds kSpreadAfter{50};

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) once for each i in [0, n) and returns when all have run.
  /// The calling thread claims indices in order and runs them; the job
  /// spreads when the caller starts an index after kSpreadAfter of job
  /// time, when fn calls SpreadIfSlow() past that time or Spread(), or at
  /// once if `spread_now`. Spreading wakes min(indices left, threads)
  /// helpers, which claim indices from the same cursor. fn may call
  /// ParallelFor again (nested jobs run the same way). Returns the number
  /// of helpers that ran part of the job.
  size_t ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                     bool spread_now = false);

  /// For fn on a job's calling thread: spreads the job if it has run for
  /// kSpreadAfter. A no-op on any other thread, so it is cheap to call
  /// from a per-row loop (a clock read when it acts).
  static void SpreadIfSlow();
  /// For fn on a job's calling thread that is about to block (a retry
  /// backoff): spreads the job now. A no-op on any other thread.
  static void Spread();

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Job;

  /// Wakes helpers for `job`'s unclaimed indices, once per job.
  void SpreadJob(Job* job);
  void WorkerLoop();

  /// The innermost job this thread is the caller of; null on a helper
  /// running another thread's job.
  static thread_local Job* current_;

  std::vector<std::thread> workers_;
  std::deque<std::shared_ptr<Job>> queue_;  ///< one entry per woken helper
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool sized to the hardware concurrency.
ThreadPool& DefaultPool();

}  // namespace just

#endif  // JUST_COMMON_THREAD_POOL_H_
