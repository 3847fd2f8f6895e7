#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace just {

/// One ParallelFor. The caller owns a reference for the whole call and
/// each queued helper entry owns one, so a helper that is woken after the
/// caller returned finds the job closed and touches nothing of the
/// caller's: `fn` is dereferenced only by helpers that entered before the
/// job closed, and the caller waits for exactly those.
struct ThreadPool::Job : std::enable_shared_from_this<ThreadPool::Job> {
  Job(ThreadPool* pool, size_t n, const std::function<void(size_t)>* fn)
      : pool(pool), n(n), fn(fn) {}

  /// Claims indices from the shared cursor and runs them until none are
  /// left; returns how many it ran.
  size_t RunIndices() {
    size_t ran = 0;
    for (size_t i; (i = next.fetch_add(1)) < n;) {
      (*fn)(i);
      ++ran;
    }
    return ran;
  }

  ThreadPool* const pool;
  const size_t n;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  bool spread = false;  ///< only the calling thread reads or writes it

  std::mutex mu;
  std::condition_variable idle;
  size_t active = 0;    ///< helpers inside the job
  size_t joined = 0;    ///< helpers that ran at least one index
  bool closed = false;  ///< the caller ran out of indices; no one may enter
};

thread_local ThreadPool::Job* ThreadPool::current_ = nullptr;

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      std::lock_guard<std::mutex> lock(job->mu);
      if (job->closed) continue;  // the caller finished without us
      ++job->active;
    }
    const size_t ran = job->RunIndices();
    std::lock_guard<std::mutex> lock(job->mu);
    if (ran > 0) ++job->joined;
    if (--job->active == 0 && job->closed) job->idle.notify_one();
  }
}

void ThreadPool::SpreadJob(Job* job) {
  if (job->spread) return;
  job->spread = true;
  const size_t claimed =
      std::min(job->n, job->next.load());
  const size_t helpers = std::min(job->n - claimed, num_threads());
  if (helpers == 0) return;
  std::shared_ptr<Job> shared = job->shared_from_this();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) queue_.push_back(shared);
  }
  for (size_t h = 0; h < helpers; ++h) cv_.notify_one();
}

void ThreadPool::SpreadIfSlow() {
  Job* job = current_;
  if (job == nullptr || job->spread) return;
  if (std::chrono::steady_clock::now() - job->start >= kSpreadAfter) {
    job->pool->SpreadJob(job);
  }
}

void ThreadPool::Spread() {
  if (current_ != nullptr) current_->pool->SpreadJob(current_);
}

size_t ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                               bool spread_now) {
  if (n == 0) return 0;
  auto job = std::make_shared<Job>(this, n, &fn);
  Job* const outer = current_;
  current_ = job.get();
  if (spread_now) SpreadJob(job.get());
  for (size_t i; (i = job->next.fetch_add(1)) < n;) {
    if (!job->spread &&
        std::chrono::steady_clock::now() - job->start >= kSpreadAfter) {
      SpreadJob(job.get());
    }
    fn(i);
  }
  current_ = outer;
  std::unique_lock<std::mutex> lock(job->mu);
  job->closed = true;
  job->idle.wait(lock, [&] { return job->active == 0; });
  return job->joined;
}

ThreadPool& DefaultPool() {
  static ThreadPool* pool =
      new ThreadPool(std::thread::hardware_concurrency());
  return *pool;
}

}  // namespace just
