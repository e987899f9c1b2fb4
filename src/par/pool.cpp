#include "par/pool.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "base/error.hpp"
#include "base/options.hpp"
#include "prof/profiler.hpp"

namespace kestrel::par {

namespace {

/// True on pool worker threads: their rank_pool() is always serial, so a
/// threaded spmv reached from inside a part runs inline instead of nesting.
thread_local bool t_pool_worker = false;

}  // namespace

int configured_threads() {
  if (t_pool_worker) return 1;
  std::int64_t n = Options::global().get_index("threads", 0);
  if (n <= 0) n = env_number("KESTREL_THREADS", std::int64_t{0});
  if (n <= 0) n = 1;
  // Kestrel Bastion: a request past the machine's core count would only
  // park oversubscribed workers on the scheduler; clamp it and say so once
  // instead of silently degrading every threaded kernel. The count is read
  // once: every threaded MatMult asks, and the query costs microseconds.
  static const std::int64_t hw =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  if (hw > 0 && n > hw) {
    static std::once_flag warned;
    std::call_once(warned, [&] {
      std::fprintf(stderr,
                   "kestrel: [flock] requested %lld threads exceeds "
                   "hardware_concurrency=%lld; clamping\n",
                   static_cast<long long>(n), static_cast<long long>(hw));
    });
    n = hw;
  }
  if (n > kMaxPoolThreads) n = kMaxPoolThreads;
  return static_cast<int>(n);
}

ThreadPool::ThreadPool(int nthreads) : nthreads_(nthreads) {
  KESTREL_CHECK(nthreads >= 1 && nthreads <= kMaxPoolThreads,
                "flock: pool size out of [1, 64]");
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int tid = 1; tid < nthreads; ++tid) {
    workers_.emplace_back([this, tid] { worker_main(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_impl(int nparts, JobFn fn, void* ctx) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = fn;
    ctx_ = ctx;
    nparts_ = nparts;
    job_prof_ = prof::attached();
    pending_ = nthreads_ - 1;
    ++epoch_;
  }
  cv_work_.notify_all();
  in_job_ = true;
  for (int p = 0; p < nparts; p += nthreads_) fn(ctx, p, 0);
  in_job_ = false;
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return pending_ == 0; });
}

void ThreadPool::worker_main(int tid) {
  t_pool_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    JobFn fn;
    void* ctx;
    int nparts;
    prof::Profiler* job_prof;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      fn = fn_;
      ctx = ctx_;
      nparts = nparts_;
      job_prof = job_prof_;
    }
    {
      // Record into the caller rank's profiler for the job's duration, so
      // spans/flops/hwc from inside a part are attributed per-rank, not to
      // a detached global.
      prof::AttachGuard guard(job_prof);
      for (int part = tid; part < nparts; part += nthreads_) {
        fn(ctx, part, tid);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::rank_pool() {
  thread_local std::unique_ptr<ThreadPool> pool;
  const int want = configured_threads();
  if (pool == nullptr || pool->nthreads() != want) {
    pool.reset();  // join the old workers before spawning the new set
    pool = std::make_unique<ThreadPool>(want);
  }
  return *pool;
}

}  // namespace kestrel::par
