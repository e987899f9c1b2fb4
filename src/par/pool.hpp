#pragma once
// Kestrel Flock: the per-rank thread pool behind every threaded SpMV.
//
// One pool per fabric-rank thread (see rank_pool), holding a fixed set of
// workers that park on a condition variable between jobs — no spawn cost on
// the hot path, no spinning while the rank is doing scalar work. A job is
// `run(nparts, body)`: the caller participates as thread id 0 and workers
// take ids 1..n-1, each executing the parts with part % nthreads == tid, so
// the mapping from partition to thread is deterministic for a given thread
// count. run() returns only after every part finished (parked-wait
// barrier), which is what lets callers pass stack lambdas capturing live
// kernel views.
//
// Profiler/Pulse correctness: the caller's attached prof::Profiler is
// re-attached on each worker for the duration of the job, so spans and hwc
// counter groups recorded inside a part land in the right per-rank profiler
// (hwc samplers are thread_local and open lazily per worker). The profiler
// itself keeps per-thread running stacks, so concurrent begin/end from pool
// workers neither race nor double-count.
//
// Nesting: pool workers are marked with a thread_local flag and
// rank_pool() hands them a serial (1-thread) pool, so library code that
// reaches a threaded spmv from inside a part degrades to inline execution
// instead of deadlocking or oversubscribing.
//
// Library code reaches the pool only through the two runners at the end of
// this header: for_each_part runs a format's planned FlockPartition, and
// for_each_chunk splits an element loop. Both run inline on the caller when
// there is nothing to split, so a 1-thread MatMult never looks the pool up
// (lint rule flock-pool-safety keeps every other rank_pool() call out of
// src/).

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "base/types.hpp"
#include "mat/partition.hpp"

namespace kestrel::prof {
class Profiler;
}

namespace kestrel::par {

/// Hard ceiling on -threads: partial-reduction scratch in the threaded
/// ABFT/verify paths is stack-sized to this.
inline constexpr int kMaxPoolThreads = 64;

/// The rank's thread count: `-threads N` (Options::global()), else the
/// KESTREL_THREADS environment variable, else 1; clamped to
/// [1, kMaxPoolThreads]. A KESTREL_THREADS value that is empty or not
/// wholly an integer throws (env_number). Pool workers always read 1 (see
/// header comment).
int configured_threads();

class ThreadPool {
 public:
  /// Spawns nthreads-1 parked workers (the caller is thread 0); nthreads==1
  /// spawns none and run() is a plain serial loop.
  explicit ThreadPool(int nthreads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int nthreads() const { return nthreads_; }

  /// Executes body(part, tid) for every part in [0, nparts), part p on
  /// thread p % nthreads(). Synchronous: returns after the last part.
  /// Must not be called again from inside a body on the same pool —
  /// rank_pool() gives workers a serial pool, which makes nested library
  /// calls safe; a direct recursive call on the caller thread falls back to
  /// serial execution.
  template <class F>
  void run(int nparts, F&& body) {
    if (nparts <= 0) return;
    if (nthreads_ == 1 || nparts == 1 || in_job_) {
      for (int p = 0; p < nparts; ++p) body(p, 0);
      return;
    }
    using Body = std::remove_reference_t<F>;
    run_impl(nparts,
             [](void* ctx, int part, int tid) {
               (*static_cast<Body*>(ctx))(part, tid);
             },
             &body);
  }

  /// The calling rank-thread's pool, created on first use and rebuilt when
  /// configured_threads() changes (e.g. bench_threads resetting -threads
  /// between sweeps). Pool workers get a serial instance.
  static ThreadPool& rank_pool();

 private:
  using JobFn = void (*)(void* ctx, int part, int tid);

  void run_impl(int nparts, JobFn fn, void* ctx);
  void worker_main(int tid);

  const int nthreads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;  ///< workers park here between jobs
  std::condition_variable cv_done_;  ///< caller parks here until pending_==0
  std::uint64_t epoch_ = 0;          ///< bumped per job; workers wake on !=
  int pending_ = 0;                  ///< workers still inside the job
  bool stop_ = false;
  JobFn fn_ = nullptr;
  void* ctx_ = nullptr;
  int nparts_ = 0;
  prof::Profiler* job_prof_ = nullptr;  ///< caller's attachment, per job

  bool in_job_ = false;  ///< caller-thread reentrancy guard
};

/// Runs body(p, begin, end) for every non-empty part p of a planned
/// partition. A partition of at most one part runs inline on the caller
/// without looking the pool up; otherwise part p runs on thread
/// p % nthreads of rank_pool().
template <class F>
void for_each_part(const mat::FlockPartition& part, F&& body) {
  if (part.serial()) {
    if (part.nparts() == 1 && part.begin(0) < part.end(0)) {
      body(0, part.begin(0), part.end(0));
    }
    return;
  }
  ThreadPool::rank_pool().run(part.nparts(), [&](int p, int) {
    if (part.begin(p) < part.end(p)) body(p, part.begin(p), part.end(p));
  });
}

/// Below this many elements for_each_chunk stays serial: the pool's
/// barrier costs more than the scan.
inline constexpr Index kPoolElemCutoff = 4096;

/// Splits [0, n) into chunks and runs body(p, begin, end) on chunk p,
/// returning the chunk count. One chunk, run inline, when n is below
/// kPoolElemCutoff (tested before the pool lookup) or the pool is serial.
/// Otherwise chunks are a multiple of kZmmDoubles taken only from
/// (n, nthreads), so each chunk's bounds, and any partial result kept per
/// chunk, are deterministic for a thread count whichever worker runs it;
/// at most nthreads <= kMaxPoolThreads chunks, none empty. Allocates
/// nothing.
template <class F>
int for_each_chunk(Index n, F&& body) {
  ThreadPool* pool = n < kPoolElemCutoff ? nullptr : &ThreadPool::rank_pool();
  if (pool == nullptr || pool->nthreads() == 1) {
    body(0, Index{0}, n);
    return 1;
  }
  const int nthreads = pool->nthreads();
  const Index per = (n + nthreads - 1) / nthreads;
  const Index chunk = (per + kZmmDoubles - 1) / kZmmDoubles * kZmmDoubles;
  const int nchunks = static_cast<int>((n + chunk - 1) / chunk);
  pool->run(nchunks, [&](int p, int) {
    const Index begin = static_cast<Index>(p) * chunk;
    body(p, begin, std::min(n, begin + chunk));
  });
  return nchunks;
}

}  // namespace kestrel::par
