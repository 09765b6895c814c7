// Work-sharded thread pool backing every parallel stage of the library
// (HN transform line fan-out, noise injection, batched query
// serving). The design contract is determinism: ParallelFor executes a
// caller-chosen chunking of [0, n) and which thread runs which chunk is
// the ONLY scheduling freedom, so any computation whose chunks touch
// disjoint state produces bit-identical results for every pool size —
// including no pool at all (the serial fallback runs the same chunks in
// index order).
#ifndef PRIVELET_COMMON_THREAD_POOL_H_
#define PRIVELET_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace privelet::common {

/// Fixed-size worker pool. Construction spawns the workers; destruction
/// drains queued work and joins them. All public methods are safe to call
/// from multiple threads concurrently (ParallelFor calls from different
/// threads interleave on the shared workers without blocking each other).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Runs body(begin, end) over chunks covering [0, n) and returns when
  /// all chunks have finished. `grain` > 0 fixes the chunking to
  /// [i*grain, min((i+1)*grain, n)) — callers that derive per-chunk state
  /// from the chunk index rely on this; `grain` == 0
  /// lets the pool pick a chunking (an implementation detail that must not
  /// affect results). The calling thread participates in chunk execution,
  /// so nested ParallelFor calls from inside a body cannot deadlock. `body`
  /// must tolerate concurrent invocation on distinct chunks and must not
  /// throw.
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body);

  /// max(1, std::thread::hardware_concurrency()) — the conventional pool
  /// size for compute-bound work.
  static std::size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Serial-tolerant entry point used throughout the library: with a pool it
/// forwards to pool->ParallelFor; with nullptr it runs the same chunk
/// sequence inline in index order. Either way the chunk boundaries (for
/// grain > 0) are identical, so sharded computations are bit-identical
/// with and without a pool.
void ParallelFor(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace privelet::common

#endif  // PRIVELET_COMMON_THREAD_POOL_H_
