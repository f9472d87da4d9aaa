// Deterministic thread-pool parallelism for the per-cycle hot paths.
//
// Design goals, in priority order:
//
//   1. **Bit-determinism across thread counts.** Work is split into chunks
//      whose layout depends only on (range size, grain) — never on the
//      number of threads. `parallel_for` writes disjoint outputs, and
//      `parallel_reduce` combines chunk partials in a fixed-shape ordered
//      binary tree, so every result is bit-identical whether it ran on 1
//      thread or 64.
//   2. **Serial fallback.** With one thread (`set_global_threads(1)`), a
//      single chunk, or inside an already-parallel region, all work runs
//      inline on the calling thread — same chunk order, same numerics, no
//      pool interaction.
//   3. **Coarse dispatch.** Chunks are meant to be large (thousands of
//      cells/rows); dispatch takes the pool mutex per chunk, which is
//      negligible at that granularity and keeps the pool logic simple
//      enough to audit.
//
// The global pool is sized by `set_global_threads` (0 = hardware
// concurrency); benches and the CLI expose this as `--threads`.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace atlas::util {

/// std::thread::hardware_concurrency, clamped to at least 1.
int hardware_concurrency();

/// Set the worker count for the global pool: 0 = hardware concurrency,
/// 1 = fully serial, N = exactly N threads (calling thread included).
void set_global_threads(int n);

/// The resolved global thread count (after the 0 -> hardware mapping).
int global_threads();

/// True while the calling thread is executing inside a parallel region;
/// nested parallel constructs run inline serially.
bool in_parallel_region();

/// Fixed-size pool of `num_threads - 1` workers; the caller of run()
/// participates as the final thread. Tasks are indexed 0..num_tasks-1 and
/// dispatched under a mutex (coarse chunks make this cheap).
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Run task(i) for i in [0, num_tasks); blocks until all complete.
  /// The first exception thrown by any task is rethrown here after the
  /// batch drains. Reentrant calls (from inside a task) run inline, and so
  /// does a call made while another thread's batch holds the pool; either
  /// way the tasks run inside a parallel region.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& task);

  /// The process-wide pool, sized by set_global_threads().
  static ThreadPool& global();

 private:
  struct Batch {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t total = 0;
    std::size_t next = 0;  // guarded by pool mutex
    std::size_t done = 0;  // guarded by pool mutex
    std::exception_ptr error;
    // When the batch was posted; chunk start minus this is the queue wait
    // exported as atlas_parallel_task_queue_wait_us.
    std::chrono::steady_clock::time_point posted_at;
  };

  void worker_loop();
  void execute(Batch& b, std::size_t index);

  int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // wakes workers
  std::condition_variable done_cv_;  // wakes the caller of run()
  Batch* batch_ = nullptr;           // current batch, null when idle
  bool stop_ = false;
};

/// Chunk layout shared by all parallel primitives: depends only on the
/// range size and grain, never on the thread count.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

/// Run fn(chunk_begin, chunk_end) over [0, n) in chunks of `grain`.
/// Chunks execute concurrently but each chunk iterates in index order, so
/// disjoint per-index writes are bit-identical to the serial loop.
template <typename Fn>
void parallel_for_chunks(std::size_t n, std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  if (grain < 1) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);
  auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    fn(begin, end);
  };
  if (chunks == 1) {
    run_chunk(0);
    return;
  }
  ThreadPool::global().run(chunks, run_chunk);
}

/// Run fn(i) for each i in [0, n), split into chunks of `grain`.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
  parallel_for_chunks(n, grain, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Ordered deterministic reduction over [0, n):
///
///   map(chunk_begin, chunk_end) -> T   computes one chunk partial (callers
///                                      fold serially inside the chunk);
///   combine(T, T) -> T                 merges partials pairwise in a
///                                      fixed-shape left-to-right binary
///                                      tree over ascending chunk indices.
///
/// Because the chunk layout and the tree shape depend only on (n, grain),
/// the result is bit-identical for every thread count — including floating
/// point, where `combine` is not associative. Returns `identity` for an
/// empty range; a single chunk returns map(0, n) unchanged, i.e. exactly
/// the serial fold.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t n, std::size_t grain, T identity, MapFn&& map,
                  CombineFn&& combine) {
  if (n == 0) return identity;
  if (grain < 1) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 1) return map(static_cast<std::size_t>(0), n);

  std::vector<T> partials(chunks, identity);
  parallel_for_chunks(n, grain, [&](std::size_t begin, std::size_t end) {
    partials[begin / grain] = map(begin, end);
  });

  // Fixed-shape pairwise tree: (((p0,p1),(p2,p3)),...) with odd tails
  // carried upward untouched. Shape is a function of `chunks` only.
  std::size_t width = chunks;
  while (width > 1) {
    const std::size_t half = width / 2;
    for (std::size_t i = 0; i < half; ++i) {
      partials[i] = combine(std::move(partials[2 * i]),
                            std::move(partials[2 * i + 1]));
    }
    if (width % 2 != 0) partials[half] = std::move(partials[width - 1]);
    width = half + width % 2;
  }
  return std::move(partials[0]);
}

}  // namespace atlas::util
