#include "util/parallel.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace atlas::util {

namespace {

// Pool observability. Chunks are coarse by design (thousands of cells per
// chunk), so a pair of steady_clock reads per chunk and a relaxed
// fetch_add per batch are noise next to the work being dispatched.
// References are cached once; the registry series outlive the pool.
struct PoolMetrics {
  obs::Counter& batches;        // pool batches dispatched (incl. inline)
  obs::Counter& tasks;          // chunk tasks executed
  obs::Counter& inline_tasks;   // tasks run inline (serial/nested/fallback)
  obs::Counter& busy_us;        // summed per-worker chunk execution time
  obs::Histogram& queue_wait;   // us between batch post and chunk start
};

PoolMetrics& pool_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static PoolMetrics* m = new PoolMetrics{
      reg.counter("atlas_parallel_batches_total"),
      reg.counter("atlas_parallel_tasks_total"),
      reg.counter("atlas_parallel_inline_tasks_total"),
      reg.counter("atlas_parallel_worker_busy_us_total"),
      reg.histogram("atlas_parallel_task_queue_wait_us")};
  return *m;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// Global pool configuration. The pool is rebuilt lazily when the requested
// thread count changes; benches/tests call set_global_threads() from the
// main thread before spawning parallel work.
std::mutex g_config_mu;
int g_requested_threads = 0;  // 0 = hardware concurrency
std::unique_ptr<ThreadPool> g_pool;

int resolve(int requested) {
  return requested <= 0 ? hardware_concurrency() : requested;
}

// Depth of nested parallel regions on this thread; > 0 means "run inline".
thread_local int tl_parallel_depth = 0;

// Run task(0..num_tasks) on the calling thread, in index order, as a
// parallel region: parallel constructs inside the tasks run inline too.
void run_inline(std::size_t num_tasks,
                const std::function<void(std::size_t)>& task) {
  PoolMetrics& pm = pool_metrics();
  pm.batches.inc();
  pm.inline_tasks.inc(num_tasks);
  ++tl_parallel_depth;
  try {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
  } catch (...) {
    --tl_parallel_depth;
    throw;
  }
  --tl_parallel_depth;
}

}  // namespace

int hardware_concurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void set_global_threads(int n) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_requested_threads = n < 0 ? 0 : n;
  if (g_pool && g_pool->num_threads() != resolve(g_requested_threads)) {
    g_pool.reset();  // rebuilt at next global() call with the new size
  }
}

int global_threads() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return resolve(g_requested_threads);
}

bool in_parallel_region() { return tl_parallel_depth > 0; }

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(resolve(g_requested_threads));
  }
  return *g_pool;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::execute(Batch& b, std::size_t index) {
  PoolMetrics& pm = pool_metrics();
  const auto start = std::chrono::steady_clock::now();
  pm.queue_wait.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(start -
                                                            b.posted_at)
          .count()));
  ++tl_parallel_depth;
  try {
    (*b.task)(index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!b.error) b.error = std::current_exception();
  }
  --tl_parallel_depth;
  pm.tasks.inc();
  pm.busy_us.inc(elapsed_us(start));
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || (batch_ != nullptr && batch_->next < batch_->total);
    });
    if (stop_) return;
    Batch& b = *batch_;
    const std::size_t index = b.next++;
    lock.unlock();
    execute(b, index);
    lock.lock();
    if (++b.done == b.total) {
      if (batch_ == &b) batch_ = nullptr;
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t num_tasks,
                     const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  // Serial pool, single task, or nested call: run inline in index order.
  if (num_threads_ == 1 || num_tasks == 1 || tl_parallel_depth > 0) {
    run_inline(num_tasks, task);
    return;
  }

  Batch b;
  b.task = &task;
  b.total = num_tasks;
  std::unique_lock<std::mutex> lock(mu_);
  if (batch_ != nullptr) {
    // A concurrent external run() is already in flight; don't interleave
    // two batches — just run this one inline.
    lock.unlock();
    run_inline(num_tasks, task);
    return;
  }
  PoolMetrics& pm = pool_metrics();
  obs::ObsSpan span("parallel", "pool_batch");
  pm.batches.inc();
  b.posted_at = std::chrono::steady_clock::now();
  batch_ = &b;
  work_cv_.notify_all();

  // The caller participates until the task queue drains...
  while (b.next < b.total) {
    const std::size_t index = b.next++;
    lock.unlock();
    execute(b, index);
    lock.lock();
    if (++b.done == b.total) {
      if (batch_ == &b) batch_ = nullptr;
      done_cv_.notify_all();
    }
  }
  // ...then waits for in-flight chunks on the workers.
  done_cv_.wait(lock, [&b] { return b.done == b.total; });
  if (batch_ == &b) batch_ = nullptr;
  if (b.error) std::rethrow_exception(b.error);
}

}  // namespace atlas::util
