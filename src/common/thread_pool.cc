#include "common/thread_pool.h"

#include <algorithm>

namespace seqdet {

namespace {

/// The pool the current thread is a worker of, if any. Set for the lifetime
/// of WorkerLoop; ParallelFor consults it to detect reentrant calls.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) cv_.Wait(mu_);
      if (stop_ && tasks_.empty()) break;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Counted before the run: the task makes its future ready, and a
    // caller woken by that future must already see it in stats().
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
  t_worker_pool = nullptr;
}

bool ThreadPool::OnWorkerThread() const { return t_worker_pool == this; }

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (OnWorkerThread()) {
    // Reentrant call from one of our own workers: run inline. Submitting
    // and blocking here would wait on futures only this pool can serve —
    // with every worker potentially doing the same, nobody would ever run
    // them (guaranteed on a 1-thread pool, load-dependent otherwise).
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  size_t chunks = std::min(n, num_threads());
  size_t per_chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (size_t c = 0; c < chunks; ++c) {
    size_t begin = c * per_chunk;
    size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    futures.push_back(Submit([begin, end, &fn] {
      for (size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  for (auto& f : futures) f.get();
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats out;
  out.threads = workers_.size();
  out.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  out.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    out.queue_depth = tasks_.size();
    out.peak_queue_depth = peak_queue_depth_;
  }
  return out;
}

size_t ThreadPool::HardwareConcurrency() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace seqdet
