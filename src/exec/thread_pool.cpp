#include "exec/thread_pool.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace hmdiv::exec {

namespace {

thread_local bool tl_on_worker_thread = false;

/// Nanoseconds from `from` to now, clamped to >= 0.
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - from)
                      .count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

}  // namespace

ThreadPool::ThreadPool(unsigned helpers) {
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::global() {
  // Floor of 3 helpers so that multi-thread code paths (and TSan runs) are
  // genuinely concurrent even on small machines; idle helpers cost nothing,
  // and the per-job thread budget still caps actual parallelism.
  static ThreadPool pool(
      std::max(4U, std::thread::hardware_concurrency()) - 1U);
  return pool;
}

void ThreadPool::execute(Job& job) {
  for (;;) {
    if (job.failed.load(std::memory_order_relaxed)) return;
    const std::size_t index =
        job.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.count) return;
    HMDIV_OBS_COUNT("exec.pool.tasks", 1);
    try {
      job.fn(index);
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock,
                     [this] { return stopping_ || job_slots_ > 0; });
    if (stopping_) return;
    Job& job = *job_;
    --job_slots_;
    ++job.active_helpers;
    lock.unlock();

    if (job.timed && obs::enabled()) {
      static obs::Histogram& queue_wait =
          obs::Registry::global().histogram("exec.pool.queue_wait_ns");
      queue_wait.record(elapsed_ns(job.submitted));
    }
    tl_on_worker_thread = true;
    {
      HMDIV_OBS_SCOPED_TIMER("exec.pool.helper_busy_ns");
      execute(job);
    }
    tl_on_worker_thread = false;

    lock.lock();
    if (--job.active_helpers == 0) job_done_.notify_all();
  }
}

void ThreadPool::run_indexed(std::size_t count, unsigned max_threads,
                             FunctionRef<void(std::size_t)> fn) {
  if (count == 0) return;
  const unsigned budget = std::min<unsigned>(
      {max_threads == 0 ? 1U : max_threads, helper_count() + 1U,
       static_cast<unsigned>(std::min<std::size_t>(count, ~0U))});

  auto run_inline = [&] {
    HMDIV_OBS_COUNT("exec.pool.inline_jobs", 1);
    HMDIV_OBS_COUNT("exec.pool.tasks", count);
    for (std::size_t i = 0; i < count; ++i) fn(i);
  };

  // Serial budget, re-entrant call, or pool busy with another job: inline.
  if (budget <= 1 || tl_on_worker_thread) {
    run_inline();
    return;
  }
  std::unique_lock<std::mutex> submit(submit_mutex_, std::try_to_lock);
  if (!submit.owns_lock()) {
    run_inline();
    return;
  }

  HMDIV_OBS_COUNT("exec.pool.jobs", 1);
  Job job(fn);
  job.count = count;
  if (obs::enabled()) {
    job.timed = true;
    job.submitted = std::chrono::steady_clock::now();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    job_slots_ = budget - 1;
  }
  work_ready_.notify_all();

  {
    HMDIV_OBS_SCOPED_TIMER("exec.pool.caller_busy_ns");
    execute(job);  // The caller is one of the job's threads.
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_slots_ = 0;  // Stop late helpers from joining a finished job.
    job_ = nullptr;
    job_done_.wait(lock, [&job] { return job.active_helpers == 0; });
  }
  if (job.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace hmdiv::exec
