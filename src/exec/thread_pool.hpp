// A lazily-started, process-wide pool of worker threads.
//
// The pool executes *indexed jobs*: run_indexed(count, workers, fn) calls
// fn(0) … fn(count-1) exactly once each, distributing indices over at most
// `workers` threads (calling thread included) and blocking until all have
// finished. Index order across threads is unspecified — determinism is the
// responsibility of the chunked algorithms in exec/parallel.hpp, which
// make each index's work self-contained and merge results by index.
//
// Guarantees:
//  - The first exception thrown by `fn` is captured and rethrown on the
//    calling thread; remaining indices are abandoned.
//  - Re-entrant use is safe: a nested run_indexed from inside a pool
//    worker executes inline on that thread instead of deadlocking.
//  - Concurrent top-level callers are safe: if the pool is busy with
//    another job, the late caller simply runs its job inline.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/function_ref.hpp"

namespace hmdiv::exec {

class ThreadPool {
 public:
  /// Starts `helpers` persistent worker threads (0 is valid: every job
  /// then runs inline on the calling thread).
  explicit ThreadPool(unsigned helpers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent helper threads (calling thread not counted).
  [[nodiscard]] unsigned helper_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Executes fn(0) … fn(count-1), using at most `max_threads` threads
  /// including the caller. Blocks until every index has run (or the job
  /// failed), so the callable behind `fn` only needs to live for the call.
  /// Rethrows the first exception thrown by fn.
  void run_indexed(std::size_t count, unsigned max_threads,
                   FunctionRef<void(std::size_t)> fn);

  /// The process-wide shared pool, sized to hardware_concurrency() − 1
  /// helpers. Started on first use.
  [[nodiscard]] static ThreadPool& global();

 private:
  /// One run_indexed invocation. Helpers pull indices from `next` until
  /// the range is exhausted or a failure is flagged.
  struct Job {
    explicit Job(FunctionRef<void(std::size_t)> f) : fn(f) {}
    FunctionRef<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;     // guarded by error_mutex
    std::mutex error_mutex;
    unsigned active_helpers = 0;  // guarded by the pool mutex
    /// Submission timestamp for queue-wait profiling; only read when
    /// `timed` (set iff obs profiling was enabled at submit time).
    std::chrono::steady_clock::time_point submitted{};
    bool timed = false;
  };

  void worker_loop();
  static void execute(Job& job);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;      // current job accepting helpers; guarded by mutex_
  unsigned job_slots_ = 0;  // helpers the current job still wants
  bool stopping_ = false;
  std::mutex submit_mutex_;  // serialises top-level jobs
};

}  // namespace hmdiv::exec
