// Admission control for the serve daemon: a concurrency gate whose waits
// are bounded by each request's deadline.
//
// The gate admits up to `max_concurrent` requests at once; the rest wait
// for a slot. The queue is bounded by the transport, not by the gate:
// each connection thread handles one request line at a time and the
// server caps open connections, so at most that many callers can wait.
// A request whose deadline passes while queued is failed as
// deadline_exceeded without ever running, so a burst never turns into
// stale-deadline work.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace hmdiv::serve {

class AdmissionGate {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Requests allowed to execute simultaneously (>= 1).
    std::size_t max_concurrent = 1;
  };

  enum class Outcome {
    kAdmitted,          ///< slot acquired; caller must release()
    kDeadlineExceeded,  ///< queued, but the deadline passed before a slot
  };

  explicit AdmissionGate(Options options);

  /// Tries to acquire an execution slot, waiting (bounded by `deadline`)
  /// in FIFO-ish order behind the other waiters. Only kAdmitted transfers
  /// ownership of a slot.
  [[nodiscard]] Outcome acquire(Clock::time_point deadline);

  /// Returns a slot acquired by a successful acquire().
  void release() noexcept;

  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable slot_freed_;
  std::size_t in_flight_ = 0;
  std::size_t queued_ = 0;
};

/// RAII slot: releases on destruction iff the gate admitted the request.
class AdmissionTicket {
 public:
  AdmissionTicket(AdmissionGate& gate, AdmissionGate::Clock::time_point deadline)
      : gate_(&gate), outcome_(gate.acquire(deadline)) {}
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() {
    if (outcome_ == AdmissionGate::Outcome::kAdmitted) gate_->release();
  }

  [[nodiscard]] bool admitted() const {
    return outcome_ == AdmissionGate::Outcome::kAdmitted;
  }

 private:
  AdmissionGate* gate_;
  AdmissionGate::Outcome outcome_;
};

}  // namespace hmdiv::serve
