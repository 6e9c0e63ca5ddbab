#include "serve/admission.hpp"

#include <algorithm>

namespace hmdiv::serve {

AdmissionGate::AdmissionGate(Options options) : options_(options) {
  options_.max_concurrent = std::max<std::size_t>(1, options_.max_concurrent);
}

AdmissionGate::Outcome AdmissionGate::acquire(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (in_flight_ < options_.max_concurrent && queued_ == 0) {
    ++in_flight_;
    return Outcome::kAdmitted;
  }
  ++queued_;
  const bool got_slot = slot_freed_.wait_until(lock, deadline, [&] {
    return in_flight_ < options_.max_concurrent;
  });
  --queued_;
  if (!got_slot) return Outcome::kDeadlineExceeded;
  ++in_flight_;
  return Outcome::kAdmitted;
}

void AdmissionGate::release() noexcept {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
  }
  slot_freed_.notify_one();
}

std::size_t AdmissionGate::in_flight() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::size_t AdmissionGate::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

}  // namespace hmdiv::serve
