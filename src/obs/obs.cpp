#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>

namespace hmdiv::obs {

namespace {

std::atomic<bool> g_enabled{false};

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t snapshot_quantile(const HistogramSnapshot& h,
                                double q) noexcept {
  if (h.count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.count)));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    cumulative += h.buckets[b];
    if (cumulative >= target && cumulative > 0) {
      // Upper bound of bucket b: values in [2^(b-1), 2^b).
      const std::uint64_t upper = b == 0    ? 0
                                  : b >= 64 ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << b) - 1;
      return std::min(std::max(upper, h.min), h.max);
    }
  }
  return h.max;
}

void Histogram::merge(const HistogramSnapshot& other) noexcept {
  if (other.count == 0) return;
  count_.fetch_add(other.count, std::memory_order_relaxed);
  sum_.fetch_add(other.sum, std::memory_order_relaxed);
  const std::size_t buckets = std::min(other.buckets.size(), kBuckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    if (other.buckets[b] != 0) {
      buckets_[b].fetch_add(other.buckets[b], std::memory_order_relaxed);
    }
  }
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (other.min < seen &&
         !min_.compare_exchange_weak(seen, other.min,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (other.max > seen &&
         !max_.compare_exchange_weak(seen, other.max,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

ScopedTimer::~ScopedTimer() {
  if (hist_ == nullptr) return;
  const auto elapsed = Clock::now() - start_;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  hist_->record(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = hist->count();
    h.sum = hist->sum();
    h.min = hist->min();
    h.max = hist->max();
    h.buckets.resize(Histogram::kBuckets);
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      h.buckets[b] = hist->bucket(b);
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

void Registry::merge(const Snapshot& other) {
  for (const CounterSnapshot& c : other.counters) {
    if (c.value != 0) counter(c.name).add(c.value);
  }
  for (const HistogramSnapshot& h : other.histograms) {
    histogram(h.name).merge(h);
  }
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, hist] : histograms_) hist->reset();
}

Snapshot registry_snapshot() { return Registry::global().snapshot(); }

Snapshot snapshot_delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  std::map<std::string_view, std::uint64_t> prev_counters;
  for (const CounterSnapshot& c : before.counters) {
    prev_counters[c.name] = c.value;
  }
  for (const CounterSnapshot& c : after.counters) {
    const auto it = prev_counters.find(c.name);
    const std::uint64_t base = it == prev_counters.end() ? 0 : it->second;
    // Counters are monotone per metric, but concurrent writers can make a
    // racy `before` read overshoot; saturate rather than wrap.
    const std::uint64_t delta = c.value >= base ? c.value - base : 0;
    if (delta != 0) out.counters.push_back(CounterSnapshot{c.name, delta});
  }
  std::map<std::string_view, const HistogramSnapshot*> prev_histograms;
  for (const HistogramSnapshot& h : before.histograms) {
    prev_histograms[h.name] = &h;
  }
  for (const HistogramSnapshot& h : after.histograms) {
    const auto it = prev_histograms.find(h.name);
    if (it == prev_histograms.end()) {
      if (h.count != 0) out.histograms.push_back(h);
      continue;
    }
    const HistogramSnapshot& base = *it->second;
    HistogramSnapshot delta;
    delta.name = h.name;
    delta.count = h.count >= base.count ? h.count - base.count : 0;
    if (delta.count == 0) continue;
    delta.sum = h.sum >= base.sum ? h.sum - base.sum : 0;
    // min/max are cumulative (see header): they cannot be subtracted.
    delta.min = h.min;
    delta.max = h.max;
    delta.buckets.resize(h.buckets.size());
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const std::uint64_t prior =
          b < base.buckets.size() ? base.buckets[b] : 0;
      delta.buckets[b] =
          h.buckets[b] >= prior ? h.buckets[b] - prior : 0;
    }
    out.histograms.push_back(std::move(delta));
  }
  return out;
}

}  // namespace hmdiv::obs
