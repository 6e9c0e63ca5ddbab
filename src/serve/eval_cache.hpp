// Keyed memoisation cache for the daemon's repeated requests.
//
// One analysis is cheap (an Eq. (8) what-if takes microseconds), so
// memoising pays only where many clients repeat the same question: the
// daemon, which shares one cache per cached endpoint across every
// connection. EvalCache memoises those results behind an exact key: a flat
// sequence of doubles encoding every input the result depends on. Exact
// bitwise key equality is deliberate — keys are built from the exact
// inputs, so any bitwise difference is a different query and near-misses
// must not alias.
//
// Concurrency: lookups are hash-sharded. Each segment has its own mutex
// and FIFO deque, and a key's segment is a pure function of its hash, so
// concurrent requests for different keys contend only when they land in
// the same segment. clear() takes the segment locks one at a time, so an
// insert racing it may survive; the daemon clears under its exclusive
// state lock, which no cache traffic holds.
//
// Shape: the capacity is fixed at construction. Below kSegments entries
// every entry lives in one segment, so eviction is exact global FIFO;
// larger capacities split evenly across the segments, each evicting
// oldest-first.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace hmdiv::serve {

/// FNV-1a over the raw bytes of the key doubles.
[[nodiscard]] inline std::size_t eval_cache_hash(
    std::span<const double> key) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const double v : key) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

template <typename Value>
class EvalCache {
 public:
  /// Lock-sharding width.
  static constexpr std::size_t kSegments = 8;

  /// Holds at most `capacity` memoised results.
  explicit EvalCache(std::size_t capacity)
      : capacity_(capacity),
        segments_in_use_(capacity < kSegments ? 1 : kSegments) {
    // Even split, the remainder spread over the first segments.
    for (std::size_t s = 0; s < segments_in_use_; ++s) {
      segments_[s].capacity = capacity / segments_in_use_ +
                              (s < capacity % segments_in_use_ ? 1 : 0);
    }
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drops every entry. The serve layer calls this on model reload:
  /// results keyed by request inputs would otherwise leak stale answers
  /// computed against the previous model.
  void clear() {
    for (Segment& segment : segments_) {
      const std::lock_guard<std::mutex> lock(segment.mutex);
      segment.entries.clear();
    }
  }

  /// Total entries currently memoised.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Segment& segment : segments_) {
      const std::lock_guard<std::mutex> lock(segment.mutex);
      total += segment.entries.size();
    }
    return total;
  }

  /// Returns a copy of the memoised value for `key`, if present. Performs
  /// no heap allocation on either hit or miss (for trivially copyable
  /// Value), so hot paths can probe with reused key storage.
  [[nodiscard]] std::optional<Value> find(std::span<const double> key) const {
    const std::size_t hash = eval_cache_hash(key);
    const Segment& segment = segment_for(hash);
    const std::lock_guard<std::mutex> lock(segment.mutex);
    for (const Entry& entry : segment.entries) {
      if (entry.hash == hash && entry.key.size() == key.size() &&
          std::equal(entry.key.begin(), entry.key.end(), key.begin())) {
        return entry.value;
      }
    }
    return std::nullopt;
  }

  /// Stores `value` under `key`, evicting the segment's oldest entry when
  /// full. Duplicate keys are tolerated (find returns the oldest surviving
  /// copy); both copies age out normally.
  void insert(std::span<const double> key, Value value) {
    const std::size_t hash = eval_cache_hash(key);
    // Copy the key before locking so the segment is held only to link it.
    Entry entry{hash, std::vector<double>(key.begin(), key.end()),
                std::move(value)};
    Segment& segment = segment_for(hash);
    const std::lock_guard<std::mutex> lock(segment.mutex);
    segment.entries.push_back(std::move(entry));
    while (segment.entries.size() > segment.capacity) {
      segment.entries.pop_front();
    }
  }

 private:
  struct Entry {
    std::size_t hash = 0;
    std::vector<double> key;
    Value value;
  };

  struct Segment {
    mutable std::mutex mutex;
    std::deque<Entry> entries;  // guarded by mutex
    std::size_t capacity = 0;   // fixed at construction
  };

  [[nodiscard]] Segment& segment_for(std::size_t hash) const {
    return segments_[hash % segments_in_use_];
  }

  const std::size_t capacity_;
  const std::size_t segments_in_use_;
  mutable std::array<Segment, kSegments> segments_;
};

}  // namespace hmdiv::serve
