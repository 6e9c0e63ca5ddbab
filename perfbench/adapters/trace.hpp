// Span recorder for the traced (per-layer) run.
//
// Every call the benchmark makes into a layer goes through that layer's
// adapter header, and each adapter function opens one Span; the caller
// opens enclosing spans around each pass. A span records its name, its
// start and end (µs since the first span) and the span open around it, so
// a layer's self time is its duration minus its children's. With tracing
// off a Span costs one branch, which is what obs.trace_overhead_pct
// compares against. Spans are kept in memory and written out at the end.
// Single-threaded: the adapters are only called from the main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

using Clock = std::chrono::steady_clock;

inline bool& enabled() {
  static bool on = true;
  return on;
}

struct Record {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = a root span
  double start_us;
  double end_us;
};

inline std::vector<Record>& records() {
  static std::vector<Record> all;
  return all;
}

/// name -> durations (µs) recorded since the last clear(), in call order.
using SpanTable = std::map<std::string, std::vector<double>, std::less<>>;

inline SpanTable& spans() {
  static SpanTable table;
  return table;
}

inline void clear() { spans().clear(); }

namespace detail {
inline Clock::time_point epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}
inline std::uint64_t& open_span() {
  static std::uint64_t id = 0;
  return id;
}
inline std::uint64_t next_id() {
  static std::uint64_t last = 0;
  return ++last;
}
}  // namespace detail

class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (!enabled()) return;
    (void)detail::epoch();
    id_ = detail::next_id();
    parent_ = detail::open_span();
    detail::open_span() = id_;
    start_ = Clock::now();
  }
  ~Span() {
    if (id_ == 0) return;
    const Clock::time_point end = Clock::now();
    detail::open_span() = parent_;
    const auto us = [](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - detail::epoch())
          .count();
    };
    records().push_back({name_, id_, parent_, us(start_), us(end)});
    SpanTable& table = spans();
    auto it = table.find(std::string_view(name_));
    if (it == table.end()) it = table.emplace(name_, std::vector<double>{}).first;
    it->second.push_back(
        std::chrono::duration<double, std::micro>(end - start_).count());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_{};
};

/// Every recorded span as one JSON object per line.
inline void write_records(std::ostream& out) {
  for (const Record& r : records()) {
    out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"start_us\":" << r.start_us
        << ",\"end_us\":" << r.end_us << "}\n";
  }
}

}  // namespace perfbench::trace
