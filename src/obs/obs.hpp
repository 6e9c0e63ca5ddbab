// Observability: cheap thread-safe counters, histograms, scoped timers and
// a process-wide registry for the parallel engine and its clients.
//
// One gate keeps the cost near zero when nobody is looking: the run-time
// flag obs::set_enabled(true), off by default. The instrumentation macros
// check obs::enabled() (one relaxed atomic load and a branch) before
// touching the registry, so an instrumented binary that never enables
// profiling pays only that check per *region* (never per case or per
// replicate — instrumentation points sit at batch/chunk granularity).
//
// Registration is lazy: a metric first appears in the registry when its
// instrumentation point runs while profiling is enabled. References
// returned by the registry are stable for the life of the process, so call
// sites cache them in function-local statics (both macros do).
//
// All mutation uses relaxed atomics: metrics are monotone tallies whose
// readers (snapshot/report) tolerate torn cross-metric views. A snapshot is
// therefore not an atomic cut across metrics — it is exact only once the
// instrumented work has quiesced (the only way the CLI and benches use it).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hmdiv::obs {

/// True while profiling is runtime-enabled (relaxed load; off by default).
[[nodiscard]] bool enabled() noexcept;

/// Turns runtime profiling on or off process-wide.
void set_enabled(bool on) noexcept;

/// A named monotone counter. add() is wait-free (one relaxed fetch_add).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// A named histogram of non-negative integer values (conventionally
/// nanoseconds). Lock-free: exact count/sum/min/max plus power-of-two
/// magnitude buckets, from which a snapshot's quantiles are answered to
/// within a factor of two (snapshot_quantile) — plenty for "where does
/// wall-clock go".
class Histogram {
 public:
  /// Bucket b holds values whose bit width is b, i.e. [2^(b-1), 2^b).
  /// Bucket 0 holds exact zeros.
  static constexpr std::size_t kBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t value) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when the histogram is empty.
  [[nodiscard]] std::uint64_t min() const noexcept {
    const std::uint64_t m = min_.load(std::memory_order_relaxed);
    return m == ~std::uint64_t{0} ? 0 : m;
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Raw count of bucket `b` (0 for b >= kBuckets) — snapshots carry these
  /// so histograms merge exactly instead of re-binning derived quantiles.
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
  }

  void reset() noexcept;
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Folds a snapshot of another histogram (e.g. from a shard worker) into
  /// this one by summing the per-bucket counts directly — never by
  /// re-binning derived quantiles, which would smear every merged value
  /// into one bucket. count/sum add, min/max fold, and the merged
  /// quantiles are exactly those of the union of the recordings.
  void merge(const struct HistogramSnapshot& other) noexcept;

 private:
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// RAII timer recording elapsed nanoseconds into `hist` on scope exit. A
/// null `hist` makes it inert (no clock read): HMDIV_OBS_SCOPED_TIMER
/// passes null while profiling is disabled.
class ScopedTimer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ScopedTimer(Histogram* hist) noexcept : hist_(hist) {
    if (hist_ != nullptr) start_ = Clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer();

 private:
  Histogram* hist_ = nullptr;
  Clock::time_point start_{};
};

/// Point-in-time view of one counter.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

/// Point-in-time view of one histogram (ns-valued by convention).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// Raw per-bucket counts (length Histogram::kBuckets when produced by
  /// snapshot()). Carrying them makes snapshots *mergeable*: bucket counts
  /// sum exactly, whereas derived quantiles cannot be combined.
  std::vector<std::uint64_t> buckets;
};

/// The q-quantile (q in [0,1]) of a snapshot: the upper bound of the
/// bucket holding it, clamped to the snapshot's [min, max], so it is exact
/// to within a factor of two and never reads outside the recorded range.
/// 0 when empty; `max` when the buckets vector is absent or the target
/// lies past it. The one quantile function: the profile table, the
/// profile CSV and the daemon's metrics reply all read their p50 to p99.9
/// through it.
[[nodiscard]] std::uint64_t snapshot_quantile(const HistogramSnapshot& h,
                                              double q) noexcept;

/// Everything the registry knows, sorted by metric name.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;
  [[nodiscard]] bool empty() const {
    return counters.empty() && histograms.empty();
  }
};

/// Process-wide home of all named metrics. Lookup takes a mutex (call
/// sites cache the returned reference); metric mutation never does.
class Registry {
 public:
  [[nodiscard]] static Registry& global();

  /// Returns the counter / histogram named `name`, creating it on first
  /// use. References stay valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

  /// Folds `other` into this registry: counters add, histograms merge
  /// per-bucket (Histogram::merge), and metrics not yet registered here are
  /// created. This is how a cluster coordinator accumulates its workers'
  /// per-task deltas into its own profile; merging N worker snapshots
  /// plus the coordinator's own tallies yields exactly the counts a
  /// single-process run would have recorded.
  void merge(const Snapshot& other);

  /// Zeroes every metric; registrations (and cached references) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Snapshot of the global registry — the API tests and report dumpers use.
[[nodiscard]] Snapshot registry_snapshot();

/// The activity recorded between two snapshots of the *same* registry:
/// per metric, `after − before`. Counters and histogram count/sum/buckets
/// subtract exactly (so merging the delta elsewhere adds precisely the
/// period's recordings); a histogram's min/max cannot be un-merged, so the
/// delta carries the cumulative values — an approximation that only
/// widens the envelope, never the counts. Metrics absent from `before`
/// pass through whole; zero-valued deltas are dropped. This is how a
/// long-running serve worker ships per-task obs to a cluster coordinator
/// without re-counting its whole uptime on every task.
[[nodiscard]] Snapshot snapshot_delta(const Snapshot& before,
                                      const Snapshot& after);

}  // namespace hmdiv::obs

// Instrumentation macros — the only way production code should emit
// metrics. Each call site resolves its metric once, in a function-local
// static, the first time it runs while profiling is enabled; while
// disabled a macro costs one relaxed load + branch.

/// Adds `n` to the global counter `name` (a string literal).
#define HMDIV_OBS_COUNT(name, n)                                      \
  do {                                                                \
    if (::hmdiv::obs::enabled()) {                                    \
      static ::hmdiv::obs::Counter& hmdiv_obs_counter_ =              \
          ::hmdiv::obs::Registry::global().counter(name);             \
      hmdiv_obs_counter_.add(static_cast<std::uint64_t>(n));          \
    }                                                                 \
  } while (0)

#define HMDIV_OBS_CONCAT_IMPL(a, b) a##b
#define HMDIV_OBS_CONCAT(a, b) HMDIV_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope into the global histogram `name` (a string
/// literal, ns).
#define HMDIV_OBS_SCOPED_TIMER(name)                                  \
  ::hmdiv::obs::ScopedTimer HMDIV_OBS_CONCAT(hmdiv_obs_timer_,        \
                                             __COUNTER__) {           \
    ::hmdiv::obs::enabled() ? [] {                                    \
      static ::hmdiv::obs::Histogram* const hmdiv_obs_histogram_ =    \
          &::hmdiv::obs::Registry::global().histogram(name);          \
      return hmdiv_obs_histogram_;                                    \
    }()                                                               \
                            : nullptr                                 \
  }
