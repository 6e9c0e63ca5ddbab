// The serve layer's request dispatcher: protocol parsing, model state,
// shared result caches and per-endpoint observability, independent of any
// transport. server.hpp moves bytes; Service turns one request line into
// one response line.
//
// Protocol (newline-delimited JSON, one object per line):
//   {"op":"whatif","id":7,"deadline_ms":250,"params":{...}}
// ->
//   {"id":7,"ok":true,"result":{...}}
//   {"id":7,"ok":false,"error":{"code":"deadline_exceeded","message":"..."}}
//
// Error codes: bad_request, unknown_op, deadline_exceeded, internal.
//
// Request lifecycle (DESIGN.md §13):
//  * Each handle_line() opens a Workspace::Scope on the calling thread's
//    exec workspace; JSON nodes and all per-request scratch live there and
//    are rewound on return. Together with the reused RequestScratch
//    buffers, hot endpoints (whatif/compare on cache hits) perform zero
//    steady-state heap allocations.
//  * Compute endpoints pass through the AdmissionGate (deadline-bounded
//    wait); health/metrics/reload bypass it so the daemon stays
//    observable under overload.
//  * Model state (model, profiles, derived engines) lives behind a
//    shared_mutex with an epoch counter. `reload` swaps in a new bundle
//    under the exclusive lock, bumps the epoch and clears every result
//    cache — cached values are keyed by request inputs only and would
//    otherwise leak answers computed against the previous model.
//
// Metrics: serve.<ep>.requests / .errors counters and a
// serve.<ep>.ns histogram per endpoint, plus serve.<ep>.cache_hit/_miss
// for the cached endpoints; all registered once at construction and
// gated on obs::enabled().
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/extrapolation.hpp"
#include "core/sequential_model.hpp"
#include "core/tradeoff.hpp"
#include "core/uncertainty.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"
#include "serve/eval_cache.hpp"
#include "serve/json.hpp"

namespace hmdiv::serve {

struct ServiceOptions {
  /// Thread budget for one request's compute (requests are already
  /// parallel across connections; 1 = serial per request).
  unsigned compute_threads = 1;
  /// Admission control; max_concurrent 0 = hardware concurrency.
  std::size_t max_concurrent = 0;
};

/// Per-connection reusable parse/compute scratch. Buffer capacities
/// survive across requests, which is what keeps the hot path allocation
/// free after the first request of each shape.
struct RequestScratch {
  JsonParser parser;
  std::vector<double> key;
  std::vector<std::pair<std::size_t, double>> class_factors;
  /// Set by the `shard` endpoint: after this burst's responses flush, the
  /// connection leaves NDJSON and becomes a binary HMDF frame stream
  /// (DESIGN.md §15). Only the socket server acts on it; direct
  /// handle_line callers can ignore it.
  bool shard_upgrade = false;
};

class Service {
 public:
  using Clock = std::chrono::steady_clock;

  /// Builds the daemon state from a trial-estimated model and the trial /
  /// field demand profiles (the Section-5 inputs). Throws
  /// std::invalid_argument when the profiles do not match the model.
  Service(core::SequentialModel model, core::DemandProfile trial,
          core::DemandProfile field, ServiceOptions options = {});
  ~Service();

  /// Handles one request line (no trailing newline required) and appends
  /// exactly one newline-terminated response line to `out`.
  void handle_line(std::string_view line, RequestScratch& scratch,
                   std::string& out);

  /// Atomically replaces the model bundle, clears every result cache and
  /// bumps the epoch. Throws std::invalid_argument on incompatible inputs
  /// (the current state is untouched).
  void reload(core::SequentialModel model, core::DemandProfile trial,
              core::DemandProfile field);

  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Flagged by the server during shutdown; `health` reports it so load
  /// balancers can drain before the listener disappears.
  void set_draining(bool draining) noexcept {
    draining_.store(draining, std::memory_order_release);
  }
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] AdmissionGate& gate() { return gate_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  enum Endpoint : std::size_t {
    kAnalyze = 0,
    kWhatif,
    kSweep,
    kMinimise,
    kUq,
    kCompare,
    kHealth,
    kMetrics,
    kReload,
    kShard,
    kEndpointCount,
  };

  /// Everything derived from one (model, trial, field) triple; rebuilt
  /// whole on reload so readers under the shared lock never see a
  /// half-updated bundle.
  struct Loaded;

  struct EndpointMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* ns = nullptr;
    obs::Counter* cache_hit = nullptr;   // cached endpoints only
    obs::Counter* cache_miss = nullptr;  // cached endpoints only
  };

  /// Fixed-size memoised values — EvalCache copies them by value, so they
  /// must stay trivially copyable (no per-hit allocation).
  struct WhatifNumbers {
    double system_failure = 0.0;
    double machine_failure = 0.0;
    double failure_floor = 0.0;
    double floor = 0.0;
    double mean_field = 0.0;
    double covariance = 0.0;
  };
  static constexpr std::size_t kMaxSweepPoints = 33;
  struct SweepSummary {
    std::uint32_t point_count = 0;
    std::array<core::SystemOperatingPoint, kMaxSweepPoints> points{};
  };
  struct MinimiseNumbers {
    core::SystemOperatingPoint best;
    double cost = 0.0;
  };
  struct UqNumbers {
    double mean = 0.0;
    double lower = 0.0;
    double upper = 0.0;
    double stddev = 0.0;
  };

  /// One parsed and routed request frame. root/id/params point into the
  /// calling thread's workspace and stay valid for handle_line's
  /// Workspace::Scope.
  struct Parsed {
    const JsonValue* root = nullptr;
    const JsonValue* id = nullptr;
    const JsonValue* params = nullptr;
    std::size_t ep = kEndpointCount;
    Clock::time_point t0{};
    Clock::time_point deadline{};
  };

  /// Uniform handler shape: append the `"result":{...}` payload body for
  /// one request. `state` is null only for endpoints with needs_state
  /// false (metrics/reload manage their own locking).
  using Handler = void (Service::*)(const Loaded* state,
                                    const Parsed& request,
                                    RequestScratch& scratch, std::string& out);

  /// One row of the endpoint registry: the single source of truth shared
  /// by handle_line, unknown_op checks and metrics registration.
  struct EndpointEntry {
    std::string_view name;
    Handler handler = nullptr;
    /// Admission-controlled compute (vs health/metrics/reload/shard).
    bool compute = false;
    /// Runs under the shared state lock with the Loaded bundle.
    bool needs_state = false;
    /// Registers serve.<ep>.cache_hit/_miss counters.
    bool cached = false;
  };
  [[nodiscard]] static const std::array<EndpointEntry, kEndpointCount>&
  endpoint_table();

  /// Scenario transforms resolved from a whatif params object (the
  /// per-class factors land in scratch.class_factors, the cache key in
  /// scratch.key).
  struct WhatifRequest {
    double reader_factor = 1.0;
    double machine_factor = 1.0;
    bool use_field = false;
  };

  [[nodiscard]] static std::unique_ptr<Loaded> build_loaded(
      core::SequentialModel model, core::DemandProfile trial,
      core::DemandProfile field);

  void clear_caches();

  /// Parses one line into `request` (t0, root, id, endpoint). Returns
  /// false after writing a protocol error line (bad JSON / missing op /
  /// unknown_op) — those never reach validation or metrics beyond the
  /// requests counter.
  bool parse_frame(std::string_view line, RequestScratch& scratch,
                   std::string& out, Parsed& request);
  /// deadline_ms / params shape checks; fills request.deadline / .params.
  /// Throws RequestError on violations.
  void validate_request(Parsed& request) const;
  /// Runs one validated request: admission for compute endpoints, then
  /// the handler under the shared state lock.
  void execute(const Parsed& request, RequestScratch& scratch,
               std::string& out);

  // Endpoint handlers (uniform Handler signature; rows of the table).
  void handle_analyze(const Loaded* state, const Parsed& request,
                      RequestScratch& scratch, std::string& out);
  void handle_whatif(const Loaded* state, const Parsed& request,
                     RequestScratch& scratch, std::string& out);
  void handle_sweep(const Loaded* state, const Parsed& request,
                    RequestScratch& scratch, std::string& out);
  void handle_minimise(const Loaded* state, const Parsed& request,
                       RequestScratch& scratch, std::string& out);
  void handle_uq(const Loaded* state, const Parsed& request,
                 RequestScratch& scratch, std::string& out);
  void handle_compare(const Loaded* state, const Parsed& request,
                      RequestScratch& scratch, std::string& out);
  void handle_health(const Loaded* state, const Parsed& request,
                     RequestScratch& scratch, std::string& out);
  void handle_metrics(const Loaded* state, const Parsed& request,
                      RequestScratch& scratch, std::string& out);
  void handle_reload(const Loaded* state, const Parsed& request,
                     RequestScratch& scratch, std::string& out);
  void handle_shard(const Loaded* state, const Parsed& request,
                    RequestScratch& scratch, std::string& out);

  /// The cache protocol of every cached endpoint, written once: probe
  /// `cache` with `key`, count serve.<ep>.cache_hit/_miss, and on a miss
  /// run `compute` and memoise its value under `key`. `cached` reports the
  /// hit. Defined (and only instantiated) in service.cpp.
  template <typename Value, typename Compute>
  [[nodiscard]] Value memoised(Endpoint ep, EvalCache<Value>& cache,
                               std::span<const double> key, bool& cached,
                               Compute&& compute) const;

  /// Shared whatif machinery (whatif + compare): resolves a scenario spec,
  /// probes the cache, computes on miss. `cached` reports the hit/miss.
  [[nodiscard]] WhatifNumbers compute_whatif(const Loaded& state,
                                             const JsonValue& spec,
                                             RequestScratch& scratch,
                                             bool& cached) const;
  /// Parses factors/profile selection out of a whatif spec and builds the
  /// canonical cache key in scratch.key.
  [[nodiscard]] WhatifRequest resolve_whatif(const Loaded& state,
                                             const JsonValue& spec,
                                             RequestScratch& scratch) const;
  static void append_whatif_body(std::string& out,
                                 const WhatifNumbers& numbers, bool cached);

  ServiceOptions options_;
  AdmissionGate gate_;
  Clock::time_point started_;

  mutable std::shared_mutex state_mutex_;
  std::unique_ptr<Loaded> state_;  // guarded by state_mutex_
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<bool> draining_{false};

  /// Result-cache capacities (entries), fixed for the daemon's lifetime.
  /// perfbench's serve traffic spreads its what-if keys over four times
  /// kWhatifCacheCapacity.
  static constexpr std::size_t kWhatifCacheCapacity = 4096;
  static constexpr std::size_t kSweepCacheCapacity = 64;
  static constexpr std::size_t kMinimiseCacheCapacity = 128;
  static constexpr std::size_t kUqCacheCapacity = 128;
  mutable EvalCache<WhatifNumbers> whatif_cache_{kWhatifCacheCapacity};
  mutable EvalCache<SweepSummary> sweep_cache_{kSweepCacheCapacity};
  mutable EvalCache<MinimiseNumbers> minimise_cache_{kMinimiseCacheCapacity};
  mutable EvalCache<UqNumbers> uq_cache_{kUqCacheCapacity};

  std::array<EndpointMetrics, kEndpointCount> metrics_{};
};

}  // namespace hmdiv::serve
