#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/model_io.hpp"
#include "exec/config.hpp"
#include "exec/workspace.hpp"
#include "stats/rng.hpp"

namespace hmdiv::serve {

namespace {

constexpr const char* kBadRequest = "bad_request";
constexpr const char* kDeadlineExceeded = "deadline_exceeded";

/// Thrown by handlers; handle_line maps it to one error response line.
/// The message string allocates — error paths only, never on a cache hit.
struct RequestError {
  const char* code;
  std::string message;
};

/// Grid chunk size between minimise's deadline checks: big enough to
/// amortise the clock read, small enough that an expired request dies
/// within ~ms.
constexpr std::size_t kMinimiseChunk = 8192;

/// Deadline applied when a request carries none, and the cap on the
/// deadline a request may ask for.
constexpr std::uint64_t kDefaultDeadlineMs = 1000;
constexpr std::uint64_t kMaxDeadlineMs = 60'000;
/// Input bounds on the expensive endpoints.
constexpr std::uint64_t kMaxSweepSteps = 100'000;
constexpr std::uint64_t kMaxUqDraws = 100'000;
constexpr std::size_t kMaxCompareScenarios = 32;
/// Synthetic per-class trial size behind the uq endpoint's posterior.
constexpr std::uint64_t kUqCasesPerClass = 2000;

void check_deadline(Service::Clock::time_point deadline) {
  if (Service::Clock::now() >= deadline) {
    throw RequestError{kDeadlineExceeded, "deadline expired mid-compute"};
  }
}

/// `params` with no members — stand-in when a request omits "params".
constexpr JsonValue kEmptyParams{JsonType::kObject};

void append_id(std::string& out, const JsonValue* id) {
  if (id == nullptr) {
    out += "null";
    return;
  }
  switch (id->type) {
    case JsonType::kNumber:
      append_json_number(out, id->number);
      break;
    case JsonType::kString:
      out += '"';
      append_json_escaped(out, id->string());
      out += '"';
      break;
    case JsonType::kBool:
      out += id->boolean ? "true" : "false";
      break;
    default:
      out += "null";
  }
}

void begin_result(std::string& out, const JsonValue* id) {
  out += "{\"id\":";
  append_id(out, id);
  out += ",\"ok\":true,\"result\":{";
}

void end_result(std::string& out) { out += "}}\n"; }

void write_error_line(std::string& out, const JsonValue* id,
                      std::string_view code, std::string_view message) {
  out += "{\"id\":";
  append_id(out, id);
  out += ",\"ok\":false,\"error\":{\"code\":\"";
  append_json_escaped(out, code);
  out += "\",\"message\":\"";
  append_json_escaped(out, message);
  out += "\"}}\n";
}

// --- Parameter extraction ----------------------------------------------

[[nodiscard]] double number_param(const JsonValue& params,
                                  std::string_view name, double fallback) {
  const JsonValue* v = params.find(name);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number() || !std::isfinite(v->number)) {
    throw RequestError{kBadRequest,
                       std::string(name) + " must be a finite number"};
  }
  return v->number;
}

[[nodiscard]] std::uint64_t uint_param(const JsonValue& params,
                                       std::string_view name,
                                       std::uint64_t fallback,
                                       std::uint64_t lo, std::uint64_t hi) {
  const JsonValue* v = params.find(name);
  if (v == nullptr || v->is_null()) return fallback;
  const bool integral = v->is_number() && std::isfinite(v->number) &&
                        v->number >= 0.0 &&
                        v->number == std::floor(v->number) &&
                        v->number <= 9007199254740992.0;  // 2^53
  if (!integral || static_cast<std::uint64_t>(v->number) < lo ||
      static_cast<std::uint64_t>(v->number) > hi) {
    throw RequestError{kBadRequest, std::string(name) +
                                        " must be an integer in [" +
                                        std::to_string(lo) + ", " +
                                        std::to_string(hi) + "]"};
  }
  return static_cast<std::uint64_t>(v->number);
}

/// True for "field" (the default), false for "trial".
[[nodiscard]] bool field_profile_param(const JsonValue& params) {
  const JsonValue* v = params.find("profile");
  if (v == nullptr || v->is_null()) return true;
  if (v->is_string()) {
    if (v->string() == "field") return true;
    if (v->string() == "trial") return false;
  }
  throw RequestError{kBadRequest, "profile must be \"trial\" or \"field\""};
}

void append_operating_point(std::string& out,
                            const core::SystemOperatingPoint& p) {
  out += "{\"threshold\":";
  append_json_number(out, p.threshold);
  out += ",\"machine_fn\":";
  append_json_number(out, p.machine_fn);
  out += ",\"machine_fp\":";
  append_json_number(out, p.machine_fp);
  out += ",\"system_fn\":";
  append_json_number(out, p.system_fn);
  out += ",\"system_fp\":";
  append_json_number(out, p.system_fp);
  out += ",\"sensitivity\":";
  append_json_number(out, p.sensitivity);
  out += ",\"specificity\":";
  append_json_number(out, p.specificity);
  out += ",\"recall_rate\":";
  append_json_number(out, p.recall_rate);
  out += ",\"ppv\":";
  append_json_number(out, p.ppv);
  out += '}';
}

}  // namespace

// --- Endpoint registry ---------------------------------------------------

// The single source of truth for dispatch: row i describes Endpoint i.
// handle_line routes by it, unknown_op checks scan its names, and the
// constructor registers metrics from it — so a new endpoint is one row
// plus one handler, and the paths can never disagree about the list.
const std::array<Service::EndpointEntry, Service::kEndpointCount>&
Service::endpoint_table() {
  static const std::array<EndpointEntry, kEndpointCount> kTable = {{
      // name, handler, compute, needs_state, cached
      {"analyze", &Service::handle_analyze, true, true, false},
      {"whatif", &Service::handle_whatif, true, true, true},
      {"sweep", &Service::handle_sweep, true, true, true},
      {"minimise", &Service::handle_minimise, true, true, true},
      {"uq", &Service::handle_uq, true, true, true},
      {"compare", &Service::handle_compare, true, true, false},
      {"health", &Service::handle_health, false, true, false},
      {"metrics", &Service::handle_metrics, false, false, false},
      {"reload", &Service::handle_reload, false, false, false},
      {"shard", &Service::handle_shard, false, false, false},
  }};
  return kTable;
}

// --- Model state --------------------------------------------------------

namespace {

/// Synthetic per-class trial counts at kUqCasesPerClass cases, so the uq
/// endpoint has a posterior even when no real counts were supplied.
[[nodiscard]] std::vector<core::ClassCounts> synthetic_counts_for(
    const core::SequentialModel& model) {
  std::vector<core::ClassCounts> counts;
  const std::uint64_t cases = kUqCasesPerClass;
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const auto& p = model.parameters(x);
    core::ClassCounts c;
    c.cases = cases;
    c.machine_failures = std::min(
        cases, static_cast<std::uint64_t>(std::llround(
                   p.p_machine_fails * static_cast<double>(cases))));
    const std::uint64_t machine_successes = cases - c.machine_failures;
    c.human_failures_given_machine_failed = std::min(
        c.machine_failures,
        static_cast<std::uint64_t>(std::llround(
            p.p_human_fails_given_machine_fails *
            static_cast<double>(c.machine_failures))));
    c.human_failures_given_machine_succeeded = std::min(
        machine_successes,
        static_cast<std::uint64_t>(std::llround(
            p.p_human_fails_given_machine_succeeds *
            static_cast<double>(machine_successes))));
    counts.push_back(c);
  }
  return counts;
}

}  // namespace

// Members initialise in declaration order, so the derived engines are
// built from the already-moved-in model and profiles.
struct Service::Loaded {
  core::SequentialModel model;
  core::DemandProfile trial;
  core::DemandProfile field;
  core::Extrapolator extrapolator;
  core::TradeoffAnalyzer analyzer;
  core::PosteriorModelSampler sampler;

  Loaded(core::SequentialModel model_in, core::DemandProfile trial_in,
         core::DemandProfile field_in)
      : model(std::move(model_in)),
        trial(std::move(trial_in)),
        field(std::move(field_in)),
        extrapolator(model, trial),
        analyzer(core::binormal_tradeoff(model, field)),
        sampler(model.class_names(), synthetic_counts_for(model)) {}
};

std::unique_ptr<Service::Loaded> Service::build_loaded(
    core::SequentialModel model, core::DemandProfile trial,
    core::DemandProfile field) {
  if (!model.compatible_with(trial)) {
    throw std::invalid_argument(
        "trial profile is not defined over the model's classes");
  }
  if (!model.compatible_with(field)) {
    throw std::invalid_argument(
        "field profile is not defined over the model's classes");
  }
  return std::make_unique<Loaded>(std::move(model), std::move(trial),
                                  std::move(field));
}

Service::Service(core::SequentialModel model, core::DemandProfile trial,
                 core::DemandProfile field, ServiceOptions options)
    : options_(options),
      gate_({options.max_concurrent != 0
                 ? options.max_concurrent
                 : std::max(1u, std::thread::hardware_concurrency())}),
      started_(Clock::now()),
      state_(build_loaded(std::move(model), std::move(trial),
                          std::move(field))) {
  // Pre-register every endpoint metric so the hot path bumps cached
  // pointers instead of hitting the registry's name lookup per request.
  obs::Registry& registry = obs::Registry::global();
  const auto& table = endpoint_table();
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    std::string base = "serve.";
    base += table[i].name;
    metrics_[i].requests = &registry.counter(base + ".requests");
    metrics_[i].errors = &registry.counter(base + ".errors");
    metrics_[i].ns = &registry.histogram(base + ".ns");
    if (table[i].cached) {
      metrics_[i].cache_hit = &registry.counter(base + ".cache_hit");
      metrics_[i].cache_miss = &registry.counter(base + ".cache_miss");
    }
  }
}

Service::~Service() = default;

void Service::clear_caches() {
  whatif_cache_.clear();
  sweep_cache_.clear();
  minimise_cache_.clear();
  uq_cache_.clear();
}

void Service::reload(core::SequentialModel model, core::DemandProfile trial,
                     core::DemandProfile field) {
  // Build outside the lock (may throw; current state stays untouched).
  std::unique_ptr<Loaded> next =
      build_loaded(std::move(model), std::move(trial), std::move(field));
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  state_ = std::move(next);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  // Under the exclusive lock no request can be mid-insert (all cache
  // traffic happens under the shared lock), so no stale value survives.
  clear_caches();
}

// --- Request dispatch ---------------------------------------------------

bool Service::parse_frame(std::string_view line, RequestScratch& scratch,
                          std::string& out, Parsed& request) {
  request.t0 = Clock::now();
  const JsonParser::Result parsed =
      scratch.parser.parse(line, exec::thread_workspace());
  if (parsed.value == nullptr || !parsed.value->is_object()) {
    HMDIV_OBS_COUNT("serve.protocol.errors", 1);
    std::string message = "invalid request: ";
    if (parsed.value == nullptr) {
      message += parsed.error;
      message += " at byte ";
      message += std::to_string(parsed.error_at);
    } else {
      message += "request must be a JSON object";
    }
    write_error_line(out, nullptr, kBadRequest, message);
    return false;
  }
  request.root = parsed.value;
  request.id = parsed.value->find("id");
  const JsonValue* op = parsed.value->find("op");
  if (op == nullptr || !op->is_string()) {
    HMDIV_OBS_COUNT("serve.protocol.errors", 1);
    write_error_line(out, request.id, kBadRequest, "missing \"op\" string");
    return false;
  }
  const auto& table = endpoint_table();
  request.ep = kEndpointCount;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].name == op->string()) {
      request.ep = i;
      break;
    }
  }
  if (request.ep == kEndpointCount) {
    HMDIV_OBS_COUNT("serve.protocol.errors", 1);
    write_error_line(out, request.id, "unknown_op",
                     "unknown op '" + std::string(op->string()) + "'");
    return false;
  }
  if (obs::enabled()) metrics_[request.ep].requests->add(1);
  return true;
}

void Service::validate_request(Parsed& request) const {
  const JsonValue& root = *request.root;
  // Per-request deadline: requested (capped) or the default.
  std::uint64_t deadline_ms = kDefaultDeadlineMs;
  if (const JsonValue* dl = root.find("deadline_ms");
      dl != nullptr && !dl->is_null()) {
    if (!dl->is_number() || !std::isfinite(dl->number) || dl->number < 1.0 ||
        dl->number != std::floor(dl->number)) {
      throw RequestError{kBadRequest,
                         "deadline_ms must be a positive integer"};
    }
    deadline_ms = dl->number >= static_cast<double>(kMaxDeadlineMs)
                      ? kMaxDeadlineMs
                      : static_cast<std::uint64_t>(dl->number);
  }
  request.deadline = request.t0 + std::chrono::milliseconds(deadline_ms);

  const JsonValue* params = root.find("params");
  if (params != nullptr && params->is_null()) params = nullptr;
  if (params != nullptr && !params->is_object()) {
    throw RequestError{kBadRequest, "params must be an object"};
  }
  request.params = params;
}

void Service::execute(const Parsed& request, RequestScratch& scratch,
                      std::string& out) {
  const EndpointEntry& entry = endpoint_table()[request.ep];
  if (!entry.compute) {
    if (entry.needs_state) {
      const std::shared_lock<std::shared_mutex> lock(state_mutex_);
      begin_result(out, request.id);
      (this->*entry.handler)(state_.get(), request, scratch, out);
      end_result(out);
    } else {
      begin_result(out, request.id);
      (this->*entry.handler)(nullptr, request, scratch, out);
      end_result(out);
    }
    return;
  }
  // Compute endpoints go through admission control.
  const AdmissionTicket ticket(gate_, request.deadline);
  if (!ticket.admitted()) {
    throw RequestError{kDeadlineExceeded, "deadline expired while queued"};
  }
  check_deadline(request.deadline);
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  begin_result(out, request.id);
  (this->*entry.handler)(state_.get(), request, scratch, out);
  end_result(out);
}

void Service::handle_line(std::string_view line, RequestScratch& scratch,
                          std::string& out) {
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  Parsed request;
  if (!parse_frame(line, scratch, out, request)) return;
  const bool obs_on = obs::enabled();
  EndpointMetrics& metrics = metrics_[request.ep];
  const std::size_t out_mark = out.size();
  try {
    validate_request(request);
    execute(request, scratch, out);
  } catch (const RequestError& e) {
    out.resize(out_mark);
    if (obs_on) metrics.errors->add(1);
    write_error_line(out, request.id, e.code, e.message);
  } catch (const std::invalid_argument& e) {
    out.resize(out_mark);
    if (obs_on) metrics.errors->add(1);
    write_error_line(out, request.id, kBadRequest, e.what());
  } catch (const std::exception& e) {
    out.resize(out_mark);
    if (obs_on) metrics.errors->add(1);
    write_error_line(out, request.id, "internal", e.what());
  }
  if (obs_on) {
    metrics.ns->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             request.t0)
            .count()));
  }
}

// --- Endpoint handlers --------------------------------------------------

void Service::handle_analyze(const Loaded* state_ptr, const Parsed&,
                             RequestScratch&, std::string& out) {
  const Loaded& state = *state_ptr;
  const core::FailureDecomposition decomposition =
      state.model.decompose(state.field);
  out += "\"classes\":";
  append_json_uint(out, state.model.class_count());
  out += ",\"trial\":{\"system_failure\":";
  append_json_number(out, state.model.system_failure_probability(state.trial));
  out += ",\"machine_failure\":";
  append_json_number(out,
                     state.model.machine_failure_probability(state.trial));
  out += "},\"field\":{\"system_failure\":";
  append_json_number(out, state.model.system_failure_probability(state.field));
  out += ",\"machine_failure\":";
  append_json_number(out,
                     state.model.machine_failure_probability(state.field));
  out += ",\"failure_floor\":";
  append_json_number(out, state.model.failure_floor(state.field));
  out += ",\"decomposition\":{\"floor\":";
  append_json_number(out, decomposition.floor);
  out += ",\"mean_field\":";
  append_json_number(out, decomposition.mean_field);
  out += ",\"covariance\":";
  append_json_number(out, decomposition.covariance);
  out += "}}";
}

Service::WhatifRequest Service::resolve_whatif(const Loaded& state,
                                               const JsonValue& spec,
                                               RequestScratch& scratch) const {
  const double reader_factor = number_param(spec, "reader_factor", 1.0);
  const double machine_factor = number_param(spec, "machine_factor", 1.0);
  if (reader_factor < 0.0 || machine_factor < 0.0) {
    throw RequestError{kBadRequest, "factors must be non-negative"};
  }
  const bool use_field = field_profile_param(spec);

  scratch.class_factors.clear();
  if (const JsonValue* per_class = spec.find("per_class");
      per_class != nullptr && !per_class->is_null()) {
    if (!per_class->is_object()) {
      throw RequestError{kBadRequest, "per_class must be an object"};
    }
    for (std::size_t i = 0; i < per_class->member_count; ++i) {
      const JsonMember& member = per_class->members[i];
      if (!member.value.is_number() || !std::isfinite(member.value.number) ||
          member.value.number < 0.0) {
        throw RequestError{kBadRequest,
                           "per_class factors must be non-negative numbers"};
      }
      std::size_t index = 0;
      try {
        index = state.model.index_of(std::string(member.name()));
      } catch (const std::invalid_argument&) {
        throw RequestError{kBadRequest, "unknown class '" +
                                            std::string(member.name()) + "'"};
      }
      scratch.class_factors.emplace_back(index, member.value.number);
    }
    // Canonical key order: the transforms commute across classes, so two
    // spellings of the same map must share one cache entry.
    std::sort(scratch.class_factors.begin(), scratch.class_factors.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  scratch.key.clear();
  scratch.key.push_back(use_field ? 1.0 : 0.0);
  scratch.key.push_back(reader_factor);
  scratch.key.push_back(machine_factor);
  scratch.key.push_back(static_cast<double>(scratch.class_factors.size()));
  for (const auto& [index, factor] : scratch.class_factors) {
    scratch.key.push_back(static_cast<double>(index));
    scratch.key.push_back(factor);
  }
  return WhatifRequest{reader_factor, machine_factor, use_field};
}

template <typename Value, typename Compute>
Value Service::memoised(Endpoint ep, EvalCache<Value>& cache,
                        std::span<const double> key, bool& cached,
                        Compute&& compute) const {
  const std::optional<Value> hit = cache.find(key);
  cached = hit.has_value();
  if (obs::enabled()) {
    (cached ? metrics_[ep].cache_hit : metrics_[ep].cache_miss)->add(1);
  }
  if (cached) return *hit;
  const Value value = compute();
  cache.insert(key, value);
  return value;
}

Service::WhatifNumbers Service::compute_whatif(const Loaded& state,
                                               const JsonValue& spec,
                                               RequestScratch& scratch,
                                               bool& cached) const {
  const WhatifRequest request = resolve_whatif(state, spec, scratch);
  return memoised(kWhatif, whatif_cache_, scratch.key, cached, [&] {
    core::Scenario scenario;
    scenario.reader_failure_factor = request.reader_factor;
    scenario.machine_failure_factor = request.machine_factor;
    scenario.per_class_machine_factors.assign(scratch.class_factors.begin(),
                                              scratch.class_factors.end());
    if (request.use_field) scenario.profile = state.field;
    const core::ScenarioResult result = state.extrapolator.evaluate(scenario);
    return WhatifNumbers{result.system_failure,
                         result.machine_failure,
                         result.failure_floor,
                         result.decomposition.floor,
                         result.decomposition.mean_field,
                         result.decomposition.covariance};
  });
}

void Service::append_whatif_body(std::string& out,
                                 const WhatifNumbers& numbers, bool cached) {
  out += "\"system_failure\":";
  append_json_number(out, numbers.system_failure);
  out += ",\"machine_failure\":";
  append_json_number(out, numbers.machine_failure);
  out += ",\"failure_floor\":";
  append_json_number(out, numbers.failure_floor);
  out += ",\"decomposition\":{\"floor\":";
  append_json_number(out, numbers.floor);
  out += ",\"mean_field\":";
  append_json_number(out, numbers.mean_field);
  out += ",\"covariance\":";
  append_json_number(out, numbers.covariance);
  out += "},\"cached\":";
  out += cached ? "true" : "false";
}

void Service::handle_whatif(const Loaded* state, const Parsed& request,
                            RequestScratch& scratch, std::string& out) {
  bool cached = false;
  const WhatifNumbers numbers = compute_whatif(
      *state, request.params != nullptr ? *request.params : kEmptyParams,
      scratch, cached);
  append_whatif_body(out, numbers, cached);
}

void Service::handle_sweep(const Loaded* state_ptr, const Parsed& request,
                           RequestScratch& scratch, std::string& out) {
  const Loaded& state = *state_ptr;
  const JsonValue& p =
      request.params != nullptr ? *request.params : kEmptyParams;
  const std::size_t steps = static_cast<std::size_t>(
      uint_param(p, "steps", 256, 2, kMaxSweepSteps));
  const std::size_t points = static_cast<std::size_t>(
      uint_param(p, "points", 17, 2, kMaxSweepPoints));
  const double lo = number_param(p, "lo", -4.0);
  const double hi = number_param(p, "hi", 4.0);
  if (!(lo < hi)) throw RequestError{kBadRequest, "lo must be below hi"};

  scratch.key.clear();
  scratch.key.push_back(lo);
  scratch.key.push_back(hi);
  scratch.key.push_back(static_cast<double>(steps));
  scratch.key.push_back(static_cast<double>(points));

  bool cached = false;
  const SweepSummary summary =
      memoised(kSweep, sweep_cache_, scratch.key, cached, [&] {
        // Point j is grid point j * (steps - 1) / (points - 1) of the
        // steps-point grid on [lo, hi]; only those points are evaluated.
        SweepSummary built;
        built.point_count = static_cast<std::uint32_t>(points);
        for (std::size_t j = 0; j < points; ++j) {
          const std::size_t index = j * (steps - 1) / (points - 1);
          built.points[j] = state.analyzer.evaluate(
              lo + (hi - lo) * static_cast<double>(index) /
                       static_cast<double>(steps - 1));
        }
        return built;
      });

  out += "\"steps\":";
  append_json_uint(out, steps);
  out += ",\"lo\":";
  append_json_number(out, lo);
  out += ",\"hi\":";
  append_json_number(out, hi);
  out += ",\"points\":[";
  for (std::uint32_t j = 0; j < summary.point_count; ++j) {
    if (j != 0) out += ',';
    append_operating_point(out, summary.points[j]);
  }
  out += "],\"cached\":";
  out += cached ? "true" : "false";
}

void Service::handle_minimise(const Loaded* state_ptr, const Parsed& request,
                              RequestScratch& scratch, std::string& out) {
  const Loaded& state = *state_ptr;
  const Clock::time_point deadline = request.deadline;
  const JsonValue& p =
      request.params != nullptr ? *request.params : kEmptyParams;
  const double cost_fn = number_param(p, "cost_fn", 500.0);
  const double cost_fp = number_param(p, "cost_fp", 20.0);
  if (cost_fn < 0.0 || cost_fp < 0.0) {
    throw RequestError{kBadRequest, "costs must be non-negative"};
  }
  const std::size_t steps = static_cast<std::size_t>(
      uint_param(p, "steps", 2048, 2, kMaxSweepSteps));
  const double lo = number_param(p, "lo", -4.0);
  const double hi = number_param(p, "hi", 4.0);
  if (!(lo < hi)) throw RequestError{kBadRequest, "lo must be below hi"};

  scratch.key.clear();
  scratch.key.push_back(cost_fn);
  scratch.key.push_back(cost_fp);
  scratch.key.push_back(lo);
  scratch.key.push_back(hi);
  scratch.key.push_back(static_cast<double>(steps));

  bool cached = false;
  const MinimiseNumbers best =
      memoised(kMinimise, minimise_cache_, scratch.key, cached, [&] {
        const exec::Config config{options_.compute_threads};
        core::CostedOperatingPoint folded;
        // Fold sub-ranges in ascending grid order with strict < — the
        // shard merge rule — so the chunked scan matches minimise_cost
        // exactly.
        for (std::size_t first = 0; first < steps; first += kMinimiseChunk) {
          check_deadline(deadline);
          const std::size_t last = std::min(first + kMinimiseChunk, steps);
          const core::CostedOperatingPoint candidate =
              state.analyzer.minimise_cost_range(cost_fn, cost_fp, lo, hi,
                                                 steps, first, last, config);
          if (candidate.valid &&
              (!folded.valid || candidate.cost < folded.cost)) {
            folded = candidate;
          }
        }
        return MinimiseNumbers{folded.point, folded.cost};
      });

  out += "\"best\":";
  append_operating_point(out, best.best);
  out += ",\"cost\":";
  append_json_number(out, best.cost);
  out += ",\"steps\":";
  append_json_uint(out, steps);
  out += ",\"cached\":";
  out += cached ? "true" : "false";
}

void Service::handle_uq(const Loaded* state_ptr, const Parsed& request,
                        RequestScratch& scratch, std::string& out) {
  const Loaded& state = *state_ptr;
  const Clock::time_point deadline = request.deadline;
  const JsonValue& p =
      request.params != nullptr ? *request.params : kEmptyParams;
  const std::size_t draws = static_cast<std::size_t>(
      uint_param(p, "draws", 2000, 16, kMaxUqDraws));
  const double credibility = number_param(p, "credibility", 0.95);
  if (!(credibility > 0.0 && credibility < 1.0)) {
    throw RequestError{kBadRequest, "credibility must be in (0, 1)"};
  }
  const std::uint64_t seed =
      uint_param(p, "seed", 20030625, 0, 9007199254740992ULL);
  const bool use_field = field_profile_param(p);

  scratch.key.clear();
  scratch.key.push_back(static_cast<double>(draws));
  scratch.key.push_back(credibility);
  scratch.key.push_back(static_cast<double>(seed));
  scratch.key.push_back(use_field ? 1.0 : 0.0);

  bool cached = false;
  const UqNumbers numbers = memoised(kUq, uq_cache_, scratch.key, cached, [&] {
    check_deadline(deadline);
    stats::Rng rng(seed);
    const core::UncertainPrediction prediction = state.sampler.predict(
        use_field ? state.field : state.trial, rng, draws, credibility,
        exec::Config{options_.compute_threads});
    return UqNumbers{prediction.mean, prediction.lower, prediction.upper,
                     prediction.stddev};
  });

  out += "\"mean\":";
  append_json_number(out, numbers.mean);
  out += ",\"lower\":";
  append_json_number(out, numbers.lower);
  out += ",\"upper\":";
  append_json_number(out, numbers.upper);
  out += ",\"stddev\":";
  append_json_number(out, numbers.stddev);
  out += ",\"draws\":";
  append_json_uint(out, draws);
  out += ",\"credibility\":";
  append_json_number(out, credibility);
  out += ",\"cached\":";
  out += cached ? "true" : "false";
}

void Service::handle_compare(const Loaded* state_ptr, const Parsed& request,
                             RequestScratch& scratch, std::string& out) {
  const Loaded& state = *state_ptr;
  const JsonValue* params = request.params;
  if (params == nullptr) {
    throw RequestError{kBadRequest, "params.scenarios is required"};
  }
  const JsonValue* scenarios = params->find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array() ||
      scenarios->item_count == 0) {
    throw RequestError{kBadRequest,
                       "params.scenarios must be a non-empty array"};
  }
  if (scenarios->item_count > kMaxCompareScenarios) {
    throw RequestError{
        kBadRequest,
        "too many scenarios (max " +
            std::to_string(kMaxCompareScenarios) + ")"};
  }

  struct Ranked {
    const char* name;
    std::size_t name_size;
    std::size_t index;
    WhatifNumbers numbers;
  };
  exec::Workspace& workspace = exec::thread_workspace();
  const std::span<Ranked> ranked =
      workspace.alloc<Ranked>(scenarios->item_count);
  for (std::size_t i = 0; i < scenarios->item_count; ++i) {
    const JsonValue& spec = scenarios->items[i];
    if (!spec.is_object()) {
      throw RequestError{kBadRequest, "each scenario must be an object"};
    }
    const JsonValue* name = spec.find("name");
    Ranked entry{nullptr, 0, i, {}};
    if (name != nullptr && name->is_string()) {
      entry.name = name->text;
      entry.name_size = name->text_size;
    }
    bool cached = false;
    entry.numbers = compute_whatif(state, spec, scratch, cached);
    ranked[i] = entry;
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                             const Ranked& b) {
    if (a.numbers.system_failure != b.numbers.system_failure) {
      return a.numbers.system_failure < b.numbers.system_failure;
    }
    return a.index < b.index;  // deterministic tie order: request order
  });

  out += "\"ranking\":[";
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    if (r != 0) out += ',';
    out += "{\"rank\":";
    append_json_uint(out, r + 1);
    out += ",\"name\":\"";
    if (ranked[r].name != nullptr) {
      append_json_escaped(
          out, std::string_view(ranked[r].name, ranked[r].name_size));
    } else {
      out += "scenario-";
      append_json_uint(out, ranked[r].index);
    }
    out += "\",\"system_failure\":";
    append_json_number(out, ranked[r].numbers.system_failure);
    out += ",\"machine_failure\":";
    append_json_number(out, ranked[r].numbers.machine_failure);
    out += ",\"failure_floor\":";
    append_json_number(out, ranked[r].numbers.failure_floor);
    out += '}';
  }
  out += ']';
}

void Service::handle_health(const Loaded* state, const Parsed&,
                            RequestScratch&, std::string& out) {
  out += "\"status\":\"";
  out += draining() ? "draining" : "ok";
  out += "\",\"epoch\":";
  append_json_uint(out, epoch());
  out += ",\"classes\":";
  append_json_uint(out, state->model.class_count());
  out += ",\"uptime_ms\":";
  append_json_uint(out, static_cast<std::uint64_t>(
                            std::chrono::duration_cast<std::chrono::milliseconds>(
                                Clock::now() - started_)
                                .count()));
  out += ",\"in_flight\":";
  append_json_uint(out, gate_.in_flight());
  out += ",\"queued\":";
  append_json_uint(out, gate_.queued());
}

void Service::handle_metrics(const Loaded*, const Parsed&, RequestScratch&,
                             std::string& out) {
  const obs::Snapshot snapshot = obs::registry_snapshot();
  out += "\"enabled\":";
  out += obs::enabled() ? "true" : "false";
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) out += ',';
    out += '"';
    append_json_escaped(out, snapshot.counters[i].name);
    out += "\":";
    append_json_uint(out, snapshot.counters[i].value);
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const obs::HistogramSnapshot& h = snapshot.histograms[i];
    if (i != 0) out += ',';
    out += '"';
    append_json_escaped(out, h.name);
    out += "\":{\"count\":";
    append_json_uint(out, h.count);
    out += ",\"sum\":";
    append_json_uint(out, h.sum);
    out += ",\"min\":";
    append_json_uint(out, h.min);
    out += ",\"max\":";
    append_json_uint(out, h.max);
    for (const auto& [key, q] : {std::pair{",\"p50\":", 0.50},
                                 std::pair{",\"p90\":", 0.90},
                                 std::pair{",\"p99\":", 0.99},
                                 std::pair{",\"p999\":", 0.999}}) {
      out += key;
      append_json_uint(out, obs::snapshot_quantile(h, q));
    }
    out += '}';
  }
  out += '}';
}

void Service::handle_reload(const Loaded*, const Parsed& request,
                            RequestScratch&, std::string& out) {
  const JsonValue* params = request.params;
  if (params == nullptr) {
    throw RequestError{kBadRequest,
                       "params.model/.trial/.field are required"};
  }
  const JsonValue* model_text = params->find("model");
  const JsonValue* trial_text = params->find("trial");
  const JsonValue* field_text = params->find("field");
  if (model_text == nullptr || !model_text->is_string() ||
      trial_text == nullptr || !trial_text->is_string() ||
      field_text == nullptr || !field_text->is_string()) {
    throw RequestError{kBadRequest,
                       "params.model/.trial/.field must be strings"};
  }
  // parse_* throw std::invalid_argument -> bad_request with line info.
  core::SequentialModel model =
      core::parse_sequential_model(std::string(model_text->string()));
  core::DemandProfile trial =
      core::parse_demand_profile(std::string(trial_text->string()));
  core::DemandProfile field =
      core::parse_demand_profile(std::string(field_text->string()));
  reload(std::move(model), std::move(trial), std::move(field));
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  out += "\"epoch\":";
  append_json_uint(out, epoch());
  out += ",\"classes\":";
  append_json_uint(out, state_->model.class_count());
}

void Service::handle_shard(const Loaded*, const Parsed&,
                           RequestScratch& scratch, std::string& out) {
  // The upgrade handshake (DESIGN.md §15): acknowledge, then flag the
  // connection so the socket server flips it into binary shard mode once
  // this burst's responses have flushed. Everything after this response
  // line is HMDF frames, handled by exec::ShardSession — not by this
  // dispatcher.
  scratch.shard_upgrade = true;
  out += "\"shard\":\"ready\",\"protocol\":\"hmdf1\"";
}

}  // namespace hmdiv::serve
