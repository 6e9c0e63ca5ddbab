// Service-layer tests (PR 7): protocol edges, admission shed, deadline
// expiry, reload invalidation, the zero-allocation whatif hit path, and
// the TCP server's framing / drain / fd hygiene — including SIGTERM
// against the real hmdiv_serve binary when HMDIV_SERVE_BIN is set.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "core/extrapolation.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace hmdiv {
namespace {

using namespace std::chrono_literals;

serve::Service make_service(serve::ServiceOptions options = {}) {
  return serve::Service(core::paper::example_model(),
                        core::paper::trial_profile(),
                        core::paper::field_profile(), options);
}

std::string respond(serve::Service& service, std::string_view line,
                    serve::RequestScratch& scratch) {
  std::string out;
  service.handle_line(line, scratch, out);
  return out;
}

std::string respond(serve::Service& service, std::string_view line) {
  serve::RequestScratch scratch;
  return respond(service, line, scratch);
}

/// Pulls `"name":<number>` out of a response line.
double number_field(const std::string& response, const std::string& name) {
  const std::string token = "\"" + name + "\":";
  const std::size_t at = response.find(token);
  EXPECT_NE(at, std::string::npos) << name << " missing in " << response;
  if (at == std::string::npos) return 0.0;
  return std::strtod(response.c_str() + at + token.size(), nullptr);
}

bool has_error_code(const std::string& response, const std::string& code) {
  return response.find("\"ok\":false") != std::string::npos &&
         response.find("\"code\":\"" + code + "\"") != std::string::npos;
}

class ObsGuard {
 public:
  explicit ObsGuard(bool enabled) : previous_(obs::enabled()) {
    obs::set_enabled(enabled);
  }
  ~ObsGuard() { obs::set_enabled(previous_); }

 private:
  bool previous_;
};

// --- protocol edges -------------------------------------------------------

TEST(ServeProtocolTest, MalformedJsonIsBadRequest) {
  auto service = make_service();
  const std::string out = respond(service, "{\"op\":\"health\",");
  EXPECT_TRUE(has_error_code(out, "bad_request")) << out;
  EXPECT_NE(out.find("\"id\":null"), std::string::npos) << out;
  EXPECT_EQ(out.back(), '\n');
}

TEST(ServeProtocolTest, NonObjectRootIsBadRequest) {
  auto service = make_service();
  EXPECT_TRUE(has_error_code(respond(service, "[1,2,3]"), "bad_request"));
  EXPECT_TRUE(has_error_code(respond(service, "42"), "bad_request"));
}

TEST(ServeProtocolTest, MissingOpIsBadRequest) {
  auto service = make_service();
  EXPECT_TRUE(has_error_code(respond(service, "{\"id\":1}"), "bad_request"));
}

TEST(ServeProtocolTest, UnknownOpEchoesIdWithUnknownOpCode) {
  auto service = make_service();
  const std::string out =
      respond(service, "{\"op\":\"frobnicate\",\"id\":17}");
  EXPECT_TRUE(has_error_code(out, "unknown_op")) << out;
  EXPECT_NE(out.find("\"id\":17"), std::string::npos) << out;
}

TEST(ServeProtocolTest, StringIdIsEchoedBack) {
  auto service = make_service();
  const std::string out =
      respond(service, "{\"op\":\"health\",\"id\":\"req-9\"}");
  EXPECT_NE(out.find("\"id\":\"req-9\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
}

TEST(ServeProtocolTest, BadParamTypesAreBadRequest) {
  auto service = make_service();
  EXPECT_TRUE(has_error_code(
      respond(service,
              "{\"op\":\"whatif\",\"params\":{\"reader_factor\":\"x\"}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service, "{\"op\":\"sweep\",\"params\":{\"steps\":1}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service, "{\"op\":\"uq\",\"params\":{\"credibility\":1.5}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service,
              "{\"op\":\"whatif\",\"params\":{\"per_class\":{\"nope\":0.5}}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service, "{\"op\":\"whatif\",\"deadline_ms\":0}"),
      "bad_request"));
}

TEST(ServeProtocolTest, EveryResponseIsOneLine) {
  auto service = make_service();
  serve::RequestScratch scratch;
  for (const char* line :
       {"{\"op\":\"health\"}", "{\"op\":\"analyze\"}", "{\"op\":\"whatif\"}",
        "{\"op\":\"metrics\"}", "not json", "{\"op\":\"nope\"}"}) {
    const std::string out = respond(service, line, scratch);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1) << out;
    EXPECT_EQ(out.back(), '\n');
  }
}

// --- results against the underlying engines -------------------------------

TEST(ServeServiceTest, WhatifMatchesExtrapolatorDirectly) {
  auto service = make_service();
  const std::string out = respond(
      service,
      "{\"op\":\"whatif\",\"params\":{\"reader_factor\":2.0,"
      "\"machine_factor\":0.5}}");
  ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;

  core::Extrapolator direct(core::paper::example_model(),
                            core::paper::trial_profile());
  core::Scenario scenario;
  scenario.profile = core::paper::field_profile();
  scenario.reader_failure_factor = 2.0;
  scenario.machine_failure_factor = 0.5;
  const core::ScenarioResult expected = direct.evaluate(scenario);

  // Replies print shortest round-trip doubles, so the parsed values are
  // the computed ones exactly.
  EXPECT_EQ(number_field(out, "system_failure"), expected.system_failure);
  EXPECT_EQ(number_field(out, "machine_failure"), expected.machine_failure);
  EXPECT_EQ(number_field(out, "failure_floor"), expected.failure_floor);
}

TEST(ServeServiceTest, SweepMatchesBinormalTradeoffDirectly) {
  struct Row {
    const char* line;
    std::size_t steps, points;
    double lo, hi;
  };
  const Row rows[] = {
      {"{\"op\":\"sweep\",\"params\":{\"steps\":101,\"points\":11,"
       "\"lo\":-3,\"hi\":2}}",
       101, 11, -3.0, 2.0},
      {"{\"op\":\"sweep\",\"params\":{\"steps\":100000,\"points\":33}}",
       100000, 33, -4.0, 4.0},
  };
  const core::TradeoffAnalyzer direct = core::binormal_tradeoff(
      core::paper::example_model(), core::paper::field_profile());
  auto service = make_service();
  for (const Row& row : rows) {
    const std::string out = respond(service, row.line);
    ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;
    std::size_t points = 0;
    for (std::size_t at = out.find("{\"threshold\":");
         at != std::string::npos; at = out.find("{\"threshold\":", at + 1)) {
      const std::string point = out.substr(at, out.find('}', at) - at + 1);
      // Point j sits at grid index j * (steps - 1) / (points - 1).
      const std::size_t index = points * (row.steps - 1) / (row.points - 1);
      const double threshold =
          row.lo + (row.hi - row.lo) * static_cast<double>(index) /
                       static_cast<double>(row.steps - 1);
      EXPECT_EQ(number_field(point, "threshold"), threshold) << point;
      const core::SystemOperatingPoint expected = direct.evaluate(threshold);
      EXPECT_EQ(number_field(point, "machine_fn"), expected.machine_fn);
      EXPECT_EQ(number_field(point, "machine_fp"), expected.machine_fp);
      EXPECT_EQ(number_field(point, "system_fn"), expected.system_fn);
      EXPECT_EQ(number_field(point, "system_fp"), expected.system_fp);
      EXPECT_EQ(number_field(point, "sensitivity"), expected.sensitivity);
      EXPECT_EQ(number_field(point, "specificity"), expected.specificity);
      EXPECT_EQ(number_field(point, "recall_rate"), expected.recall_rate);
      EXPECT_EQ(number_field(point, "ppv"), expected.ppv);
      ++points;
    }
    EXPECT_EQ(points, row.points) << out;
  }
}

/// One request line per cached endpoint.
constexpr const char* kCachedLines[] = {
    "{\"op\":\"whatif\",\"params\":{\"reader_factor\":1.5,"
    "\"per_class\":{\"difficult\":0.5}}}",
    "{\"op\":\"sweep\",\"params\":{\"steps\":64,\"points\":5}}",
    "{\"op\":\"minimise\",\"params\":{\"steps\":512}}",
    "{\"op\":\"uq\",\"params\":{\"draws\":200,\"seed\":3}}",
};

/// The reply a cache hit must give: the miss's reply with its cached flag
/// set.
std::string as_cache_hit(std::string miss) {
  const std::string flag = "\"cached\":false";
  const std::size_t at = miss.find(flag);
  if (at != std::string::npos) miss.replace(at, flag.size(), "\"cached\":true");
  return miss;
}

TEST(ServeServiceTest, SecondCallIsCacheHit) {
  auto service = make_service();
  serve::RequestScratch scratch;
  for (const char* line : kCachedLines) {
    const std::string first = respond(service, line, scratch);
    const std::string second = respond(service, line, scratch);
    ASSERT_NE(first.find("\"ok\":true"), std::string::npos) << first;
    EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
    EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
    // Identical numbers: the hit differs from the miss only in its flag.
    EXPECT_EQ(second, as_cache_hit(first));
  }
}

TEST(ServeServiceTest, CompareRanksByFieldFailure) {
  auto service = make_service();
  const std::string out = respond(
      service,
      "{\"op\":\"compare\",\"params\":{\"scenarios\":["
      "{\"name\":\"worse\",\"machine_factor\":4.0},"
      "{\"name\":\"better\",\"machine_factor\":0.25}]}}");
  ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;
  const std::size_t better = out.find("\"name\":\"better\"");
  const std::size_t worse = out.find("\"name\":\"worse\"");
  ASSERT_NE(better, std::string::npos);
  ASSERT_NE(worse, std::string::npos);
  EXPECT_LT(better, worse) << out;  // lower failure ranks first
}

TEST(ServeServiceTest, MinimiseDeadlineExpiresMidCompute) {
  // A 100000-step scan runs as 13 deadline-checked chunks and takes
  // several ms, well past a 1 ms deadline.
  auto service = make_service();
  const std::string out = respond(
      service,
      "{\"op\":\"minimise\",\"deadline_ms\":1,"
      "\"params\":{\"steps\":100000}}");
  EXPECT_TRUE(has_error_code(out, "deadline_exceeded")) << out;
}

TEST(ServeServiceTest, UqIsDeterministicForFixedSeed) {
  auto service = make_service();
  auto service2 = make_service();
  const std::string line =
      "{\"op\":\"uq\",\"params\":{\"draws\":200,\"seed\":7}}";
  const std::string a = respond(service, line);
  const std::string b = respond(service2, line);
  ASSERT_NE(a.find("\"ok\":true"), std::string::npos) << a;
  EXPECT_EQ(number_field(a, "mean"), number_field(b, "mean"));
  EXPECT_EQ(number_field(a, "lower"), number_field(b, "lower"));
  EXPECT_EQ(number_field(a, "upper"), number_field(b, "upper"));
}

// --- admission control ----------------------------------------------------

TEST(ServeAdmissionTest, QueuedRequestFailsAtItsDeadline) {
  serve::ServiceOptions options;
  options.max_concurrent = 1;
  auto service = make_service(options);

  // Occupy the single slot directly, then submit a compute request that
  // may wait 20 ms for it.
  const auto outcome =
      service.gate().acquire(serve::Service::Clock::now() + 10s);
  ASSERT_EQ(outcome, serve::AdmissionGate::Outcome::kAdmitted);
  const std::string out =
      respond(service, "{\"op\":\"whatif\",\"id\":5,\"deadline_ms\":20}");
  service.gate().release();

  EXPECT_TRUE(has_error_code(out, "deadline_exceeded")) << out;
  EXPECT_NE(out.find("while queued"), std::string::npos) << out;
  EXPECT_NE(out.find("\"id\":5"), std::string::npos) << out;
}

TEST(ServeAdmissionTest, HealthBypassesTheGate) {
  serve::ServiceOptions options;
  options.max_concurrent = 1;
  auto service = make_service(options);
  ASSERT_EQ(service.gate().acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  const std::string out = respond(service, "{\"op\":\"health\"}");
  service.gate().release();
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
}

TEST(ServeAdmissionTest, QueuedWaiterTimesOutAtDeadline) {
  serve::AdmissionGate gate({/*max_concurrent=*/1});
  ASSERT_EQ(gate.acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  EXPECT_EQ(gate.acquire(serve::Service::Clock::now() + 20ms),
            serve::AdmissionGate::Outcome::kDeadlineExceeded);
  gate.release();
}

TEST(ServeAdmissionTest, WaiterAdmittedWhenSlotFrees) {
  serve::AdmissionGate gate({/*max_concurrent=*/1});
  ASSERT_EQ(gate.acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  std::thread releaser([&] {
    std::this_thread::sleep_for(20ms);
    gate.release();
  });
  EXPECT_EQ(gate.acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  releaser.join();
  gate.release();
}

// --- reload ---------------------------------------------------------------

TEST(ServeServiceTest, ReloadBumpsEpochAndInvalidatesCaches) {
  auto service = make_service();
  serve::RequestScratch scratch;
  std::vector<std::string> misses;
  for (const char* line : kCachedLines) {
    misses.push_back(respond(service, line, scratch));
    ASSERT_NE(misses.back().find("\"cached\":false"), std::string::npos)
        << misses.back();
    ASSERT_NE(respond(service, line, scratch).find("\"cached\":true"),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(service.epoch(), 1u);

  service.reload(core::paper::example_model(), core::paper::trial_profile(),
                 core::paper::field_profile());
  EXPECT_EQ(service.epoch(), 2u);
  // Same inputs, but every cache was cleared with the swap: each endpoint
  // misses again and recomputes the same reply.
  for (std::size_t i = 0; i < std::size(kCachedLines); ++i) {
    EXPECT_EQ(respond(service, kCachedLines[i], scratch), misses[i])
        << kCachedLines[i];
  }
}

TEST(ServeServiceTest, HealthReportsEpochAndDraining) {
  auto service = make_service();
  std::string out = respond(service, "{\"op\":\"health\"}");
  EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"epoch\":1"), std::string::npos) << out;
  service.set_draining(true);
  out = respond(service, "{\"op\":\"health\"}");
  EXPECT_NE(out.find("\"status\":\"draining\""), std::string::npos) << out;
}

TEST(ServeServiceTest, MetricsExposePerEndpointCounters) {
  const ObsGuard obs_on(true);
  auto service = make_service();
  respond(service, "{\"op\":\"whatif\"}");
  respond(service, "{\"op\":\"whatif\"}");
  const std::string out = respond(service, "{\"op\":\"metrics\"}");
  EXPECT_NE(out.find("\"serve.whatif.requests\":2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("serve.whatif.ns"), std::string::npos) << out;
}

TEST(ServeServiceTest, MetricsRenderTailQuantilesAndMax) {
  const ObsGuard obs_on(true);
  auto service = make_service();
  respond(service, "{\"op\":\"whatif\",\"params\":{\"reader_factor\":1.5}}");
  const std::string out = respond(service, "{\"op\":\"metrics\"}");
  // Every histogram entry carries the tail fields (p99.9 report-side via
  // snapshot_quantile, max straight from the snapshot).
  const std::size_t at = out.find("\"serve.whatif.ns\"");
  ASSERT_NE(at, std::string::npos) << out;
  const std::size_t entry_end = out.find('}', at);
  const std::string entry = out.substr(at, entry_end - at);
  EXPECT_NE(entry.find("\"p99\":"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"p999\":"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"max\":"), std::string::npos) << entry;
  // At least one recording happened, so neither tail field may be zero.
  EXPECT_GT(number_field(entry + "}", "p999"), 0.0) << entry;
  EXPECT_GT(number_field(entry + "}", "max"), 0.0) << entry;
}

// --- zero-allocation hit path ---------------------------------------------

TEST(ServeServiceTest, WhatifCacheHitAllocatesNothing) {
  // Metrics pointers are pre-registered, but obs stays off here so the
  // assertion pins the service path itself.
  const ObsGuard obs_off(false);
  auto service = make_service();
  serve::RequestScratch scratch;
  std::string out;
  out.reserve(4096);
  const std::string line =
      "{\"op\":\"whatif\",\"id\":12,\"params\":{\"reader_factor\":1.25,"
      "\"machine_factor\":0.75}}";

  // Warm up: fill the cache, size every scratch buffer and the thread
  // workspace arena.
  for (int i = 0; i < 3; ++i) {
    out.clear();
    service.handle_line(line, scratch, out);
    ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;
  }
  ASSERT_NE(out.find("\"cached\":true"), std::string::npos) << out;

  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 10; ++i) {
    out.clear();
    service.handle_line(line, scratch, out);
  }
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "whatif cache hits must not allocate on the steady state";
  EXPECT_NE(out.find("\"cached\":true"), std::string::npos) << out;
}

// --- JSON parser ----------------------------------------------------------

TEST(ServeJsonTest, ParsesNestedDocument) {
  serve::JsonParser parser;
  auto& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const auto result = parser.parse(
      "{\"a\":[1,2.5,-3e2],\"b\":{\"c\":\"x\\ny\"},\"t\":true,\"n\":null}",
      workspace);
  ASSERT_EQ(result.error, nullptr) << result.error;
  const serve::JsonValue* root = result.value;
  ASSERT_TRUE(root->is_object());
  const serve::JsonValue* a = root->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->item_count, 3u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].number, -300.0);
  const serve::JsonValue* b = root->find("b");
  ASSERT_NE(b, nullptr);
  const serve::JsonValue* c = b->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string(), "x\ny");
  EXPECT_TRUE(root->find("t")->boolean);
  EXPECT_TRUE(root->find("n")->is_null());
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  serve::JsonParser parser;
  auto& workspace = exec::thread_workspace();
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1}x", "nul", "+1", "1.",
        "\"\\q\"", "\"\\ud800\"", "{\"a\" 1}", "[1 2]", "nan", "inf"}) {
    const exec::Workspace::Scope scope(workspace);
    const auto result = parser.parse(bad, workspace);
    EXPECT_NE(result.error, nullptr) << "accepted: " << bad;
  }
}

TEST(ServeJsonTest, RejectsOverDeepNesting) {
  serve::JsonParser parser;
  auto& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  std::string deep(80, '[');
  deep += std::string(80, ']');
  const auto result = parser.parse(deep, workspace);
  EXPECT_NE(result.error, nullptr);
}

TEST(ServeJsonTest, NumberWriterEmitsNullForNonFinite) {
  std::string out;
  serve::append_json_number(out, std::nan(""));
  EXPECT_EQ(out, "null");
  out.clear();
  serve::append_json_number(out, 0.25);
  EXPECT_EQ(out, "0.25");
}

// --- TCP server -----------------------------------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_str(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t rc =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
    } else if (rc < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Reads until `lines` newline-terminated lines arrived or EOF/error.
std::vector<std::string> read_lines(int fd, std::size_t lines) {
  std::string buffer;
  char chunk[4096];
  while (std::count(buffer.begin(), buffer.end(), '\n') <
         static_cast<std::ptrdiff_t>(lines)) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  std::vector<std::string> result;
  std::size_t from = 0;
  for (;;) {
    const std::size_t nl = buffer.find('\n', from);
    if (nl == std::string::npos) break;
    result.push_back(buffer.substr(from, nl - from));
    from = nl + 1;
  }
  return result;
}

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(ServeServerTest, AnswersPipelinedRequestsInOrder) {
  auto service = make_service();
  serve::ServerOptions options;
  serve::Server server(service, options);
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::string batch;
  for (int i = 0; i < 10; ++i) {
    batch += "{\"op\":\"whatif\",\"id\":" + std::to_string(i) +
             ",\"params\":{\"reader_factor\":1.5}}\n";
  }
  ASSERT_TRUE(send_str(fd, batch));
  const std::vector<std::string> lines = read_lines(fd, 10);
  ASSERT_EQ(lines.size(), 10u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i)),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos) << lines[i];
  }
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, BlankAndCarriageReturnLinesAreIgnored) {
  auto service = make_service();
  serve::Server server(service, {});
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_str(fd, "\r\n\n{\"op\":\"health\",\"id\":1}\r\n"));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, OversizedLineGetsStructuredErrorThenClose) {
  auto service = make_service();
  serve::ServerOptions options;
  options.max_line_bytes = 1024;
  serve::Server server(service, options);
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  const std::string huge(4096, 'x');  // no newline: one line, too long
  ASSERT_TRUE(send_str(fd, huge));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_error_code(lines[0] + "\n", "oversized")) << lines[0];
  // The server closes the connection after the error line.
  char byte;
  ssize_t got;
  do {
    got = ::read(fd, &byte, 1);
  } while (got < 0 && errno == EINTR);
  EXPECT_EQ(got, 0);
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, ShutdownDrainsBufferedRequests) {
  auto service = make_service();
  serve::Server server(service, {});
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  // One round-trip first so the connection is established server-side
  // (drain covers accepted connections, not the accept queue).
  ASSERT_TRUE(send_str(fd, "{\"op\":\"health\"}\n"));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);

  constexpr int kRequests = 20;
  std::string batch;
  for (int i = 0; i < kRequests; ++i) {
    batch += "{\"op\":\"whatif\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(send_str(fd, batch));
  // Shutdown races the connection thread on purpose: every request sent
  // before the stop signal must still be answered, whichever side wins —
  // the drain grace window picks up bytes still in flight.
  server.shutdown();
  const auto lines = read_lines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  ::close(fd);
}

TEST(ServeServerTest, BusyConnectionsAreRejectedWithStructuredError) {
  auto service = make_service();
  serve::ServerOptions options;
  options.max_connections = 1;
  serve::Server server(service, options);
  server.start();

  const int first = connect_to(server.port());
  ASSERT_GE(first, 0);
  ASSERT_TRUE(send_str(first, "{\"op\":\"health\"}\n"));
  ASSERT_EQ(read_lines(first, 1).size(), 1u);  // first conn is live

  const int second = connect_to(server.port());
  ASSERT_GE(second, 0);
  const auto lines = read_lines(second, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_error_code(lines[0] + "\n", "busy")) << lines[0];
  ::close(second);
  ::close(first);
  server.shutdown();
}

TEST(ServeServerTest, LifecycleLeaksNoFileDescriptors) {
  // Settle any lazy fd creation first (gtest, locale, /proc itself).
  {
    auto service = make_service();
    serve::Server server(service, {});
    server.start();
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    ::close(fd);
    server.shutdown();
  }
  const std::size_t before = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    auto service = make_service();
    serve::Server server(service, {});
    server.start();
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_str(fd, "{\"op\":\"whatif\"}\n"));
    ASSERT_EQ(read_lines(fd, 1).size(), 1u);
    ::close(fd);
    server.shutdown();
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST(ServeServerTest, RestartAfterShutdownWorks) {
  auto service = make_service();
  serve::Server server(service, {});
  server.start();
  server.shutdown();
  EXPECT_FALSE(server.running());
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_str(fd, "{\"op\":\"health\"}\n"));
  EXPECT_EQ(read_lines(fd, 1).size(), 1u);
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, SendTimeoutToStuckPeerClosesAndCounts) {
  // A peer that stops reading must not wedge its connection thread past
  // the send timeout: the blocked send returns EAGAIN, the server counts
  // serve.conn.send_timeout and closes. Small SO_SNDBUF (server) and
  // SO_RCVBUF (client) make the kernel buffers overflow with a modest
  // burst; pipelined metrics responses (~kilobytes each) fill them fast.
  ObsGuard obs_on(true);
  const auto counter_value = [] {
    for (const auto& c : obs::registry_snapshot().counters) {
      if (c.name == "serve.conn.send_timeout") return c.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = counter_value();

  auto service = make_service();
  serve::ServerOptions options;
  options.send_timeout_seconds = 1;
  options.send_buffer_bytes = 4096;
  serve::Server server(service, options);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  std::string burst;
  for (int i = 0; i < 200; ++i) {
    burst += "{\"op\":\"metrics\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(send_str(fd, burst));
  // ...and never read. The server's first blocked send times out after
  // ~1 s; poll the counter rather than sleeping a fixed worst case.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (counter_value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(counter_value(), before);

  // The server abandoned the connection: draining it now ends in EOF (or
  // a reset) well before the peer could ever have received every reply.
  char sink[4096];
  ssize_t got;
  do {
    got = ::recv(fd, sink, sizeof sink, 0);
  } while (got > 0 || (got < 0 && errno == EINTR));
  EXPECT_LE(got, 0);
  ::close(fd);
  server.shutdown();
}

// --- the real binary under SIGTERM ----------------------------------------

TEST(ServeServerTest, SigtermDrainsSpawnedDaemon) {
  const char* binary = std::getenv("HMDIV_SERVE_BIN");
  if (binary == nullptr || *binary == '\0') {
    GTEST_SKIP() << "HMDIV_SERVE_BIN not set";
  }

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(binary, binary, "--example", "--port", "0",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out_pipe[1]);

  // Parse "listening on 127.0.0.1:<port>" from the daemon's stdout.
  std::string banner;
  char chunk[256];
  while (banner.find('\n') == std::string::npos) {
    const ssize_t got = ::read(out_pipe[0], chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    ASSERT_GT(got, 0) << "daemon exited before printing its banner";
    banner.append(chunk, static_cast<std::size_t>(got));
  }
  const std::size_t colon = banner.rfind(':', banner.find('\n'));
  ASSERT_NE(colon, std::string::npos) << banner;
  const int port = std::atoi(banner.c_str() + colon + 1);
  ASSERT_GT(port, 0) << banner;

  const int fd = connect_to(static_cast<std::uint16_t>(port));
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_str(fd, "{\"op\":\"whatif\",\"id\":1}\n"));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(fd);
  ::close(out_pipe[0]);
}

}  // namespace
}  // namespace hmdiv
