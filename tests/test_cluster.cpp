// Tests for the multi-host cluster engine (DESIGN.md §15): the shared
// host:port parse, the obs snapshot delta the workers ship, the worker-
// side ShardSession state machine, the coordinator's fixed partition, the
// ClusterRunner coordinator against real spawned hmdiv_serve daemons
// (bit-identity for every clustered workload over 1, 2 and 3 workers),
// transport-fault reassignment (connection reset, slow drain past the task
// deadline, injected reply delay, dead workers, re-admission) and hostile
// worker replies.
//
// Daemon-backed tests spawn the real hmdiv_serve binary (HMDIV_SERVE_BIN,
// exported by the test harness) on loopback ephemeral ports and self-skip
// when the binary is absent. The protocol pieces, and the tests that serve
// from an in-process serve::Server, always run.
#include "exec/cluster.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli/parse_util.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/cluster_protocol.hpp"
#include "exec/config.hpp"
#include "exec/shard_protocol.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "sim/trial_shard.hpp"
#include "stats/rng.hpp"

namespace hmdiv {
namespace {

namespace wire = exec::wire;
using namespace std::chrono_literals;

// --- daemon harness -------------------------------------------------------

const char* serve_binary() {
  const char* binary = std::getenv("HMDIV_SERVE_BIN");
  return (binary != nullptr && *binary != '\0') ? binary : nullptr;
}

#define HMDIV_REQUIRE_DAEMONS()                                          \
  do {                                                                   \
    if (serve_binary() == nullptr) {                                     \
      GTEST_SKIP() << "HMDIV_SERVE_BIN not set";                         \
    }                                                                    \
  } while (0)

/// One spawned `hmdiv_serve --example` worker on an ephemeral loopback
/// port. `fault` (optional) becomes HMDIV_SHARD_FAULT in the child's
/// environment only, so serve-transport faults fire on exactly one worker.
class SpawnedDaemon {
 public:
  explicit SpawnedDaemon(const char* fault = nullptr) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      return;
    }
    if (pid_ == 0) {
      if (fault != nullptr) ::setenv("HMDIV_SHARD_FAULT", fault, 1);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      const char* binary = serve_binary();
      ::execl(binary, binary, "--example", "--port", "0", "--threads", "1",
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
      if (got <= 0) break;
      banner.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(out_pipe[0]);
    const std::size_t newline = banner.find('\n');
    const std::size_t colon =
        newline == std::string::npos ? std::string::npos
                                     : banner.rfind(':', newline);
    if (colon != std::string::npos) {
      port_ = std::atoi(banner.c_str() + colon + 1);
    }
  }

  ~SpawnedDaemon() { stop(); }
  SpawnedDaemon(const SpawnedDaemon&) = delete;
  SpawnedDaemon& operator=(const SpawnedDaemon&) = delete;

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] bool ok() const { return pid_ > 0 && port_ > 0; }
  [[nodiscard]] std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

exec::ClusterOptions cluster_options(std::vector<std::string> workers) {
  exec::ClusterOptions options;
  options.workers = std::move(workers);
  options.threads = 1;
  return options;
}


// --- reference fixtures ---------------------------------------------------

core::TradeoffAnalyzer reference_analyzer() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.8};
  machine.normal_class_means = {-2.0, -0.5};
  core::DemandProfile cancers({"easy", "difficult"}, {0.9, 0.1});
  std::vector<core::HumanFnResponse> fn(2);
  fn[0] = {0.14, 0.18};
  fn[1] = {0.4, 0.9};
  core::DemandProfile normals({"typical", "complex"}, {0.85, 0.15});
  std::vector<core::HumanFpResponse> fp(2);
  fp[0] = {0.10, 0.02};
  fp[1] = {0.35, 0.12};
  return core::TradeoffAnalyzer(std::move(machine), std::move(cancers),
                                std::move(fn), std::move(normals),
                                std::move(fp), 0.01);
}

core::PosteriorModelSampler paper_sampler() {
  core::ClassCounts easy;
  easy.cases = 800;
  easy.machine_failures = 56;
  easy.human_failures_given_machine_failed = 28;
  easy.human_failures_given_machine_succeeded = 40;
  core::ClassCounts difficult;
  difficult.cases = 200;
  difficult.machine_failures = 82;
  difficult.human_failures_given_machine_failed = 74;
  difficult.human_failures_given_machine_succeeded = 30;
  return core::PosteriorModelSampler({"easy", "difficult"},
                                     {easy, difficult});
}

std::vector<double> reference_thresholds(std::size_t n) {
  std::vector<double> thresholds(n);
  for (std::size_t i = 0; i < n; ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(n - 1);
  }
  return thresholds;
}

void expect_points_equal(
    const std::vector<core::SystemOperatingPoint>& actual,
    const std::vector<core::SystemOperatingPoint>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i].threshold),
              std::bit_cast<std::uint64_t>(expected[i].threshold))
        << "point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i].system_fn),
              std::bit_cast<std::uint64_t>(expected[i].system_fn))
        << "point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i].system_fp),
              std::bit_cast<std::uint64_t>(expected[i].system_fp))
        << "point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i].ppv),
              std::bit_cast<std::uint64_t>(expected[i].ppv))
        << "point " << i;
  }
}

// --- cli::parse_host_port -------------------------------------------------
// (The full rejection table lives in src/cli/CMakeLists.txt: every
// malformed spelling must exit 2 through the real CLIs. Here: accepts.)

TEST(ClusterParseHostPortTest, AcceptsPlainHostPort) {
  const cli::HostPort parsed =
      cli::parse_host_port("test", "--workers", "example.org:8080", "");
  EXPECT_EQ(parsed.host, "example.org");
  EXPECT_EQ(parsed.port, 8080);
}

TEST(ClusterParseHostPortTest, AcceptsBracketedIpv6) {
  const cli::HostPort parsed =
      cli::parse_host_port("test", "--workers", "[::1]:9000", "");
  EXPECT_EQ(parsed.host, "::1");
  EXPECT_EQ(parsed.port, 9000);
}

TEST(ClusterParseHostPortTest, AcceptsPortBounds) {
  EXPECT_EQ(cli::parse_host_port("test", "--bind", "0.0.0.0:0", "").port, 0);
  EXPECT_EQ(cli::parse_host_port("test", "--bind", "h:65535", "").port,
            65535);
}

// --- obs::snapshot_delta --------------------------------------------------

TEST(ClusterSnapshotDeltaTest, CountersAndHistogramsSubtract) {
  obs::Snapshot before;
  before.counters.push_back({"a.count", 10});
  obs::HistogramSnapshot h;
  h.name = "a.ns";
  h.count = 4;
  h.sum = 400;
  h.min = 50;
  h.max = 200;
  h.buckets.assign(obs::Histogram::kBuckets, 0);
  h.buckets[6] = 4;
  before.histograms.push_back(h);

  obs::Snapshot after = before;
  after.counters[0].value = 17;
  after.histograms[0].count = 6;
  after.histograms[0].sum = 1000;
  after.histograms[0].min = 25;   // cumulative envelope widened
  after.histograms[0].max = 500;
  after.histograms[0].buckets[6] = 5;
  after.histograms[0].buckets[8] = 1;

  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].name, "a.count");
  EXPECT_EQ(delta.counters[0].value, 7u);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 2u);
  EXPECT_EQ(delta.histograms[0].sum, 600u);
  // min/max carry the cumulative envelope (documented approximation).
  EXPECT_EQ(delta.histograms[0].min, 25u);
  EXPECT_EQ(delta.histograms[0].max, 500u);
  EXPECT_EQ(delta.histograms[0].buckets[6], 1u);
  EXPECT_EQ(delta.histograms[0].buckets[8], 1u);
}

TEST(ClusterSnapshotDeltaTest, UnchangedMetricsAreDropped) {
  obs::Snapshot before;
  before.counters.push_back({"same", 5});
  obs::Snapshot after = before;
  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  EXPECT_TRUE(delta.empty());
}

TEST(ClusterSnapshotDeltaTest, NewMetricsPassThroughWhole) {
  obs::Snapshot before;
  obs::Snapshot after;
  after.counters.push_back({"fresh", 3});
  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].value, 3u);
}

// --- worker-side ShardSession ---------------------------------------------

std::vector<std::uint8_t> echo_handler(const wire::ShardTask& task) {
  wire::Writer w;
  w.u32(task.shard_index);
  w.u32(task.shard_count);
  w.bytes(task.blob);
  return w.take();
}

const exec::ShardWorkloadRegistration kEchoRegistration{"cluster.echo",
                                                        &echo_handler};

/// Replies with the obs gate as the handler saw it (one byte).
std::vector<std::uint8_t> gate_probe_handler(const wire::ShardTask&) {
  return {static_cast<std::uint8_t>(obs::enabled() ? 1 : 0)};
}

const exec::ShardWorkloadRegistration kGateProbeRegistration{
    "cluster.gate_probe", &gate_probe_handler};

std::vector<std::uint8_t> task_frame(std::string_view workload,
                                     std::uint32_t shard, std::uint32_t count,
                                     bool obs_enabled = false) {
  wire::ShardTask task;
  task.workload = std::string(workload);
  task.shard_index = shard;
  task.shard_count = count;
  task.threads = 1;
  task.obs_enabled = obs_enabled;
  task.blob = {1, 2, 3};
  std::vector<std::uint8_t> out;
  wire::append_frame(out, wire::FrameType::task, wire::serialize_task(task));
  return out;
}

std::vector<wire::Frame> parse_reply(std::span<const std::uint8_t> bytes) {
  wire::FrameParser parser;
  parser.feed(bytes);
  std::vector<wire::Frame> frames;
  while (auto frame = parser.next()) frames.push_back(std::move(*frame));
  EXPECT_TRUE(parser.idle());
  return frames;
}

TEST(ClusterSessionTest, EchoTaskRoundTrips) {
  exec::ShardSession session;
  const auto replies = session.consume(task_frame("cluster.echo", 2, 5));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].shard_index, 2u);
  EXPECT_FALSE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  // result + done (no obs frame when obs_enabled is false); the done
  // frame's id echoes the task's shard index so a pipelining
  // coordinator can match it against its in-flight FIFO.
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  wire::Reader r(frames[0].payload);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_EQ(frames[1].type, wire::FrameType::done);
  EXPECT_EQ(wire::parse_done(frames[1].payload), 2u);
}

TEST(ClusterSessionTest, ObsEnabledTaskShipsDeltaFrame) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);  // as in a daemon
  exec::ShardSession session;
  const auto replies =
      session.consume(task_frame("cluster.echo", 0, 1, /*obs_enabled=*/true));
  obs::set_enabled(was_enabled);
  ASSERT_EQ(replies.size(), 1u);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 3u);  // result + obs + done
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  EXPECT_EQ(frames[1].type, wire::FrameType::obs);
  EXPECT_EQ(frames[2].type, wire::FrameType::done);
  // The delta covers exactly this task's execution, so the per-task
  // counter must be 1 — not the daemon's uptime total.
  const obs::Snapshot delta = wire::parse_snapshot(frames[1].payload);
  bool found = false;
  for (const auto& counter : delta.counters) {
    if (counter.name == "serve.shard.tasks") {
      EXPECT_EQ(counter.value, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ClusterSessionTest, ObsTaskLeavesTheProcessGateAlone) {
  // A worker whose obs gate is off: a task asking for obs must neither
  // turn the process-wide gate on for its run (the daemon's other
  // connections would record under it) nor ship an obs frame.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  exec::ShardSession session;
  const auto replies = session.consume(
      task_frame("cluster.gate_probe", 0, 1, /*obs_enabled=*/true));
  const bool after = obs::enabled();
  obs::set_enabled(was_enabled);
  EXPECT_FALSE(after);
  ASSERT_EQ(replies.size(), 1u);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 2u);  // result + done
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  EXPECT_EQ(frames[0].payload, std::vector<std::uint8_t>{0});  // gate off
  EXPECT_EQ(frames[1].type, wire::FrameType::done);
}

TEST(ClusterSessionTest, UnknownWorkloadYieldsErrorFrame) {
  exec::ShardSession session;
  const auto replies = session.consume(task_frame("no.such.workload", 0, 1));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  // An error frame is terminal for the task: no done frame follows it
  // (done marks successful completion only).
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
}

TEST(ClusterSessionTest, GarbageBytesKillTheSession) {
  exec::ShardSession session;
  const std::uint8_t garbage[] = {'N', 'O', 'P', 'E', 0, 0, 0, 0,
                                  1,   2,   3,   4,   5, 6, 7, 8};
  const auto replies = session.consume(garbage);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
  // Dead session ignores further (even well-formed) bytes.
  EXPECT_TRUE(session.consume(task_frame("cluster.echo", 0, 1)).empty());
}

TEST(ClusterSessionTest, SplitTaskFrameCompletesOnSecondChunk) {
  exec::ShardSession session;
  const auto frame = task_frame("cluster.echo", 1, 3);
  const std::size_t half = frame.size() / 2;
  EXPECT_TRUE(
      session.consume(std::span(frame.data(), half)).empty());
  const auto replies =
      session.consume(std::span(frame.data() + half, frame.size() - half));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].shard_index, 1u);
}

TEST(ClusterSessionTest, PipelinedTasksReplyInOrderAtEveryChunking) {
  // Three back-to-back task frames — the wire image of a pipelining
  // coordinator — fed at every fixed chunk size: the session must yield
  // the same three replies in arrival order, each closed by the matching
  // done frame, no matter where the read boundaries fall.
  std::vector<std::uint8_t> stream;
  for (const std::uint32_t s : {0u, 1u, 2u}) {
    const auto frame = task_frame("cluster.echo", s, 3);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    exec::ShardSession session;
    std::vector<exec::ShardSession::Reply> replies;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      for (auto& reply :
           session.consume(std::span(stream.data() + off, n))) {
        replies.push_back(std::move(reply));
      }
    }
    ASSERT_EQ(replies.size(), 3u) << "chunk size " << chunk;
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(replies[s].shard_index, s) << "chunk size " << chunk;
      EXPECT_FALSE(replies[s].close);
      const auto frames = parse_reply(replies[s].bytes);
      ASSERT_EQ(frames.size(), 2u) << "chunk size " << chunk;
      EXPECT_EQ(frames[0].type, wire::FrameType::result);
      EXPECT_EQ(frames[1].type, wire::FrameType::done);
      EXPECT_EQ(wire::parse_done(frames[1].payload), s);
    }
  }
}

TEST(ClusterSessionTest, CachedBlobTasksReuseTheConnectionBlob) {
  exec::ShardSession session;
  // First task ships the blob inline (task_frame uses {1, 2, 3}) and
  // populates the session cache ...
  ASSERT_EQ(session.consume(task_frame("cluster.echo", 0, 4)).size(), 1u);
  // ... so a follow-up task can reference it instead of re-shipping.
  wire::ShardTask cached;
  cached.workload = "cluster.echo";
  cached.shard_index = 1;
  cached.shard_count = 4;
  cached.threads = 1;
  cached.blob_cached = true;
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameType::task,
                     wire::serialize_task(cached));
  const auto replies = session.consume(frame);
  ASSERT_EQ(replies.size(), 1u);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].type, wire::FrameType::result);
  wire::Reader r(frames[0].payload);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u32(), 4u);
  // The echo handler appends the blob it saw: the cached {1, 2, 3}.
  const auto blob = r.take(3);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(blob[0], 1u);
  EXPECT_EQ(blob[1], 2u);
  EXPECT_EQ(blob[2], 3u);
}

TEST(ClusterSessionTest, CachedTaskWithoutPriorBlobIsAnError) {
  exec::ShardSession session;
  wire::ShardTask cached;
  cached.workload = "cluster.echo";
  cached.shard_index = 0;
  cached.shard_count = 1;
  cached.blob_cached = true;
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameType::task,
                     wire::serialize_task(cached));
  const auto replies = session.consume(frame);
  ASSERT_EQ(replies.size(), 1u);
  // A structured (deterministic) error, not a dead stream: the
  // coordinator aborts the run, other connections are unaffected.
  EXPECT_FALSE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
}

// --- the fixed partition (no sockets) -------------------------------------

TEST(ClusterShardCountTest, SixteenPerWorkerWithinTheItemsAndTheCeiling) {
  for (const std::uint64_t items : {0ull, 1ull, 3ull, 1'000'000ull}) {
    for (const std::size_t workers : {1u, 2u, 8u, 16u, 32u}) {
      const std::uint32_t shards = exec::cluster_shard_count(items, workers);
      EXPECT_GE(shards, 1u) << items << " items, " << workers << " workers";
      EXPECT_LE(shards, wire::kMaxShards)
          << items << " items, " << workers << " workers";
      // Never more tasks than items; an empty workload still runs one.
      EXPECT_LE(shards, std::max<std::uint64_t>(items, 1))
          << items << " items, " << workers << " workers";
    }
  }
  EXPECT_EQ(exec::cluster_shard_count(0, 2), 1u);
  EXPECT_EQ(exec::cluster_shard_count(3, 8), 3u);
  EXPECT_EQ(exec::cluster_shard_count(1'000'000, 1), 16u);
  EXPECT_EQ(exec::cluster_shard_count(1'000'000, 2), 32u);
  EXPECT_EQ(exec::cluster_shard_count(1'000'000, 8), 128u);
  EXPECT_EQ(exec::cluster_shard_count(1'000'000, 16), 256u);
  EXPECT_EQ(exec::cluster_shard_count(1'000'000, 32), 256u);
}

// --- ClusterRunner against real daemons -----------------------------------

TEST(ClusterRunnerTest, TrialIsBitIdenticalAcrossWorkersAndShards) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  SpawnedDaemon b;
  SpawnedDaemon c;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  const std::vector<std::string> fleet{a.address(), b.address(), c.address()};
  // 49 batches: 16, 32 and 48 shards over 1, 2 and 3 workers.
  constexpr std::uint64_t kCases = 200'000;
  constexpr std::uint64_t kSeed = 20030625;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  const sim::TrialData reference =
      sim::TrialRunner(world, kCases).run(kSeed, exec::Config{2});
  for (std::size_t workers = 1; workers <= fleet.size(); ++workers) {
    exec::ClusterRunner cluster(cluster_options(
        {fleet.begin(), fleet.begin() + static_cast<std::ptrdiff_t>(workers)}));
    const sim::TrialData clustered =
        sim::run_trial_clustered(world, kCases, kSeed, cluster);
    ASSERT_EQ(clustered.records.size(), reference.records.size());
    for (std::size_t i = 0; i < reference.records.size(); ++i) {
      ASSERT_EQ(clustered.records[i].class_index,
                reference.records[i].class_index)
          << "workers " << workers << " case " << i;
      ASSERT_EQ(clustered.records[i].machine_failed,
                reference.records[i].machine_failed);
      ASSERT_EQ(clustered.records[i].human_failed,
                reference.records[i].human_failed);
    }
  }
}

TEST(ClusterRunnerTest, SweepAndMinimiseAreBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  SpawnedDaemon b;
  SpawnedDaemon c;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  const std::vector<std::string> fleet{a.address(), b.address(), c.address()};
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(513);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});
  const auto best_reference =
      analyzer.minimise_cost(500.0, 20.0, -4.0, 4.0, 999, exec::Config{2});

  for (std::size_t workers = 1; workers <= fleet.size(); ++workers) {
    exec::ClusterRunner cluster(cluster_options(
        {fleet.begin(), fleet.begin() + static_cast<std::ptrdiff_t>(workers)}));
    // Every call is cut into exactly cluster_shard_count tasks, one
    // micro-shard each, whatever the timing.
    std::uint64_t tasks = 0;
    const auto expect_tasks = [&](std::uint64_t items) {
      std::uint64_t now = 0;
      for (const auto& stats : cluster.worker_stats()) now += stats.tasks;
      EXPECT_EQ(now - tasks, exec::cluster_shard_count(items, workers))
          << "workers " << workers;
      tasks = now;
    };
    expect_points_equal(core::sweep_clustered(analyzer, thresholds, cluster),
                        reference);
    expect_tasks(thresholds.size());
    const auto best = core::minimise_cost_clustered(analyzer, 500.0, 20.0,
                                                    -4.0, 4.0, 999, cluster);
    expect_tasks(999);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best.threshold),
              std::bit_cast<std::uint64_t>(best_reference.threshold));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best.system_fn),
              std::bit_cast<std::uint64_t>(best_reference.system_fn));

    // Flat plateau: the earliest-grid-point tie rule must survive the
    // network transport too.
    const auto tie = core::minimise_cost_clustered(analyzer, 0.0, 0.0, -4.0,
                                                   4.0, 999, cluster);
    expect_tasks(999);
    EXPECT_EQ(tie.threshold, -4.0);

    // Every call reused the same warm pool; nothing was retried. (Which
    // worker ran how many tasks depends on connect timing: a worker still
    // handshaking while the others drain the queue may run none.)
    for (const auto& stats : cluster.worker_stats()) {
      EXPECT_EQ(stats.retries, 0u) << stats.address;
    }
  }
}

TEST(ClusterRunnerTest, PosteriorDrawsAreBitIdenticalAndRngInLockstep) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  SpawnedDaemon b;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const core::PosteriorModelSampler sampler = paper_sampler();
  const core::DemandProfile field = core::paper::field_profile();
  constexpr std::size_t kDraws = 1500;  // 3 chunks of 512, last one ragged

  std::vector<double> reference(kDraws);
  stats::Rng reference_rng(42);
  sampler.sample_failure_probabilities(field, reference_rng, reference,
                                       exec::Config{2});

  std::vector<double> clustered(kDraws);
  stats::Rng clustered_rng(42);
  exec::ClusterRunner cluster(cluster_options({a.address(), b.address()}));
  core::sample_failure_probabilities_clustered(sampler, field, clustered_rng,
                                               clustered, cluster);
  for (std::size_t i = 0; i < kDraws; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(clustered[i]),
              std::bit_cast<std::uint64_t>(reference[i]))
        << "draw " << i;
  }
  // Both paths consume exactly one step of the caller's rng.
  EXPECT_EQ(reference_rng.next_u64(), clustered_rng.next_u64());

  stats::Rng predict_rng(11);
  stats::Rng predict_reference_rng(11);
  const auto predicted = core::predict_clustered(sampler, field, predict_rng,
                                                 1024, 0.95, cluster);
  const auto predicted_reference = sampler.predict(
      field, predict_reference_rng, 1024, 0.95, exec::Config{2});
  EXPECT_EQ(predicted.mean, predicted_reference.mean);
  EXPECT_EQ(predicted.lower, predicted_reference.lower);
  EXPECT_EQ(predicted.upper, predicted_reference.upper);
}

TEST(ClusterRunnerTest, UnknownWorkloadAbortsWithClusterError) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  ASSERT_TRUE(a.ok());
  exec::ClusterRunner cluster(cluster_options({a.address()}));
  const std::vector<std::uint8_t> blob{1, 2, 3};
  EXPECT_THROW((void)cluster.run("no.such.workload", blob, 2),
               exec::ClusterError);
}

TEST(ClusterRunnerTest, MalformedBlobAbortsWithClusterError) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  ASSERT_TRUE(a.ok());
  exec::ClusterRunner cluster(cluster_options({a.address()}));
  // A truncated core.sweep blob is a deterministic workload failure: no
  // reassignment can fix it, so the run must abort, not retry forever.
  const std::vector<std::uint8_t> garbage{9, 9, 9};
  EXPECT_THROW((void)cluster.run(std::string(core::kSweepShardWorkload),
                                 garbage, 2),
               exec::ClusterError);
}

TEST(ClusterRunnerTest, AllWorkersDeadThrowsClusterError) {
  HMDIV_REQUIRE_DAEMONS();
  exec::ClusterOptions options = cluster_options({"127.0.0.1:1"});
  options.connect_timeout = 2s;
  exec::ClusterRunner cluster(std::move(options));
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  EXPECT_THROW((void)core::sweep_clustered(analyzer,
                                           reference_thresholds(16), cluster),
               exec::ClusterError);
}

TEST(ClusterRunnerTest, DeadWorkerFailsOverToHealthyOne) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon live;
  ASSERT_TRUE(live.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  // Worker 0 is a connection-refused address: its initial task must be
  // re-issued to the live worker and the run still completes bit-exact.
  exec::ClusterOptions options =
      cluster_options({"127.0.0.1:1", live.address()});
  options.connect_timeout = 2s;
  exec::ClusterRunner cluster(std::move(options));
  expect_points_equal(core::sweep_clustered(analyzer, thresholds, cluster),
                      reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  // A connect refusal happens before a task is ever issued, so it marks
  // the worker failed (last_error) without counting a retry — retries
  // tally tasks abandoned mid-flight (see the fault tests below).
  EXPECT_EQ(stats[0].tasks, 0u);
  EXPECT_FALSE(stats[0].last_error.empty());
  EXPECT_EQ(stats[1].tasks, exec::cluster_shard_count(thresholds.size(), 2));
}

// --- hostile worker replies -----------------------------------------------

/// A "sim.trial" reply that claims 2^50 records but carries one: a
/// coordinator that sized its buffer from the count would ask for
/// petabytes.
std::vector<std::uint8_t> hostile_trial_handler(const wire::ShardTask&) {
  wire::Writer w;
  w.u64(std::uint64_t{1} << 50);
  w.u32(0);  // class index
  w.u8(0);   // flags
  return w.take();
}

/// Swaps a registered workload for a stub and restores the real handler
/// on scope exit, so a failing assertion cannot leak the stub.
class WorkloadStub {
 public:
  WorkloadStub(std::string_view name, exec::ShardHandler stub)
      : name_(name), real_(exec::find_shard_workload(name)) {
    exec::register_shard_workload(name_, stub);
  }
  ~WorkloadStub() { exec::register_shard_workload(name_, real_); }
  WorkloadStub(const WorkloadStub&) = delete;
  WorkloadStub& operator=(const WorkloadStub&) = delete;

  [[nodiscard]] bool had_real() const { return real_ != nullptr; }

 private:
  std::string name_;
  exec::ShardHandler real_;
};

TEST(ClusterHostileReplyTest, TrialRecordCountBeyondThePayloadThrows) {
  sim::ensure_trial_shard_registered();
  const WorkloadStub stub(sim::kTrialShardWorkload, &hostile_trial_handler);
  ASSERT_TRUE(stub.had_real());
  // The worker is an in-process daemon, so it dispatches through this
  // process's registry — and the stub.
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile(), {});
  serve::Server server(service);
  server.start();
  {
    exec::ClusterRunner cluster(
        cluster_options({"127.0.0.1:" + std::to_string(server.port())}));
    const sim::TabularWorld world(core::paper::example_model(),
                                  core::paper::trial_profile());
    EXPECT_THROW((void)sim::run_trial_clustered(world, 1000, 1, cluster),
                 wire::ProtocolError);
  }
  server.shutdown();
}

// --- injected transport faults --------------------------------------------

TEST(ClusterFaultTest, ConnectionResetReassignsBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // The faulty daemon RSTs the connection instead of shipping its first
  // reply, whichever task that is ('*': the task → worker mapping depends
  // on connect timing). The clean daemon ships each reply 20 ms late, so
  // it cannot drain the queue before the faulty one has connected and
  // taken tasks.
  SpawnedDaemon faulty("connreset:*");
  SpawnedDaemon clean("delay:*:20");
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(clean.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterRunner cluster(
      cluster_options({faulty.address(), clean.address()}));
  expect_points_equal(core::sweep_clustered(analyzer, thresholds, cluster),
                      reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].retries, 1u);
  EXPECT_FALSE(stats[0].last_error.empty());
  // The clean worker finished every shard.
  EXPECT_EQ(stats[1].tasks, exec::cluster_shard_count(thresholds.size(), 2));
}

TEST(ClusterFaultTest, SlowDrainPastDeadlineReassignsBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // The faulty daemon ships half of every reply, then stalls for ~1.5 s —
  // far past the 500 ms task deadline, so the coordinator must drop it
  // mid-frame and re-issue its tasks to the clean worker. The clean
  // daemon ships each reply 20 ms late, so it cannot drain the queue
  // before the faulty one has connected and taken tasks.
  SpawnedDaemon faulty("slowdrain:*");
  SpawnedDaemon clean("delay:*:20");
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(clean.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(129);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({faulty.address(), clean.address()});
  options.task_deadline = 500ms;
  exec::ClusterRunner cluster(std::move(options));
  expect_points_equal(core::sweep_clustered(analyzer, thresholds, cluster),
                      reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].retries, 1u);
  EXPECT_EQ(stats[1].tasks, exec::cluster_shard_count(thresholds.size(), 2));
}

// --- delay faults, readmission --------------------------------------------

TEST(ClusterFaultTest, DelayedRepliesStayBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // Injected per-reply latency must be invisible in the output: replies
  // still arrive in FIFO order per connection, just later.
  SpawnedDaemon delayed("delay:*:25");
  SpawnedDaemon clean;
  ASSERT_TRUE(delayed.ok());
  ASSERT_TRUE(clean.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterRunner cluster(
      cluster_options({delayed.address(), clean.address()}));
  expect_points_equal(core::sweep_clustered(analyzer, thresholds, cluster),
                      reference);
  for (const auto& stats : cluster.worker_stats()) {
    EXPECT_EQ(stats.retries, 0u) << stats.address;  // late is not lost
  }
}

TEST(ClusterFaultTest, SidelinedWorkerIsReadmittedBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // Worker 0 RSTs every reply it ships, so it is sidelined on first
  // contact; worker 1 answers each reply ~20 ms late, keeping the run
  // alive past the readmission backoff. The probe must reconnect worker 0
  // (readmitted >= 1) and the output must stay bit-identical through
  // sideline, requeue, readmission, and the second sideline that follows.
  SpawnedDaemon faulty("connreset:*");
  SpawnedDaemon slow("delay:*:20");
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(slow.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(2048);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({faulty.address(), slow.address()});
  // Well under the run length: the slow worker needs several delayed
  // replies to drain the queue, so the probe fires while work remains.
  options.readmit_after = 30ms;
  exec::ClusterRunner cluster(std::move(options));
  expect_points_equal(core::sweep_clustered(analyzer, thresholds, cluster),
                      reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].retries, 1u);
  EXPECT_GE(stats[0].readmitted, 1u);
  EXPECT_FALSE(stats[0].last_error.empty());
  EXPECT_GT(stats[1].tasks, 0u);
}

}  // namespace
}  // namespace hmdiv
