// cluster_load — scaling bench for the multi-host cluster engine
// (DESIGN.md §15, PR 9).
//
// Spawns 1/2/4 loopback `hmdiv_serve --example` daemons, then runs the
// two grid-heavy clustered workloads — a core.sweep threshold sweep and a
// core.uq.sample posterior draw — through exec::ClusterRunner with one
// compute thread per worker, against a single-thread in-process baseline.
// Every clustered result is compared bit-for-bit against the baseline
// (the correctness gate: the exit code is non-zero only on a mismatch or
// a transport failure, never on a missed speedup target). Wall times and
// speedups land in BENCH_pr9_cluster.json (or --out).
//
// On a multi-core box the daemons genuinely run in parallel and 4 workers
// should clear ~2x over in-process single-thread; on a one-core CI box
// the same run records honest sub-1x numbers (coordinator and workers
// time-slice one CPU, plus serialization overhead) — the JSON carries
// hardware_threads so readers can tell the two apart.
//
//   cluster_load [--grid-steps N] [--draws N] [--serve-bin PATH]
//                [--out FILE]
//
// The daemon binary resolves from --serve-bin, then $HMDIV_SERVE_BIN,
// then ../src/cli/hmdiv_serve next to this binary (the build layout).
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/cluster.hpp"
#include "exec/config.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hmdiv;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One spawned `hmdiv_serve --example` worker on an ephemeral port.
struct Daemon {
  pid_t pid = -1;
  int port = 0;

  [[nodiscard]] bool spawn(const std::string& binary) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return false;
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      ::execl(binary.c_str(), binary.c_str(), "--example", "--port", "0",
              "--threads", "1", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
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
    if (colon != std::string::npos) port = std::atoi(banner.c_str() + colon + 1);
    return port > 0;
  }

  void stop() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
};

std::string default_serve_binary(const char* argv0) {
  if (const char* env = std::getenv("HMDIV_SERVE_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  // Build layout: this binary is bench/cluster_load, the daemon is
  // src/cli/hmdiv_serve under the same build root.
  std::string self(argv0);
  char resolved[4096];
  const ssize_t n = ::readlink("/proc/self/exe", resolved, sizeof resolved - 1);
  if (n > 0) {
    resolved[n] = '\0';
    self = resolved;
  }
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : self.substr(0, slash);
  return dir + "/../src/cli/hmdiv_serve";
}

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

core::PosteriorModelSampler reference_sampler() {
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

bool points_equal(const std::vector<core::SystemOperatingPoint>& a,
                  const std::vector<core::SystemOperatingPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].system_fn) !=
            std::bit_cast<std::uint64_t>(b[i].system_fn) ||
        std::bit_cast<std::uint64_t>(a[i].system_fp) !=
            std::bit_cast<std::uint64_t>(b[i].system_fp) ||
        std::bit_cast<std::uint64_t>(a[i].ppv) !=
            std::bit_cast<std::uint64_t>(b[i].ppv)) {
      return false;
    }
  }
  return true;
}

bool doubles_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

struct CellResult {
  unsigned workers = 0;
  double sweep_ms = 0;
  double uq_ms = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t grid_steps = 120'000;
  std::size_t draws = 40'000;
  std::string out_path = "BENCH_pr9_cluster.json";
  std::string serve_bin;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "cluster_load: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--grid-steps") {
      grid_steps = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--draws") {
      draws = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--serve-bin") {
      serve_bin = next();
    } else {
      std::cerr << "cluster_load: unknown flag '" << arg << "'\n";
      return 2;
    }
  }
  if (serve_bin.empty()) serve_bin = default_serve_binary(argv[0]);

  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const core::PosteriorModelSampler sampler = reference_sampler();
  const core::DemandProfile field = core::paper::field_profile();
  std::vector<double> thresholds(grid_steps);
  for (std::size_t i = 0; i < grid_steps; ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(grid_steps - 1);
  }

  // In-process single-thread baseline (the denominator of every speedup).
  const auto sweep_start = Clock::now();
  const auto sweep_reference = analyzer.sweep(thresholds, exec::Config{1});
  const double sweep_baseline_ms = ms_since(sweep_start);
  std::vector<double> uq_reference(draws);
  stats::Rng baseline_rng(2003);
  const auto uq_start = Clock::now();
  sampler.sample_failure_probabilities(field, baseline_rng, uq_reference,
                                       exec::Config{1});
  const double uq_baseline_ms = ms_since(uq_start);

  std::vector<CellResult> cells;
  bool all_identical = true;
  bool transport_ok = true;
  for (const unsigned workers : {1u, 2u, 4u}) {
    std::vector<Daemon> daemons(workers);
    std::vector<std::string> addresses;
    bool spawned = true;
    for (Daemon& daemon : daemons) {
      if (!daemon.spawn(serve_bin)) {
        spawned = false;
        break;
      }
      addresses.push_back("127.0.0.1:" + std::to_string(daemon.port));
    }
    if (!spawned) {
      std::cerr << "cluster_load: failed to spawn '" << serve_bin << "'\n";
      for (Daemon& daemon : daemons) daemon.stop();
      return 1;
    }

    CellResult cell;
    cell.workers = workers;
    try {
      exec::ClusterOptions options;
      options.workers = addresses;
      options.threads = 1;
      exec::ClusterRunner cluster(std::move(options));

      const auto cell_sweep_start = Clock::now();
      const auto swept = core::sweep_clustered(analyzer, thresholds, cluster);
      cell.sweep_ms = ms_since(cell_sweep_start);

      std::vector<double> uq(draws);
      stats::Rng rng(2003);
      const auto cell_uq_start = Clock::now();
      core::sample_failure_probabilities_clustered(sampler, field, rng, uq,
                                                   cluster);
      cell.uq_ms = ms_since(cell_uq_start);

      cell.identical =
          points_equal(swept, sweep_reference) && doubles_equal(uq, uq_reference);
    } catch (const std::exception& e) {
      std::cerr << "cluster_load: " << workers << " workers: " << e.what()
                << "\n";
      transport_ok = false;
    }
    for (Daemon& daemon : daemons) daemon.stop();
    if (!cell.identical) all_identical = false;
    cells.push_back(cell);
    if (!transport_ok) break;
  }

  const double baseline_total = sweep_baseline_ms + uq_baseline_ms;
  std::string json = "{\"bench\":\"pr9_cluster\",";
  json += "\"grid_steps\":" + std::to_string(grid_steps) + ",";
  json += "\"draws\":" + std::to_string(draws) + ",";
  json += "\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency()) + ",";
  json += "\"inprocess\":{\"sweep_ms\":" + std::to_string(sweep_baseline_ms) +
          ",\"uq_ms\":" + std::to_string(uq_baseline_ms) + "},";
  json += "\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    const double total = cell.sweep_ms + cell.uq_ms;
    if (i != 0) json += ',';
    json += "{\"workers\":" + std::to_string(cell.workers) +
            ",\"sweep_ms\":" + std::to_string(cell.sweep_ms) +
            ",\"uq_ms\":" + std::to_string(cell.uq_ms) +
            ",\"speedup_vs_inprocess\":" +
            std::to_string(total > 0 ? baseline_total / total : 0.0) +
            ",\"bitwise_identical\":" + (cell.identical ? "true" : "false") +
            "}";
  }
  json += "],\"all_bitwise_identical\":";
  json += all_identical ? "true" : "false";
  json += "}";

  std::cout << json << "\n";
  std::ofstream out(out_path);
  if (out) out << json << "\n";

  if (!transport_ok || !all_identical) {
    std::cerr << "cluster_load: FAILED (transport_ok=" << transport_ok
              << ", all_bitwise_identical=" << all_identical << ")\n";
    return 1;
  }
  std::cout << "cluster_load: OK — distributed results bit-identical to "
               "in-process across 1/2/4 workers\n";
  return 0;
}
