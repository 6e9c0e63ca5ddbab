// perfbench_layers — the traced per-layer run.
//
// Times the public calls of each layer (through the adapters, one per
// layer) at the sizes the end-to-end workloads use, and prints one JSON
// object of per-layer metrics on stdout.
//
//   perfbench_layers --model M --trial T --field F --threads N
//                    --workload analyze|cluster|serve|repro
//                    --workers HOST:PORT,... --serve HOST:PORT
//                    --spans FILE
//
// M/T/F are the seed-generated many-class inputs the daemon serves;
// profile-size calls use the paper's example, as `hmdiv_analyze
// --example --profile` does. --workers names loopback daemons for the
// clustered calls, --serve one daemon for the socket round trip.
// obs.trace_overhead_pct compares the workload's own call sequence with
// span recording on and off. --spans writes every recorded span (name, id,
// parent, start, end) as JSON lines.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adapters/core.hpp"
#include "adapters/exec.hpp"
#include "adapters/serve.hpp"
#include "adapters/sim.hpp"
#include "adapters/stats.hpp"
#include "adapters/trace.hpp"
#include "obs/obs.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// Profile sizes of `hmdiv_analyze --example --profile` ...
constexpr std::uint64_t kTrialCases = 200'000;
constexpr std::uint64_t kTrialSeed = 20030625;
constexpr std::size_t kProfileSamples = 500;
constexpr std::size_t kProfileGrid = 20'000;
// ... of the cluster workload's --samples / --grid-steps ...
constexpr std::size_t kClusterSamples = 100;
constexpr std::size_t kClusterGrid = 1'000'000;
constexpr unsigned kClusterThreads = 2;
// ... and of the serve workload's heavy requests.
constexpr std::size_t kServeUqDraws = 20'000;
constexpr std::size_t kServeSweepSteps = 20'000;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median of the spans recorded under `name` since the last clear(), in µs.
double span_us(const std::string& name) {
  const auto it = trace::spans().find(name);
  if (it == trace::spans().end() || it->second.empty()) {
    throw std::runtime_error("no span recorded for " + name);
  }
  return median(it->second);
}

/// The --profile workload's call sequence on the paper example.
struct ProfilePass {
  core_layer::Inputs in = core_layer::paper_example();
  hmdiv::sim::TabularWorld world{in.model, in.trial};
  hmdiv::core::TradeoffAnalyzer analyzer = core_layer::make_analyzer(in);

  void run(unsigned threads, std::size_t samples, std::size_t grid_steps) {
    trace::Span pass("pass.profile");
    const auto data =
        sim_layer::run_trial(world, kTrialCases, kTrialSeed, threads);
    const auto failures = sim_layer::failure_indicators(data);
    (void)stats_layer::bootstrap_mean(failures, 7, samples, threads);
    const hmdiv::core::PosteriorModelSampler sampler(
        in.model.class_names(),
        sim_layer::counts_from_records(data, in.model.class_count()));
    (void)core_layer::predict(sampler, in.field, 11, samples, threads);
    (void)core_layer::sweep(analyzer, core_layer::grid(grid_steps), threads);
    (void)core_layer::minimise(analyzer, grid_steps, threads);
  }
};

/// The same sequence with the fan-out phases on a cluster.
void clustered_pass(ProfilePass& p, exec_layer::Cluster& cluster,
                    const std::vector<double>& thresholds) {
  trace::Span pass("pass.clustered");
  const auto data = cluster.trial(p.world, kTrialCases, kTrialSeed);
  const auto failures = sim_layer::failure_indicators(data);
  (void)stats_layer::bootstrap_mean(failures, 7, kClusterSamples,
                                    kClusterThreads);
  const hmdiv::core::PosteriorModelSampler sampler(
      p.in.model.class_names(),
      sim_layer::counts_from_records(data, p.in.model.class_count()));
  (void)cluster.predict(sampler, p.in.field, 11, kClusterSamples);
  (void)cluster.sweep(p.analyzer, thresholds);
  (void)cluster.minimise(p.analyzer, kClusterGrid);
}

/// Median wall (ms) of `body` with span recording on and off, run
/// alternately; returns the traced-minus-untraced share in percent.
double overhead_pct(const std::function<void()>& body, int rounds) {
  std::vector<double> on, off;
  for (int r = 0; r < rounds; ++r) {
    for (const bool traced : {true, false}) {
      trace::enabled() = traced;
      const auto t0 = Clock::now();
      body();
      (traced ? on : off).push_back(ms_since(t0));
    }
  }
  trace::enabled() = true;
  return 100.0 * (median(on) - median(off)) / median(off);
}

/// Closed-loop round trips of one request line over a fresh connection;
/// returns the median in µs.
double socket_round_trip_us(const std::string& address,
                            const std::string& line, int count) {
  const auto colon = address.rfind(':');
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(
      std::stoul(address.substr(colon + 1))));
  if (inet_pton(AF_INET, address.substr(0, colon).c_str(), &addr.sin_addr) !=
      1) {
    throw std::runtime_error("bad --serve address " + address);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) close(fd);
    throw std::runtime_error("cannot connect to " + address);
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string request = line + "\n";
  std::vector<double> rtt;
  char buffer[4096];
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      close(fd);
      throw std::runtime_error("send failed");
    }
    bool done = false;
    while (!done) {
      const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        close(fd);
        throw std::runtime_error("connection closed");
      }
      done = buffer[n - 1] == '\n';
    }
    rtt.push_back(ms_since(t0) * 1000.0);
  }
  close(fd);
  return median(rtt);
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void print_json(const std::map<std::string, double>& metrics) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required : {"--model", "--trial", "--field", "--threads",
                               "--workload", "--workers", "--serve",
                               "--spans"}) {
    if (args.count(required) == 0) {
      std::cerr << "perfbench_layers: missing " << required << "\n";
      return 2;
    }
  }
  const unsigned threads =
      static_cast<unsigned>(std::stoul(args["--threads"]));
  const std::string workload = args["--workload"];
  std::map<std::string, double> m;

  try {
    const std::string model_text = read_file(args["--model"]);
    const std::string trial_text = read_file(args["--trial"]);
    const std::string field_text = read_file(args["--field"]);
    const core_layer::Inputs wide =
        core_layer::parse_inputs(model_text, trial_text, field_text);

    // --- stats / sim / core at profile sizes, nproc threads -------------
    ProfilePass profile;
    profile.run(threads, kProfileSamples, kProfileGrid);  // warm-up
    trace::clear();
    for (int r = 0; r < 7; ++r) {
      profile.run(threads, kProfileSamples, kProfileGrid);
    }
    m["stats.bootstrap_ms"] = span_us("stats.bootstrap") / 1000.0;
    m["stats.bootstrap_draws_per_s"] =
        static_cast<double>(kProfileSamples * kTrialCases) /
        (span_us("stats.bootstrap") * 1e-6);
    m["sim.trial_ms"] = span_us("sim.trial") / 1000.0;
    m["sim.trial_cases_per_s"] =
        static_cast<double>(kTrialCases) / (span_us("sim.trial") * 1e-6);
    m["core.uq_ms"] = span_us("core.uq") / 1000.0;
    m["core.sweep_ms"] = span_us("core.sweep") / 1000.0;
    m["core.minimise_ms"] = span_us("core.minimise") / 1000.0;

    // --- exec: 1-thread ÷ nproc-thread time of the same call -----------
    {
      const auto wide_counts = core_layer::synthetic_counts(wide.model, 2000);
      const hmdiv::core::PosteriorModelSampler wide_sampler(
          wide.model.class_names(), wide_counts);
      const auto wide_analyzer = core_layer::make_analyzer(wide);
      const auto big_grid = core_layer::grid(kServeSweepSteps * 10);
      const auto data =
          sim_layer::run_trial(profile.world, kTrialCases, kTrialSeed, 1);
      const auto failures = sim_layer::failure_indicators(data);
      std::map<std::string, std::vector<double>> serial, parallel;
      for (int r = 0; r < 3; ++r) {
        for (const unsigned t : {1u, threads}) {
          auto& into = t == 1 ? serial : parallel;
          trace::clear();
          (void)sim_layer::run_trial(profile.world, kTrialCases, kTrialSeed,
                                     t);
          (void)stats_layer::bootstrap_mean(failures, 7, kProfileSamples, t);
          (void)core_layer::predict(wide_sampler, wide.field, 11,
                                    kServeUqDraws, t);
          (void)core_layer::sweep(wide_analyzer, big_grid, t);
          into["trial"].push_back(span_us("sim.trial"));
          into["bootstrap"].push_back(span_us("stats.bootstrap"));
          into["uq"].push_back(span_us("core.uq"));
          into["sweep"].push_back(span_us("core.sweep"));
        }
      }
      for (const char* name : {"trial", "bootstrap", "uq", "sweep"}) {
        m[std::string("exec.speedup.") + name] =
            median(serial[name]) / median(parallel[name]);
      }

      // --- core at serve sizes (the daemon computes on 1 thread) --------
      trace::clear();
      for (int r = 0; r < 9; ++r) {
        (void)core_layer::predict(wide_sampler, wide.field,
                                  static_cast<std::uint64_t>(r),
                                  kServeUqDraws, 1);
        (void)core_layer::sweep(wide_analyzer,
                                core_layer::grid(kServeSweepSteps), 1);
      }
      m["core.uq_us_per_kdraw"] =
          span_us("core.uq") / (static_cast<double>(kServeUqDraws) / 1000.0);
      m["core.sweep_us_per_kpoint"] =
          span_us("core.sweep") /
          (static_cast<double>(kServeSweepSteps) / 1000.0);
    }

    // --- core what-if (Eq. 8 under transforms) and the report ----------
    {
      const hmdiv::core::Extrapolator extrapolator(wide.model, wide.trial);
      trace::clear();
      for (int i = 0; i < 4000; ++i) {
        hmdiv::core::Scenario scenario;
        scenario.reader_failure_factor = 0.5 + (i % 97) / 97.0;
        scenario.machine_failure_factor = 0.5 + (i % 89) / 89.0;
        scenario.profile = wide.field;
        (void)core_layer::whatif(extrapolator, scenario);
      }
      const core_layer::Inputs paper = core_layer::paper_example();
      for (int i = 0; i < 100; ++i) (void)core_layer::report(paper);
      m["core.whatif_us"] = span_us("core.whatif");
      m["core.report_ms"] = span_us("core.report") / 1000.0;
    }

    // --- exec: the clustered calls against loopback daemons ------------
    {
      exec_layer::Cluster cluster(split_list(args["--workers"]),
                                  kClusterThreads);
      const auto thresholds = core_layer::grid(kClusterGrid);
      clustered_pass(profile, cluster, thresholds);  // connect + warm-up
      const exec_layer::Totals before = cluster.totals();
      std::vector<double> clustered_ms, local_ms;
      trace::clear();
      constexpr int kRounds = 5;
      for (int r = 0; r < kRounds; ++r) {
        auto t0 = Clock::now();
        clustered_pass(profile, cluster, thresholds);
        clustered_ms.push_back(ms_since(t0));
        t0 = Clock::now();
        profile.run(kClusterThreads, kClusterSamples, kClusterGrid);
        local_ms.push_back(ms_since(t0));
      }
      const exec_layer::Totals after = cluster.totals();
      for (const char* name : {"trial", "sweep", "minimise", "uq"}) {
        m[std::string("exec.cluster.") + name + "_ms"] =
            span_us(std::string("exec.cluster.") + name) / 1000.0;
      }
      m["exec.cluster.overhead_ms"] = median(clustered_ms) - median(local_ms);
      m["exec.cluster.bytes_out"] =
          static_cast<double>(after.bytes_out - before.bytes_out) / kRounds;
      m["exec.cluster.bytes_in"] =
          static_cast<double>(after.bytes_in - before.bytes_in) / kRounds;
      m["exec.cluster.tasks"] =
          static_cast<double>(after.tasks - before.tasks) / kRounds;
      m["exec.cluster.retries"] =
          static_cast<double>(after.retries - before.retries) / kRounds;

      // Wire bytes per grid point of the clustered sweep alone.
      const exec_layer::Totals s0 = cluster.totals();
      (void)cluster.sweep(profile.analyzer, thresholds);
      const exec_layer::Totals s1 = cluster.totals();
      m["exec.cluster.bytes_per_point"] =
          static_cast<double>((s1.bytes_out - s0.bytes_out) +
                              (s1.bytes_in - s0.bytes_in)) /
          static_cast<double>(kClusterGrid);

      if (workload == "cluster") {
        m["obs.trace_overhead_pct"] = overhead_pct(
            [&] { clustered_pass(profile, cluster, thresholds); }, 4);
      }
    }

    // --- serve: the dispatcher in process (obs on, as in the daemon) ----
    {
      hmdiv::obs::set_enabled(true);
      const auto service = serve_layer::make_service(wide);
      hmdiv::serve::RequestScratch scratch;
      hmdiv::serve::JsonParser parser;
      std::string out;
      const std::string hit =
          R"({"op":"whatif","id":1,"params":{"reader_factor":0.75,)"
          R"("machine_factor":0.5}})";
      serve_layer::handle(*service, hit, scratch, out);  // fill the cache
      trace::clear();
      for (int i = 0; i < 5000; ++i) {
        serve_layer::handle(*service, hit, scratch, out, "serve.light_hit");
        char miss[160];
        std::snprintf(miss, sizeof(miss),
                      R"({"op":"whatif","id":2,"params":{"reader_factor":%.9f,)"
                      R"("machine_factor":0.5}})",
                      1.0 + i * 1e-6);
        serve_layer::handle(*service, miss, scratch, out, "serve.light_miss");
        (void)serve_layer::parse(parser, hit);
      }
      for (int i = 0; i < 30; ++i) {
        char heavy[160];
        const unsigned size = 2000 + 18000 * static_cast<unsigned>(i % 10) / 9;
        if (i % 3 == 0) {
          std::snprintf(heavy, sizeof(heavy),
                        R"({"op":"uq","id":3,"params":{"draws":%u,"seed":%d}})",
                        size, 1000 + i);
        } else if (i % 3 == 1) {
          std::snprintf(heavy, sizeof(heavy),
                        R"({"op":"sweep","id":3,"params":{"steps":%u,)"
                        R"("lo":%.6f}})",
                        size, -4.0 - i * 1e-3);
        } else {
          std::snprintf(heavy, sizeof(heavy),
                        R"({"op":"minimise","id":3,"params":{"steps":%u,)"
                        R"("cost_fn":%d}})",
                        size, 500 + i);
        }
        serve_layer::handle(*service, heavy, scratch, out, "serve.heavy");
        if (out.find("\"ok\":true") == std::string::npos) {
          throw std::runtime_error("heavy request failed: " + out);
        }
      }
      // reload: parse the same model text and swap it in, clearing caches.
      const std::string reload =
          serve_layer::reload_request(4, model_text, trial_text, field_text);
      for (int i = 0; i < 50; ++i) {
        serve_layer::handle(*service, reload, scratch, out, "serve.reload");
        if (out.find("\"ok\":true") == std::string::npos) {
          throw std::runtime_error("reload failed: " + out);
        }
      }
      m["serve.reload_ms"] = span_us("serve.reload") / 1000.0;
      m["serve.handle_us.light_hit"] = span_us("serve.light_hit");
      m["serve.handle_us.light_miss"] = span_us("serve.light_miss");
      m["serve.handle_us.heavy"] = span_us("serve.heavy");
      m["serve.parse_us"] = span_us("serve.parse");

      const double socket_us = socket_round_trip_us(args["--serve"], hit, 3000);
      m["serve.transport_us"] = socket_us - m["serve.handle_us.light_hit"];
      if (workload == "serve") {
        m["obs.trace_overhead_pct"] = overhead_pct(
            [&] {
              for (int i = 0; i < 20000; ++i) {
                serve_layer::handle(*service, hit, scratch, out);
              }
              trace::clear();
            },
            5);
      }
      hmdiv::obs::set_enabled(false);
    }

    if (workload == "analyze") {
      m["obs.trace_overhead_pct"] = overhead_pct(
          [&] { profile.run(threads, kProfileSamples, kProfileGrid); }, 5);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << "\n";
    return 1;
  }
  std::ofstream spans(args["--spans"]);
  trace::write_records(spans);
  print_json(m);
  return 0;
}
