// hmdiv_analyze — command-line analysis of a human-machine advisory system.
//
// Usage:
//   hmdiv_analyze --model MODEL_FILE --trial PROFILE_FILE --field PROFILE_FILE
//                 [--improve CLASS=FACTOR]... [--text] [--no-advice]
//   hmdiv_analyze --example            # run on the paper's Section-5 example
//
// MODEL_FILE / PROFILE_FILE use the model_io text formats (see
// core/model_io.hpp). The report covers: parameters, Eq.-(8) failure
// probabilities under both profiles, the Eq.-(10) decomposition,
// sensitivities, and design advice; each --improve adds a what-if scenario.
//
// --profile additionally runs a Monte-Carlo validation workload (trial
// simulation, bootstrap interval, operating-threshold sweep) on the exec
// engine and dumps the observability registry as a table; --profile-csv
// FILE writes the same snapshot as CSV. --workers HOST:PORT,... fans the
// workload's posterior, sweep and minimisation phases out over remote
// hmdiv_serve daemons (DESIGN.md §15); results stay bit-identical.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cli/parse_util.hpp"
#include "core/analysis_report.hpp"
#include "core/design_advisor.hpp"
#include "core/model_io.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/cluster.hpp"
#include "exec/config.hpp"
#include "obs/obs.hpp"
#include "report/format.hpp"
#include "report/profile.hpp"
#include "report/table.hpp"
#include "sim/tabular_world.hpp"
#include "stats/bootstrap.hpp"
#include "stats/rng.hpp"

namespace {

using namespace hmdiv;

[[noreturn]] void usage(int exit_code) {
  std::cerr
      << "usage: hmdiv_analyze --model FILE --trial FILE --field FILE\n"
         "                     [--improve CLASS=FACTOR]... [--text]\n"
         "                     [--no-advice] [--threads N]\n"
         "                     [--workers HOST:PORT,...]\n"
         "                     [--profile] [--profile-csv FILE]\n"
         "                     [--grid-steps N] [--samples N]\n"
         "       hmdiv_analyze --example [--text]\n"
         "\n"
         "--threads N caps the worker threads of Monte-Carlo and sweep\n"
         "computations (default: all hardware threads).\n"
         "Results are identical for any thread count.\n"
         "--workers HOST:PORT,... fans the profiling workload out over\n"
         "remote hmdiv_serve daemons via their shard endpoint; --threads\n"
         "is then the per-task budget on each worker. Results remain\n"
         "bit-identical to the in-process run.\n"
         "--profile runs a Monte-Carlo validation workload (simulated\n"
         "trial, bootstrap interval, threshold sweep) and prints the\n"
         "observability registry; --profile-csv FILE writes it as CSV.\n"
         "--grid-steps N sets the threshold-sweep / cost-minimisation grid\n"
         "size of the profiling workload (default 20000, range [2, 5e6]).\n"
         "--samples N sets the resampling depth of the profiling workload:\n"
         "bootstrap replicates and posterior predictive draws (default\n"
         "500, range [100, 10000000]).\n";
  std::exit(exit_code);
}

struct Improvement {
  std::string class_name;
  double factor = 0.1;
};

Improvement parse_improvement(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    std::cerr << "hmdiv_analyze: --improve expects CLASS=FACTOR, got '" << spec
              << "'\n";
    std::exit(2);
  }
  Improvement out;
  out.class_name = spec.substr(0, eq);
  const std::string value = spec.substr(eq + 1);
  std::size_t consumed = 0;
  try {
    out.factor = std::stod(value, &consumed);
  } catch (const std::exception&) {
    std::cerr << "hmdiv_analyze: bad factor in '" << spec << "'\n";
    std::exit(2);
  }
  if (consumed != value.size()) {
    std::cerr << "hmdiv_analyze: trailing garbage after factor in '" << spec
              << "'\n";
    std::exit(2);
  }
  if (!std::isfinite(out.factor) || out.factor < 0.0) {
    std::cerr << "hmdiv_analyze: factor must be finite and >= 0, got '"
              << value << "'\n";
    std::exit(2);
  }
  return out;
}

/// The Monte-Carlo workload behind --profile: exercises every instrumented
/// engine phase (counts trial, cell bootstrap, posterior prediction,
/// threshold sweep + grid minimisation) on the model under analysis, and
/// prints a short validation table. `config` is the --threads budget. By
/// the determinism contract the numbers are identical at any thread
/// count, so the thread floor is raised to 2 to keep the pool paths
/// observable on single-core hosts.
/// The trial and the bootstrap work on the trial's count table (DESIGN.md
/// §17): they take microseconds, so they always run in-process. The
/// posterior, sweep and minimisation phases run in-process on the thread
/// pool; with --workers they fan out over remote hmdiv_serve daemons
/// instead, through one warm ClusterRunner connection pool shared by the
/// three phases (DESIGN.md §15) — bit-identical either way.
void run_profiling_workload(const core::SequentialModel& model,
                            const core::DemandProfile& trial,
                            const core::DemandProfile& field, bool markdown,
                            std::size_t grid_steps, std::size_t samples,
                            const std::vector<std::string>& workers,
                            exec::Config config) {
  if (config.resolved_threads() < 2) config = exec::Config{2};
  std::optional<exec::ClusterRunner> cluster;
  if (!workers.empty()) {
    exec::ClusterOptions copts;
    copts.workers = workers;
    copts.threads = config.threads;
    cluster.emplace(std::move(copts));
  }

  // Trial phase: simulate the trial's class × machine × human count table
  // under the trial profile and cross-check the observed failure rate
  // against the Eq.-(8) prediction.
  constexpr std::uint64_t kCases = 200'000;
  const sim::TabularWorld world(model, trial);
  stats::Rng trial_rng(20030625);
  const std::vector<core::ClassCounts> counts =
      world.simulate_counts(kCases, trial_rng);
  const std::vector<std::uint64_t> cells = sim::joint_cells(counts);
  const double observed = sim::joint_failure_rate(cells);
  const double predicted = model.system_failure_probability(trial);

  // Bootstrap phase: percentile interval on the observed failure rate,
  // resampling the trial's cells.
  stats::Rng rng(7);
  const auto interval =
      stats::bootstrap_counts(cells, sim::joint_failure_rate, rng,
                              /*replicates=*/samples, 0.95, config);

  // Uncertainty phase: propagate the per-class Beta posteriors of the
  // trial counts through Eq. (8) under the *field* profile with the
  // batched engine — the credible interval shows how much the trial size
  // limits the field prediction.
  const core::PosteriorModelSampler sampler(model.class_names(), counts);
  stats::Rng posterior_rng(11);
  const auto posterior =
      cluster ? core::predict_clustered(sampler, field, posterior_rng,
                                        samples, 0.95, *cluster)
              : sampler.predict(field, posterior_rng, samples, 0.95, config);

  // Sweep phase: the binormal machine implied by each class's PMf at
  // threshold 0 (mu = -probit(PMf)), swept across operating thresholds,
  // plus a cost-minimising grid search.
  const core::TradeoffAnalyzer analyzer = core::binormal_tradeoff(model, field);
  std::vector<double> thresholds(grid_steps);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(thresholds.size() - 1);
  }
  const auto curve = cluster
                         ? core::sweep_clustered(analyzer, thresholds, *cluster)
                         : analyzer.sweep(thresholds, config);
  const auto best =
      cluster ? core::minimise_cost_clustered(analyzer, /*cost_fn=*/500.0,
                                              /*cost_fp=*/20.0, -4.0, 4.0,
                                              grid_steps, *cluster)
              : analyzer.minimise_cost(/*cost_fn=*/500.0, /*cost_fp=*/20.0,
                                       -4.0, 4.0, grid_steps, config);

  std::cout << (markdown ? "## Profiling workload (Monte-Carlo validation)\n\n"
                         : "== Profiling workload (Monte-Carlo validation) "
                           "==\n\n");
  report::Table table({"check", "value"});
  table.row({"simulated trial cases", report::with_thousands(
                                          static_cast<long long>(kCases))});
  table.row({"observed failure rate", report::fixed(observed, 4)});
  table.row({"Eq.-(8) prediction", report::fixed(predicted, 4)});
  table.row({"bootstrap 95% interval",
             report::with_interval(interval.estimate, interval.lower,
                                   interval.upper, 4)});
  table.row({"resampling depth (--samples)",
             report::with_thousands(static_cast<long long>(samples))});
  table.row({"posterior 95% interval (field)",
             report::with_interval(posterior.mean, posterior.lower,
                                   posterior.upper, 4)});
  table.row({"sweep points evaluated",
             report::with_thousands(static_cast<long long>(curve.size()))});
  table.row({"cost-minimising threshold", report::fixed(best.threshold, 3)});
  std::cout << (markdown ? table.to_markdown() : table.to_text()) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> model_path, trial_path, field_path;
  std::vector<Improvement> improvements;
  bool use_example = false;
  bool profile = false;
  std::size_t grid_steps = 20'000;
  std::size_t samples = 500;
  std::vector<std::string> workers;
  exec::Config config;
  std::optional<std::string> profile_csv_path;
  core::ReportOptions options;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "hmdiv_analyze: " << arg << " needs a value\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--model") {
      model_path = next();
    } else if (arg == "--trial") {
      trial_path = next();
    } else if (arg == "--field") {
      field_path = next();
    } else if (arg == "--improve") {
      improvements.push_back(parse_improvement(next()));
    } else if (arg == "--example") {
      use_example = true;
    } else if (arg == "--threads") {
      // Hardened parse shared with every integer flag (parse_util.hpp):
      // trailing garbage, negatives, overflow and out-of-range counts all
      // exit 2 naming the offending value.
      config.threads = static_cast<unsigned>(cli::parse_bounded_ulong(
          "hmdiv_analyze", "--threads", next(), 1, 4096));
    } else if (arg == "--workers") {
      // Comma-separated worker list; every element must parse as
      // HOST:PORT (or [IPV6]:PORT) and name a connectable port — port 0
      // is bind-only, so an element carrying it is a mistake here.
      const std::string list = next();
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const std::string element = list.substr(start, comma - start);
        const cli::HostPort parsed =
            cli::parse_host_port("hmdiv_analyze", "--workers", element,
                                 "HOST:PORT or [IPV6]:PORT");
        if (parsed.port == 0) {
          std::cerr << "hmdiv_analyze: --workers needs a connectable "
                       "port, got '"
                    << element << "'\n";
          std::exit(2);
        }
        workers.push_back(element);
        start = comma + 1;
      }
    } else if (arg == "--grid-steps") {
      // < 2 cannot form a grid; > 5'000'000 is a typo, not a workload.
      grid_steps = static_cast<std::size_t>(cli::parse_bounded_ulong(
          "hmdiv_analyze", "--grid-steps", next(), 2, 5'000'000));
    } else if (arg == "--samples") {
      // Fewer than 100 resamples cannot support a 95% interval; more than
      // 1e7 is a typo.
      samples = static_cast<std::size_t>(cli::parse_bounded_ulong(
          "hmdiv_analyze", "--samples", next(), 100, 10'000'000));
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--profile-csv") {
      profile = true;
      profile_csv_path = next();
    } else if (arg == "--text") {
      options.markdown = false;
    } else if (arg == "--no-advice") {
      options.include_design_advice = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "hmdiv_analyze: unknown argument '" << arg << "'\n";
      usage(2);
    }
  }

  if (profile) obs::set_enabled(true);

  try {
    const auto read = [](const std::string& path) {
      return cli::read_file("hmdiv_analyze", path);
    };
    core::SequentialModel model =
        use_example ? core::paper::example_model()
        : model_path
            ? core::parse_sequential_model(read(*model_path))
            : (usage(2), core::paper::example_model());
    core::DemandProfile trial =
        use_example ? core::paper::trial_profile()
        : trial_path ? core::parse_demand_profile(read(*trial_path))
                     : (usage(2), core::paper::trial_profile());
    core::DemandProfile field =
        use_example ? core::paper::field_profile()
        : field_path ? core::parse_demand_profile(read(*field_path))
                     : (usage(2), core::paper::field_profile());

    std::cout << core::analysis_report(model, trial, field, options);

    if (!improvements.empty()) {
      std::cout << (options.markdown ? "## What-if improvements\n\n"
                                     : "== What-if improvements ==\n\n");
      const double baseline = model.system_failure_probability(field);
      for (const auto& imp : improvements) {
        const std::size_t x = model.index_of(imp.class_name);
        const auto improved = model.with_machine_improvement(x, imp.factor);
        std::cout << "- improve '" << imp.class_name << "' by factor "
                  << report::fixed(imp.factor, 2) << ": field PHf "
                  << report::fixed(baseline, 3) << " -> "
                  << report::fixed(
                         improved.system_failure_probability(field), 3)
                  << "\n";
      }
    }

    if (profile) {
      run_profiling_workload(model, trial, field, options.markdown,
                             grid_steps, samples, workers, config);
      const obs::Snapshot snapshot = obs::registry_snapshot();
      std::cout << (options.markdown ? "## Profile (obs registry)\n\n"
                                     : "== Profile (obs registry) ==\n\n")
                << report::profile_table(snapshot);
      if (profile_csv_path) {
        std::ofstream csv(*profile_csv_path);
        if (!csv) {
          std::cerr << "hmdiv_analyze: cannot write '" << *profile_csv_path
                    << "'\n";
          return 2;
        }
        report::write_profile_csv(csv, snapshot);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "hmdiv_analyze: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
