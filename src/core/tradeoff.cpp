#include "core/tradeoff.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "exec/parallel.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "stats/special.hpp"

namespace hmdiv::core {

double BinormalMachine::p_false_negative(std::size_t x,
                                         double threshold) const {
  if (x >= cancer_class_means.size()) {
    throw std::invalid_argument("BinormalMachine: cancer class out of range");
  }
  return stats::normal_cdf(threshold - cancer_class_means[x]);
}

double BinormalMachine::p_false_positive(std::size_t x,
                                         double threshold) const {
  if (x >= normal_class_means.size()) {
    throw std::invalid_argument("BinormalMachine: normal class out of range");
  }
  return stats::normal_cdf(normal_class_means[x] - threshold);
}

namespace {

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("TradeoffAnalyzer: ") + what +
                                " outside [0,1]");
  }
}

}  // namespace

TradeoffAnalyzer::TradeoffAnalyzer(BinormalMachine machine,
                                   DemandProfile cancer_profile,
                                   std::vector<HumanFnResponse> fn_response,
                                   DemandProfile normal_profile,
                                   std::vector<HumanFpResponse> fp_response,
                                   double prevalence)
    : machine_(std::move(machine)),
      cancer_profile_(std::move(cancer_profile)),
      fn_response_(std::move(fn_response)),
      normal_profile_(std::move(normal_profile)),
      fp_response_(std::move(fp_response)),
      prevalence_(prevalence) {
  if (machine_.cancer_class_means.size() != cancer_profile_.class_count() ||
      fn_response_.size() != cancer_profile_.class_count()) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: cancer-side sizes do not match profile");
  }
  if (machine_.normal_class_means.size() != normal_profile_.class_count() ||
      fp_response_.size() != normal_profile_.class_count()) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: normal-side sizes do not match profile");
  }
  if (!(prevalence_ > 0.0 && prevalence_ < 1.0)) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: prevalence must lie in (0,1)");
  }
  for (const auto& r : fn_response_) {
    check_probability(r.p_fail_given_machine_prompted, "PHf|Ms");
    check_probability(r.p_fail_given_machine_silent, "PHf|Mf");
  }
  for (const auto& r : fp_response_) {
    check_probability(r.p_recall_given_machine_prompted, "P(recall|prompt)");
    check_probability(r.p_recall_given_machine_silent, "P(recall|silent)");
  }

  // Hoist every threshold-independent term into flat SoA tables once, so
  // the batch kernel's inner loops touch nothing but contiguous doubles.
  const std::size_t nc = cancer_profile_.class_count();
  cancer_mean_.reserve(nc);
  cancer_weight_.reserve(nc);
  fn_prompted_.reserve(nc);
  fn_silent_.reserve(nc);
  for (std::size_t x = 0; x < nc; ++x) {
    cancer_mean_.push_back(machine_.cancer_class_means[x]);
    cancer_weight_.push_back(cancer_profile_[x]);
    fn_prompted_.push_back(fn_response_[x].p_fail_given_machine_prompted);
    fn_silent_.push_back(fn_response_[x].p_fail_given_machine_silent);
  }
  const std::size_t nn = normal_profile_.class_count();
  normal_mean_.reserve(nn);
  normal_weight_.reserve(nn);
  fp_prompted_.reserve(nn);
  fp_silent_.reserve(nn);
  for (std::size_t x = 0; x < nn; ++x) {
    normal_mean_.push_back(machine_.normal_class_means[x]);
    normal_weight_.push_back(normal_profile_[x]);
    fp_prompted_.push_back(fp_response_[x].p_recall_given_machine_prompted);
    fp_silent_.push_back(fp_response_[x].p_recall_given_machine_silent);
  }
}

SystemOperatingPoint TradeoffAnalyzer::evaluate(double threshold) const {
  SystemOperatingPoint out;
  out.threshold = threshold;

  // Cancer side: Eq. (8) with PMf(x) read off the binormal machine.
  for (std::size_t x = 0; x < cancer_profile_.class_count(); ++x) {
    const double p_mf = machine_.p_false_negative(x, threshold);
    const auto& r = fn_response_[x];
    out.machine_fn += cancer_profile_[x] * p_mf;
    out.system_fn += cancer_profile_[x] *
                     (r.p_fail_given_machine_prompted * (1.0 - p_mf) +
                      r.p_fail_given_machine_silent * p_mf);
  }

  // Normal side: mirrored — "machine fails" means a false-positive prompt.
  for (std::size_t x = 0; x < normal_profile_.class_count(); ++x) {
    const double p_fp = machine_.p_false_positive(x, threshold);
    const auto& r = fp_response_[x];
    out.machine_fp += normal_profile_[x] * p_fp;
    out.system_fp += normal_profile_[x] *
                     (r.p_recall_given_machine_prompted * p_fp +
                      r.p_recall_given_machine_silent * (1.0 - p_fp));
  }

  out.sensitivity = 1.0 - out.system_fn;
  out.specificity = 1.0 - out.system_fp;
  out.recall_rate = prevalence_ * out.sensitivity +
                    (1.0 - prevalence_) * out.system_fp;
  out.ppv = out.recall_rate > 0.0
                ? prevalence_ * out.sensitivity / out.recall_rate
                : 0.0;
  return out;
}

void TradeoffAnalyzer::evaluate_batch(
    std::span<const double> thresholds,
    std::span<SystemOperatingPoint> out) const {
  if (out.size() != thresholds.size()) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: evaluate_batch out.size() != thresholds.size()");
  }
  const std::size_t n = thresholds.size();
  if (n == 0) return;
  HMDIV_OBS_SCOPED_TIMER("core.sweep.batch_ns");

  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> z = workspace.alloc<double>(n);
  const std::span<double> p = workspace.alloc<double>(n);
  const std::span<double> acc_mfn = workspace.alloc<double>(n);
  const std::span<double> acc_sfn = workspace.alloc<double>(n);
  const std::span<double> acc_mfp = workspace.alloc<double>(n);
  const std::span<double> acc_sfp = workspace.alloc<double>(n);
  for (std::size_t i = 0; i < n; ++i) acc_mfn[i] = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc_sfn[i] = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc_mfp[i] = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc_sfp[i] = 0.0;

  // Classes outer, thresholds inner, accumulating in ascending class order
  // — the same fold order, expression shapes and Φ implementation as the
  // scalar evaluate(), so every accumulated value rounds identically and
  // the result is bit-for-bit equal to the reference path.
  for (std::size_t x = 0; x < cancer_mean_.size(); ++x) {
    const double mu = cancer_mean_[x];
    const double w = cancer_weight_[x];
    const double prompted = fn_prompted_[x];
    const double silent = fn_silent_[x];
    for (std::size_t i = 0; i < n; ++i) z[i] = thresholds[i] - mu;
    stats::normal_cdf(z, p);
    for (std::size_t i = 0; i < n; ++i) {
      const double p_mf = p[i];
      acc_mfn[i] += w * p_mf;
      acc_sfn[i] += w * (prompted * (1.0 - p_mf) + silent * p_mf);
    }
  }
  for (std::size_t x = 0; x < normal_mean_.size(); ++x) {
    const double mu = normal_mean_[x];
    const double w = normal_weight_[x];
    const double prompted = fp_prompted_[x];
    const double silent = fp_silent_[x];
    for (std::size_t i = 0; i < n; ++i) z[i] = mu - thresholds[i];
    stats::normal_cdf(z, p);
    for (std::size_t i = 0; i < n; ++i) {
      const double p_fp = p[i];
      acc_mfp[i] += w * p_fp;
      acc_sfp[i] += w * (prompted * p_fp + silent * (1.0 - p_fp));
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    SystemOperatingPoint& point = out[i];
    point.threshold = thresholds[i];
    point.machine_fn = acc_mfn[i];
    point.machine_fp = acc_mfp[i];
    point.system_fn = acc_sfn[i];
    point.system_fp = acc_sfp[i];
    point.sensitivity = 1.0 - point.system_fn;
    point.specificity = 1.0 - point.system_fp;
    point.recall_rate = prevalence_ * point.sensitivity +
                        (1.0 - prevalence_) * point.system_fp;
    point.ppv = point.recall_rate > 0.0
                    ? prevalence_ * point.sensitivity / point.recall_rate
                    : 0.0;
  }
}

void TradeoffAnalyzer::sweep_into(std::span<const double> thresholds,
                                  std::span<SystemOperatingPoint> out,
                                  const exec::Config& config) const {
  if (out.size() != thresholds.size()) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: sweep_into out.size() != thresholds.size()");
  }
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.sweep_ns");
  HMDIV_OBS_COUNT("core.tradeoff.sweeps", 1);
  HMDIV_OBS_COUNT("core.tradeoff.sweep_points", thresholds.size());
  // Chunks are large enough that one batch amortises the kernel's region
  // setup; each worker's scratch comes from its own thread workspace.
  exec::parallel_for_chunks(
      thresholds.size(), /*grain=*/512,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        evaluate_batch(thresholds.subspan(begin, end - begin),
                       out.subspan(begin, end - begin));
      },
      config);
}

std::vector<SystemOperatingPoint> TradeoffAnalyzer::sweep(
    const std::vector<double>& thresholds,
    const exec::Config& config) const {
  std::vector<SystemOperatingPoint> out(thresholds.size());
  sweep_into(thresholds, out, config);
  return out;
}

SystemOperatingPoint TradeoffAnalyzer::minimise_cost(
    double cost_fn, double cost_fp, double lo, double hi, std::size_t steps,
    const exec::Config& config) const {
  return minimise_cost_range(cost_fn, cost_fp, lo, hi, steps, 0, steps,
                             config)
      .point;
}

CostedOperatingPoint TradeoffAnalyzer::minimise_cost_range(
    double cost_fn, double cost_fp, double lo, double hi, std::size_t steps,
    std::size_t first, std::size_t last, const exec::Config& config) const {
  if (!(cost_fn >= 0.0 && cost_fp >= 0.0)) {
    throw std::invalid_argument("TradeoffAnalyzer: costs must be >= 0");
  }
  if (!(lo < hi) || steps < 2) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: need lo < hi and at least two grid steps");
  }
  if (first > last || last > steps) {
    throw std::invalid_argument(
        "TradeoffAnalyzer: grid range out of bounds");
  }
  if (first == last) return CostedOperatingPoint{};
  HMDIV_OBS_SCOPED_TIMER("core.tradeoff.minimise_ns");
  HMDIV_OBS_COUNT("core.tradeoff.grid_points", last - first);
  const std::size_t grain = 512;
  const std::size_t chunks = exec::chunk_count(last - first, grain);
  // Per-chunk results live in the caller's workspace (each chunk writes
  // only its own slot), and each chunk's grid/point scratch comes from the
  // executing thread's workspace — steady state allocates nothing.
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<CostedOperatingPoint> partial =
      workspace.alloc<CostedOperatingPoint>(chunks);
  exec::parallel_for_chunks(
      last - first, grain,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        exec::Workspace& local = exec::thread_workspace();
        const exec::Workspace::Scope chunk_scope(local);
        const std::size_t count = end - begin;
        const std::span<double> grid = local.alloc<double>(count);
        const std::span<SystemOperatingPoint> points =
            local.alloc<SystemOperatingPoint>(count);
        // Threshold i is derived from its *global* grid index, so the
        // evaluated grid — and therefore the minimiser — is independent of
        // both the chunk layout and the [first, last) sub-range.
        for (std::size_t i = first + begin; i < first + end; ++i) {
          grid[i - first - begin] = lo + (hi - lo) * static_cast<double>(i) /
                                             static_cast<double>(steps - 1);
        }
        evaluate_batch(grid, points);
        CostedOperatingPoint best;
        for (std::size_t i = 0; i < count; ++i) {
          const double cost = prevalence_ * cost_fn * points[i].system_fn +
                              (1.0 - prevalence_) * cost_fp *
                                  points[i].system_fp;
          // Strict < keeps the earliest grid point on exact cost ties.
          if (!best.valid || cost < best.cost) {
            best = CostedOperatingPoint{points[i], cost, true};
          }
        }
        partial[chunk] = best;
      },
      config);
  // Ascending-chunk fold with strict < — combined with the in-chunk scan
  // above, exact ties resolve to the earliest grid point at any thread
  // count (and any range partition), matching a serial scan.
  CostedOperatingPoint best;
  for (const CostedOperatingPoint& next : partial) {
    if (!best.valid || (next.valid && next.cost < best.cost)) {
      best = next;
    }
  }
  return best;
}

TradeoffAnalyzer binormal_tradeoff(const SequentialModel& model,
                                   const DemandProfile& field) {
  BinormalMachine machine;
  std::vector<HumanFnResponse> fn_response;
  std::vector<HumanFpResponse> fp_response;
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const auto& p = model.parameters(x);
    const double p_mf =
        std::min(std::max(p.p_machine_fails, 1e-9), 1.0 - 1e-9);
    machine.cancer_class_means.push_back(-stats::normal_quantile(p_mf));
    machine.normal_class_means.push_back(-2.0);
    fn_response.push_back({p.p_human_fails_given_machine_succeeds,
                           p.p_human_fails_given_machine_fails});
    fp_response.push_back({0.1, 0.02});
  }
  return TradeoffAnalyzer(std::move(machine), field, std::move(fn_response),
                          field, std::move(fp_response),
                          /*prevalence=*/0.007);
}

}  // namespace hmdiv::core
