#include "core/uncertainty.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/parallel.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "stats/summary.hpp"

namespace hmdiv::core {

namespace {

constexpr double kJeffreys = 0.5;

double posterior_mean(std::uint64_t k, std::uint64_t n) {
  return (static_cast<double>(k) + kJeffreys) /
         (static_cast<double>(n) + 2.0 * kJeffreys);
}

double posterior_draw(std::uint64_t k, std::uint64_t n, stats::Rng& rng) {
  return rng.beta(static_cast<double>(k) + kJeffreys,
                  static_cast<double>(n - k) + kJeffreys);
}

}  // namespace

PosteriorModelSampler::PosteriorModelSampler(
    std::vector<std::string> class_names, std::vector<ClassCounts> counts)
    : names_(std::move(class_names)), counts_(std::move(counts)) {
  if (names_.empty() || names_.size() != counts_.size()) {
    throw std::invalid_argument(
        "PosteriorModelSampler: need one ClassCounts per class name");
  }
  for (const auto& c : counts_) {
    if (c.cases == 0) {
      throw std::invalid_argument(
          "PosteriorModelSampler: every class needs at least one case");
    }
    if (!c.consistent()) {
      throw std::invalid_argument(
          "PosteriorModelSampler: a failure count exceeds the cases it "
          "conditions on");
    }
  }
  // Hoist the per-parameter Beta(k + a, n − k + a) Marsaglia–Tsang
  // constants once; the (k, n) pairs and their order mirror sample()
  // exactly, so draws via these preps consume the stream identically.
  beta_prep_.reserve(counts_.size() * 6);
  const auto push_prep = [this](std::uint64_t k, std::uint64_t n) {
    beta_prep_.emplace_back(static_cast<double>(k) + kJeffreys);
    beta_prep_.emplace_back(static_cast<double>(n - k) + kJeffreys);
  };
  for (const auto& c : counts_) {
    push_prep(c.machine_failures, c.cases);
    push_prep(c.human_failures_given_machine_failed, c.machine_failures);
    push_prep(c.human_failures_given_machine_succeeded,
              c.cases - c.machine_failures);
  }
}

SequentialModel PosteriorModelSampler::posterior_mean_model() const {
  std::vector<ClassConditional> params;
  params.reserve(counts_.size());
  for (const auto& c : counts_) {
    ClassConditional p;
    p.p_machine_fails = posterior_mean(c.machine_failures, c.cases);
    p.p_human_fails_given_machine_fails = posterior_mean(
        c.human_failures_given_machine_failed, c.machine_failures);
    p.p_human_fails_given_machine_succeeds =
        posterior_mean(c.human_failures_given_machine_succeeded,
                       c.cases - c.machine_failures);
    params.push_back(p);
  }
  return SequentialModel(names_, std::move(params));
}

SequentialModel PosteriorModelSampler::sample(stats::Rng& rng) const {
  std::vector<ClassConditional> params;
  params.reserve(counts_.size());
  for (const auto& c : counts_) {
    ClassConditional p;
    p.p_machine_fails = posterior_draw(c.machine_failures, c.cases, rng);
    p.p_human_fails_given_machine_fails = posterior_draw(
        c.human_failures_given_machine_failed, c.machine_failures, rng);
    p.p_human_fails_given_machine_succeeds =
        posterior_draw(c.human_failures_given_machine_succeeded,
                       c.cases - c.machine_failures, rng);
    params.push_back(p);
  }
  return SequentialModel(names_, std::move(params));
}

namespace {

void check_predict_args(std::size_t draws, double credibility) {
  if (draws == 0) {
    throw std::invalid_argument("PosteriorModelSampler::predict: draws == 0");
  }
  if (!(credibility > 0.0 && credibility < 1.0)) {
    throw std::invalid_argument(
        "PosteriorModelSampler::predict: credibility outside (0,1)");
  }
}

}  // namespace

void PosteriorModelSampler::sample_failure_probabilities(
    const DemandProfile& profile, stats::Rng& rng, std::span<double> out,
    const exec::Config& config) const {
  if (out.empty()) {
    throw std::invalid_argument(
        "PosteriorModelSampler::sample_failure_probabilities: empty output");
  }
  const std::uint64_t base = rng.next_u64();
  sample_failure_probability_chunks(profile, base, out.size(), 0,
                                    draw_chunk_count(out.size()), out,
                                    config);
}

std::size_t PosteriorModelSampler::draw_chunk_count(std::size_t draws) {
  return (draws + kDrawChunk - 1) / kDrawChunk;
}

void PosteriorModelSampler::sample_failure_probability_chunks(
    const DemandProfile& profile, std::uint64_t base, std::size_t total_draws,
    std::size_t first_chunk, std::size_t last_chunk, std::span<double> out,
    const exec::Config& config) const {
  if (profile.class_names() != names_) {
    throw std::invalid_argument(
        "SequentialModel: profile classes do not match model classes");
  }
  const std::size_t chunks = draw_chunk_count(total_draws);
  if (first_chunk > last_chunk || last_chunk > chunks) {
    throw std::invalid_argument(
        "PosteriorModelSampler: chunk range out of bounds");
  }
  const std::size_t draw_begin = first_chunk * kDrawChunk;
  const std::size_t draw_end =
      std::min(last_chunk * kDrawChunk, total_draws);
  if (out.size() != draw_end - draw_begin) {
    throw std::invalid_argument(
        "PosteriorModelSampler: output size does not match chunk range");
  }
  if (out.empty()) return;
  HMDIV_OBS_SCOPED_TIMER("core.uq.sample_ns");
  HMDIV_OBS_COUNT("core.uq.sample_calls", 1);
  HMDIV_OBS_COUNT("core.uq.draws", out.size());
  const std::size_t classes = counts_.size();
  exec::parallel_for_chunks(
      out.size(), kDrawChunk,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        // Per-parameter SoA sampling: each of the three conditionals of
        // each class fills its whole chunk lane array with one fill_beta
        // call, then the Eq. (8) transform streams over the lanes. Same
        // arithmetic as the scalar reference, batched per parameter
        // instead of per draw. Local chunk c is global chunk
        // first_chunk + c (draw_begin is a multiple of kDrawChunk), so a
        // sub-range draws from the very substreams it occupies in a full
        // run.
        stats::Rng chunk_rng(base, first_chunk + chunk);
        const std::size_t lanes = end - begin;
        const std::span<double> total = out.subspan(begin, lanes);
        exec::Workspace& local = exec::thread_workspace();
        const exec::Workspace::Scope scope(local);
        const std::span<double> pmf_s = local.alloc<double>(lanes);
        const std::span<double> phf_mf_s = local.alloc<double>(lanes);
        const std::span<double> phf_ms_s = local.alloc<double>(lanes);
        for (std::size_t x = 0; x < classes; ++x) {
          const stats::Rng::GammaPrep* prep = &beta_prep_[x * 6];
          chunk_rng.fill_beta(prep[0], prep[1], pmf_s);
          chunk_rng.fill_beta(prep[2], prep[3], phf_mf_s);
          chunk_rng.fill_beta(prep[4], prep[5], phf_ms_s);
          const double* __restrict__ pmf = pmf_s.data();
          const double* __restrict__ phf_mf = phf_mf_s.data();
          const double* __restrict__ phf_ms = phf_ms_s.data();
          double* __restrict__ acc = total.data();
          const double w = profile[x];
          // First class stores, later classes accumulate — saves the
          // zero-fill pass over the chunk.
          if (x == 0) {
            for (std::size_t i = 0; i < lanes; ++i) {
              acc[i] = w * (phf_ms[i] * (1.0 - pmf[i]) + phf_mf[i] * pmf[i]);
            }
          } else {
            for (std::size_t i = 0; i < lanes; ++i) {
              acc[i] += w * (phf_ms[i] * (1.0 - pmf[i]) + phf_mf[i] * pmf[i]);
            }
          }
        }
      },
      config);
}

UncertainPrediction PosteriorModelSampler::summarise(std::span<double> draws,
                                                     double credibility) {
  check_predict_args(draws.size(), credibility);
  // Two plain passes instead of Welford: the streaming update is a serial
  // dependence chain (~4x slower over a 10k buffer we already hold), and
  // with draws in [0,1] the two-pass centred moments are at least as
  // accurate. A NaN draw propagates through both sums.
  const double n = static_cast<double>(draws.size());
  double sum = 0.0;
  for (const double failure : draws) sum += failure;
  const double mean = sum / n;
  double m2 = 0.0;
  for (const double failure : draws) {
    m2 += (failure - mean) * (failure - mean);
  }
  const double alpha = 1.0 - credibility;
  const double qs[2] = {alpha / 2.0, 1.0 - alpha / 2.0};
  double bounds[2];
  // Selection-based quantiles: no full sort, and a NaN draw yields NaN
  // bounds instead of a sorted-to-the-end artifact.
  stats::quantiles(draws, qs, bounds);
  UncertainPrediction out;
  out.mean = mean;
  out.stddev = draws.size() < 2 ? 0.0 : std::sqrt(m2 / (n - 1.0));
  out.lower = bounds[0];
  out.upper = bounds[1];
  return out;
}

UncertainPrediction PosteriorModelSampler::predict(
    const DemandProfile& profile, stats::Rng& rng, std::size_t draws,
    double credibility, const exec::Config& config) const {
  check_predict_args(draws, credibility);
  HMDIV_OBS_SCOPED_TIMER("core.uq.predict_ns");
  HMDIV_OBS_COUNT("core.uq.predict_calls", 1);
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> values = workspace.alloc<double>(draws);
  sample_failure_probabilities(profile, rng, values, config);
  return summarise(values, credibility);
}

UncertainPrediction PosteriorModelSampler::predict_reference(
    const DemandProfile& profile, stats::Rng& rng, std::size_t draws,
    double credibility, const exec::Config& config) const {
  check_predict_args(draws, credibility);
  if (profile.class_names() != names_) {
    throw std::invalid_argument(
        "SequentialModel: profile classes do not match model classes");
  }
  HMDIV_OBS_SCOPED_TIMER("core.posterior.predict_ns");
  HMDIV_OBS_COUNT("core.posterior.calls", 1);
  HMDIV_OBS_COUNT("core.posterior.draws", draws);
  // Draw i samples from substream Rng(base, i); the values array is then
  // independent of the chunk-to-thread mapping. Each draw evaluates
  // Eq. (8) directly from the memoised posterior preps — the same draw
  // order and the same per-class arithmetic as
  // sample(rng).system_failure_probability(profile), without building a
  // SequentialModel (no allocation per draw); results are bit-identical
  // to the scalar loop.
  const std::uint64_t base = rng.next_u64();
  exec::Workspace& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const std::span<double> values = workspace.alloc<double>(draws);
  const std::size_t classes = counts_.size();
  exec::parallel_for_chunks(
      draws, /*grain=*/64,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          stats::Rng draw_rng(base, i);
          double total = 0.0;
          for (std::size_t x = 0; x < classes; ++x) {
            const stats::Rng::GammaPrep* prep = &beta_prep_[x * 6];
            const double pmf = draw_rng.beta(prep[0], prep[1]);
            const double phf_mf = draw_rng.beta(prep[2], prep[3]);
            const double phf_ms = draw_rng.beta(prep[4], prep[5]);
            total += profile[x] * (phf_ms * (1.0 - pmf) + phf_mf * pmf);
          }
          values[i] = total;
        }
      },
      config);
  // Pre-PR extraction kept verbatim: OnlineStats pass + full sort +
  // sorted_quantile. The selection-based summarise() returns identical
  // values (Quantiles.SelectionMatchesFullSortReference pins this), but
  // this path is also the *cost* reference the batched-engine speedup is
  // measured against, so it must keep the O(n log n) sort it had.
  stats::OnlineStats online;
  for (const double failure : values) online.add(failure);
  std::sort(values.begin(), values.end());
  const double alpha = 1.0 - credibility;
  UncertainPrediction out;
  out.mean = online.mean();
  out.stddev = online.stddev();
  out.lower = stats::sorted_quantile(values, alpha / 2.0);
  out.upper = stats::sorted_quantile(values, 1.0 - alpha / 2.0);
  // Same NaN contract as summarise(): any undefined draw poisons every
  // field (NaNs sort to one end, so front/back catches them).
  if (std::isnan(out.mean) || std::isnan(values.front()) ||
      std::isnan(values.back())) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    out.mean = out.lower = out.upper = out.stddev = nan;
  }
  return out;
}

}  // namespace hmdiv::core
