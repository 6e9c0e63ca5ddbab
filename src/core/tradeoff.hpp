// False-negative / false-positive trade-off analysis — the paper's stated
// next step ("Of more general interest ... will be the study of trade-offs
// between the probabilities of false positive and false negative failures",
// Conclusions).
//
// The machine is modelled with a binormal latent-score detector (the
// standard ROC model for detection systems): on a case of class x it draws
// a score ~ Normal(mu(x), 1) and prompts iff score > threshold. Cancer
// classes have higher means than normal classes, so lowering the threshold
// reduces machine false negatives but raises machine false positives —
// exactly the "often possible to reduce greatly ... the probability of
// false negative failures if one is willing to accept a corresponding
// increase in false positive failures" of Section 5.
//
// The human response is modelled with the same conditional formalism as the
// sequential model, on both sides:
//   cancer cases:  P(no-recall | machine prompted / not, class)
//   normal cases:  P(recall    | machine prompted / not, class)
// System-level FN and FP rates, recall rate, sensitivity/specificity and
// PPV then follow for any threshold; `sweep` traces the whole trade-off
// curve.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/demand_profile.hpp"
#include "core/sequential_model.hpp"
#include "exec/config.hpp"

namespace hmdiv::core {

/// Machine latent-score means per class; unit-variance binormal model.
struct BinormalMachine {
  /// Mean score on each *cancer* class (same order as the cancer profile).
  std::vector<double> cancer_class_means;
  /// Mean score on each *normal* (no-cancer) class.
  std::vector<double> normal_class_means;

  /// P(machine false negative | cancer class x) at `threshold`:
  /// P(score <= threshold) = Phi(threshold − mu).
  [[nodiscard]] double p_false_negative(std::size_t x, double threshold) const;

  /// P(machine false positive | normal class x) at `threshold`:
  /// P(score > threshold) = Phi(mu − threshold).
  [[nodiscard]] double p_false_positive(std::size_t x, double threshold) const;
};

/// Human conditional response on cancer cases (false-negative side).
struct HumanFnResponse {
  double p_fail_given_machine_prompted = 0.0;   ///< PHf|Ms(x)
  double p_fail_given_machine_silent = 0.0;     ///< PHf|Mf(x)
};

/// Human conditional response on normal cases (false-positive side):
/// probability of (wrongly) recalling a healthy patient.
struct HumanFpResponse {
  double p_recall_given_machine_prompted = 0.0;  ///< prompts bias to recall
  double p_recall_given_machine_silent = 0.0;
};

/// System-level operating point at one machine threshold.
struct SystemOperatingPoint {
  double threshold = 0.0;
  double machine_fn = 0.0;  ///< machine false-negative rate on cancers
  double machine_fp = 0.0;  ///< machine false-positive rate on normals
  double system_fn = 0.0;   ///< P(no recall | cancer)
  double system_fp = 0.0;   ///< P(recall | no cancer)
  double sensitivity = 0.0; ///< 1 − system_fn
  double specificity = 0.0; ///< 1 − system_fp
  double recall_rate = 0.0; ///< overall P(recall) at the given prevalence
  double ppv = 0.0;         ///< P(cancer | recall); 0 if nothing is recalled
};

/// An operating point together with its expected cost — the candidate type
/// minimise_cost folds over, exposed so partial scans (grid sub-ranges
/// computed by shard workers) can be merged with the same earliest-tie
/// rule: fold candidates in ascending grid order with strict <.
struct CostedOperatingPoint {
  SystemOperatingPoint point;
  double cost = 0.0;
  /// False iff the scanned range was empty.
  bool valid = false;
};

/// Analyses the two failure modes of the whole human-machine system as a
/// function of the machine's operating threshold.
class TradeoffAnalyzer {
 public:
  /// `cancer_profile` / `normal_profile`: class mixes among cancer and
  /// normal cases respectively. `prevalence` = P(cancer) in the screened
  /// population (paper: "less than 1%").
  TradeoffAnalyzer(BinormalMachine machine, DemandProfile cancer_profile,
                   std::vector<HumanFnResponse> fn_response,
                   DemandProfile normal_profile,
                   std::vector<HumanFpResponse> fp_response,
                   double prevalence);

  /// Scalar reference evaluation of one threshold. This is the documented
  /// semantics of the analyzer; evaluate_batch is required (and tested) to
  /// reproduce it bit-for-bit.
  [[nodiscard]] SystemOperatingPoint evaluate(double threshold) const;

  /// SoA batch kernel: out[i] = evaluate(thresholds[i]) bit-for-bit, but
  /// walking classes in the outer loop and thresholds in the inner loop
  /// over contiguous scratch arrays, so the Φ evaluations take the
  /// vectorised stats::normal_cdf(span) path (fastest when `thresholds`
  /// is monotone, as sweep grids are). Scratch comes from the calling
  /// thread's exec workspace: after warm-up the call does no heap
  /// allocation. Requires out.size() == thresholds.size().
  void evaluate_batch(std::span<const double> thresholds,
                      std::span<SystemOperatingPoint> out) const;

  /// Evaluates every threshold; points come back in input order. The
  /// sweep runs on the exec engine (each point is independent), so large
  /// curves scale with the thread budget.
  [[nodiscard]] std::vector<SystemOperatingPoint> sweep(
      const std::vector<double>& thresholds,
      const exec::Config& config = {}) const;

  /// Zero-allocation sweep into caller-provided storage (the engine under
  /// sweep()). Chunks of the grid are dispatched to evaluate_batch in
  /// parallel; after per-thread workspace warm-up the steady state does no
  /// heap allocation. Requires out.size() == thresholds.size().
  void sweep_into(std::span<const double> thresholds,
                  std::span<SystemOperatingPoint> out,
                  const exec::Config& config = {}) const;

  /// Threshold minimising expected cost
  /// cost = prevalence·cost_fn·system_fn + (1−prevalence)·cost_fp·system_fp
  /// over a grid search on [lo, hi] with `steps` points. Grid chunks are
  /// scanned in parallel and merged left-to-right (earliest grid point
  /// wins ties), so the result matches the serial scan exactly.
  [[nodiscard]] SystemOperatingPoint minimise_cost(
      double cost_fn, double cost_fp, double lo, double hi, std::size_t steps,
      const exec::Config& config = {}) const;

  /// The scan under minimise_cost, restricted to global grid indices
  /// [first, last) of the same `steps`-point grid (thresholds are derived
  /// from the global index, so a sub-range evaluates exactly the points it
  /// would in a full scan). Returns the range's best candidate under the
  /// strict-< / ascending-order rule; folding the results of a partition
  /// of [0, steps) in ascending order with strict < reproduces
  /// minimise_cost exactly — the shard merge rule.
  [[nodiscard]] CostedOperatingPoint minimise_cost_range(
      double cost_fn, double cost_fp, double lo, double hi, std::size_t steps,
      std::size_t first, std::size_t last,
      const exec::Config& config = {}) const;

  // Construction parameters, exposed so an identical analyzer can be
  // rebuilt elsewhere (the shard workloads serialize them as IEEE-754 bit
  // patterns; rebuilding through from_normalised profiles reproduces this
  // analyzer's arithmetic bit-for-bit).
  [[nodiscard]] const BinormalMachine& machine() const { return machine_; }
  [[nodiscard]] const DemandProfile& cancer_profile() const {
    return cancer_profile_;
  }
  [[nodiscard]] const std::vector<HumanFnResponse>& fn_response() const {
    return fn_response_;
  }
  [[nodiscard]] const DemandProfile& normal_profile() const {
    return normal_profile_;
  }
  [[nodiscard]] const std::vector<HumanFpResponse>& fp_response() const {
    return fp_response_;
  }
  [[nodiscard]] double prevalence() const { return prevalence_; }

 private:
  BinormalMachine machine_;
  DemandProfile cancer_profile_;
  std::vector<HumanFnResponse> fn_response_;
  DemandProfile normal_profile_;
  std::vector<HumanFpResponse> fp_response_;
  double prevalence_;

  // Memoised class-conditional SoA tables: everything threshold-independent
  // in evaluate(), hoisted once at construction so the batch kernel streams
  // over flat arrays (class means, profile weights, human conditionals).
  std::vector<double> cancer_mean_;
  std::vector<double> cancer_weight_;
  std::vector<double> fn_prompted_;
  std::vector<double> fn_silent_;
  std::vector<double> normal_mean_;
  std::vector<double> normal_weight_;
  std::vector<double> fp_prompted_;
  std::vector<double> fp_silent_;
};

/// The trade-off analyser that `hmdiv_analyze --profile` and the daemon's
/// sweep / minimise endpoints derive from a sequential model: a binormal
/// machine with mu(x) = -probit(PMf(x)) per class (so the threshold-0
/// operating point reproduces the model's PMf; PMf is clamped away from
/// {0,1} so degenerate models still yield finite means) and mean -2 on
/// every normal class; the model's human conditionals on the cancer side;
/// a fixed P(recall | prompted / silent) = (0.1, 0.02) on the normal side;
/// `field` as both class mixes; prevalence 0.007.
[[nodiscard]] TradeoffAnalyzer binormal_tradeoff(const SequentialModel& model,
                                                 const DemandProfile& field);

}  // namespace hmdiv::core
