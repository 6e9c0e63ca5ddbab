// The mechanistic world: latent-difficulty cases + simulated CADT +
// simulated reader, composed in the paper's *sequential* mode of operation
// (Fig. 3): the machine processes the case first, the reader sees the case
// together with the machine's prompts.
//
// Unlike TabularWorld, per-case difficulty varies continuously *within*
// each class, the human/machine difficulty correlation is explicit, and the
// reader's reliance can adapt over the course of a run. Ground-truth
// class-conditional parameters {PMf(x), PHf|Mf(x), PHf|Ms(x)} are not
// inputs but emergent; ground_truth.hpp integrates them exactly so the
// core model's predictions can be checked against end-to-end simulation.
#pragma once

#include <optional>

#include "sim/cadt.hpp"
#include "sim/case_generator.hpp"
#include "sim/reader.hpp"
#include "sim/trial.hpp"

namespace hmdiv::sim {

/// Fully mechanistic composite system.
class FeatureWorld final : public World {
 public:
  FeatureWorld(CaseGenerator generator, CadtModel cadt, ReaderModel reader);

  [[nodiscard]] CaseRecord simulate_case(stats::Rng& rng) override;
  /// The scalar loop on a local copy of this world, so the batch starts
  /// from this world's state (reader adaptation included) and leaves it
  /// unchanged. Draw order per case is identical to simulate_case (this
  /// world is bound by logistic/exp evaluations and mechanistic sampling,
  /// not dispatch), so scalar and batched paths share one stream.
  void simulate_batch(std::span<CaseRecord> out,
                      stats::Rng& rng) const override;
  [[nodiscard]] std::size_t class_count() const override;
  [[nodiscard]] const std::vector<std::string>& class_names() const override;

  [[nodiscard]] const CaseGenerator& generator() const { return generator_; }
  [[nodiscard]] const CadtModel& cadt() const { return cadt_; }
  [[nodiscard]] const ReaderModel& reader() const { return reader_; }

  /// Replaces the CADT (e.g. an improved or re-tuned machine) keeping the
  /// reader's current state.
  void replace_cadt(CadtModel cadt) { cadt_ = std::move(cadt); }

  /// Freezes/unfreezes reader adaptation for controlled measurements.
  void set_adaptation_enabled(bool enabled) { adaptation_enabled_ = enabled; }

  /// Simulates one case keeping full detail (for diagnostics/examples).
  struct DetailedOutcome {
    Case demand;
    bool machine_prompted = false;
    bool reader_detected = false;
    bool recalled = false;
  };
  [[nodiscard]] DetailedOutcome simulate_detailed(stats::Rng& rng);

 private:
  CaseGenerator generator_;
  CadtModel cadt_;
  ReaderModel reader_;
  bool adaptation_enabled_ = true;
};

/// A reference configuration loosely calibrated so that its emergent
/// parameters have the same orders of magnitude as the paper's Section-5
/// example ("easy" and "difficult" classes, PMf ~ few % / tens of %,
/// PHf ~ 0.1–0.6). Used by benches and examples.
[[nodiscard]] FeatureWorld reference_feature_world(
    std::optional<core::DemandProfile> profile = std::nullopt);

}  // namespace hmdiv::sim
