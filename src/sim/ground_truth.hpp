// Ground-truth extraction for the mechanistic world.
//
// FeatureWorld's class-conditional parameters {PMf(x), PHf|Mf(x),
// PHf|Ms(x)} are emergent from continuous difficulty distributions. This
// module computes them exactly: machine and reader outcomes enter through
// their *analytic* conditional probabilities, and the two difficulty
// dimensions are integrated by expect_over_difficulties's deterministic
// quadrature, so the parameters carry neither Bernoulli nor sampling
// noise. The result is a core::SequentialModel whose Eq. (8) predictions
// can be checked against end-to-end simulated failure rates — the
// repository's strongest integration test.
//
// Note: the reader is taken at its *current* reliance state (adaptation is
// not advanced). For adapting readers, ground truth is a snapshot.
#pragma once

#include "core/sequential_model.hpp"
#include "sim/feature_world.hpp"

namespace hmdiv::sim {

/// Computes the emergent sequential-model parameters of `world`.
[[nodiscard]] core::SequentialModel ground_truth_model(
    const FeatureWorld& world);

}  // namespace hmdiv::sim
