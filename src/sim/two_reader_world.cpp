#include "sim/two_reader_world.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "sim/difficulty_quadrature.hpp"

namespace hmdiv::sim {

TwoReaderWorld::TwoReaderWorld(CaseGenerator generator, CadtModel cadt,
                               ReaderModel reader_a, ReaderModel reader_b)
    : generator_(std::move(generator)),
      cadt_(std::move(cadt)),
      reader_a_(std::move(reader_a)),
      reader_b_(std::move(reader_b)) {}

std::vector<double> TwoReaderWorld::human_kinks() const {
  std::vector<double> kinks = reader_a_.misclassification_kinks();
  const std::vector<double> b = reader_b_.misclassification_kinks();
  kinks.insert(kinks.end(), b.begin(), b.end());
  return kinks;
}

double TwoReaderWorld::steepest_slope() const {
  return std::max({cadt_.config().sensitivity_slope,
                   reader_a_.config().detection_slope,
                   reader_b_.config().detection_slope});
}

core::TwoReadersWithCadtModel TwoReaderWorld::ground_truth() const {
  const std::vector<double> kinks = human_kinks();
  std::vector<double> p_mf(class_count());
  std::vector<core::ReaderConditional> a(class_count());
  std::vector<core::ReaderConditional> b(class_count());
  for (std::size_t x = 0; x < class_count(); ++x) {
    const auto [mf, ms, a_mf, a_ms, b_mf, b_ms] = expect_over_difficulties(
        generator_.spec(x), kinks, steepest_slope(),
        [&](double human, double machine) {
          const double p_prompt = cadt_.prompt_probability(machine);
          return std::array{
              1.0 - p_prompt,
              p_prompt,
              (1.0 - p_prompt) * reader_a_.failure_probability(human, false),
              p_prompt * reader_a_.failure_probability(human, true),
              (1.0 - p_prompt) * reader_b_.failure_probability(human, false),
              p_prompt * reader_b_.failure_probability(human, true)};
        });
    p_mf[x] = mf;
    a[x].p_fail_given_machine_fails = mf > 0.0 ? a_mf / mf : 0.0;
    a[x].p_fail_given_machine_succeeds = ms > 0.0 ? a_ms / ms : 0.0;
    b[x].p_fail_given_machine_fails = mf > 0.0 ? b_mf / mf : 0.0;
    b[x].p_fail_given_machine_succeeds = ms > 0.0 ? b_ms / ms : 0.0;
  }
  return core::TwoReadersWithCadtModel(class_names(), std::move(p_mf),
                                       std::move(a), std::move(b));
}

double TwoReaderWorld::exact_system_failure(
    const core::DemandProfile& profile) const {
  if (profile.class_names() != class_names()) {
    throw std::invalid_argument(
        "TwoReaderWorld: profile classes do not match world classes");
  }
  const std::vector<double> kinks = human_kinks();
  double total = 0.0;
  for (std::size_t x = 0; x < class_count(); ++x) {
    const auto [joint] = expect_over_difficulties(
        generator_.spec(x), kinks, steepest_slope(),
        [&](double human, double machine) {
          const double p_prompt = cadt_.prompt_probability(machine);
          return std::array{p_prompt *
                                reader_a_.failure_probability(human, true) *
                                reader_b_.failure_probability(human, true) +
                            (1.0 - p_prompt) *
                                reader_a_.failure_probability(human, false) *
                                reader_b_.failure_probability(human, false)};
        });
    total += profile[x] * joint;
  }
  return total;
}

}  // namespace hmdiv::sim
