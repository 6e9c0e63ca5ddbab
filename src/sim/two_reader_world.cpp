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

TwoReaderRecord TwoReaderWorld::simulate_case(stats::Rng& rng) {
  const Case demand = generator_.generate(rng);
  const bool prompted = cadt_.prompts(demand, rng);
  TwoReaderRecord r;
  r.class_index = demand.class_index;
  r.machine_failed = !prompted;
  // Given the case and the shared prompt state, the readers' perceptual
  // processes are independent — the correlation between them at system
  // level comes entirely from sharing the demand and the machine outcome.
  r.reader_a_failed = rng.bernoulli(
      reader_a_.failure_probability(demand.human_difficulty, prompted));
  r.reader_b_failed = rng.bernoulli(
      reader_b_.failure_probability(demand.human_difficulty, prompted));
  return r;
}

std::vector<TwoReaderRecord> TwoReaderWorld::run(std::uint64_t cases,
                                                 stats::Rng& rng) {
  if (cases == 0) throw std::invalid_argument("TwoReaderWorld: cases == 0");
  std::vector<TwoReaderRecord> out;
  out.reserve(cases);
  for (std::uint64_t i = 0; i < cases; ++i) out.push_back(simulate_case(rng));
  return out;
}

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

core::TwoReadersWithCadtModel TwoReaderEstimate::fitted_model() const {
  return core::TwoReadersWithCadtModel(class_names, p_machine_fails, reader_a,
                                       reader_b);
}

TwoReaderEstimate estimate_two_reader_model(
    const std::vector<TwoReaderRecord>& records,
    const std::vector<std::string>& class_names) {
  const std::size_t k = class_names.size();
  if (k == 0) {
    throw std::invalid_argument("estimate_two_reader_model: no classes");
  }
  struct Counts {
    std::uint64_t cases = 0, mf = 0;
    std::uint64_t a_mf = 0, a_ms = 0, b_mf = 0, b_ms = 0;
  };
  std::vector<Counts> counts(k);
  std::uint64_t system_failures = 0;
  for (const auto& r : records) {
    if (r.class_index >= k) {
      throw std::invalid_argument(
          "estimate_two_reader_model: record class out of range");
    }
    Counts& c = counts[r.class_index];
    ++c.cases;
    if (r.machine_failed) {
      ++c.mf;
      c.a_mf += r.reader_a_failed ? 1 : 0;
      c.b_mf += r.reader_b_failed ? 1 : 0;
    } else {
      c.a_ms += r.reader_a_failed ? 1 : 0;
      c.b_ms += r.reader_b_failed ? 1 : 0;
    }
    system_failures += r.system_failed() ? 1 : 0;
  }

  TwoReaderEstimate out;
  out.class_names = class_names;
  out.p_machine_fails.resize(k);
  out.reader_a.resize(k);
  out.reader_b.resize(k);
  for (std::size_t x = 0; x < k; ++x) {
    const Counts& c = counts[x];
    if (c.cases == 0) {
      throw std::invalid_argument("estimate_two_reader_model: class '" +
                                  class_names[x] + "' has no cases");
    }
    const std::uint64_t ms = c.cases - c.mf;
    auto ratio = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.5 : static_cast<double>(num) /
                                  static_cast<double>(den);
    };
    out.p_machine_fails[x] = static_cast<double>(c.mf) /
                             static_cast<double>(c.cases);
    out.reader_a[x].p_fail_given_machine_fails = ratio(c.a_mf, c.mf);
    out.reader_a[x].p_fail_given_machine_succeeds = ratio(c.a_ms, ms);
    out.reader_b[x].p_fail_given_machine_fails = ratio(c.b_mf, c.mf);
    out.reader_b[x].p_fail_given_machine_succeeds = ratio(c.b_ms, ms);
  }
  out.observed_system_failure =
      records.empty() ? 0.0
                      : static_cast<double>(system_failures) /
                            static_cast<double>(records.size());
  return out;
}

}  // namespace hmdiv::sim
