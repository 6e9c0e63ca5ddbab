#include "screening/policies.hpp"

namespace hmdiv::screening {

namespace detail {

bool reader_votes_recall(const sim::ReaderModel& reader, const sim::Case& c,
                         bool prompted, stats::Rng& rng) {
  if (c.has_cancer) {
    // Recall iff the reader does not (false-negative) fail.
    return !rng.bernoulli(
        reader.failure_probability(c.human_difficulty, prompted));
  }
  // Healthy case: recall is the failure (false positive).
  return rng.bernoulli(
      reader.false_recall_probability(c.human_difficulty, prompted));
}

}  // namespace detail

// No CADT in the loop: an unaided reader behaves as if never prompted and
// with no reliance penalty, so the unaided policies keep a zero-reliance
// copy of each reader, made once here, and use its unprompted response.
SingleReaderPolicy::SingleReaderPolicy(const sim::ReaderModel& reader,
                                       std::string name)
    : reader_(reader.with_reliance(0.0)), name_(std::move(name)) {}

bool SingleReaderPolicy::decide_recall(const sim::Case& c, stats::Rng& rng) {
  return detail::reader_votes_recall(reader_, c, /*prompted=*/false, rng);
}

ReaderWithCadtPolicy::ReaderWithCadtPolicy(sim::ReaderModel reader,
                                           sim::CadtModel cadt,
                                           std::string name)
    : reader_(std::move(reader)), cadt_(std::move(cadt)),
      name_(std::move(name)) {}

bool ReaderWithCadtPolicy::decide_recall(const sim::Case& c,
                                         stats::Rng& rng) {
  const bool prompted = cadt_.prompts(c, rng);
  return detail::reader_votes_recall(reader_, c, prompted, rng);
}

DoubleReadingPolicy::DoubleReadingPolicy(
    const sim::ReaderModel& reader_a, const sim::ReaderModel& reader_b,
    const std::optional<sim::ReaderModel>& arbiter, std::string name)
    : reader_a_(reader_a.with_reliance(0.0)),
      reader_b_(reader_b.with_reliance(0.0)),
      name_(std::move(name)) {
  if (arbiter.has_value()) arbiter_ = arbiter->with_reliance(0.0);
}

double DoubleReadingPolicy::readings_per_case() const {
  if (!arbiter_.has_value()) return 2.0;
  if (cases_seen_ == 0) return 2.0;
  return 2.0 + static_cast<double>(arbitrations_) /
                   static_cast<double>(cases_seen_);
}

bool DoubleReadingPolicy::decide_recall(const sim::Case& c, stats::Rng& rng) {
  ++cases_seen_;
  const bool recall_a = detail::reader_votes_recall(reader_a_, c, false, rng);
  const bool recall_b = detail::reader_votes_recall(reader_b_, c, false, rng);
  if (recall_a == recall_b) return recall_a;
  if (!arbiter_.has_value()) return true;  // recall if either recalls
  ++arbitrations_;
  return detail::reader_votes_recall(*arbiter_, c, false, rng);
}

TwoReadersWithCadtPolicy::TwoReadersWithCadtPolicy(sim::ReaderModel reader_a,
                                                   sim::ReaderModel reader_b,
                                                   sim::CadtModel cadt,
                                                   std::string name)
    : reader_a_(std::move(reader_a)),
      reader_b_(std::move(reader_b)),
      cadt_(std::move(cadt)),
      name_(std::move(name)) {}

bool TwoReadersWithCadtPolicy::decide_recall(const sim::Case& c,
                                             stats::Rng& rng) {
  // One machine pass; both readers see the same prompts (the correlation
  // this induces is exactly what multi_reader.hpp models in closed form).
  const bool prompted = cadt_.prompts(c, rng);
  const bool recall_a =
      detail::reader_votes_recall(reader_a_, c, prompted, rng);
  const bool recall_b =
      detail::reader_votes_recall(reader_b_, c, prompted, rng);
  return recall_a || recall_b;
}

std::vector<std::unique_ptr<ReadingPolicy>> standard_policies(
    const sim::ReaderModel& reader, const sim::CadtModel& cadt,
    double low_skill_factor) {
  std::vector<std::unique_ptr<ReadingPolicy>> out;
  out.push_back(std::make_unique<SingleReaderPolicy>(reader));
  out.push_back(std::make_unique<ReaderWithCadtPolicy>(reader, cadt));
  out.push_back(std::make_unique<DoubleReadingPolicy>(reader, reader));
  out.push_back(std::make_unique<DoubleReadingPolicy>(
      reader, reader, reader, "double reading + arbitration"));
  out.push_back(
      std::make_unique<TwoReadersWithCadtPolicy>(reader, reader, cadt));
  const sim::ReaderModel junior = reader.with_skill_factor(low_skill_factor);
  out.push_back(std::make_unique<ReaderWithCadtPolicy>(
      junior, cadt, "less-qualified reader + CADT"));
  out.push_back(std::make_unique<TwoReadersWithCadtPolicy>(
      junior, junior, cadt, "two less-qualified readers + CADT"));
  return out;
}

}  // namespace hmdiv::screening
