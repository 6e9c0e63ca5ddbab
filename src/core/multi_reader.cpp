#include "core/multi_reader.hpp"

#include <stdexcept>
#include <unordered_set>

namespace hmdiv::core {

namespace {

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string(what) + " outside [0,1]");
  }
}

void check_names(const std::vector<std::string>& names, const char* who) {
  if (names.empty()) {
    throw std::invalid_argument(std::string(who) + ": no classes");
  }
  std::unordered_set<std::string> seen;
  for (const auto& name : names) {
    if (name.empty() || !seen.insert(name).second) {
      throw std::invalid_argument(
          std::string(who) + ": class names must be non-empty and unique");
    }
  }
}

void check_profile_names(const std::vector<std::string>& names,
                         const DemandProfile& profile, const char* who) {
  if (profile.class_names() != names) {
    throw std::invalid_argument(std::string(who) +
                                ": profile classes do not match model");
  }
}

}  // namespace

TwoReadersWithCadtModel::TwoReadersWithCadtModel(
    std::vector<std::string> class_names, std::vector<double> p_machine_fails,
    std::vector<ReaderConditional> reader_a,
    std::vector<ReaderConditional> reader_b)
    : names_(std::move(class_names)),
      p_machine_fails_(std::move(p_machine_fails)),
      reader_a_(std::move(reader_a)),
      reader_b_(std::move(reader_b)) {
  check_names(names_, "TwoReadersWithCadtModel");
  if (p_machine_fails_.size() != names_.size() ||
      reader_a_.size() != names_.size() || reader_b_.size() != names_.size()) {
    throw std::invalid_argument(
        "TwoReadersWithCadtModel: parameter sizes do not match classes");
  }
  for (const double p : p_machine_fails_) {
    check_probability(p, "TwoReadersWithCadtModel PMf");
  }
  for (const auto& readers : {&reader_a_, &reader_b_}) {
    for (const auto& r : *readers) {
      check_probability(r.p_fail_given_machine_fails,
                        "TwoReadersWithCadtModel p|Mf");
      check_probability(r.p_fail_given_machine_succeeds,
                        "TwoReadersWithCadtModel p|Ms");
    }
  }
}

void TwoReadersWithCadtModel::check_class(std::size_t x) const {
  if (x >= names_.size()) {
    throw std::invalid_argument(
        "TwoReadersWithCadtModel: class index out of range");
  }
}

double TwoReadersWithCadtModel::system_failure_given_class(
    std::size_t x) const {
  check_class(x);
  const double p_mf = p_machine_fails_[x];
  return p_mf * reader_a_[x].p_fail_given_machine_fails *
             reader_b_[x].p_fail_given_machine_fails +
         (1.0 - p_mf) * reader_a_[x].p_fail_given_machine_succeeds *
             reader_b_[x].p_fail_given_machine_succeeds;
}

double TwoReadersWithCadtModel::system_failure_probability(
    const DemandProfile& profile) const {
  check_profile_names(names_, profile, "TwoReadersWithCadtModel");
  double total = 0.0;
  for (std::size_t x = 0; x < names_.size(); ++x) {
    total += profile[x] * system_failure_given_class(x);
  }
  return total;
}

namespace {

SequentialModel single_reader(const std::vector<std::string>& names,
                              const std::vector<double>& p_machine_fails,
                              const std::vector<ReaderConditional>& reader) {
  std::vector<ClassConditional> params;
  params.reserve(names.size());
  for (std::size_t x = 0; x < names.size(); ++x) {
    ClassConditional c;
    c.p_machine_fails = p_machine_fails[x];
    c.p_human_fails_given_machine_fails = reader[x].p_fail_given_machine_fails;
    c.p_human_fails_given_machine_succeeds =
        reader[x].p_fail_given_machine_succeeds;
    params.push_back(c);
  }
  return SequentialModel(names, std::move(params));
}

}  // namespace

SequentialModel TwoReadersWithCadtModel::reader_a_alone() const {
  return single_reader(names_, p_machine_fails_, reader_a_);
}

SequentialModel TwoReadersWithCadtModel::reader_b_alone() const {
  return single_reader(names_, p_machine_fails_, reader_b_);
}

double TwoReadersWithCadtModel::system_failure_assuming_reader_independence(
    const DemandProfile& profile) const {
  check_profile_names(names_, profile, "TwoReadersWithCadtModel");
  const SequentialModel a = reader_a_alone();
  const SequentialModel b = reader_b_alone();
  double total = 0.0;
  for (std::size_t x = 0; x < names_.size(); ++x) {
    total += profile[x] * a.system_failure_given_class(x) *
             b.system_failure_given_class(x);
  }
  return total;
}

}  // namespace hmdiv::core
