#include "core/describe.hpp"

#include <stdexcept>

#include "report/format.hpp"

namespace hmdiv::core {

using report::fixed;
using report::Table;

namespace {

void check_compat(const SequentialModel& model, const DemandProfile& trial,
                  const DemandProfile& field) {
  if (!model.compatible_with(trial) || !model.compatible_with(field)) {
    throw std::invalid_argument("describe: profile/model class mismatch");
  }
}

}  // namespace

Table parameter_table(const SequentialModel& model, const DemandProfile& trial,
                      const DemandProfile& field) {
  check_compat(model, trial, field);
  Table table({"classes of cases", "Trial p(x)", "Field p(x)", "PMf", "PMs",
               "PHf|Mf", "PHf|Ms"});
  table.caption("Demand profiles and model parameters");
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    const ClassConditional& c = model.parameters(x);
    table.row({model.class_names()[x], fixed(trial[x], 2), fixed(field[x], 2),
               fixed(c.p_machine_fails, 2), fixed(c.p_machine_succeeds(), 2),
               fixed(c.p_human_fails_given_machine_fails, 2),
               fixed(c.p_human_fails_given_machine_succeeds, 2)});
  }
  return table;
}

Table failure_table(const SequentialModel& model, const DemandProfile& trial,
                    const DemandProfile& field) {
  check_compat(model, trial, field);
  Table table({"classes of cases", "P(system failure)"});
  table.caption("Probability of system failure");
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    table.row({model.class_names()[x] + " cases",
               fixed(model.system_failure_given_class(x), 3)});
  }
  table.row({"all cases (Trial)",
             fixed(model.system_failure_probability(trial), 3)});
  table.row({"all cases (Field)",
             fixed(model.system_failure_probability(field), 3)});
  return table;
}

Table improvement_table(const std::vector<ImprovementEffect>& effects) {
  Table table({"candidate", "PHf before", "PHf after", "abs. gain",
               "rel. gain"});
  table.caption("Machine improvement candidates, ranked");
  for (const auto& e : effects) {
    table.row({e.name, fixed(e.baseline_failure, 3),
               fixed(e.improved_failure, 3), fixed(e.absolute_gain(), 4),
               report::percent(e.relative_gain(), 1)});
  }
  return table;
}

}  // namespace hmdiv::core
