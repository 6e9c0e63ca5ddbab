#include "core/analysis_report.hpp"

#include <sstream>
#include <stdexcept>

#include "core/describe.hpp"
#include "core/design_advisor.hpp"
#include "core/sensitivity.hpp"
#include "report/format.hpp"
#include "report/table.hpp"

namespace hmdiv::core {

namespace {

using report::fixed;
using report::Table;

/// Machine failure-probability factor of the per-class what-if rows: the
/// paper's 10x improvement.
constexpr double kImprovementFactor = 0.1;

std::string render(const Table& table, bool markdown) {
  return markdown ? table.to_markdown() + "\n" : table.to_text() + "\n";
}

void heading(std::ostringstream& out, bool markdown, const std::string& text) {
  if (markdown) {
    out << "## " << text << "\n\n";
  } else {
    out << "== " << text << " ==\n\n";
  }
}

}  // namespace

std::string analysis_report(const SequentialModel& model,
                            const DemandProfile& trial,
                            const DemandProfile& field,
                            const ReportOptions& options) {
  if (!model.compatible_with(trial) || !model.compatible_with(field)) {
    throw std::invalid_argument("analysis_report: profile/model mismatch");
  }
  std::ostringstream out;
  if (options.markdown) {
    out << "# Human-machine system analysis\n\n";
  } else {
    out << "HUMAN-MACHINE SYSTEM ANALYSIS\n\n";
  }

  heading(out, options.markdown, "Model parameters");
  out << render(parameter_table(model, trial, field), options.markdown);

  heading(out, options.markdown, "System failure probabilities (Eq. 8)");
  out << render(failure_table(model, trial, field), options.markdown);

  heading(out, options.markdown, "Eq. (10) decomposition");
  Table decomposition({"profile", "floor E[PHf|Ms]", "E[PMf]*E[t]",
                       "cov(PMf,t)", "total"});
  for (const auto& [name, profile] :
       {std::pair<const char*, const DemandProfile&>{"Trial", trial},
        std::pair<const char*, const DemandProfile&>{"Field", field}}) {
    const auto d = model.decompose(profile);
    decomposition.row({name, fixed(d.floor, 4), fixed(d.mean_field, 4),
                       fixed(d.covariance, 4), fixed(d.total(), 4)});
  }
  out << render(decomposition, options.markdown);

  heading(out, options.markdown, "Sensitivities (Field profile)");
  const auto grads = sensitivities(model, field);
  Table gradients({"class", "dPHf/dPMf", "dPHf/dPHf|Mf", "dPHf/dPHf|Ms"});
  for (std::size_t x = 0; x < model.class_count(); ++x) {
    gradients.row({model.class_names()[x],
                   fixed(grads[x].d_machine_failure, 4),
                   fixed(grads[x].d_human_given_failure, 4),
                   fixed(grads[x].d_human_given_success, 4)});
  }
  out << render(gradients, options.markdown);

  if (options.include_design_advice) {
    heading(out, options.markdown, "Design advice (Field profile)");
    DesignAdvisor advisor(model, field);
    const auto diagnosis = advisor.diagnose();
    std::vector<ImprovementCandidate> candidates;
    for (std::size_t x = 0; x < model.class_count(); ++x) {
      candidates.push_back(ImprovementCandidate{
          "improve " + model.class_names()[x], x, kImprovementFactor});
    }
    out << render(improvement_table(advisor.rank(std::move(candidates))),
                  options.markdown);
    std::ostringstream advice;
    advice << "Failure floor E[PHf|Ms] = " << fixed(diagnosis.floor, 3)
           << "; machine-addressable fraction = "
           << report::percent(diagnosis.machine_addressable_fraction, 1)
           << "; cov(PMf, t) = " << fixed(diagnosis.covariance, 4)
           << "; best machine-improvement target: "
           << model.class_names()[advisor.best_target_class()] << ".";
    out << advice.str() << "\n";
  }
  return out.str();
}

std::string dual_analysis_report(const DualModel& model,
                                 const OutcomeCosts& costs, bool markdown) {
  std::ostringstream out;
  if (markdown) {
    out << "# Screening performance (both failure modes)\n\n";
  } else {
    out << "SCREENING PERFORMANCE (BOTH FAILURE MODES)\n\n";
  }
  const ScreeningPerformance p = model.performance();
  Table table({"metric", "value"});
  table.row({"prevalence", report::percent(model.prevalence(), 2)});
  table.row({"sensitivity", fixed(p.sensitivity, 3)});
  table.row({"specificity", fixed(p.specificity, 3)});
  table.row({"recall rate", report::percent(p.recall_rate, 2)});
  table.row({"PPV", fixed(p.ppv, 3)});
  table.row({"NPV", fixed(p.npv, 4)});
  table.row({"cancer detection rate /1000",
             fixed(p.cancer_detection_rate_per_1000, 2)});
  table.row({"expected cost per case",
             fixed(model.expected_cost_per_case(costs), 3)});
  out << render(table, markdown);

  heading(out, markdown, "Machine re-tuning trade-off");
  Table sweep({"tuning", "sensitivity", "specificity", "recall rate",
               "cost/case"});
  struct Tuning {
    const char* label;
    double fn_factor, fp_factor;
  };
  for (const Tuning& t :
       {Tuning{"much stricter (FNx2, FPx0.5)", 2.0, 0.5},
        Tuning{"as configured", 1.0, 1.0},
        Tuning{"more eager (FNx0.5, FPx2)", 0.5, 2.0}}) {
    const DualModel tuned = model.with_machine_retuned(t.fn_factor,
                                                       t.fp_factor);
    const ScreeningPerformance tp = tuned.performance();
    sweep.row({t.label, fixed(tp.sensitivity, 3), fixed(tp.specificity, 3),
               report::percent(tp.recall_rate, 2),
               fixed(tuned.expected_cost_per_case(costs), 3)});
  }
  out << render(sweep, markdown);
  return out.str();
}

}  // namespace hmdiv::core
