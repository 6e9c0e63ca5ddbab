#include "rbd/importance.hpp"

#include <stdexcept>

namespace hmdiv::rbd {

namespace {

double evaluate(const Structure& structure, std::span<const double> success) {
  return structure.has_shared_components()
             ? structure.success_by_enumeration(success)
             : structure.success_probability(success);
}

std::vector<double> with_component(std::span<const double> success,
                                   std::size_t index, double value) {
  std::vector<double> modified(success.begin(), success.end());
  modified.at(index) = value;
  return modified;
}

}  // namespace

double birnbaum_importance(const Structure& structure,
                           std::span<const double> success,
                           std::size_t index) {
  if (index >= structure.component_count()) {
    throw std::invalid_argument("birnbaum_importance: index out of range");
  }
  const double up = evaluate(structure, with_component(success, index, 1.0));
  const double down = evaluate(structure, with_component(success, index, 0.0));
  return up - down;
}

std::vector<double> birnbaum_importances(const Structure& structure,
                                         std::span<const double> success) {
  std::vector<double> out;
  out.reserve(structure.component_count());
  for (std::size_t i = 0; i < structure.component_count(); ++i) {
    out.push_back(birnbaum_importance(structure, success, i));
  }
  return out;
}

}  // namespace hmdiv::rbd
