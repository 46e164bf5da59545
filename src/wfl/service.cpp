#include "wfl/service.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ig::wfl {

void ServiceType::rebuild_binder() {
  unary_filters_.assign(inputs_.size(), Condition::always_true());
  residual_condition_ = Condition::always_true();
  for (const Condition& conjunct : input_condition_.conjuncts()) {
    const std::vector<std::string> variables = conjunct.variables();
    if (variables.size() == 1) {
      auto it = std::find(inputs_.begin(), inputs_.end(), variables.front());
      if (it != inputs_.end()) {
        const std::size_t index = static_cast<std::size_t>(it - inputs_.begin());
        unary_filters_[index] = Condition::conjunction(unary_filters_[index], conjunct);
        continue;
      }
    }
    residual_condition_ = Condition::conjunction(residual_condition_, conjunct);
  }
}

bool ServiceType::bind_recursive(const std::vector<std::vector<const DataSpec*>>& candidates,
                                 std::size_t order_index, const std::vector<std::size_t>& order,
                                 Bindings& bindings) const {
  if (order_index >= order.size()) return residual_condition_.evaluate(bindings);
  const std::size_t formal_index = order[order_index];
  const std::string& formal = inputs_[formal_index];
  for (const DataSpec* item : candidates[formal_index]) {
    // Distinct formals bind distinct items (the paper's input sets never
    // repeat a data item).
    bool already_bound = false;
    for (const auto& [name, bound] : bindings) {
      (void)name;
      if (bound == item) {
        already_bound = true;
        break;
      }
    }
    if (already_bound) continue;
    bindings[formal] = item;
    if (bind_recursive(candidates, order_index + 1, order, bindings)) return true;
    bindings.erase(formal);
  }
  return false;
}

std::optional<Bindings> ServiceType::bind_inputs(const DataSet& state) const {
  assert(unary_filters_.size() == inputs_.size());

  // Candidate items per formal: those passing the formal's unary filter.
  std::vector<std::vector<const DataSpec*>> candidates(inputs_.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const Condition& filter = unary_filters_[i];
    const bool pass_all = filter.is_trivially_true();
    for (const DataSpec& item : state.items()) {
      if (pass_all || filter.evaluate_single(inputs_[i], item)) candidates[i].push_back(&item);
    }
    if (candidates[i].empty()) return std::nullopt;  // precondition cannot be met
  }

  // Most-constrained-first ordering prunes the backtracking search.
  std::vector<std::size_t> order(inputs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return candidates[a].size() < candidates[b].size();
  });

  Bindings bindings;
  if (bind_recursive(candidates, 0, order, bindings)) return bindings;
  return std::nullopt;
}

void ServiceType::rebuild_outputs() {
  output_properties_.clear();
  output_properties_.reserve(outputs_.size());
  for (const auto& formal : outputs_)
    output_properties_.push_back(output_condition_.equality_requirements(formal));
}

std::vector<DataSpec> ServiceType::produce_outputs(std::string_view name_prefix) const {
  assert(output_properties_.size() == outputs_.size());
  std::vector<DataSpec> outputs;
  outputs.reserve(outputs_.size());
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    DataSpec item(std::string(name_prefix) + outputs_[i]);
    for (const auto& [property, value] : output_properties_[i]) item.set(property, value);
    item.set(props::kCreator, meta::Value(name_));
    outputs.push_back(std::move(item));
  }
  return outputs;
}

void ServiceCatalogue::add(ServiceType service) {
  for (auto& existing : services_) {
    if (existing.name() == service.name()) {
      existing = std::move(service);
      return;
    }
  }
  services_.push_back(std::move(service));
}

const ServiceType* ServiceCatalogue::find(std::string_view name) const noexcept {
  for (const auto& service : services_) {
    if (service.name() == name) return &service;
  }
  return nullptr;
}

std::vector<std::string> ServiceCatalogue::names() const {
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (const auto& service : services_) out.push_back(service.name());
  return out;
}

}  // namespace ig::wfl
