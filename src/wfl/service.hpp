// End-user service types: the operators of the planning problem.
//
// "Every end-user activity corresponds to an end-user computing service that
// is available in the grid computing system. ... The preconditions of an
// activity specify the set of necessary data and their specifications for
// executing the activity. The postconditions ... specify the set of
// conditions on the data that must hold after the execution."
//
// A ServiceType mirrors the Service frame of Figure 13: formal input
// parameters (A, B, C, ...) constrained by an input condition, and formal
// outputs constrained by an output condition. Binding concrete data items to
// the formals yields an executable activity; the output condition's equality
// requirements are constructive — they tell the simulator which properties
// the produced data carries.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wfl/condition.hpp"
#include "wfl/data.hpp"

namespace ig::wfl {

/// Description of one end-user computing service (Figure 13's service table).
class ServiceType {
 public:
  ServiceType() = default;
  explicit ServiceType(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::string& description() const noexcept { return description_; }
  void set_description(std::string text) { description_ = std::move(text); }

  /// Formal input parameter names, in order (e.g. {"A", "B"}).
  const std::vector<std::string>& inputs() const noexcept { return inputs_; }
  void set_inputs(std::vector<std::string> formals) {
    inputs_ = std::move(formals);
    rebuild_binder();
  }

  /// Precondition over the input formals (e.g. C1).
  const Condition& input_condition() const noexcept { return input_condition_; }
  void set_input_condition(Condition condition) {
    input_condition_ = std::move(condition);
    rebuild_binder();
  }

  /// Formal output parameter names, in order (e.g. {"C"}).
  const std::vector<std::string>& outputs() const noexcept { return outputs_; }
  void set_outputs(std::vector<std::string> formals) {
    outputs_ = std::move(formals);
    rebuild_outputs();
  }

  /// Postcondition over the output formals (e.g. C2).
  const Condition& output_condition() const noexcept { return output_condition_; }
  void set_output_condition(Condition condition) {
    output_condition_ = std::move(condition);
    rebuild_outputs();
  }

  /// Abstract cost charged by the provider (the Service frame's Cost slot).
  double cost() const noexcept { return cost_; }
  void set_cost(double cost) { cost_ = cost; }

  /// Computational work in abstract operations; execution time on a node is
  /// work / node speed. Lets the grid simulator model heterogeneity.
  double base_work() const noexcept { return base_work_; }
  void set_base_work(double work) { base_work_ = work; }

  // -- planning / simulation support -----------------------------------------

  /// Searches `state` for distinct data items that can be bound to the input
  /// formals so that the input condition holds. Returns the first such
  /// binding (formals are filled in order, items tried in state order) or
  /// nullopt when the precondition cannot be met.
  std::optional<Bindings> bind_inputs(const DataSet& state) const;

  /// True when the precondition can be met in `state`.
  bool executable_in(const DataSet& state) const { return bind_inputs(state).has_value(); }

  /// Constructs the output data implied by the output condition: one item
  /// per output formal, named `name_prefix + formal`, carrying every
  /// property the output condition pins with an equality. Non-equality
  /// postconditions (e.g. a refined resolution Value) must be filled by the
  /// concrete service implementation; the planner only needs the equalities.
  std::vector<DataSpec> produce_outputs(std::string_view name_prefix) const;

  /// The conjunction of the input condition's conjuncts that mention only
  /// input formal `index` (trivially true when there are none): an item can
  /// bind to that formal only if it passes this filter.
  const Condition& input_filter(std::size_t index) const {
    assert(unary_filters_.size() == inputs_.size());
    return unary_filters_.at(index);
  }

  /// The input condition's conjuncts that are not input filters (those over
  /// several formals, or over no formal): checked on a complete binding.
  const Condition& residual_condition() const noexcept { return residual_condition_; }

 private:
  /// Precomputed decomposition of the input condition: unary conjuncts per
  /// formal (candidate filters) and the residual multi-variable conjuncts.
  /// Keeps binding near-linear instead of exponential in the state size.
  /// Every setter that changes the inputs or the input condition calls it,
  /// and copies and moves carry the tables along, so `unary_filters_` is
  /// always aligned with `inputs_` and const members never rebuild.
  void rebuild_binder();
  /// Precomputes the equality-pinned properties of each output formal so
  /// produce_outputs need not walk the condition tree per invocation (kept
  /// aligned with `outputs_` the same way).
  void rebuild_outputs();

  bool bind_recursive(const std::vector<std::vector<const DataSpec*>>& candidates,
                      std::size_t order_index, const std::vector<std::size_t>& order,
                      Bindings& bindings) const;

  std::string name_;
  std::string description_;
  std::vector<std::string> inputs_;
  Condition input_condition_;
  std::vector<std::string> outputs_;
  Condition output_condition_;
  double cost_ = 1.0;
  double base_work_ = 1.0;

  std::vector<Condition> unary_filters_;  ///< aligned with inputs_
  Condition residual_condition_;          ///< conjuncts touching >1 formal
  /// Per-output-formal properties implied by the postcondition.
  std::vector<std::vector<std::pair<std::string, meta::Value>>> output_properties_;
};

/// The complete set T of end-user services available to the grid.
class ServiceCatalogue {
 public:
  /// Adds a service; replaces any existing one with the same name.
  void add(ServiceType service);
  const ServiceType* find(std::string_view name) const noexcept;
  bool contains(std::string_view name) const noexcept { return find(name) != nullptr; }

  const std::vector<ServiceType>& services() const noexcept { return services_; }
  std::size_t size() const noexcept { return services_.size(); }
  bool empty() const noexcept { return services_.empty(); }

  std::vector<std::string> names() const;

 private:
  std::vector<ServiceType> services_;
};

}  // namespace ig::wfl
