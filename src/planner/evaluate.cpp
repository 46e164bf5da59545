#include "planner/evaluate.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <string_view>

namespace ig::planner {

/// The items one worker's simulations can hold, interned to dense ids.
///
/// Those are the problem's initial data (ids 0..n-1, interned at
/// construction) and the outputs of the k-th execution of each service
/// (interned at first use). The k-th execution of a service always produces
/// the same specification, so a flow's world state is just a vector of ids.
/// Occurrence indices keep the items *distinct*: binding never reuses one
/// item for two formals, and a service like PSF genuinely needs two
/// different 3-D models.
///
/// Interning an item also evaluates, once, every condition the simulator
/// asks of single items: each (service, formal) input filter and each goal.
/// The answers sit in flat byte tables, so checking a precondition or a goal
/// on a flow is a lookup per item instead of a condition-tree walk.
///
/// Not thread-safe: each worker owns one.
class ItemTable {
 public:
  explicit ItemTable(const PlanningProblem& problem);

  const PlanningProblem& problem() const noexcept { return *problem_; }
  std::size_t initial_count() const noexcept { return initial_count_; }

  /// Catalogue index of the service named `name`, or -1 when it is unknown.
  std::int32_t service_index(std::string_view name) const noexcept;

  /// Id of the first output of the `occurrence`-th execution of service
  /// `service`; its outputs().size() outputs have consecutive ids.
  std::uint32_t outputs(std::size_t service, std::size_t occurrence);

  /// True when item `id` passes input formal `formal`'s filter of service
  /// `service` (ServiceType::input_filter).
  bool accepts(std::uint32_t id, std::size_t service, std::size_t formal) const noexcept {
    return filter_flags_[id * formal_count_ + formal_offsets_[service] + formal] != 0;
  }

  /// True when goal `goal`'s condition holds with its (first) variable
  /// bound to item `id`.
  bool meets_goal(std::uint32_t id, std::size_t goal) const noexcept {
    return goal_flags_[id * goal_variables_.size() + goal] != 0;
  }

  /// True when goal `goal` has no variable and holds: it then holds in
  /// every state, even one without items.
  bool closed_goal_met(std::size_t goal) const noexcept { return closed_goal_met_[goal] != 0; }

  const wfl::DataSpec& item(std::uint32_t id) const noexcept { return items_[id]; }

 private:
  void intern(wfl::DataSpec item);

  const PlanningProblem* problem_;
  std::size_t initial_count_ = 0;
  std::vector<std::size_t> formal_offsets_;  ///< per service: first formal's column
  std::size_t formal_count_ = 0;             ///< input formals over all services
  std::vector<std::string> goal_variables_;  ///< per goal; empty for closed goals
  std::vector<std::uint8_t> closed_goal_met_;
  std::vector<wfl::DataSpec> items_;
  std::vector<std::uint8_t> filter_flags_;  ///< [id][formal column]
  std::vector<std::uint8_t> goal_flags_;    ///< [id][goal]
  /// [service][occurrence] -> first output id.
  std::vector<std::vector<std::uint32_t>> first_outputs_;
};

namespace {

/// One simulated execution flow: the evolving world state plus validity
/// counters ("each execution is counted in the validity check").
///
/// The state holds ItemTable ids. Ids in one flow are distinct (the initial
/// items plus the outputs of each service's k-th execution in this flow),
/// so executing a service just appends its outputs.
struct Flow {
  std::vector<std::uint32_t> state;
  std::size_t valid = 0;
  std::size_t executed = 0;
  /// Valid executions so far of each catalogue service: the occurrence
  /// index of the service's next outputs.
  std::vector<std::uint32_t> occurrences;
};

/// One plan node with its terminal's service resolved to a catalogue index.
/// A compiled plan is a vector of steps; a step's children are contiguous.
struct Step {
  PlanNode::Kind kind = PlanNode::Kind::Terminal;
  std::int32_t service = -1;  ///< Terminal: catalogue index, -1 when unknown
  std::uint32_t first_child = 0;
  std::uint32_t child_count = 0;
};

/// A formal's candidate items: candidates_[begin, end).
struct Candidates {
  std::size_t formal;
  std::size_t begin;
  std::size_t end;
};

class Simulator {
 public:
  Simulator(const EvaluationConfig& config, ItemTable& table)
      : config_(config), table_(table), services_(table.problem().catalogue.services()) {}

  std::vector<Flow> run(const PlanNode& plan) {
    steps_.emplace_back();
    compile(plan, 0);
    Flow initial;
    initial.state.resize(table_.initial_count());
    std::iota(initial.state.begin(), initial.state.end(), 0u);
    initial.occurrences.assign(services_.size(), 0);
    std::vector<Flow> flows;
    flows.push_back(std::move(initial));
    simulate(steps_[0], flows);
    return flows;
  }

  bool truncated() const noexcept { return truncated_; }

 private:
  /// Lays out `node` at steps_[at] and its subtree after it.
  void compile(const PlanNode& node, std::size_t at) {
    steps_[at].kind = node.kind;
    if (node.is_terminal()) {
      steps_[at].service = table_.service_index(node.service);
      return;
    }
    const std::size_t first = steps_.size();
    steps_[at].first_child = static_cast<std::uint32_t>(first);
    steps_[at].child_count = static_cast<std::uint32_t>(node.children.size());
    steps_.resize(first + node.children.size());
    for (std::size_t i = 0; i < node.children.size(); ++i) compile(node.children[i], first + i);
  }

  /// Executes one terminal activity on one flow.
  void execute_terminal(const Step& step, Flow& flow) {
    ++flow.executed;
    if (step.service < 0) return;  // unknown service: executed but invalid
    const auto service = static_cast<std::size_t>(step.service);
    if (!can_bind(service, flow.state)) return;  // precondition unmet: invalid
    ++flow.valid;
    // Postcondition: append the produced items (interned once per worker).
    const std::uint32_t first = table_.outputs(service, flow.occurrences[service]++);
    const std::size_t count = services_[service].outputs().size();
    for (std::size_t k = 0; k < count; ++k)
      flow.state.push_back(first + static_cast<std::uint32_t>(k));
  }

  /// True when distinct items of `state` can bind to the service's input
  /// formals so that its input condition holds: the question
  /// ServiceType::bind_inputs answers, without building the binding.
  bool can_bind(std::size_t service, const std::vector<std::uint32_t>& state) {
    const wfl::ServiceType& type = services_[service];
    const std::size_t arity = type.inputs().size();
    candidates_.clear();
    order_.clear();
    for (std::size_t formal = 0; formal < arity; ++formal) {
      const std::size_t begin = candidates_.size();
      for (const std::uint32_t id : state)
        if (table_.accepts(id, service, formal)) candidates_.push_back(id);
      if (candidates_.size() == begin) return false;  // precondition cannot be met
      order_.push_back({formal, begin, candidates_.size()});
    }
    // Most-constrained-first ordering prunes the search.
    std::sort(order_.begin(), order_.end(), [](const Candidates& a, const Candidates& b) {
      return a.end - a.begin < b.end - b.begin;
    });
    chosen_.resize(arity);
    formals_ = &type.inputs();
    residual_ = type.residual_condition().is_trivially_true() ? nullptr
                                                              : &type.residual_condition();
    bindings_.clear();
    return search(0);
  }

  /// Backtracking over distinct ids, one formal (in order_) per depth. Only
  /// a non-trivial residual condition needs the items themselves.
  bool search(std::size_t depth) {
    if (depth == order_.size()) return residual_ == nullptr || residual_->evaluate(bindings_);
    const Candidates& formal = order_[depth];
    const auto chosen_end = chosen_.begin() + static_cast<std::ptrdiff_t>(depth);
    for (std::size_t i = formal.begin; i < formal.end; ++i) {
      const std::uint32_t id = candidates_[i];
      // Distinct formals bind distinct items.
      if (std::find(chosen_.begin(), chosen_end, id) != chosen_end) continue;
      chosen_[depth] = id;
      if (residual_ != nullptr) bindings_[(*formals_)[formal.formal]] = &table_.item(id);
      if (search(depth + 1)) return true;
    }
    return false;
  }

  void cap_flows(std::vector<Flow>& flows) {
    if (flows.size() > config_.max_flows) {
      flows.resize(config_.max_flows);
      truncated_ = true;
    }
  }

  void simulate(const Step& step, std::vector<Flow>& flows) {
    const std::size_t first = step.first_child;
    const std::size_t last = first + step.child_count;  // one past the last child
    switch (step.kind) {
      case PlanNode::Kind::Terminal:
        for (auto& flow : flows) execute_terminal(step, flow);
        return;
      case PlanNode::Kind::Sequential:
        // Children execute strictly left to right.
        for (std::size_t child = first; child < last; ++child) simulate(steps_[child], flows);
        return;
      case PlanNode::Kind::Concurrent: {
        // "All activities ... can be executed either sequentially or
        // concurrently. If the activities are executed sequentially, they
        // can be executed in any order." A correct concurrent block must be
        // valid under every serialization; checking the forward and reverse
        // orders catches order-dependent children at 2x cost instead of n!.
        if (step.child_count <= 1 || config_.concurrent_orders <= 1) {
          for (std::size_t child = first; child < last; ++child) simulate(steps_[child], flows);
          return;
        }
        std::vector<Flow> reversed_flows = flows;
        for (std::size_t child = first; child < last; ++child) simulate(steps_[child], flows);
        for (std::size_t child = last; child-- > first;) simulate(steps_[child], reversed_flows);
        flows.insert(flows.end(), std::make_move_iterator(reversed_flows.begin()),
                     std::make_move_iterator(reversed_flows.end()));
        cap_flows(flows);
        return;
      }
      case PlanNode::Kind::Selective: {
        // Enumerate: each branch spawns an alternative flow set.
        std::vector<Flow> combined;
        for (std::size_t child = first; child < last; ++child) {
          std::vector<Flow> branch_flows = flows;
          simulate(steps_[child], branch_flows);
          combined.insert(combined.end(), std::make_move_iterator(branch_flows.begin()),
                          std::make_move_iterator(branch_flows.end()));
          cap_flows(combined);
          if (combined.size() >= config_.max_flows) {
            // Remaining branches would be dropped: that is truncation too.
            if (child + 1 < last) truncated_ = true;
            break;
          }
        }
        flows = std::move(combined);
        return;
      }
      case PlanNode::Kind::Iterative: {
        // Enumerate 1..max_unroll passes over the body.
        std::vector<Flow> combined;
        std::vector<Flow> current = flows;
        for (std::size_t pass = 1; pass <= config_.max_unroll; ++pass) {
          for (std::size_t child = first; child < last; ++child) simulate(steps_[child], current);
          combined.insert(combined.end(), current.begin(), current.end());
          cap_flows(combined);
          if (combined.size() >= config_.max_flows) {
            if (pass < config_.max_unroll) truncated_ = true;
            break;
          }
        }
        flows = std::move(combined);
        return;
      }
    }
  }

  const EvaluationConfig& config_;
  ItemTable& table_;
  const std::vector<wfl::ServiceType>& services_;
  std::vector<Step> steps_;
  bool truncated_ = false;

  // Working buffers of can_bind, reused across calls.
  std::vector<std::uint32_t> candidates_;
  std::vector<Candidates> order_;
  std::vector<std::uint32_t> chosen_;
  const std::vector<std::string>* formals_ = nullptr;
  const wfl::Condition* residual_ = nullptr;
  wfl::Bindings bindings_;
};

}  // namespace

ItemTable::ItemTable(const PlanningProblem& problem) : problem_(&problem) {
  const auto& services = problem.catalogue.services();
  formal_offsets_.reserve(services.size());
  for (const auto& service : services) {
    formal_offsets_.push_back(formal_count_);
    formal_count_ += service.inputs().size();
  }
  first_outputs_.resize(services.size());
  for (const auto& goal : problem.goals) {
    const std::vector<std::string> variables = goal.condition.variables();
    goal_variables_.push_back(variables.empty() ? std::string() : variables.front());
    closed_goal_met_.push_back(variables.empty() && goal.condition.evaluate({}) ? 1 : 0);
  }
  for (const auto& item : problem.initial_state.items()) intern(item);
  initial_count_ = items_.size();
}

std::int32_t ItemTable::service_index(std::string_view name) const noexcept {
  const auto& services = problem_->catalogue.services();
  for (std::size_t i = 0; i < services.size(); ++i)
    if (services[i].name() == name) return static_cast<std::int32_t>(i);
  return -1;
}

std::uint32_t ItemTable::outputs(std::size_t service, std::size_t occurrence) {
  const wfl::ServiceType& type = problem_->catalogue.services()[service];
  auto& firsts = first_outputs_[service];
  while (firsts.size() <= occurrence) {
    const std::string prefix = type.name() + "#" + std::to_string(firsts.size() + 1) + ":";
    firsts.push_back(static_cast<std::uint32_t>(items_.size()));
    for (auto& output : type.produce_outputs(prefix)) intern(std::move(output));
  }
  return firsts[occurrence];
}

void ItemTable::intern(wfl::DataSpec item) {
  for (const auto& service : problem_->catalogue.services()) {
    for (std::size_t formal = 0; formal < service.inputs().size(); ++formal) {
      const wfl::Condition& filter = service.input_filter(formal);
      const bool pass = filter.is_trivially_true() ||
                        filter.evaluate_single(service.inputs()[formal], item);
      filter_flags_.push_back(pass ? 1 : 0);
    }
  }
  // Goals bind their single variable existentially over a flow's items.
  for (std::size_t goal = 0; goal < goal_variables_.size(); ++goal) {
    wfl::Bindings bindings;
    bindings[goal_variables_[goal]] = &item;
    goal_flags_.push_back(problem_->goals[goal].condition.evaluate(bindings) ? 1 : 0);
  }
  items_.push_back(std::move(item));
}

PlanEvaluator::PlanEvaluator(const PlanningProblem& problem, EvaluationConfig config,
                             std::size_t workers)
    : problem_(&problem), config_(config) {
  if (workers == 0) workers = 1;
  tables_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) tables_.push_back(std::make_unique<ItemTable>(problem));
}

PlanEvaluator::~PlanEvaluator() = default;

Fitness PlanEvaluator::evaluate(const PlanNode& plan, std::size_t worker) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (!config_.memoize) return simulate(plan, worker);

  const std::uint64_t key = plan.hash();
  MemoShard& shard = memo_[key % kMemoShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto chain = shard.entries.find(key);
    if (chain != shard.entries.end()) {
      for (const auto& [known, fitness] : chain->second) {
        if (known == plan) {
          memo_hits_.fetch_add(1, std::memory_order_relaxed);
          return fitness;
        }
      }
    }
  }

  const Fitness fitness = simulate(plan, worker);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto& chain = shard.entries[key];
    // A concurrent worker may have simulated the same plan meanwhile; both
    // computed the same pure value, so keeping one copy suffices.
    bool present = false;
    for (const auto& [known, cached] : chain) {
      if (known == plan) {
        present = true;
        break;
      }
    }
    if (!present) chain.emplace_back(plan, fitness);
  }
  return fitness;
}

Fitness PlanEvaluator::simulate(const PlanNode& plan, std::size_t worker) const {
  Fitness fitness;
  fitness.size = plan.size();

  ItemTable& table = *tables_.at(worker);
  Simulator simulator(config_, table);
  const std::vector<Flow> flows = simulator.run(plan);
  fitness.flows = flows.size();
  fitness.flows_truncated = simulator.truncated();

  // Eq. 1 — validity: totals across all enumerated executions.
  std::size_t total_valid = 0;
  std::size_t total_executed = 0;
  for (const auto& flow : flows) {
    total_valid += flow.valid;
    total_executed += flow.executed;
  }
  fitness.validity =
      total_executed > 0 ? static_cast<double>(total_valid) / static_cast<double>(total_executed)
                         : 0.0;

  // Eq. 2 — goal fitness, averaged over flows ("the goal fitness is given as
  // the average goal fitness of each execution"). Goals bind their single
  // variable existentially over the flow's final items.
  const std::size_t goal_count = problem_->goals.size();
  double goal_sum = 0.0;
  for (const auto& flow : flows) {
    std::size_t satisfied = 0;
    for (std::size_t goal = 0; goal < goal_count; ++goal) {
      if (table.closed_goal_met(goal) ||
          std::any_of(flow.state.begin(), flow.state.end(),
                      [&](std::uint32_t id) { return table.meets_goal(id, goal); }))
        ++satisfied;
    }
    goal_sum += goal_count == 0
                    ? 1.0
                    : static_cast<double>(satisfied) / static_cast<double>(goal_count);
  }
  fitness.goal = flows.empty() ? 0.0 : goal_sum / static_cast<double>(flows.size());

  // Eq. 3 — representation efficiency.
  const double size_ratio =
      config_.smax > 0 ? static_cast<double>(fitness.size) / static_cast<double>(config_.smax)
                       : 1.0;
  fitness.representation = size_ratio < 1.0 ? 1.0 - size_ratio : 0.0;

  // Eq. 4 — weighted sum.
  fitness.overall = config_.wv * fitness.validity + config_.wg * fitness.goal +
                    config_.wr * fitness.representation;
  return fitness;
}

}  // namespace ig::planner
