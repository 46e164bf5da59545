#include "planner/evaluate.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>

namespace ig::planner {

namespace {

/// SplitMix64's finalizer: spreads ids and keys over 64 bits.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Open-addressing multimap from 64-bit keys to 32-bit values: two flat
/// arrays, linear probing, doubled at three-quarters load. Values must be
/// below kEmpty, which marks a free slot.
class FlatIndex {
 public:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  /// The first value stored under `key` for which `match(value)` holds, or
  /// kEmpty.
  template <typename Match>
  std::uint32_t find(std::uint64_t key, Match&& match) const {
    if (values_.empty()) return kEmpty;
    const std::size_t mask = values_.size() - 1;
    for (std::size_t slot = mix(key) & mask; values_[slot] != kEmpty; slot = (slot + 1) & mask)
      if (keys_[slot] == key && match(values_[slot])) return values_[slot];
    return kEmpty;
  }

  void insert(std::uint64_t key, std::uint32_t value) {
    if (4 * (used_ + 1) > 3 * values_.size()) grow();
    place(key, value);
    ++used_;
  }

 private:
  void place(std::uint64_t key, std::uint32_t value) {
    const std::size_t mask = values_.size() - 1;
    std::size_t slot = mix(key) & mask;
    while (values_[slot] != kEmpty) slot = (slot + 1) & mask;
    keys_[slot] = key;
    values_[slot] = value;
  }

  void grow() {
    std::vector<std::uint64_t> keys = std::move(keys_);
    std::vector<std::uint32_t> values = std::move(values_);
    keys_.assign(std::max<std::size_t>(64, 2 * values.size()), 0);
    values_.assign(keys_.size(), kEmpty);
    for (std::size_t slot = 0; slot < values.size(); ++slot)
      if (values[slot] != kEmpty) place(keys[slot], values[slot]);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t used_ = 0;
};

/// A formal's candidate items: candidates_[begin, end).
struct Candidates {
  std::size_t formal;
  std::size_t begin;
  std::size_t end;
};

}  // namespace

/// The items and world states one worker's simulations can hold, interned
/// to dense ids, and the transitions between those states.
///
/// Items are the problem's initial data (ids 0..n-1, interned at
/// construction) and the outputs of the k-th execution of each service
/// (interned at first use). The k-th execution of a service always produces
/// the same specification. Occurrence indices keep the items *distinct*:
/// binding never reuses one item for two formals, and a service like PSF
/// genuinely needs two different 3-D models.
///
/// Interning an item also evaluates, once, every condition the simulator
/// asks of single items: each (service, formal) input filter and each goal.
/// The answers sit in flat byte tables, so checking a precondition or a goal
/// is a lookup per item instead of a condition-tree walk.
///
/// A world state is the *set* of item ids a flow holds; two flows holding
/// the same items share one state id, whatever order produced them. That is
/// exact: a precondition is an exhaustive search for distinct items, a goal
/// asks whether any item meets it, and a service's next occurrence index is
/// the number of its output groups already in the set. State 0 holds the
/// initial data; every other state is its parent plus one output group. An
/// index keyed by an order-free hash of the items finds a state again (a
/// hash match is confirmed item by item). Executing service s in state x
/// gives the same answer every time, so transition(x, s) runs the
/// precondition check once per table and serves every repeat from a memo;
/// each state's goal count is memoized the same way.
///
/// Not thread-safe: each worker owns one.
class ItemTable {
 public:
  /// transition() result when the service's precondition fails.
  static constexpr std::uint32_t kInvalid = FlatIndex::kEmpty - 1;

  explicit ItemTable(const PlanningProblem& problem);

  /// Catalogue index of the service named `name`, or -1 when it is unknown.
  std::int32_t service_index(std::string_view name) const noexcept;

  /// The state a valid execution of `service` leads to from `state`, or
  /// kInvalid when its precondition is unmet there.
  std::uint32_t transition(std::uint32_t state, std::size_t service);

  /// Number of the problem's goals that `state` satisfies.
  std::size_t satisfied_goals(std::uint32_t state);

 private:
  static constexpr std::uint32_t kUnknown = UINT32_MAX;

  struct State {
    std::uint64_t hash;          ///< sum of mix(id) over the items: order-free
    std::uint32_t parent;        ///< the state this one extends by one output group
    std::uint32_t first_output;  ///< the group's first item id
    std::uint32_t size;          ///< items held
    std::uint32_t goals;         ///< satisfied goals, kUnknown until asked
  };

  void intern(wfl::DataSpec item, std::int32_t owner);
  /// Id of the first output of the `occurrence`-th execution of service
  /// `service`; its outputs().size() outputs have consecutive ids.
  std::uint32_t outputs(std::size_t service, std::size_t occurrence);
  static std::uint64_t key(std::uint32_t state, std::size_t service) noexcept {
    return (std::uint64_t{state} << 32) | service;
  }
  /// transition(state, service) if already computed, else FlatIndex::kEmpty.
  std::uint32_t memoized(std::uint32_t state, std::size_t service) const {
    return transitions_.find(key(state, service), [](std::uint32_t) { return true; });
  }
  /// Writes the item ids of `state` to `ids` (unsorted).
  void collect(std::uint32_t state, std::vector<std::uint32_t>& ids) const;
  /// The state holding the items of `parent` (in `ids_` on entry; the new
  /// output group is appended there) plus the next output group of
  /// `service`, interned.
  std::uint32_t extend(std::uint32_t parent, std::size_t service);

  /// True when item `id` passes input formal `formal`'s filter of service
  /// `service` (ServiceType::input_filter).
  bool accepts(std::uint32_t id, std::size_t service, std::size_t formal) const noexcept {
    return filter_flags_[id * formal_count_ + formal_offsets_[service] + formal] != 0;
  }
  bool can_bind(std::size_t service, const std::vector<std::uint32_t>& ids);
  bool search(std::size_t depth);

  const PlanningProblem* problem_;
  const std::vector<wfl::ServiceType>* services_;
  std::size_t initial_count_ = 0;
  std::vector<std::size_t> formal_offsets_;  ///< per service: first formal's column
  std::size_t formal_count_ = 0;             ///< input formals over all services
  std::vector<std::string> goal_variables_;  ///< per goal; empty for closed goals
  std::vector<std::uint8_t> closed_goal_met_;
  std::vector<wfl::DataSpec> items_;
  std::vector<std::int32_t> owners_;        ///< per item: producing service, -1 initial
  std::vector<std::uint8_t> filter_flags_;  ///< [id][formal column]
  std::vector<std::uint8_t> goal_flags_;    ///< [id][goal]
  /// [service][occurrence] -> first output id.
  std::vector<std::vector<std::uint32_t>> first_outputs_;

  std::vector<State> states_;
  FlatIndex states_by_hash_;  ///< State::hash -> state id
  FlatIndex transitions_;     ///< state << 32 | service -> next state or kInvalid

  // Working buffers, reused across calls.
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> other_;
  std::vector<std::uint8_t> marks_;  ///< per item: set while ids_ is compared
  std::vector<std::uint32_t> candidates_;
  std::vector<Candidates> order_;
  std::vector<std::uint32_t> chosen_;
  const std::vector<std::string>* formals_ = nullptr;
  const wfl::Condition* residual_ = nullptr;
  wfl::Bindings bindings_;
};

namespace {

/// One simulated execution flow: its world state plus validity counters
/// ("each execution is counted in the validity check").
struct Flow {
  std::uint32_t state = 0;  ///< ItemTable state id
  std::size_t valid = 0;
  std::size_t executed = 0;
};

/// One plan node with its terminal's service resolved to a catalogue index.
/// A compiled plan is a vector of steps; a step's children are contiguous.
struct Step {
  PlanNode::Kind kind = PlanNode::Kind::Terminal;
  std::int32_t service = -1;  ///< Terminal: catalogue index, -1 when unknown
  std::uint32_t first_child = 0;
  std::uint32_t child_count = 0;
};

class Simulator {
 public:
  Simulator(const EvaluationConfig& config, ItemTable& table) : config_(config), table_(table) {}

  std::vector<Flow> run(const PlanNode& plan) {
    steps_.emplace_back();
    compile(plan, 0);
    std::vector<Flow> flows(1);  // the initial state
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
    const std::uint32_t next =
        table_.transition(flow.state, static_cast<std::size_t>(step.service));
    if (next == ItemTable::kInvalid) return;  // precondition unmet: invalid
    ++flow.valid;
    flow.state = next;
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
        flows.insert(flows.end(), reversed_flows.begin(), reversed_flows.end());
        cap_flows(flows);
        return;
      }
      case PlanNode::Kind::Selective: {
        // Enumerate: each branch spawns an alternative flow set.
        std::vector<Flow> combined;
        for (std::size_t child = first; child < last; ++child) {
          std::vector<Flow> branch_flows = flows;
          simulate(steps_[child], branch_flows);
          combined.insert(combined.end(), branch_flows.begin(), branch_flows.end());
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
  std::vector<Step> steps_;
  bool truncated_ = false;
};

}  // namespace

ItemTable::ItemTable(const PlanningProblem& problem)
    : problem_(&problem), services_(&problem.catalogue.services()) {
  formal_offsets_.reserve(services_->size());
  for (const auto& service : *services_) {
    formal_offsets_.push_back(formal_count_);
    formal_count_ += service.inputs().size();
  }
  first_outputs_.resize(services_->size());
  for (const auto& goal : problem.goals) {
    const std::vector<std::string> variables = goal.condition.variables();
    goal_variables_.push_back(variables.empty() ? std::string() : variables.front());
    closed_goal_met_.push_back(variables.empty() && goal.condition.evaluate({}) ? 1 : 0);
  }
  for (const auto& item : problem.initial_state.items()) intern(item, -1);
  initial_count_ = items_.size();
  std::uint64_t hash = 0;
  for (std::uint32_t id = 0; id < initial_count_; ++id) hash += mix(id);
  states_.push_back({hash, 0, 0, static_cast<std::uint32_t>(initial_count_), kUnknown});
  states_by_hash_.insert(hash, 0);
}

std::int32_t ItemTable::service_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < services_->size(); ++i)
    if ((*services_)[i].name() == name) return static_cast<std::int32_t>(i);
  return -1;
}

std::uint32_t ItemTable::transition(std::uint32_t state, std::size_t service) {
  std::uint32_t next = memoized(state, service);
  if (next != FlatIndex::kEmpty) return next;
  collect(state, ids_);
  // A precondition that holds in the parent state holds here too: this
  // state only adds items, so the parent's binding is still available.
  // (State 0 is its own parent, and not memoized yet.)
  const std::uint32_t from_parent = memoized(states_[state].parent, service);
  const bool valid = (from_parent != FlatIndex::kEmpty && from_parent != kInvalid) ||
                     can_bind(service, ids_);
  next = valid ? extend(state, service) : kInvalid;
  transitions_.insert(key(state, service), next);
  return next;
}

std::size_t ItemTable::satisfied_goals(std::uint32_t state) {
  if (states_[state].goals == kUnknown) {
    collect(state, ids_);
    std::uint32_t satisfied = 0;
    for (std::size_t goal = 0; goal < goal_variables_.size(); ++goal) {
      if (closed_goal_met_[goal] != 0 ||
          std::any_of(ids_.begin(), ids_.end(), [&](std::uint32_t id) {
            return goal_flags_[id * goal_variables_.size() + goal] != 0;
          }))
        ++satisfied;
    }
    states_[state].goals = satisfied;
  }
  return states_[state].goals;
}

void ItemTable::collect(std::uint32_t state, std::vector<std::uint32_t>& ids) const {
  ids.resize(initial_count_);
  std::iota(ids.begin(), ids.end(), 0u);
  for (; state != 0; state = states_[state].parent) {
    const State& added = states_[state];
    for (std::uint32_t id = added.first_output;
         id < added.first_output + added.size - states_[added.parent].size; ++id)
      ids.push_back(id);
  }
}

std::uint32_t ItemTable::extend(std::uint32_t parent, std::size_t service) {
  const auto count = static_cast<std::uint32_t>((*services_)[service].outputs().size());
  if (count == 0) return parent;  // nothing produced: the state is unchanged
  // The next occurrence index is the number of the service's output groups
  // already held.
  const auto held = std::count_if(ids_.begin(), ids_.end(), [&](std::uint32_t id) {
    return owners_[id] == static_cast<std::int32_t>(service);
  });
  const std::uint32_t first = outputs(service, static_cast<std::size_t>(held) / count);
  const std::uint32_t size = states_[parent].size + count;
  std::uint64_t hash = states_[parent].hash;
  for (std::uint32_t k = 0; k < count; ++k) {
    ids_.push_back(first + k);
    hash += mix(first + k);
  }

  // Another path may have reached the same items already. A state of the
  // same size holding only marked items holds exactly ids_.
  marks_.resize(items_.size());
  for (const std::uint32_t id : ids_) marks_[id] = 1;
  const std::uint32_t known = states_by_hash_.find(hash, [&](std::uint32_t candidate) {
    if (states_[candidate].size != size) return false;
    collect(candidate, other_);
    return std::all_of(other_.begin(), other_.end(),
                       [&](std::uint32_t id) { return marks_[id] != 0; });
  });
  for (const std::uint32_t id : ids_) marks_[id] = 0;
  if (known != FlatIndex::kEmpty) return known;

  const auto id = static_cast<std::uint32_t>(states_.size());
  states_.push_back({hash, parent, first, size, kUnknown});
  states_by_hash_.insert(hash, id);
  return id;
}

std::uint32_t ItemTable::outputs(std::size_t service, std::size_t occurrence) {
  const wfl::ServiceType& type = (*services_)[service];
  auto& firsts = first_outputs_[service];
  while (firsts.size() <= occurrence) {
    const std::string prefix = type.name() + "#" + std::to_string(firsts.size() + 1) + ":";
    firsts.push_back(static_cast<std::uint32_t>(items_.size()));
    for (auto& output : type.produce_outputs(prefix))
      intern(std::move(output), static_cast<std::int32_t>(service));
  }
  return firsts[occurrence];
}

/// True when distinct items of `ids` can bind to the service's input
/// formals so that its input condition holds: the question
/// ServiceType::bind_inputs answers, without building the binding.
bool ItemTable::can_bind(std::size_t service, const std::vector<std::uint32_t>& ids) {
  const wfl::ServiceType& type = (*services_)[service];
  const std::size_t arity = type.inputs().size();
  candidates_.clear();
  order_.clear();
  for (std::size_t formal = 0; formal < arity; ++formal) {
    const std::size_t begin = candidates_.size();
    for (const std::uint32_t id : ids)
      if (accepts(id, service, formal)) candidates_.push_back(id);
    if (candidates_.size() == begin) return false;  // precondition cannot be met
    order_.push_back({formal, begin, candidates_.size()});
  }
  // Most-constrained-first ordering prunes the search.
  std::sort(order_.begin(), order_.end(), [](const Candidates& a, const Candidates& b) {
    return a.end - a.begin < b.end - b.begin;
  });
  chosen_.resize(arity);
  formals_ = &type.inputs();
  residual_ =
      type.residual_condition().is_trivially_true() ? nullptr : &type.residual_condition();
  bindings_.clear();
  return search(0);
}

/// Backtracking over distinct ids, one formal (in order_) per depth. Only a
/// non-trivial residual condition needs the items themselves.
bool ItemTable::search(std::size_t depth) {
  if (depth == order_.size()) return residual_ == nullptr || residual_->evaluate(bindings_);
  const Candidates& formal = order_[depth];
  const auto chosen_end = chosen_.begin() + static_cast<std::ptrdiff_t>(depth);
  for (std::size_t i = formal.begin; i < formal.end; ++i) {
    const std::uint32_t id = candidates_[i];
    // Distinct formals bind distinct items.
    if (std::find(chosen_.begin(), chosen_end, id) != chosen_end) continue;
    chosen_[depth] = id;
    if (residual_ != nullptr) bindings_[(*formals_)[formal.formal]] = &items_[id];
    if (search(depth + 1)) return true;
  }
  return false;
}

void ItemTable::intern(wfl::DataSpec item, std::int32_t owner) {
  for (const auto& service : *services_) {
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
  owners_.push_back(owner);
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
    const std::size_t satisfied = table.satisfied_goals(flow.state);
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
