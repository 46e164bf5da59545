#include "planner/evaluate.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
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
/// Every set of items is a bit row: `width_` 64-bit words, bit `id` set
/// when item `id` is in the set. Interning an item evaluates, once, every
/// condition the simulator asks of single items, and records the answers as
/// bits in the same kind of rows: one per (service, formal) input filter,
/// one per goal, and one per service marking its outputs. When the item
/// count outgrows the rows, every row is doubled in width (zero-padded).
///
/// A world state is the *set* of item ids a flow holds, kept as one row;
/// two flows holding the same items share one state id, whatever order
/// produced them. That is exact: a precondition is an exhaustive search for
/// distinct items among `state & filter`, a goal holds when `state & goal`
/// is non-zero, and a service's next occurrence index is the popcount of
/// `state & outputs` over its output count. State 0 holds the initial data;
/// every other state is its parent plus one output group. An index keyed by
/// an order-free hash of the items finds a state again, and a word compare
/// of the rows confirms a hash match. Executing service s in state x gives
/// the same answer every time, so transition(x, s) runs the precondition
/// check once per table and serves every repeat from a dense (state,
/// service) table; each state's goal count is memoized the same way.
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
  std::uint32_t transition(std::uint32_t state, std::size_t service) {
    const std::uint32_t next = memoized(state, service);
    return next != kUnknown ? next : first_transition(state, service);
  }

  /// Number of the problem's goals that `state` satisfies.
  std::size_t satisfied_goals(std::uint32_t state);

 private:
  static constexpr std::uint32_t kUnknown = UINT32_MAX;

  struct State {
    std::uint64_t hash;    ///< sum of mix(id) over the items: order-free
    std::uint32_t parent;  ///< the state this one extends by one output group
    std::uint32_t goals;   ///< satisfied goals, kUnknown until asked
  };

  /// Row `index` of the bit-row table `rows`.
  const std::uint64_t* row(const std::vector<std::uint64_t>& rows, std::size_t index) const {
    return rows.data() + index * width_;
  }
  /// Sets bit `id` of row `index` of `rows`.
  void set_bit(std::vector<std::uint64_t>& rows, std::size_t index, std::size_t id) const {
    rows[index * width_ + id / 64] |= std::uint64_t{1} << (id % 64);
  }

  void intern(wfl::DataSpec item, std::int32_t owner);
  /// Doubles the width of every row.
  void widen();
  /// Id of the first output of the `occurrence`-th execution of service
  /// `service`; its outputs().size() outputs have consecutive ids.
  std::uint32_t outputs(std::size_t service, std::size_t occurrence);
  /// transition(state, service) if already computed, else kUnknown.
  std::uint32_t& memoized(std::uint32_t state, std::size_t service) {
    return transitions_[state * services_->size() + service];
  }
  /// transition() the first time it is asked for (state, service).
  std::uint32_t first_transition(std::uint32_t state, std::size_t service);
  /// The state holding the items of `parent` plus the next output group of
  /// `service`, interned.
  std::uint32_t extend(std::uint32_t parent, std::size_t service);
  /// Adds the state holding the items of `row_`; returns its id.
  std::uint32_t add_state(std::uint64_t hash, std::uint32_t parent);

  bool can_bind(std::size_t service, std::uint32_t state);
  bool search(std::size_t depth);

  const PlanningProblem* problem_;
  const std::vector<wfl::ServiceType>* services_;
  std::vector<std::size_t> formal_offsets_;  ///< per service: first formal's column
  std::size_t formal_count_ = 0;             ///< input formals over all services
  std::vector<std::string> goal_variables_;  ///< per goal; empty for closed goals
  std::vector<std::uint8_t> closed_goal_met_;
  std::vector<wfl::DataSpec> items_;
  /// [service][occurrence] -> first output id.
  std::vector<std::vector<std::uint32_t>> first_outputs_;

  std::size_t width_ = 1;                   ///< 64-bit words per row
  std::vector<std::uint64_t> filter_rows_;  ///< [formal column]: items passing its filter
  std::vector<std::uint64_t> goal_rows_;    ///< [goal]: items meeting it
  std::vector<std::uint64_t> owner_rows_;   ///< [service]: items it produces
  std::vector<std::uint64_t> state_rows_;   ///< [state]: items held

  std::vector<State> states_;
  FlatIndex states_by_hash_;  ///< State::hash -> state id
  /// [state][service]: next state, kInvalid, or kUnknown until computed.
  std::vector<std::uint32_t> transitions_;

  // Working buffers, reused across calls.
  std::vector<std::uint64_t> row_;  ///< the row of the state being built
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
  /// The subtree turns every flow list into an empty one: a selective with
  /// no children (or an iterative when max_unroll is 0) lies on each of its
  /// paths.
  bool empties = false;
};

/// Simulates plans against one ItemTable. Its steps, flows and per-depth
/// scratch lists are reused from one plan to the next.
class Simulator {
 public:
  Simulator(const EvaluationConfig& config, ItemTable& table) : config_(config), table_(table) {}

  /// Simulates `plan` from the initial state. The flows stay valid until
  /// the next call.
  const std::vector<Flow>& run(const PlanNode& plan) {
    steps_.assign(1, Step{});
    truncated_ = false;
    const std::size_t depth = compile(plan, 0);
    // Sized before recursing: a frame holds references to its own depth's
    // lists while deeper frames run, so the outer vector must not grow.
    if (scratch_.size() < depth) scratch_.resize(depth);
    flows_.assign(1, Flow{});  // the initial state
    simulate(steps_[0], flows_, 0, config_.max_flows);
    return flows_;
  }

  bool truncated() const noexcept { return truncated_; }
  /// Node count of the plan last run.
  std::size_t nodes() const noexcept { return steps_.size(); }

 private:
  /// A controller's flow lists at one depth of the recursion.
  struct Scratch {
    std::vector<Flow> combined;
    std::vector<Flow> branch;
  };

  /// Lays out `node` at steps_[at] and its subtree after it; returns the
  /// subtree's depth.
  std::size_t compile(const PlanNode& node, std::size_t at) {
    steps_[at].kind = node.kind;
    if (node.is_terminal()) {
      steps_[at].service = table_.service_index(node.service);
      return 1;
    }
    const std::size_t first = steps_.size();
    steps_[at].first_child = static_cast<std::uint32_t>(first);
    steps_[at].child_count = static_cast<std::uint32_t>(node.children.size());
    steps_.resize(first + node.children.size());
    std::size_t deepest = 0;
    bool any_empties = false;
    bool all_empty = true;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      deepest = std::max(deepest, compile(node.children[i], first + i));
      any_empties = any_empties || steps_[first + i].empties;
      all_empty = all_empty && steps_[first + i].empties;
    }
    // A selective empties when every branch does (so with no branches); an
    // iterative with no pass always does; otherwise one emptying child in
    // the chain is enough.
    steps_[at].empties = node.kind == PlanNode::Kind::Selective ? all_empty
                         : node.kind == PlanNode::Kind::Iterative
                             ? any_empties || config_.max_unroll == 0
                             : any_empties;
    return deepest + 1;
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

  /// Clips `flows` to `keep`, the flows that can survive the caps.
  void cap_flows(std::vector<Flow>& flows, std::size_t keep) {
    if (flows.size() > keep) {
      flows.resize(keep);
      truncated_ = true;
    }
  }

  /// The outputs `segment` (children of one controller) can add behind
  /// `ahead` in a list of which only the first `keep` flows survive: the
  /// `keep` of the segment's nodes. A segment that empties is not cut, so
  /// its nodes get max_flows.
  std::size_t room(const std::vector<Flow>& ahead, std::size_t keep,
                   const Step& segment) const noexcept {
    if (segment.empties) return config_.max_flows;
    return keep > ahead.size() ? keep - ahead.size() : 0;
  }

  /// Trims `inputs`, the flows about to run through `segment`, to its
  /// `room`. Exact unless the segment empties: otherwise its first n
  /// outputs depend only on its first n inputs and it never returns fewer
  /// flows than it gets, so the outputs of the trimmed inputs are flows a
  /// cap would drop, and that cap would fire (hence truncated_). Returns
  /// false when it trimmed every input, so nothing is left to simulate.
  bool fit(std::vector<Flow>& inputs, std::size_t room, const Step& segment) {
    if (segment.empties || inputs.size() <= room) return true;
    inputs.resize(room);
    truncated_ = true;
    return room > 0;
  }

  /// Simulates `step`, a node at `depth` of the plan, on `flows`, of whose
  /// outputs only the first `keep` (at most max_flows) can survive the caps
  /// of the controllers above it.
  void simulate(const Step& step, std::vector<Flow>& flows, std::size_t depth,
                std::size_t keep) {
    const std::size_t first = step.first_child;
    const std::size_t last = first + step.child_count;  // one past the last child
    switch (step.kind) {
      case PlanNode::Kind::Terminal:
        for (auto& flow : flows) execute_terminal(step, flow);
        return;
      case PlanNode::Kind::Sequential:
        // Children execute strictly left to right.
        for (std::size_t child = first; child < last; ++child)
          simulate(steps_[child], flows, depth + 1, keep);
        return;
      case PlanNode::Kind::Concurrent: {
        // "All activities ... can be executed either sequentially or
        // concurrently. If the activities are executed sequentially, they
        // can be executed in any order." A correct concurrent block must be
        // valid under every serialization; checking the forward and reverse
        // orders catches order-dependent children at 2x cost instead of n!.
        if (step.child_count <= 1 || config_.concurrent_orders <= 1) {
          for (std::size_t child = first; child < last; ++child)
            simulate(steps_[child], flows, depth + 1, keep);
          return;
        }
        std::vector<Flow>& reversed_flows = scratch_[depth].branch;
        reversed_flows = flows;
        for (std::size_t child = first; child < last; ++child)
          simulate(steps_[child], flows, depth + 1, keep);
        // The reverse pass's flows queue behind the forward pass's.
        const std::size_t reverse_room = room(flows, keep, step);
        if (fit(reversed_flows, reverse_room, step)) {
          for (std::size_t child = last; child-- > first;)
            simulate(steps_[child], reversed_flows, depth + 1, reverse_room);
          flows.insert(flows.end(), reversed_flows.begin(), reversed_flows.end());
        }
        cap_flows(flows, keep);
        return;
      }
      case PlanNode::Kind::Selective: {
        // Enumerate: each branch spawns an alternative flow set.
        auto& [combined, branch_flows] = scratch_[depth];
        combined.clear();
        for (std::size_t child = first; child < last; ++child) {
          branch_flows = flows;
          const std::size_t branch_room = room(combined, keep, steps_[child]);
          if (fit(branch_flows, branch_room, steps_[child])) {
            simulate(steps_[child], branch_flows, depth + 1, branch_room);
            combined.insert(combined.end(), branch_flows.begin(), branch_flows.end());
          }
          cap_flows(combined, keep);
          if (combined.size() >= config_.max_flows) {
            // Remaining branches would be dropped: that is truncation too.
            if (child + 1 < last) truncated_ = true;
            break;
          }
        }
        flows.swap(combined);
        return;
      }
      case PlanNode::Kind::Iterative: {
        // Enumerate 1..max_unroll passes over the body.
        auto& [combined, current] = scratch_[depth];
        combined.clear();
        current = flows;
        for (std::size_t pass = 1; pass <= config_.max_unroll; ++pass) {
          const std::size_t pass_room = room(combined, keep, step);
          if (fit(current, pass_room, step)) {
            for (std::size_t child = first; child < last; ++child)
              simulate(steps_[child], current, depth + 1, pass_room);
            combined.insert(combined.end(), current.begin(), current.end());
          }
          cap_flows(combined, keep);
          if (combined.size() >= config_.max_flows) {
            if (pass < config_.max_unroll) truncated_ = true;
            break;
          }
        }
        flows.swap(combined);
        return;
      }
    }
  }

  const EvaluationConfig config_;
  ItemTable& table_;
  std::vector<Step> steps_;
  std::vector<Flow> flows_;
  std::vector<Scratch> scratch_;  ///< [depth]: lists of the controller there
  bool truncated_ = false;
};

}  // namespace

/// One evaluator worker: its interned tables and the simulator over them.
struct EvaluatorWorker {
  EvaluatorWorker(const PlanningProblem& problem, const EvaluationConfig& config)
      : table(problem), simulator(config, table) {}

  ItemTable table;
  Simulator simulator;
};

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
  filter_rows_.assign(formal_count_ * width_, 0);
  goal_rows_.assign(goal_variables_.size() * width_, 0);
  owner_rows_.assign(services_->size() * width_, 0);
  for (const auto& item : problem.initial_state.items()) intern(item, -1);
  std::uint64_t hash = 0;
  row_.assign(width_, 0);
  for (std::uint32_t id = 0; id < items_.size(); ++id) {
    hash += mix(id);
    set_bit(row_, 0, id);
  }
  add_state(hash, 0);
}

std::int32_t ItemTable::service_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < services_->size(); ++i)
    if ((*services_)[i].name() == name) return static_cast<std::int32_t>(i);
  return -1;
}

std::uint32_t ItemTable::first_transition(std::uint32_t state, std::size_t service) {
  // A precondition that holds in the parent state holds here too: this
  // state only adds items, so the parent's binding is still available.
  // (State 0 is its own parent, and not memoized yet.)
  const std::uint32_t from_parent = memoized(states_[state].parent, service);
  const bool valid = (from_parent != kUnknown && from_parent != kInvalid) ||
                     can_bind(service, state);
  const std::uint32_t next = valid ? extend(state, service) : kInvalid;
  memoized(state, service) = next;  // extend() may have grown the table
  return next;
}

std::size_t ItemTable::satisfied_goals(std::uint32_t state) {
  if (states_[state].goals == kUnknown) {
    const std::uint64_t* held = row(state_rows_, state);
    std::uint32_t satisfied = 0;
    for (std::size_t goal = 0; goal < goal_variables_.size(); ++goal) {
      const std::uint64_t* meets = row(goal_rows_, goal);
      bool met = closed_goal_met_[goal] != 0;
      for (std::size_t word = 0; word < width_ && !met; ++word)
        met = (held[word] & meets[word]) != 0;
      if (met) ++satisfied;
    }
    states_[state].goals = satisfied;
  }
  return states_[state].goals;
}

std::uint32_t ItemTable::extend(std::uint32_t parent, std::size_t service) {
  const auto count = static_cast<std::uint32_t>((*services_)[service].outputs().size());
  if (count == 0) return parent;  // nothing produced: the state is unchanged
  // The next occurrence index is the number of the service's output groups
  // already held.
  std::size_t held = 0;
  for (std::size_t word = 0; word < width_; ++word)
    held += static_cast<std::size_t>(
        std::popcount(row(state_rows_, parent)[word] & row(owner_rows_, service)[word]));
  const std::uint32_t first = outputs(service, held / count);  // may widen the rows

  row_.assign(row(state_rows_, parent), row(state_rows_, parent) + width_);
  std::uint64_t hash = states_[parent].hash;
  for (std::uint32_t id = first; id < first + count; ++id) {
    set_bit(row_, 0, id);
    hash += mix(id);
  }
  // Another path may have reached the same items already.
  const std::uint32_t known = states_by_hash_.find(hash, [&](std::uint32_t candidate) {
    return std::equal(row_.begin(), row_.end(), row(state_rows_, candidate));
  });
  return known != FlatIndex::kEmpty ? known : add_state(hash, parent);
}

std::uint32_t ItemTable::add_state(std::uint64_t hash, std::uint32_t parent) {
  const auto id = static_cast<std::uint32_t>(states_.size());
  states_.push_back({hash, parent, kUnknown});
  state_rows_.insert(state_rows_.end(), row_.begin(), row_.end());
  transitions_.resize(transitions_.size() + services_->size(), kUnknown);
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

/// True when distinct items of `state` can bind to the service's input
/// formals so that its input condition holds: the question
/// ServiceType::bind_inputs answers, without building the binding. Only
/// whether a binding exists matters, so candidates are gathered in id
/// order.
bool ItemTable::can_bind(std::size_t service, std::uint32_t state) {
  const wfl::ServiceType& type = (*services_)[service];
  const std::size_t arity = type.inputs().size();
  const std::uint64_t* held = row(state_rows_, state);
  candidates_.clear();
  order_.clear();
  for (std::size_t formal = 0; formal < arity; ++formal) {
    const std::size_t begin = candidates_.size();
    const std::uint64_t* passes = row(filter_rows_, formal_offsets_[service] + formal);
    for (std::size_t word = 0; word < width_; ++word)
      for (std::uint64_t bits = held[word] & passes[word]; bits != 0; bits &= bits - 1)
        candidates_.push_back(static_cast<std::uint32_t>(64 * word) +
                              static_cast<std::uint32_t>(std::countr_zero(bits)));
    if (candidates_.size() == begin) return false;  // precondition cannot be met
    order_.push_back({formal, begin, candidates_.size()});
  }
  // Most-constrained-first ordering prunes the search. Services take a
  // handful of formals, so an insertion sort beats std::sort here.
  for (std::size_t i = 1; i < order_.size(); ++i) {
    const Candidates formal = order_[i];
    std::size_t j = i;
    for (; j > 0 && order_[j - 1].end - order_[j - 1].begin > formal.end - formal.begin; --j)
      order_[j] = order_[j - 1];
    order_[j] = formal;
  }
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
  const std::size_t id = items_.size();
  if (id == 64 * width_) widen();
  std::size_t column = 0;
  for (const auto& service : *services_) {
    for (std::size_t formal = 0; formal < service.inputs().size(); ++formal, ++column) {
      const wfl::Condition& filter = service.input_filter(formal);
      if (filter.is_trivially_true() || filter.evaluate_single(service.inputs()[formal], item))
        set_bit(filter_rows_, column, id);
    }
  }
  // Goals bind their single variable existentially over a flow's items.
  for (std::size_t goal = 0; goal < goal_variables_.size(); ++goal) {
    wfl::Bindings bindings;
    bindings[goal_variables_[goal]] = &item;
    if (problem_->goals[goal].condition.evaluate(bindings)) set_bit(goal_rows_, goal, id);
  }
  if (owner >= 0) set_bit(owner_rows_, static_cast<std::size_t>(owner), id);
  items_.push_back(std::move(item));
}

void ItemTable::widen() {
  const std::size_t wider = 2 * width_;
  for (auto* rows : {&filter_rows_, &goal_rows_, &owner_rows_, &state_rows_}) {
    std::vector<std::uint64_t> widened(rows->size() / width_ * wider, 0);
    for (std::size_t r = 0; r < rows->size() / width_; ++r)
      std::copy_n(rows->begin() + static_cast<std::ptrdiff_t>(r * width_), width_,
                  widened.begin() + static_cast<std::ptrdiff_t>(r * wider));
    *rows = std::move(widened);
  }
  width_ = wider;
}

PlanEvaluator::PlanEvaluator(const PlanningProblem& problem, EvaluationConfig config,
                             std::size_t workers)
    : problem_(&problem), config_(config) {
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.push_back(std::make_unique<EvaluatorWorker>(problem, config_));
}

PlanEvaluator::~PlanEvaluator() = default;

Fitness PlanEvaluator::evaluate(const PlanNode& plan, std::size_t worker) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  Fitness fitness;

  EvaluatorWorker& state = *workers_.at(worker);
  const std::vector<Flow>& flows = state.simulator.run(plan);
  fitness.size = state.simulator.nodes();
  fitness.flows = flows.size();
  fitness.flows_truncated = state.simulator.truncated();

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
    const std::size_t satisfied = state.table.satisfied_goals(flow.state);
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
