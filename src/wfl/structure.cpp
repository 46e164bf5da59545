#include "wfl/structure.hpp"

#include <set>

namespace ig::wfl {

// ---------------------------------------------------------------------------
// Lowering (FlowExpr -> graph)
// ---------------------------------------------------------------------------

namespace {

class Lowerer {
 public:
  Lowerer(ProcessDescription& process, const LowerOptions& options)
      : process_(process), options_(options) {}

  /// Lowers `expr`, attaching its entry transition from `entry_id` with
  /// `entry_guard`. Returns the exit activity id and the guard the *next*
  /// transition out of it must carry (non-trivial only after a loop exit).
  struct Exit {
    std::string id;
    Condition guard;
  };

  Exit lower(const FlowExpr& expr, const std::string& entry_id, Condition entry_guard) {
    switch (expr.kind) {
      case FlowExpr::Kind::Activity: return lower_activity(expr, entry_id, std::move(entry_guard));
      case FlowExpr::Kind::Sequence: return lower_sequence(expr, entry_id, std::move(entry_guard));
      case FlowExpr::Kind::Concurrent:
        return lower_concurrent(expr, entry_id, std::move(entry_guard));
      case FlowExpr::Kind::Selective:
        return lower_selective(expr, entry_id, std::move(entry_guard));
      case FlowExpr::Kind::Iterative:
        return lower_iterative(expr, entry_id, std::move(entry_guard));
    }
    throw ProcessError("lower: unknown flow expression kind");
  }

  std::string fresh_activity_id() {
    return options_.activity_id_prefix + std::to_string(next_activity_++);
  }

  std::string fresh_transition_id() {
    return options_.transition_id_prefix + std::to_string(next_transition_++);
  }

  void connect(const std::string& from, const std::string& to, Condition guard) {
    process_.add_transition(from, to, std::move(guard), fresh_transition_id());
  }

 private:
  Exit lower_activity(const FlowExpr& expr, const std::string& entry_id, Condition entry_guard) {
    Activity activity;
    activity.id = fresh_activity_id();
    activity.name = expr.name;
    activity.kind = ActivityKind::EndUser;
    activity.service_name = expr.service;
    const std::string id = process_.add_activity(std::move(activity)).id;
    connect(entry_id, id, std::move(entry_guard));
    return {id, Condition()};
  }

  Exit lower_sequence(const FlowExpr& expr, const std::string& entry_id, Condition entry_guard) {
    Exit current{entry_id, std::move(entry_guard)};
    for (const auto& element : expr.children)
      current = lower(element, current.id, std::move(current.guard));
    return current;
  }

  Exit lower_concurrent(const FlowExpr& expr, const std::string& entry_id, Condition entry_guard) {
    const std::string fork_id =
        process_.add_flow_control(fresh_activity_id(), ActivityKind::Fork).id;
    connect(entry_id, fork_id, std::move(entry_guard));
    std::vector<Exit> branch_exits;
    branch_exits.reserve(expr.children.size());
    for (const auto& branch : expr.children)
      branch_exits.push_back(lower(branch, fork_id, Condition()));
    const std::string join_id =
        process_.add_flow_control(fresh_activity_id(), ActivityKind::Join).id;
    for (auto& exit : branch_exits) connect(exit.id, join_id, std::move(exit.guard));
    return {join_id, Condition()};
  }

  Exit lower_selective(const FlowExpr& expr, const std::string& entry_id, Condition entry_guard) {
    const std::string choice_id =
        process_.add_flow_control(fresh_activity_id(), ActivityKind::Choice).id;
    connect(entry_id, choice_id, std::move(entry_guard));
    const std::string merge_id =
        process_.add_flow_control(fresh_activity_id(), ActivityKind::Merge).id;
    for (std::size_t i = 0; i < expr.children.size(); ++i) {
      const FlowExpr& branch = expr.children[i];
      if (branch.kind == FlowExpr::Kind::Sequence && branch.children.empty()) {
        // Empty conditional activity set: the guard leads straight to Merge.
        connect(choice_id, merge_id, expr.guards[i]);
        continue;
      }
      Exit exit = lower(branch, choice_id, expr.guards[i]);
      connect(exit.id, merge_id, std::move(exit.guard));
    }
    return {merge_id, Condition()};
  }

  Exit lower_iterative(const FlowExpr& expr, const std::string& entry_id, Condition entry_guard) {
    // Loop header: a Merge joining the entry edge and the back edge, exactly
    // as in Figures 7 and 10 (MERGE before the loop body, CHOICE after it).
    const std::string merge_id =
        process_.add_flow_control(fresh_activity_id(), ActivityKind::Merge).id;
    connect(entry_id, merge_id, std::move(entry_guard));
    Exit body_exit = lower(expr.children.front(), merge_id, Condition());
    const std::string choice_id =
        process_.add_flow_control(fresh_activity_id(), ActivityKind::Choice).id;
    connect(body_exit.id, choice_id, std::move(body_exit.guard));
    const Condition& continue_condition = expr.guards.front();
    connect(choice_id, merge_id, continue_condition);
    return {choice_id, Condition::negation(continue_condition)};
  }

  ProcessDescription& process_;
  const LowerOptions& options_;
  int next_activity_ = 1;
  int next_transition_ = 1;
};

}  // namespace

ProcessDescription lower_to_process(const FlowExpr& expr, std::string name,
                                    const LowerOptions& options) {
  ProcessDescription process(std::move(name));
  Lowerer lowerer(process, options);
  Activity begin;
  begin.id = lowerer.fresh_activity_id();
  begin.name = "BEGIN";
  begin.kind = ActivityKind::Begin;
  const std::string begin_id = process.add_activity(std::move(begin)).id;

  Lowerer::Exit exit = lowerer.lower(expr, begin_id, Condition());

  Activity end;
  end.id = lowerer.fresh_activity_id();
  end.name = "END";
  end.kind = ActivityKind::End;
  const std::string end_id = process.add_activity(std::move(end)).id;
  lowerer.connect(exit.id, end_id, std::move(exit.guard));
  return process;
}

// ---------------------------------------------------------------------------
// Lifting (graph -> FlowExpr)
// ---------------------------------------------------------------------------

namespace {

/// The loop structure the back edges reveal. In well-structured graphs back
/// edges are exactly the Choice -> Merge loop edges, so a Merge is a loop
/// header iff it is a back edge target, and a Choice is a loop exit iff it
/// is a back edge source.
struct BackEdges {
  std::set<std::string> targets;  ///< loop-header Merges
  std::set<std::string> sources;  ///< loop-exit Choices
};

BackEdges find_back_edges(const ProcessDescription& process) {
  BackEdges result;
  const std::vector<bool> back = process.back_edges();
  for (std::size_t i = 0; i < back.size(); ++i) {
    if (!back[i]) continue;
    result.targets.insert(process.transitions()[i].destination);
    result.sources.insert(process.transitions()[i].source);
  }
  return result;
}

class Lifter {
 public:
  explicit Lifter(const ProcessDescription& process)
      : process_(process), back_edges_(find_back_edges(process)) {}

  FlowExpr lift() {
    const Activity& begin = process_.begin_activity();
    const Activity& end = process_.end_activity();
    auto [expr, stopped_at] = walk(single_successor(begin.id));
    if (stopped_at != end.id)
      throw ProcessError("lift: control flow stopped at '" + stopped_at +
                         "' instead of the End activity");
    return expr;
  }

 private:
  const Activity& activity(const std::string& id) const {
    const Activity* found = process_.find_activity(id);
    if (found == nullptr) throw ProcessError("lift: unknown activity '" + id + "'");
    return *found;
  }

  std::string single_successor(const std::string& id) const {
    const auto successors = process_.successors(id);
    if (successors.size() != 1)
      throw ProcessError("lift: activity '" + id + "' must have exactly one successor, has " +
                         std::to_string(successors.size()));
    return successors.front();
  }

  struct WalkResult {
    FlowExpr expr;
    std::string stopped_at;  ///< End, a closing Join/Merge, or a loop-exit Choice
  };

  /// Walks forward from `id`, consuming end-user activities and whole
  /// structured regions, until it reaches a node owned by the enclosing
  /// region: the End activity, a Join (closes a fork branch), a non-header
  /// Merge (closes a choice branch), or a loop-exit Choice (closes a loop
  /// body). The stopping node is returned unconsumed.
  WalkResult walk(std::string id) {
    std::vector<FlowExpr> elements;
    for (;;) {
      const Activity& node = activity(id);
      switch (node.kind) {
        case ActivityKind::EndUser:
          elements.push_back(FlowExpr::activity(node.name, node.service_name));
          id = single_successor(id);
          continue;
        case ActivityKind::Fork: {
          elements.push_back(lift_concurrent(node, id));
          id = single_successor(region_closer_);
          continue;
        }
        case ActivityKind::Merge:
          if (back_edges_.targets.count(id) > 0) {
            elements.push_back(lift_iterative(id));
            id = loop_fallthrough_;
            continue;
          }
          return {FlowExpr::sequence(std::move(elements)), id};
        case ActivityKind::Choice:
          if (back_edges_.sources.count(id) > 0)
            return {FlowExpr::sequence(std::move(elements)), id};
          elements.push_back(lift_selective(node, id));
          id = single_successor(region_closer_);
          continue;
        case ActivityKind::Join:
        case ActivityKind::End:
          return {FlowExpr::sequence(std::move(elements)), id};
        case ActivityKind::Begin:
          throw ProcessError("lift: Begin activity inside the workflow body");
      }
    }
  }

  FlowExpr lift_concurrent(const Activity& fork, const std::string& fork_id) {
    std::vector<FlowExpr> branches;
    std::string join_id;
    for (const auto* transition : process_.outgoing(fork_id)) {
      auto [branch, stopped_at] = walk(transition->destination);
      if (activity(stopped_at).kind != ActivityKind::Join)
        throw ProcessError("lift: fork branch from '" + fork.name + "' does not end at a Join");
      if (join_id.empty()) join_id = stopped_at;
      else if (join_id != stopped_at)
        throw ProcessError("lift: fork branches reconverge on different Joins");
      branches.push_back(std::move(branch));
    }
    if (branches.empty()) throw ProcessError("lift: Fork with no branches");
    region_closer_ = join_id;
    return FlowExpr::concurrent(std::move(branches));
  }

  FlowExpr lift_selective(const Activity& choice, const std::string& choice_id) {
    std::vector<Condition> guards;
    std::vector<FlowExpr> branches;
    std::string merge_id;
    for (const auto* transition : process_.outgoing(choice_id)) {
      guards.push_back(transition->guard);
      auto [branch, stopped_at] = walk(transition->destination);
      if (activity(stopped_at).kind != ActivityKind::Merge)
        throw ProcessError("lift: choice branch from '" + choice.name +
                           "' does not end at a Merge");
      if (merge_id.empty()) merge_id = stopped_at;
      else if (merge_id != stopped_at)
        throw ProcessError("lift: selective branches reconverge on different Merges");
      branches.push_back(std::move(branch));
    }
    if (branches.empty()) throw ProcessError("lift: Choice with no branches");
    region_closer_ = merge_id;
    return FlowExpr::selective(std::move(guards), std::move(branches));
  }

  FlowExpr lift_iterative(const std::string& merge_id) {
    auto [body, stopped_at] = walk(single_successor(merge_id));
    const Activity& closer = activity(stopped_at);
    if (closer.kind != ActivityKind::Choice)
      throw ProcessError("lift: loop body starting at Merge '" + merge_id +
                         "' does not end at a Choice");
    Condition continue_condition;
    std::string fallthrough;
    bool found_back_edge = false;
    for (const auto* transition : process_.outgoing(stopped_at)) {
      if (transition->destination == merge_id) {
        continue_condition = transition->guard;
        found_back_edge = true;
      } else {
        fallthrough = transition->destination;
      }
    }
    if (!found_back_edge)
      throw ProcessError("lift: loop-exit Choice does not return to Merge '" + merge_id + "'");
    if (fallthrough.empty())
      throw ProcessError("lift: loop-exit Choice has no fall-through transition");
    loop_fallthrough_ = fallthrough;
    return FlowExpr::iterative(std::move(continue_condition), std::move(body));
  }

  const ProcessDescription& process_;
  BackEdges back_edges_;
  std::string region_closer_;
  std::string loop_fallthrough_;
};

}  // namespace

FlowExpr lift_from_process(const ProcessDescription& process) { return Lifter(process).lift(); }

}  // namespace ig::wfl
