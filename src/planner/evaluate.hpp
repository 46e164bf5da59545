// Plan evaluation by simulated execution (Section 3.4.4).
//
// Fitness is the weighted sum of three components:
//
//   fv (Eq. 1)  validity: valid activity executions / total executions,
//               measured by simulating the plan against the world state and
//               checking each activity's preconditions;
//   fg (Eq. 2)  goal satisfaction of the final state(s);
//   fr (Eq. 3)  representation efficiency: 1 − size/Smax;
//   f  (Eq. 4)  wv·fv + wg·fg + wr·fr.
//
// Selective and iterative nodes cause conditional execution: "we need to
// enumerate each possible flow of execution and simulate the execution of a
// plan multiple times". Each selective node multiplies the flow set by its
// branch count; each iterative node is unrolled 1..max_unroll times (the
// paper notes the cycle count "cannot be pre-determined"). Validity counts
// are totalled across flows; goal fitness is averaged across flows (both per
// the paper's text). The flow set is capped at `max_flows` to bound the
// combinatorics of adversarially nested plans; the cap is recorded in the
// result so harnesses can report truncation.
//
// Flows the cap would drop are never simulated. A controller's flow list is
// built by appending segments (a concurrent block's reverse pass behind its
// forward pass, each selective branch behind the earlier ones, each
// iterative pass behind the earlier passes) and then clipped to
// `max_flows`. When k flows are already ahead, only the outputs of the
// segment's first max_flows − k inputs can survive, so the simulator trims
// the inputs to that many (and skips the segment when none is left), and
// the controllers inside the segment clip their own lists to that many as
// well. That is exact: a subtree never returns fewer flows than it gets,
// and its first n outputs depend only on its first n inputs, so the
// trimmed flows are the ones a cap would drop, and that cap would fire (the
// truncation flag is set as before). The one exception is a subtree that
// empties every flow list, because a selective with no children lies on
// each of its paths; such a segment is simulated in full.
//
// Each evaluator worker owns an ItemTable that interns items and world
// states for the whole run (one PlanEvaluator), and a simulator whose step
// and flow buffers it reuses from plan to plan. The table evaluates every
// input filter and goal on an item once, when it interns it, and keeps the
// answers as bit rows: a row of 64-bit words with one bit per item. A flow
// is just a state id plus its validity counters. A state is the set of
// items a flow holds, kept as one such row, so flows that reach the same
// items by different paths share one id; comparing two states, testing a
// goal and counting a service's earlier outputs are word operations, and
// nothing walks a chain of parent states. Executing a service in a state is
// looked up in a per-table transition memo; the precondition check (a
// search for distinct items among the state's bits that pass each input
// filter, with Bindings only for a residual condition over several
// formals) runs once per (state, service) pair, and each state's goal count
// is computed once.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "planner/plan_tree.hpp"
#include "planner/problem.hpp"

namespace ig::planner {

/// Weights and bounds of the fitness function (Table 1's parameters).
struct EvaluationConfig {
  double wv = 0.2;  ///< validity weight
  double wg = 0.5;  ///< goal weight
  double wr = 0.3;  ///< representation-efficiency weight (wv+wg+wr = 1)
  std::size_t smax = 40;
  std::size_t max_unroll = 2;   ///< iterative nodes simulate 1..max_unroll passes
  std::size_t max_flows = 64;   ///< cap on enumerated execution flows
  /// Concurrent children "can be executed ... in any order"; the simulator
  /// checks this many serializations (1 = left-to-right only, 2 adds the
  /// reverse order, which catches order-dependent children without paying
  /// for all n! interleavings).
  std::size_t concurrent_orders = 2;
};

struct Fitness {
  double overall = 0.0;   ///< f  (Eq. 4)
  double validity = 0.0;  ///< fv (Eq. 1)
  double goal = 0.0;      ///< fg (Eq. 2)
  double representation = 0.0;  ///< fr (Eq. 3)
  std::size_t size = 0;         ///< plan tree node count
  std::size_t flows = 0;        ///< execution flows enumerated
  bool flows_truncated = false; ///< true when max_flows clipped enumeration

  /// Fitness-comparable ordering.
  bool operator<(const Fitness& other) const noexcept { return overall < other.overall; }
};

/// One evaluator worker's interned items, world states and transitions,
/// and its simulator (evaluate.cpp).
struct EvaluatorWorker;

/// Evaluates plans against one planning problem.
///
/// Thread-safe for concurrent `evaluate` calls as long as each concurrently
/// executing caller passes a distinct `worker` id below the `workers` count
/// given at construction: every worker owns a private ItemTable and
/// simulator (no locking on the simulation path; its states and transitions
/// live as long as the evaluator and never change a result), and the
/// evaluation counter is atomic. Fitness is a pure function of the plan, so
/// every call simulates it and any worker computes the same value.
class PlanEvaluator {
 public:
  explicit PlanEvaluator(const PlanningProblem& problem, EvaluationConfig config = {},
                         std::size_t workers = 1);
  ~PlanEvaluator();

  const EvaluationConfig& config() const noexcept { return config_; }
  const PlanningProblem& problem() const noexcept { return *problem_; }
  std::size_t workers() const noexcept { return workers_.size(); }

  /// Evaluates on behalf of `worker` (must be < workers()).
  Fitness evaluate(const PlanNode& plan, std::size_t worker) const;
  /// Single-threaded convenience: evaluates as worker 0.
  Fitness evaluate(const PlanNode& plan) const { return evaluate(plan, 0); }

  /// Number of evaluations requested so far (for effort accounting).
  std::size_t evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  const PlanningProblem* problem_;
  EvaluationConfig config_;
  mutable std::atomic<std::size_t> evaluations_{0};
  mutable std::vector<std::unique_ptr<EvaluatorWorker>> workers_;
};

}  // namespace ig::planner
