#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "planner/evaluate.hpp"
#include "planner/operators.hpp"
#include "planner/workload.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig::planner {
namespace {

PlanningProblem virolab_problem() {
  return PlanningProblem::from_case(virolab::make_case_description(),
                                    virolab::make_catalogue());
}

PlanNode seq(std::vector<const char*> services) {
  std::vector<PlanNode> children;
  for (const char* service : services) children.push_back(PlanNode::terminal(service));
  return PlanNode::sequential(std::move(children));
}

TEST(Evaluate, MinimalValidPlanScoresPerfectValidityAndGoal) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // POD -> P3DR -> P3DR -> PSF produces a resolution file. 5 nodes.
  const Fitness fitness = evaluator.evaluate(seq({"POD", "P3DR", "P3DR", "PSF"}));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
  EXPECT_EQ(fitness.size, 5u);
  EXPECT_DOUBLE_EQ(fitness.representation, 1.0 - 5.0 / 40.0);
  // Eq. 4 with Table 1 weights.
  EXPECT_NEAR(fitness.overall, 0.2 * 1.0 + 0.5 * 1.0 + 0.3 * 0.875, 1e-12);
}

TEST(Evaluate, InvalidOrderScoresPartialValidity) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // PSF first: preconditions unmet, so 1 of 4 executions invalid... actually
  // PSF fails (no models), POD ok, P3DR ok, P3DR ok -> 3/4 valid, no
  // resolution file -> goal 0.
  const Fitness fitness = evaluator.evaluate(seq({"PSF", "POD", "P3DR", "P3DR"}));
  EXPECT_DOUBLE_EQ(fitness.validity, 0.75);
  EXPECT_DOUBLE_EQ(fitness.goal, 0.0);
}

TEST(Evaluate, UnknownServiceCountsAsInvalid) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(seq({"POD", "BOGUS"}));
  EXPECT_DOUBLE_EQ(fitness.validity, 0.5);
}

TEST(Evaluate, Figure11TreeIsValidAndReachesGoal) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(virolab::make_fig11_plan_tree());
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
  EXPECT_EQ(fitness.size, 10u);
  // f = 0.2 + 0.5 + 0.3 * (1 - 10/40) = 0.925
  EXPECT_NEAR(fitness.overall, 0.925, 1e-12);
}

TEST(Evaluate, RepresentationFitnessCapsAtZero) {
  EvaluationConfig config;
  config.smax = 4;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const Fitness fitness = evaluator.evaluate(seq({"POD", "P3DR", "P3DR", "PSF"}));  // 5 nodes
  EXPECT_DOUBLE_EQ(fitness.representation, 0.0);
  EXPECT_GE(fitness.overall, 0.0);
}

TEST(Evaluate, SelectiveEnumeratesBranches) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // Selective(POD, PSF): branch 1 valid (1/1), branch 2 invalid (0/1).
  const PlanNode plan =
      PlanNode::selective({PlanNode::terminal("POD"), PlanNode::terminal("PSF")});
  const Fitness fitness = evaluator.evaluate(plan);
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_DOUBLE_EQ(fitness.validity, 0.5);  // totals across flows: 1 valid / 2 executed
  EXPECT_DOUBLE_EQ(fitness.goal, 0.0);
}

TEST(Evaluate, IterativeUnrollsBothDepths) {
  EvaluationConfig config;
  config.max_unroll = 2;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const PlanNode plan = PlanNode::iterative({PlanNode::terminal("POD")});
  const Fitness fitness = evaluator.evaluate(plan);
  // Flows: one pass (1 execution) and two passes (2 executions).
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);  // POD re-runs remain valid
}

TEST(Evaluate, GoalAveragedAcrossFlows) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // One branch completes the pipeline, the other stops early:
  // goal satisfied in exactly one of two flows.
  std::vector<PlanNode> full;
  full.push_back(PlanNode::terminal("POD"));
  full.push_back(PlanNode::terminal("P3DR"));
  full.push_back(PlanNode::terminal("P3DR"));
  full.push_back(PlanNode::terminal("PSF"));
  const PlanNode plan = PlanNode::selective(
      {PlanNode::sequential(std::move(full)), PlanNode::terminal("POD")});
  const Fitness fitness = evaluator.evaluate(plan);
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_DOUBLE_EQ(fitness.goal, 0.5);
}

TEST(Evaluate, FlowCapTruncates) {
  EvaluationConfig config;
  config.max_flows = 2;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  // Nested selectives overflow a cap of 2; enumeration is clipped and the
  // clipping is reported.
  PlanNode plan = PlanNode::selective({PlanNode::terminal("POD"), PlanNode::terminal("POD")});
  plan = PlanNode::selective({plan, PlanNode::terminal("POD")});
  plan = PlanNode::selective({plan, PlanNode::terminal("POD")});
  const Fitness fitness = evaluator.evaluate(plan);
  EXPECT_LE(fitness.flows, 2u);
  EXPECT_TRUE(fitness.flows_truncated);
}

TEST(Evaluate, EmptyGoalListCountsAsSatisfied) {
  PlanningProblem problem = virolab_problem();
  problem.goals.clear();
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(seq({"POD"}));
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
}

TEST(Evaluate, EvaluationCounter) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  evaluator.evaluate(seq({"POD"}));
  evaluator.evaluate(seq({"POD"}));
  EXPECT_EQ(evaluator.evaluations(), 2u);
}

TEST(Evaluate, ConcurrentPenalizesOrderDependentChildren) {
  // Concurrent children may execute "in any order": a block whose children
  // only work left-to-right is not truly concurrent. POD must precede P3DR,
  // so Concurrent(POD, P3DR) fails in the reverse serialization.
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const PlanNode bogus =
      PlanNode::concurrent({PlanNode::terminal("POD"), PlanNode::terminal("P3DR")});
  const Fitness fitness = evaluator.evaluate(bogus);
  EXPECT_EQ(fitness.flows, 2u);
  EXPECT_LT(fitness.validity, 1.0);

  // Truly order-independent children stay fully valid.
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::concurrent(
      {PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR")}));
  const Fitness independent = evaluator.evaluate(PlanNode::sequential(std::move(top)));
  EXPECT_DOUBLE_EQ(independent.validity, 1.0);
}

TEST(Evaluate, SingleOrderModeKeepsLegacySemantics) {
  EvaluationConfig config;
  config.concurrent_orders = 1;
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, config);
  const PlanNode bogus =
      PlanNode::concurrent({PlanNode::terminal("POD"), PlanNode::terminal("P3DR")});
  const Fitness fitness = evaluator.evaluate(bogus);
  EXPECT_EQ(fitness.flows, 1u);
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);  // left-to-right happens to work
}

TEST(Evaluate, ConcurrentExecutesAllChildren) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::concurrent(
      {PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR")}));
  top.push_back(PlanNode::terminal("PSF"));
  const Fitness fitness = evaluator.evaluate(PlanNode::sequential(std::move(top)));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
}

// The EvaluateMemo tests keep the names they had when the evaluator also
// held a plan-level fitness memo. A repeat is now served by the worker's
// interned states and transition memo, and must score as the first call did.
TEST(EvaluateMemo, RepeatEvaluationIsServedFromTheMemo) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const PlanNode plan = seq({"POD", "P3DR", "P3DR", "PSF"});
  const Fitness first = evaluator.evaluate(plan);
  EXPECT_EQ(evaluator.evaluations(), 1u);
  const Fitness second = evaluator.evaluate(plan);
  EXPECT_EQ(evaluator.evaluations(), 2u);
  EXPECT_EQ(first.overall, second.overall);
  EXPECT_EQ(first.flows, second.flows);

  // A structurally equal copy scores the same; a different plan differs.
  EXPECT_EQ(evaluator.evaluate(PlanNode(plan)).overall, first.overall);
  EXPECT_NE(evaluator.evaluate(seq({"POD", "P3DR"})).overall, first.overall);
  EXPECT_EQ(evaluator.evaluations(), 4u);
}

TEST(EvaluateMemo, DisabledMemoStillCountsEvaluations) {
  // Fitness is a pure function of the plan: the same plan evaluated twice
  // gives equal fitness, and every call counts as one evaluation.
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  const PlanNode plan = seq({"POD", "P3DR"});
  const Fitness first = evaluator.evaluate(plan);
  const Fitness second = evaluator.evaluate(plan);
  EXPECT_EQ(evaluator.evaluations(), 2u);
  EXPECT_EQ(first.overall, second.overall);
  EXPECT_EQ(first.flows, second.flows);
}

TEST(Evaluate, WorkersAgreeOnTheSamePlan) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem, {}, 4);
  EXPECT_EQ(evaluator.workers(), 4u);
  const PlanNode plan = seq({"POD", "P3DR", "P3DR", "PSF"});
  const Fitness reference = evaluator.evaluate(plan, 0);
  for (std::size_t worker = 1; worker < 4; ++worker) {
    const Fitness fitness = evaluator.evaluate(plan, worker);
    EXPECT_EQ(fitness.overall, reference.overall);
    EXPECT_EQ(fitness.flows, reference.flows);
  }
  EXPECT_EQ(evaluator.evaluations(), 4u);

  // Each worker owns its tables, so a fresh evaluator's second worker
  // matches too.
  PlanEvaluator independent(problem, {}, 2);
  EXPECT_EQ(independent.evaluate(plan, 1).overall, reference.overall);
}

TEST(Evaluate, ResidualConditionMatchesBindInputs) {
  // A multi-formal conjunct (here "A.Level > 5 or B.Level > 5") cannot be
  // checked per item; validity must still agree with ServiceType::bind_inputs
  // on every state, succeeding and failing, including one extended by a
  // produced item.
  wfl::ServiceType mixer("Mix");
  mixer.set_inputs({"A", "B"});
  mixer.set_input_condition(
      wfl::Condition::parse("A.Kind = \"x\" and (A.Level > 5 or B.Level > 5)"));
  mixer.set_outputs({"M"});
  mixer.set_output_condition(wfl::Condition::parse("M.Kind = \"mixed\""));
  wfl::ServiceType maker("Make");
  maker.set_outputs({"N"});
  maker.set_output_condition(wfl::Condition::parse("N.Kind = \"x\""));

  std::vector<wfl::DataSpec> pool;
  for (const char* kind : {"x", "y"}) {
    for (const double level : {3.0, 7.0}) {
      pool.push_back(wfl::DataSpec(std::string(kind) + std::to_string(static_cast<int>(level)))
                         .with("Kind", meta::Value(kind))
                         .with("Level", meta::Value(level)));
    }
  }

  std::size_t succeeded = 0;
  std::size_t failed = 0;
  for (unsigned subset = 0; subset < (1u << pool.size()); ++subset) {
    PlanningProblem problem;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (subset & (1u << i)) problem.initial_state.put(pool[i]);
    problem.catalogue.add(mixer);
    problem.catalogue.add(maker);
    PlanEvaluator evaluator(problem);

    const bool direct = mixer.bind_inputs(problem.initial_state).has_value();
    (direct ? succeeded : failed) += 1;
    EXPECT_EQ(evaluator.evaluate(seq({"Mix"})).validity, direct ? 1.0 : 0.0) << subset;

    // Make adds a level-less "x" item: it can serve as A only when some
    // other item has Level > 5.
    wfl::DataSet extended = problem.initial_state;
    for (auto& item : maker.produce_outputs("Make#1:")) extended.put(std::move(item));
    const bool after_make = mixer.bind_inputs(extended).has_value();
    (after_make ? succeeded : failed) += 1;
    EXPECT_EQ(evaluator.evaluate(seq({"Make", "Mix"})).validity, after_make ? 1.0 : 0.5)
        << subset;
  }
  EXPECT_GT(succeeded, 0u);
  EXPECT_GT(failed, 0u);
}

/// Checks every Fitness field exactly.
void expect_fitness(const Fitness& got, const Fitness& want) {
  EXPECT_EQ(got.overall, want.overall);
  EXPECT_EQ(got.validity, want.validity);
  EXPECT_EQ(got.goal, want.goal);
  EXPECT_EQ(got.representation, want.representation);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.flows, want.flows);
  EXPECT_EQ(got.flows_truncated, want.flows_truncated);
}

TEST(EvaluateStates, ServiceWithoutOutputsInsideIterative) {
  // Check consumes an "x" item and produces nothing, Ping needs and makes
  // nothing, Make produces an "x" item. With no initial data the first
  // Check of the loop fails; every later one holds.
  wfl::ServiceType check("Check");
  check.set_inputs({"X"});
  check.set_input_condition(wfl::Condition::parse("X.Kind = \"x\""));
  wfl::ServiceType ping("Ping");
  wfl::ServiceType make("Make");
  make.set_outputs({"N"});
  make.set_output_condition(wfl::Condition::parse("N.Kind = \"x\""));
  PlanningProblem problem;
  problem.catalogue.add(check);
  problem.catalogue.add(ping);
  problem.catalogue.add(make);
  wfl::GoalSpec goal;
  goal.condition = wfl::Condition::parse("G.Kind = \"x\"");
  problem.goals.push_back(goal);
  PlanEvaluator evaluator(problem);

  std::vector<PlanNode> top;
  top.push_back(PlanNode::iterative(
      {PlanNode::terminal("Ping"), PlanNode::terminal("Check"), PlanNode::terminal("Make")}));
  top.push_back(PlanNode::terminal("Check"));
  // One pass: 3 of 4 valid; two passes: 6 of 7 valid. Values recorded
  // from the simulator that kept each flow's items as a list.
  Fitness want;
  want.overall = 0.9186363636363637;
  want.validity = 0.81818181818181823;
  want.goal = 1.0;
  want.representation = 0.84999999999999998;
  want.size = 6;
  want.flows = 2;
  expect_fitness(evaluator.evaluate(PlanNode::sequential(std::move(top))), want);
}

TEST(EvaluateStates, ConcurrentP3drPairFeedsPsf) {
  // PSF needs two distinct 3-D models: the two P3DR runs must yield two
  // items in both serializations of the concurrent block.
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(
      PlanNode::concurrent({PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR")}));
  top.push_back(PlanNode::terminal("PSF"));
  Fitness want;
  want.overall = 0.95499999999999996;
  want.validity = 1.0;
  want.goal = 1.0;
  want.representation = 0.84999999999999998;
  want.size = 6;
  want.flows = 2;
  expect_fitness(evaluator.evaluate(PlanNode::sequential(std::move(top))), want);
}

TEST(EvaluateStates, SelectiveBranchesReachingTheSameItemSet) {
  // Both branches run POD and P3DR once more, in opposite orders, so they
  // end holding the same items; one more P3DR then lets PSF run in both.
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::selective({seq({"P3DR", "POD"}), seq({"POD", "P3DR"})}));
  top.push_back(PlanNode::terminal("P3DR"));
  top.push_back(PlanNode::terminal("PSF"));
  Fitness want;
  want.overall = 0.91749999999999998;
  want.validity = 1.0;
  want.goal = 1.0;
  want.representation = 0.72499999999999998;
  want.size = 11;
  want.flows = 2;
  expect_fitness(evaluator.evaluate(PlanNode::sequential(std::move(top))), want);
}

/// FNV-1a over the bit patterns of every Fitness field.
class FitnessDigest {
 public:
  void add(const Fitness& fitness) {
    for (const double value :
         {fitness.overall, fitness.validity, fitness.goal, fitness.representation}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      add_word(bits);
    }
    add_word(fitness.size);
    add_word(fitness.flows);
    add_word(fitness.flows_truncated ? 1 : 0);
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  void add_word(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

TEST(EvaluatePin, RandomPlansScoreBitwiseAsPinned) {
  // Random Grow and Full plans (Smax 40) scored on the virus problem, on the
  // replanning problem without POR (plans still name POR, so unknown
  // services are exercised), and on layered problems up to fan-in 3 with
  // distractor chains; each under the default settings, a tight flow cap and
  // a single concurrent order. Any change to the simulator's semantics or
  // its floating-point summation order changes the digest.
  std::vector<PlanningProblem> problems;
  problems.push_back(virolab_problem());
  {
    PlanningProblem no_por = virolab_problem();
    wfl::ServiceCatalogue reduced;
    for (const auto& service : no_por.catalogue.services())
      if (service.name() != "POR") reduced.add(service);
    no_por.catalogue = std::move(reduced);
    problems.push_back(std::move(no_por));
  }
  WorkloadParams chain;
  chain.depth = 3;
  problems.push_back(make_layered_problem(chain));
  WorkloadParams pairs;
  pairs.depth = 4;
  pairs.fan_in = 2;
  pairs.distractor_chains = 1;
  problems.push_back(make_layered_problem(pairs));
  WorkloadParams triples;
  triples.depth = 3;
  triples.services_per_layer = 1;
  triples.fan_in = 3;
  triples.distractor_chains = 2;
  triples.distractor_depth = 2;
  problems.push_back(make_layered_problem(triples));

  std::vector<EvaluationConfig> configs(3);
  configs[1].max_flows = 8;
  configs[2].concurrent_orders = 1;

  const wfl::ServiceCatalogue virolab_services = virolab::make_catalogue();
  FitnessDigest digest;
  std::size_t evaluated = 0;
  for (std::size_t p = 0; p < problems.size(); ++p) {
    // The POR-less problem draws plans from the full virus catalogue.
    const wfl::ServiceCatalogue& vocabulary =
        p == 1 ? virolab_services : problems[p].catalogue;
    for (const EvaluationConfig& config : configs) {
      PlanEvaluator evaluator(problems[p], config);
      for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        for (const InitStyle style : {InitStyle::Grow, InitStyle::Full}) {
          util::Rng rng(seed * 1000 + p);
          for (int i = 0; i < 20; ++i) {
            digest.add(evaluator.evaluate(random_tree(rng, vocabulary, 40, style)));
            ++evaluated;
          }
        }
      }
    }
  }
  EXPECT_EQ(evaluated, 1800u);
  // A reference value, not derived: change it only with a deliberate change
  // of the fitness semantics.
  EXPECT_EQ(digest.value(), 0x4fef29f42960fb85ULL);
}


/// The problems of the pin test above, in its order.
std::vector<PlanningProblem> pin_problems() {
  std::vector<PlanningProblem> problems;
  problems.push_back(virolab_problem());
  PlanningProblem no_por = virolab_problem();
  wfl::ServiceCatalogue reduced;
  for (const auto& service : no_por.catalogue.services())
    if (service.name() != "POR") reduced.add(service);
  no_por.catalogue = std::move(reduced);
  problems.push_back(std::move(no_por));
  WorkloadParams chain;
  chain.depth = 3;
  problems.push_back(make_layered_problem(chain));
  WorkloadParams pairs;
  pairs.depth = 4;
  pairs.fan_in = 2;
  pairs.distractor_chains = 1;
  problems.push_back(make_layered_problem(pairs));
  WorkloadParams triples;
  triples.depth = 3;
  triples.services_per_layer = 1;
  triples.fan_in = 3;
  triples.distractor_chains = 2;
  triples.distractor_depth = 2;
  problems.push_back(make_layered_problem(triples));
  return problems;
}

bool same_bits(const Fitness& a, const Fitness& b) {
  return std::memcmp(&a.overall, &b.overall, sizeof(double)) == 0 &&
         std::memcmp(&a.validity, &b.validity, sizeof(double)) == 0 &&
         std::memcmp(&a.goal, &b.goal, sizeof(double)) == 0 &&
         std::memcmp(&a.representation, &b.representation, sizeof(double)) == 0 &&
         a.size == b.size && a.flows == b.flows && a.flows_truncated == b.flows_truncated;
}

TEST(EvaluatePin, SharedStatesAreOrderIndependent) {
  // Each evaluator worker interns world states and memoizes transitions
  // across the plans it scores. Scoring the pin's plans in pin order, in
  // reverse order, and each on a fresh evaluator must agree bitwise; every
  // call simulates through that evaluator's warm tables.
  const std::vector<PlanningProblem> problems = pin_problems();
  std::vector<EvaluationConfig> configs(3);
  configs[1].max_flows = 8;
  configs[2].concurrent_orders = 1;

  const wfl::ServiceCatalogue virolab_services = virolab::make_catalogue();
  FitnessDigest digest;
  std::size_t evaluated = 0;
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const wfl::ServiceCatalogue& vocabulary =
        p == 1 ? virolab_services : problems[p].catalogue;
    for (const EvaluationConfig& config : configs) {
      std::vector<PlanNode> plans;
      for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        for (const InitStyle style : {InitStyle::Grow, InitStyle::Full}) {
          util::Rng rng(seed * 1000 + p);
          for (int i = 0; i < 20; ++i) plans.push_back(random_tree(rng, vocabulary, 40, style));
        }
      }
      PlanEvaluator forward(problems[p], config);
      std::vector<Fitness> in_order;
      for (const PlanNode& plan : plans) in_order.push_back(forward.evaluate(plan));
      PlanEvaluator backward(problems[p], config);
      std::vector<Fitness> reversed(plans.size());
      for (std::size_t i = plans.size(); i-- > 0;) reversed[i] = backward.evaluate(plans[i]);
      for (std::size_t i = 0; i < plans.size(); ++i) {
        const Fitness fresh = PlanEvaluator(problems[p], config).evaluate(plans[i]);
        EXPECT_TRUE(same_bits(in_order[i], reversed[i])) << "problem " << p << " plan " << i;
        EXPECT_TRUE(same_bits(in_order[i], fresh)) << "problem " << p << " plan " << i;
        digest.add(in_order[i]);
        ++evaluated;
      }
    }
  }
  EXPECT_EQ(evaluated, 1800u);
  EXPECT_EQ(digest.value(), 0x4fef29f42960fb85ULL);
}

}  // namespace
}  // namespace ig::planner
