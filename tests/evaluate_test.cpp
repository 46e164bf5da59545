#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>

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

/// The plans of CapBoundPlansScoreAsAtParent, built over the virus services.
std::vector<PlanNode> cap_bound_plans() {
  const char* const services[] = {"POD", "P3DR", "PSF", "POR"};
  // A selective of `count` terminals cycling through the services: it
  // multiplies the flow list by `count`, with valid and invalid branches.
  const auto fan = [&](std::size_t count, std::size_t offset = 0) {
    std::vector<PlanNode> children;
    for (std::size_t i = 0; i < count; ++i)
      children.push_back(PlanNode::terminal(services[(i + offset) % 4]));
    return PlanNode::selective(std::move(children));
  };
  const auto node = [](PlanNode::Kind kind, std::vector<PlanNode> children) {
    PlanNode made;
    made.kind = kind;
    made.children = std::move(children);
    if (kind == PlanNode::Kind::Selective) made.guards.resize(made.children.size());
    return made;
  };
  using Kind = PlanNode::Kind;
  const auto t = [](const char* service) { return PlanNode::terminal(service); };
  // Flow lists of 5 and of 40 ahead of the node under test: at a cap of 8
  // the short one leaves room for 3 more, at 64 the long one for 24.
  const auto five = [&] { return fan(5); };
  const auto forty = [&] { return node(Kind::Sequential, {fan(5), fan(8, 1)}); };

  std::vector<PlanNode> plans;
  // Concurrent whose forward pass fills the cap (64 flows, or 8 clipped
  // inside): the reverse pass can add nothing.
  plans.push_back(node(Kind::Concurrent,
                       {node(Kind::Sequential, {t("POD"), fan(4), fan(4, 1), fan(4, 2)}),
                        t("P3DR"), t("PSF")}));
  // Concurrent behind 5 and 40 flows: the reverse pass only partly fits.
  plans.push_back(node(Kind::Sequential,
                       {five(), node(Kind::Concurrent, {t("POD"), t("P3DR"), t("PSF")})}));
  plans.push_back(node(Kind::Sequential,
                       {forty(), node(Kind::Concurrent, {t("POD"), t("P3DR"), t("PSF")})}));
  // Selective whose second branch only partly fits, with a third branch the
  // cap drops.
  plans.push_back(node(Kind::Sequential,
                       {five(), node(Kind::Selective, {seq({"POD", "P3DR"}), t("PSF"), t("POD")})}));
  plans.push_back(node(Kind::Sequential,
                       {forty(), node(Kind::Selective, {seq({"POD", "P3DR"}), t("PSF")})}));
  // Iterative whose second pass only partly fits.
  plans.push_back(node(Kind::Sequential,
                       {five(), node(Kind::Iterative, {t("POD"), t("P3DR"), t("PSF")})}));
  plans.push_back(node(Kind::Sequential,
                       {forty(), node(Kind::Iterative,
                                      {t("POD"), node(Kind::Concurrent, {t("P3DR"), t("P3DR")}),
                                       t("PSF")})}));
  // Cuts nested in cuts: a selective branch holding a concurrent block and
  // a loop, each of which overflows on its own.
  plans.push_back(node(
      Kind::Sequential,
      {five(), node(Kind::Selective,
                    {node(Kind::Concurrent, {fan(3), t("P3DR")}),
                     node(Kind::Iterative, {fan(2, 1), t("PSF")}), t("POD")})}));
  // Controllers with no children. An empty selective yields no flows, so
  // it leaves the cap untouched even behind a full list; the other kinds
  // pass their flows on (iterative repeats them).
  plans.push_back(node(Kind::Selective, {}));
  plans.push_back(node(Kind::Sequential,
                       {five(), node(Kind::Selective, {t("POD"), node(Kind::Selective, {})})}));
  plans.push_back(node(Kind::Sequential,
                       {forty(), node(Kind::Selective, {t("P3DR"), node(Kind::Selective, {}),
                                                        t("PSF")})}));
  plans.push_back(node(Kind::Sequential,
                       {five(), node(Kind::Concurrent, {t("POD"), node(Kind::Selective, {})})}));
  plans.push_back(node(Kind::Sequential,
                       {five(), node(Kind::Iterative, {node(Kind::Selective, {})})}));
  plans.push_back(node(Kind::Sequential,
                       {forty(), node(Kind::Iterative, {}), node(Kind::Concurrent, {}),
                        node(Kind::Sequential, {}), t("POD")}));
  // A branch that empties behind 25 flows: it is simulated in full, so its
  // 40 inner flows (fewer than a cap of 64) are clipped nowhere.
  plans.push_back(node(
      Kind::Sequential,
      {five(), node(Kind::Selective,
                    {fan(5), node(Kind::Sequential, {node(Kind::Concurrent, {t("POD"), t("P3DR")}),
                                                     fan(4), node(Kind::Selective, {})})})}));
  // Both passes of this block empty the one initial flow; at a cap of 0
  // that flow alone exceeds the cap, and still nothing is clipped.
  plans.push_back(node(Kind::Concurrent, {t("POD"), node(Kind::Selective, {})}));
  return plans;
}

TEST(EvaluatePin, CapBoundPlansScoreAsAtParent) {
  // Hand-built plans whose flow lists run into the cap at each place the
  // simulator can cut: a concurrent block's reverse pass, a selective
  // branch, an iterative pass, and controllers with no children. The values
  // were recorded from the simulator that ran every segment in full and
  // clipped afterwards; they must match bit for bit.
  const PlanningProblem problem = virolab_problem();
  const std::vector<PlanNode> plans = cap_bound_plans();
  // {overall, validity, goal, representation, size, flows, flows_truncated}
  // per plan, at a cap of 8, of 64 and of 0 (where the initial flow alone
  // exceeds the cap).
  const Fitness wants[3][16] = {
      {
          {0.58750000000000002, 0.625, 0.625, 0.5, 20, 8, true},
          {0.32374999999999998, 0.53125, 0, 0.72499999999999998, 11, 8, true},
          {0.38249999999999995, 0.57499999999999996, 0.25, 0.47499999999999998, 21, 8, true},
          {0.32630952380952383, 0.61904761904761907, 0, 0.67500000000000004, 13, 8, true},
          {0.26624999999999999, 0.65625, 0, 0.44999999999999996, 22, 8, true},
          {0.54158536585365857, 0.68292682926829273, 0.375, 0.72499999999999998, 11, 8, true},
          {0.78166666666666673, 0.77083333333333337, 1, 0.42500000000000004, 23, 8, true},
          {0.27500000000000002, 0.625, 0, 0.5, 20, 8, true},
          {0.29249999999999998, 0, 0, 0.97499999999999998, 1, 0, false},
          {0.36499999999999999, 0.69999999999999996, 0, 0.75, 10, 5, false},
          {0.20916666666666667, 0.33333333333333331, 0, 0.47499999999999998, 21, 8, true},
          {0.22499999999999998, 0, 0, 0.75, 10, 0, false},
          {0.23249999999999998, 0, 0, 0.77500000000000002, 9, 0, false},
          {0.25083333333333335, 0.54166666666666663, 0, 0.47499999999999998, 21, 8, true},
          {0.23249999999999998, 0.5625, 0, 0.40000000000000002, 24, 8, true},
          {0.27750000000000002, 0, 0, 0.92500000000000004, 3, 0, false},
      },
      {
          {0.58125000000000004, 0.7109375, 0.578125, 0.5, 20, 64, true},
          {0.32250000000000001, 0.52500000000000002, 0, 0.72499999999999998, 11, 10, false},
          {0.27812499999999996, 0.52187499999999998, 0.0625, 0.47499999999999998, 21, 64, true},
          {0.32250000000000001, 0.59999999999999998, 0, 0.67500000000000004, 13, 15, false},
          {0.24448275862068963, 0.54741379310344829, 0, 0.44999999999999996, 22, 64, true},
          {0.60931818181818187, 0.70909090909090911, 0.5, 0.72499999999999998, 11, 10, false},
          {0.78531250000000008, 0.7890625, 1, 0.42500000000000004, 23, 64, true},
          {0.22702850877192982, 0.30701754385964913, 0.03125, 0.5, 20, 64, true},
          {0.29249999999999998, 0, 0, 0.97499999999999998, 1, 0, false},
          {0.36499999999999999, 0.69999999999999996, 0, 0.75, 10, 5, false},
          {0.21437499999999998, 0.359375, 0, 0.47499999999999998, 21, 64, true},
          {0.22499999999999998, 0, 0, 0.75, 10, 0, false},
          {0.23249999999999998, 0, 0, 0.77500000000000002, 9, 0, false},
          {0.25812499999999999, 0.578125, 0, 0.47499999999999998, 21, 64, true},
          {0.20800000000000002, 0.44, 0, 0.40000000000000002, 24, 25, false},
          {0.27750000000000002, 0, 0, 0.92500000000000004, 3, 0, false},
      },
      {
          {0.14999999999999999, 0, 0, 0.5, 20, 0, true},
          {0.2175, 0, 0, 0.72499999999999998, 11, 0, true},
          {0.14249999999999999, 0, 0, 0.47499999999999998, 21, 0, true},
          {0.20250000000000001, 0, 0, 0.67500000000000004, 13, 0, true},
          {0.13499999999999998, 0, 0, 0.44999999999999996, 22, 0, true},
          {0.2175, 0, 0, 0.72499999999999998, 11, 0, true},
          {0.1275, 0, 0, 0.42500000000000004, 23, 0, true},
          {0.14999999999999999, 0, 0, 0.5, 20, 0, true},
          {0.29249999999999998, 0, 0, 0.97499999999999998, 1, 0, false},
          {0.22499999999999998, 0, 0, 0.75, 10, 0, true},
          {0.14249999999999999, 0, 0, 0.47499999999999998, 21, 0, true},
          {0.22499999999999998, 0, 0, 0.75, 10, 0, true},
          {0.23249999999999998, 0, 0, 0.77500000000000002, 9, 0, true},
          {0.14249999999999999, 0, 0, 0.47499999999999998, 21, 0, true},
          {0.12, 0, 0, 0.40000000000000002, 24, 0, true},
          {0.27750000000000002, 0, 0, 0.92500000000000004, 3, 0, false},
      },
  };
  const std::size_t caps[] = {8, 64, 0};
  for (std::size_t c = 0; c < std::size(caps); ++c) {
    EvaluationConfig config;
    config.max_flows = caps[c];
    PlanEvaluator evaluator(problem, config);
    ASSERT_EQ(plans.size(), std::size(wants[c]));
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const Fitness got = evaluator.evaluate(plans[i]);
      EXPECT_TRUE(same_bits(got, wants[c][i])) << "cap " << caps[c] << " plan " << i;
      expect_fitness(got, wants[c][i]);
    }
  }
}

TEST(EvaluateStates, RowsWidenPast128And256Items) {
  // 70 initial "s" items; every execution of Spawn adds eight "x" items, so
  // one evaluator's run interns more than 128 and then more than 256 items
  // as the plans below run more Spawns. Pair needs two distinct "x" items,
  // one with Level > 5 (a condition over both formals); Final needs three
  // distinct Pair outputs; Late turns a Pair output into the only kind of
  // item that meets the third goal. Plans scored before a widening are scored again
  // after it, and every result must match a fresh evaluator's and the
  // values recorded from the simulator that kept each flow's items as a
  // list.
  wfl::ServiceType spawn("Spawn");
  spawn.set_inputs({"S"});
  spawn.set_input_condition(wfl::Condition::parse("S.Kind = \"s\""));
  std::vector<std::string> outputs;
  std::string made;
  for (int i = 1; i <= 8; ++i) {
    const std::string formal = "O" + std::to_string(i);
    outputs.push_back(formal);
    if (!made.empty()) made += " and ";
    made += formal + ".Kind = \"x\" and " + formal + ".Level = " + (i <= 2 ? "9" : "1");
  }
  spawn.set_outputs(outputs);
  spawn.set_output_condition(wfl::Condition::parse(made));
  wfl::ServiceType pair("Pair");
  pair.set_inputs({"A", "B"});
  pair.set_input_condition(wfl::Condition::parse(
      "A.Kind = \"x\" and B.Kind = \"x\" and (A.Level > 5 or B.Level > 5)"));
  pair.set_outputs({"P"});
  pair.set_output_condition(wfl::Condition::parse("P.Kind = \"p\""));
  wfl::ServiceType final_step("Final");
  final_step.set_inputs({"P1", "P2", "P3"});
  final_step.set_input_condition(
      wfl::Condition::parse("P1.Kind = \"p\" and P2.Kind = \"p\" and P3.Kind = \"p\""));
  final_step.set_outputs({"Z"});
  final_step.set_output_condition(wfl::Condition::parse("Z.Kind = \"z\""));
  wfl::ServiceType late("Late");
  late.set_inputs({"P"});
  late.set_input_condition(wfl::Condition::parse("P.Kind = \"p\""));
  late.set_outputs({"L"});
  late.set_output_condition(wfl::Condition::parse("L.Kind = \"late\""));

  PlanningProblem problem;
  for (int i = 0; i < 70; ++i)
    problem.initial_state.put(wfl::DataSpec("s" + std::to_string(i))
                                  .with("Kind", meta::Value("s"))
                                  .with("Level", meta::Value(static_cast<double>(i))));
  problem.catalogue.add(spawn);
  problem.catalogue.add(pair);
  problem.catalogue.add(final_step);
  problem.catalogue.add(late);
  for (const char* goal_text :
       {"G.Kind = \"z\"", "H.Kind = \"x\" and H.Level > 5", "L.Kind = \"late\""}) {
    wfl::GoalSpec goal;
    goal.condition = wfl::Condition::parse(goal_text);
    problem.goals.push_back(goal);
  }

  const auto spawns = [](std::size_t count) {
    std::vector<PlanNode> children;
    for (std::size_t i = 0; i < count; ++i) children.push_back(PlanNode::terminal("Spawn"));
    return PlanNode::sequential(std::move(children));
  };
  const auto then = [](PlanNode first, std::vector<const char*> rest) {
    std::vector<PlanNode> children;
    children.push_back(std::move(first));
    for (const char* service : rest) children.push_back(PlanNode::terminal(service));
    return PlanNode::sequential(std::move(children));
  };
  std::vector<PlanNode> plans;
  // 82 items: one Spawn, three Pairs, Final.
  plans.push_back(then(spawns(1), {"Pair", "Pair", "Pair", "Final"}));
  // Eight Spawns: past 128 items.
  plans.push_back(then(spawns(8), {"Pair", "Pair", "Pair", "Final"}));
  // Final before enough Pairs: partly invalid.
  plans.push_back(then(spawns(2), {"Pair", "Final", "Pair", "Pair", "Final"}));
  plans.push_back(plans[0]);
  // Up to 24 Spawns through the loop: past 256 items.
  plans.push_back(then(PlanNode::iterative({spawns(12), PlanNode::terminal("Pair")}),
                       {"Pair", "Pair", "Final"}));
  // Branches and both orders of a concurrent block over the widened rows.
  {
    std::vector<PlanNode> top;
    top.push_back(PlanNode::selective({spawns(20), seq({"Spawn", "Pair", "Pair"})}));
    top.push_back(PlanNode::concurrent({seq({"Pair", "Pair"}), spawns(3)}));
    top.push_back(PlanNode::terminal("Pair"));
    top.push_back(PlanNode::terminal("Final"));
    plans.push_back(PlanNode::sequential(std::move(top)));
  }
  plans.push_back(plans[1]);
  plans.push_back(plans[2]);
  plans.push_back(then(spawns(30), {"Final"}));
  // Late runs first here, so its outputs (the only items meeting the third
  // goal) get ids past 256.
  plans.push_back(then(spawns(1), {"Pair", "Late", "Late"}));
  plans.push_back(plans[0]);

  // {overall, validity, goal, representation, size, flows}
  const Fitness wants[] = {
      {0.78083333333333327, 1, 0.66666666666666663, 0.82499999999999996, 7, 1},
      {0.72833333333333328, 1, 0.66666666666666663, 0.65000000000000002, 14, 1},
      {0.73726190476190467, 0.8571428571428571, 0.66666666666666663, 0.77500000000000002, 9, 1},
      {0.78083333333333327, 1, 0.66666666666666663, 0.82499999999999996, 7, 1},
      {0.6908333333333333, 1, 0.66666666666666663, 0.52500000000000002, 19, 2},
      {0.55583333333333329, 1, 0.66666666666666663, 0.074999999999999956, 37, 4},
      {0.72833333333333328, 1, 0.66666666666666663, 0.65000000000000002, 14, 1},
      {0.73726190476190467, 0.8571428571428571, 0.66666666666666663, 0.77500000000000002, 9, 1},
      {0.41271505376344086, 0.967741935483871, 0.33333333333333331, 0.17500000000000004, 33, 1},
      {0.78833333333333333, 1, 0.66666666666666663, 0.84999999999999998, 6, 1},
      {0.78083333333333327, 1, 0.66666666666666663, 0.82499999999999996, 7, 1},
  };
  ASSERT_EQ(plans.size(), std::size(wants));
  PlanEvaluator warm(problem);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Fitness got = warm.evaluate(plans[i]);
    EXPECT_TRUE(same_bits(got, PlanEvaluator(problem).evaluate(plans[i]))) << "plan " << i;
    expect_fitness(got, wants[i]);
  }
}

}  // namespace
}  // namespace ig::planner
