// Tests for the planner extensions: the synthetic workload generator and
// the fitness-preserving plan simplifier.
#include <gtest/gtest.h>

#include "planner/gp.hpp"
#include "planner/simplify.hpp"
#include "planner/workload.hpp"
#include "virolab/catalogue.hpp"

namespace ig::planner {
namespace {

// ---------------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------------

TEST(Workload, LayeredProblemIsSolvableByChain) {
  WorkloadParams params;
  params.depth = 3;
  params.services_per_layer = 2;
  const PlanningProblem problem = make_layered_problem(params);
  EXPECT_EQ(problem.catalogue.size(), 6u);  // 3 layers x 2 providers
  ASSERT_EQ(problem.goals.size(), 1u);

  // Execute Stage1; Stage2; Stage3 by hand: the goal must be reached.
  std::vector<PlanNode> chain;
  chain.push_back(PlanNode::terminal("Stage1"));
  chain.push_back(PlanNode::terminal("Stage2"));
  chain.push_back(PlanNode::terminal("Stage3"));
  PlanEvaluator evaluator(problem);
  const Fitness fitness = evaluator.evaluate(PlanNode::sequential(std::move(chain)));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
}

TEST(Workload, RedundantProvidersAreEquivalent) {
  WorkloadParams params;
  params.depth = 2;
  params.services_per_layer = 2;
  const PlanningProblem problem = make_layered_problem(params);
  PlanEvaluator evaluator(problem);
  // The v1 providers work just as well as the primaries.
  std::vector<PlanNode> chain;
  chain.push_back(PlanNode::terminal("Stage1v1"));
  chain.push_back(PlanNode::terminal("Stage2v1"));
  const Fitness fitness = evaluator.evaluate(PlanNode::sequential(std::move(chain)));
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
}

TEST(Workload, FanInRequiresMultipleArtefacts) {
  WorkloadParams params;
  params.depth = 1;
  params.fan_in = 2;
  const PlanningProblem problem = make_layered_problem(params);
  PlanEvaluator evaluator(problem);
  // Initial data carries 2 x fan_in seeds, so one Stage1 invocation binds.
  const Fitness fitness = evaluator.evaluate(PlanNode::terminal("Stage1"));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(fitness.goal, 1.0);
  // And the service really declares two formals.
  EXPECT_EQ(problem.catalogue.find("Stage1")->inputs().size(), 2u);
}

TEST(Workload, DistractorsAreExecutableButUseless) {
  WorkloadParams params;
  params.depth = 1;
  params.distractor_chains = 1;
  params.distractor_depth = 2;
  const PlanningProblem problem = make_layered_problem(params);
  PlanEvaluator evaluator(problem);
  std::vector<PlanNode> noise;
  noise.push_back(PlanNode::terminal("Distract0s1"));
  noise.push_back(PlanNode::terminal("Distract0s2"));
  const Fitness fitness = evaluator.evaluate(PlanNode::sequential(std::move(noise)));
  EXPECT_DOUBLE_EQ(fitness.validity, 1.0);  // executable
  EXPECT_DOUBLE_EQ(fitness.goal, 0.0);      // but goal-irrelevant
}

TEST(Workload, GpSolvesGeneratedProblems) {
  WorkloadParams params;
  params.depth = 3;
  params.services_per_layer = 2;
  params.distractor_chains = 2;
  const PlanningProblem problem = make_layered_problem(params);
  GpConfig config;
  config.population_size = 120;
  config.generations = 15;
  config.seed = 11;
  const GpResult result = run_gp(problem, config);
  EXPECT_DOUBLE_EQ(result.best_fitness.goal, 1.0);
  EXPECT_GE(result.best_fitness.size, minimal_activity_count(params));
}

TEST(Workload, MinimalActivityCount) {
  WorkloadParams params;
  params.depth = 4;
  EXPECT_EQ(minimal_activity_count(params), 4u);
  params.depth = 0;
  EXPECT_EQ(minimal_activity_count(params), 0u);
}

// ---------------------------------------------------------------------------
// Simplifier
// ---------------------------------------------------------------------------

PlanningProblem virolab_problem() {
  return PlanningProblem::from_case(virolab::make_case_description(),
                                    virolab::make_catalogue());
}

TEST(Simplify, RemovesDeadSubtrees) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // Valid core plan plus a dead POD tail (a second POD adds nothing).
  std::vector<PlanNode> padded;
  padded.push_back(PlanNode::terminal("POD"));
  padded.push_back(PlanNode::terminal("P3DR"));
  padded.push_back(PlanNode::terminal("P3DR"));
  padded.push_back(PlanNode::terminal("PSF"));
  padded.push_back(PlanNode::terminal("POD"));  // dead weight
  const PlanNode plan = PlanNode::sequential(std::move(padded));

  const SimplifyResult result = simplify_plan(plan, evaluator);
  EXPECT_LT(result.plan.size(), plan.size());
  EXPECT_DOUBLE_EQ(result.fitness.validity, 1.0);
  EXPECT_DOUBLE_EQ(result.fitness.goal, 1.0);
  EXPECT_GE(result.fitness.overall, 0.95);  // 5-node minimal plan
  EXPECT_EQ(result.plan.size(), 5u);
}

TEST(Simplify, KeepsMinimalPlanIntact) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  std::vector<PlanNode> minimal;
  minimal.push_back(PlanNode::terminal("POD"));
  minimal.push_back(PlanNode::terminal("P3DR"));
  minimal.push_back(PlanNode::terminal("P3DR"));
  minimal.push_back(PlanNode::terminal("PSF"));
  const PlanNode plan = PlanNode::sequential(std::move(minimal));
  const SimplifyResult result = simplify_plan(plan, evaluator);
  EXPECT_EQ(result.plan.size(), plan.size());
  EXPECT_EQ(result.removed_nodes, 0u);
  EXPECT_DOUBLE_EQ(result.fitness.goal, 1.0);
}

TEST(Simplify, NeverDegradesFitness) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  util::Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    const PlanNode plan = to_tree(random_tree(rng, problem.catalogue, 30), problem.catalogue);
    const Fitness before = evaluator.evaluate(plan);
    const SimplifyResult result = simplify_plan(plan, evaluator);
    EXPECT_GE(result.fitness.overall + 1e-9, before.overall);
    EXPECT_GE(result.fitness.validity + 1e-9, before.validity);
    EXPECT_GE(result.fitness.goal + 1e-9, before.goal);
    EXPECT_LE(result.plan.size(), plan.size());
    EXPECT_EQ(check_structure(result.plan), "");
  }
}

TEST(Simplify, CollapsesOneChildControllers) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  // Concurrent(POD, junk) where removing junk leaves a one-child concurrent
  // that must collapse into plain POD.
  const PlanNode plan = PlanNode::concurrent(
      {PlanNode::terminal("POD"), PlanNode::terminal("PSF")});
  const SimplifyResult result = simplify_plan(plan, evaluator);
  EXPECT_TRUE(result.plan.is_terminal());
  EXPECT_EQ(result.plan.service, "POD");
}

TEST(Simplify, ShrinksGpResultsTowardMinimal) {
  const PlanningProblem problem = virolab_problem();
  PlanEvaluator evaluator(problem);
  GpConfig config;
  config.population_size = 100;
  config.generations = 12;
  config.seed = 77;
  const GpResult gp = run_gp(problem, config);
  const SimplifyResult simplified = simplify_plan(gp.best_plan, evaluator);
  EXPECT_LE(simplified.plan.size(), gp.best_fitness.size);
  EXPECT_GE(simplified.fitness.overall + 1e-9, gp.best_fitness.overall);
}

}  // namespace
}  // namespace ig::planner
