// The parallel planning engine's core contract: run_gp is a pure function
// of (problem, config). The caller's pool only changes wall-clock time,
// never the result, because every individual draws from its own RNG stream
// derived from (seed, generation, index): bitwise-identical at any pool
// size, null = inline.
#include <gtest/gtest.h>

#include <vector>

#include "planner/gp.hpp"
#include "sched/job_system.hpp"
#include "virolab/catalogue.hpp"

namespace ig::planner {
namespace {

PlanningProblem virolab_problem() {
  return PlanningProblem::from_case(virolab::make_case_description(),
                                    virolab::make_catalogue());
}

GpConfig small_config(std::uint64_t seed) {
  GpConfig config;  // Table 1 defaults otherwise
  config.population_size = 60;
  config.generations = 10;
  config.seed = seed;
  return config;
}

/// Bitwise comparison of everything run_gp promises to keep pool-size
/// invariant: best plan, best fitness, full history, evaluation count.
void expect_identical(const GpResult& a, const GpResult& b) {
  EXPECT_EQ(a.best_plan, b.best_plan);
  EXPECT_EQ(a.best_fitness.overall, b.best_fitness.overall);
  EXPECT_EQ(a.best_fitness.validity, b.best_fitness.validity);
  EXPECT_EQ(a.best_fitness.goal, b.best_fitness.goal);
  EXPECT_EQ(a.best_fitness.representation, b.best_fitness.representation);
  EXPECT_EQ(a.best_fitness.size, b.best_fitness.size);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].generation, b.history[i].generation);
    EXPECT_EQ(a.history[i].best_fitness, b.history[i].best_fitness);
    EXPECT_EQ(a.history[i].mean_fitness, b.history[i].mean_fitness);
    EXPECT_EQ(a.history[i].best_validity, b.history[i].best_validity);
    EXPECT_EQ(a.history[i].best_goal, b.history[i].best_goal);
    EXPECT_EQ(a.history[i].best_size, b.history[i].best_size);
  }
}

TEST(GpParallel, FourThreadsMatchSerialAcrossSeeds) {
  const PlanningProblem problem = virolab_problem();
  sched::JobSystem pool(4);
  for (const std::uint64_t seed : {11ULL, 29ULL, 47ULL, 101ULL})
    expect_identical(run_gp(problem, small_config(seed)),
                     run_gp(problem, small_config(seed), &pool));
}

TEST(GpParallel, OddThreadCountsAndAutoMatchSerial) {
  // Pool sizes 1 (a pool, not inline), 2, 3, 7 and one worker per hardware
  // thread.
  const PlanningProblem problem = virolab_problem();
  const GpResult reference = run_gp(problem, small_config(5));
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                    std::size_t{7}, sched::JobSystem::hardware_threads()}) {
    sched::JobSystem pool(workers);
    expect_identical(reference, run_gp(problem, small_config(5), &pool));
  }
}

TEST(GpParallel, MatchesSerialUnderConfigVariations) {
  const PlanningProblem problem = virolab_problem();
  GpConfig variants[3] = {small_config(13), small_config(17), small_config(19)};
  variants[0].selection = SelectionScheme::Roulette;
  variants[1].elitism = 0;
  variants[2].init_style = InitStyle::Ramped;
  sched::JobSystem pool(4);
  for (const GpConfig& config : variants)
    expect_identical(run_gp(problem, config), run_gp(problem, config, &pool));
}

TEST(GpParallel, MemoSkipsElitesAndClones) {
  // Elites and selected copies that neither crossover nor mutation changed
  // keep their fitness instead of being simulated again (memo_hits counts
  // them). Every individual of the initial population and of every
  // generation still counts as one evaluation, the carried count does not
  // depend on the pool size, and a second run gives the same result.
  const PlanningProblem problem = virolab_problem();
  const GpConfig config = small_config(23);
  const GpResult result = run_gp(problem, config);
  EXPECT_EQ(result.evaluations, config.population_size * (config.generations + 1));
  EXPECT_GE(result.memo_hits, config.elitism * config.generations);
  EXPECT_LT(result.memo_hits, result.evaluations);
  expect_identical(result, run_gp(problem, config));
  for (const std::size_t workers : {2ULL, 4ULL}) {
    sched::JobSystem pool(workers);
    const GpResult parallel = run_gp(problem, config, &pool);
    EXPECT_EQ(parallel.memo_hits, result.memo_hits) << workers << " workers";
    expect_identical(result, parallel);
  }
}

TEST(GpParallel, NestedRunInsideAPoolJobMatchesInline) {
  // A caller that already owns a pool runs GP from inside one of its jobs,
  // on that same pool: the run's loops nest in the outer loop and finish.
  const PlanningProblem problem = virolab_problem();
  const std::vector<std::uint64_t> seeds = {11, 29, 47, 101};
  sched::JobSystem pool(4);
  std::vector<GpResult> nested(seeds.size());
  pool.parallel_for(
      seeds.size(),
      [&](std::size_t i, std::size_t) {
        nested[i] = run_gp(problem, small_config(seeds[i]), &pool);
      });
  for (std::size_t i = 0; i < seeds.size(); ++i)
    expect_identical(run_gp(problem, small_config(seeds[i])), nested[i]);

  // A run given a pool executes its jobs there and leaves the pool's size.
  const std::uint64_t executed = pool.stats().executed;
  run_gp(problem, small_config(3), &pool);
  EXPECT_GT(pool.stats().executed, executed);
  EXPECT_EQ(pool.size(), 4u);
}

}  // namespace
}  // namespace ig::planner
