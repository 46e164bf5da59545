// The parallel planning engine's core contract: run_gp is a pure function
// of (problem, config-minus-threads). threads only changes wall-clock time,
// never the result, because every individual draws from its own RNG stream
// derived from (seed, generation, index).
#include <gtest/gtest.h>

#include "planner/gp.hpp"
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

/// Bitwise comparison of everything run_gp promises to keep thread-count
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
  for (const std::uint64_t seed : {11ULL, 29ULL, 47ULL, 101ULL}) {
    GpConfig serial = small_config(seed);
    serial.threads = 1;
    GpConfig parallel = small_config(seed);
    parallel.threads = 4;
    expect_identical(run_gp(problem, serial), run_gp(problem, parallel));
  }
}

TEST(GpParallel, OddThreadCountsAndAutoMatchSerial) {
  const PlanningProblem problem = virolab_problem();
  GpConfig serial = small_config(5);
  serial.threads = 1;
  const GpResult reference = run_gp(problem, serial);
  for (const std::size_t threads : {0ULL, 2ULL, 3ULL, 7ULL}) {
    GpConfig config = small_config(5);
    config.threads = threads;
    expect_identical(reference, run_gp(problem, config));
  }
}

TEST(GpParallel, MatchesSerialUnderConfigVariations) {
  const PlanningProblem problem = virolab_problem();
  GpConfig variants[3] = {small_config(13), small_config(17), small_config(19)};
  variants[0].selection = SelectionScheme::Roulette;
  variants[1].elitism = 0;
  variants[2].init_style = InitStyle::Ramped;
  for (GpConfig& config : variants) {
    config.threads = 1;
    const GpResult serial = run_gp(problem, config);
    config.threads = 4;
    expect_identical(serial, run_gp(problem, config));
  }
}

TEST(GpParallel, MemoSkipsElitesAndClones) {
  // Elites and selected copies that neither crossover nor mutation changed
  // keep their fitness instead of being simulated again (memo_hits counts
  // them). Every individual of the initial population and of every
  // generation still counts as one evaluation, the carried count does not
  // depend on the thread count, and a second run gives the same result.
  const PlanningProblem problem = virolab_problem();
  GpConfig config = small_config(23);
  config.threads = 1;
  const GpResult result = run_gp(problem, config);
  EXPECT_EQ(result.evaluations, config.population_size * (config.generations + 1));
  EXPECT_GE(result.memo_hits, config.elitism * config.generations);
  EXPECT_LT(result.memo_hits, result.evaluations);
  expect_identical(result, run_gp(problem, config));
  for (const std::size_t threads : {2ULL, 4ULL}) {
    config.threads = threads;
    const GpResult parallel = run_gp(problem, config);
    EXPECT_EQ(parallel.memo_hits, result.memo_hits) << threads << " threads";
    expect_identical(result, parallel);
  }
}

TEST(GpParallel, ReportsThreadsUsed) {
  const PlanningProblem problem = virolab_problem();
  GpConfig config = small_config(3);
  config.generations = 2;
  config.threads = 3;
  EXPECT_EQ(run_gp(problem, config).threads_used, 3u);
  config.threads = 0;
  EXPECT_GE(run_gp(problem, config).threads_used, 1u);
}

}  // namespace
}  // namespace ig::planner
