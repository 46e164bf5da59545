// The genetic-based planning procedure (Section 3.4.6).
//
//   1. Initialize population;
//   2. While some stopping conditions are not met, do
//      (a) Evaluate the current population;
//      (b) Select the individuals ... and form a new population;
//      (c) Crossover;  (d) Mutate;
//   3. Select a plan that has the highest fitness as the final solution.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "planner/evaluate.hpp"
#include "planner/operators.hpp"
#include "planner/plan_tree.hpp"
#include "planner/problem.hpp"
#include "util/rng.hpp"

namespace ig::sched {
class JobSystem;
}

namespace ig::planner {

/// Table 1's parameter settings, as defaults.
struct GpConfig {
  std::size_t population_size = 200;
  std::size_t generations = 20;
  double crossover_rate = 0.7;
  double mutation_rate = 0.001;
  EvaluationConfig evaluation;  ///< Smax = 40, wv = 0.2, wg = 0.5, wr = 0.3
  InitStyle init_style = InitStyle::Grow;
  SelectionScheme selection = SelectionScheme::Tournament;
  std::size_t tournament_size = 2;
  /// Individuals copied unchanged into the next generation. The paper's
  /// pseudocode has no elitism; 1 preserves the best-so-far and is the
  /// default for the experiment harness (ablation A5 covers 0).
  std::size_t elitism = 1;
  /// Stop early once a plan reaches this fitness (nullopt: run all
  /// generations). The paper runs a fixed generation budget.
  std::optional<double> target_fitness;
  std::uint64_t seed = 1;
};

/// Per-generation progress sample.
struct GenerationStats {
  std::size_t generation = 0;
  double best_fitness = 0.0;
  double mean_fitness = 0.0;
  double best_validity = 0.0;
  double best_goal = 0.0;
  std::size_t best_size = 0;
};

/// Outcome of one GP run.
struct GpResult {
  PlanNode best_plan;
  Fitness best_fitness;
  std::vector<GenerationStats> history;
  /// Plans scored: population size times the generations evaluated
  /// (history.size()), whether simulated or carried.
  std::size_t evaluations = 0;
  /// Of those, the plans that kept a fitness instead of being simulated:
  /// elites (they keep the best-so-far fitness) and selected copies that
  /// neither crossover nor mutation changed (they keep their parent's).
  /// Fitness is a pure function of the plan, so carrying it changes no
  /// result.
  std::size_t memo_hits = 0;
};

/// Runs the GP planner on one problem. With a `jobs` pool, population
/// evaluation and variation run as parallel loops on it (safe to call from
/// inside one of its jobs); null runs every loop inline on the caller.
/// Every individual draws from its own RNG stream derived from
/// (seed, generation, index), so the result is bitwise-identical at any
/// pool size, null = inline (see DESIGN.md, "Concurrency model &
/// determinism").
GpResult run_gp(const PlanningProblem& problem, const GpConfig& config,
                sched::JobSystem* jobs = nullptr);

}  // namespace ig::planner
