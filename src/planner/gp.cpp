#include "planner/gp.hpp"

#include <algorithm>
#include <cstdint>

#include "sched/job_system.hpp"

namespace ig::planner {

namespace {

/// Phase tags for util::derive_stream — every random decision in a run is
/// addressed by (seed, generation, index, phase), never by a shared stream,
/// so the work can be scheduled on any number of workers without changing
/// which numbers any individual draws. The values are arbitrary distinct
/// labels; changing them re-randomizes every run (like changing the seed).
enum StreamPhase : std::uint64_t {
  kInitStream = 0x11,
  kSelectStream = 0x12,
  kCrossoverStream = 0x13,
  kMutationStream = 0x14,
};

util::Rng stream_rng(const GpConfig& config, std::uint64_t generation, std::uint64_t index,
                     StreamPhase phase) {
  return util::Rng(util::derive_stream(config.seed, generation, index, phase));
}

}  // namespace

GpResult run_gp(const PlanningProblem& problem, const GpConfig& config,
                sched::JobSystem* jobs) {
  GpResult result;
  // No individuals: nothing to evaluate and no generation to report.
  if (config.population_size == 0) return result;

  PlanEvaluator evaluator(problem, config.evaluation, jobs ? jobs->size() : 1);
  // The data-parallel loops run on the caller's job system; without one
  // everything runs inline on the caller (worker id 0).
  const auto for_each = [&](std::size_t count, auto&& fn) {
    if (jobs)
      jobs->parallel_for(count, fn);
    else
      for (std::size_t index = 0; index < count; ++index) fn(index, 0);
  };

  // 1. Initialize and evaluate the population (stream per individual).
  std::vector<PlanNode> population(config.population_size);
  std::vector<Fitness> fitnesses(population.size());
  for_each(population.size(), [&](std::size_t i, std::size_t worker) {
    util::Rng rng = stream_rng(config, 0, i, kInitStream);
    population[i] =
        random_tree(rng, problem.catalogue, config.evaluation.smax, config.init_style);
    fitnesses[i] = evaluator.evaluate(population[i], worker);
  });

  bool have_best = false;
  std::vector<PlanNode> next(population.size());
  std::vector<Fitness> next_fitnesses(population.size());
  std::vector<std::size_t> last_use(population.size());
  std::vector<std::uint8_t> simulated(population.size());
  for (std::size_t generation = 0;; ++generation) {
    // Track the best-so-far individual (serial reduction in index order, so
    // floating-point sums do not depend on scheduling).
    std::size_t generation_best = 0;
    double fitness_sum = 0.0;
    for (std::size_t i = 0; i < population.size(); ++i) {
      fitness_sum += fitnesses[i].overall;
      if (fitnesses[i].overall > fitnesses[generation_best].overall) generation_best = i;
    }
    if (!have_best || fitnesses[generation_best].overall > result.best_fitness.overall) {
      result.best_plan = population[generation_best];
      result.best_fitness = fitnesses[generation_best];
      have_best = true;
    }

    GenerationStats stats;
    stats.generation = generation;
    stats.best_fitness = fitnesses[generation_best].overall;
    stats.mean_fitness = fitness_sum / static_cast<double>(population.size());
    stats.best_validity = fitnesses[generation_best].validity;
    stats.best_goal = fitnesses[generation_best].goal;
    stats.best_size = fitnesses[generation_best].size;
    result.history.push_back(stats);

    if (config.target_fitness.has_value() &&
        result.best_fitness.overall >= *config.target_fitness)
      break;
    if (generation == config.generations) break;  // final evaluation only

    // 2b. Select (one stream per generation; cheap, stays serial). Elites,
    // copies of the best-so-far, take the head of the new population and
    // keep its fitness; the selections they displace are never built.
    util::Rng select_rng = stream_rng(config, generation, 0, kSelectStream);
    const std::vector<std::size_t> selected = select(
        fitnesses, population.size(), config.selection, select_rng, config.tournament_size);
    const std::size_t first_variable = std::min(config.elitism, next.size());
    for (std::size_t e = 0; e < first_variable; ++e) {
      next[e] = result.best_plan;
      next_fitnesses[e] = result.best_fitness;
    }
    // Each chosen plan moves to its last position and is copied to earlier
    // ones.
    for (std::size_t i = first_variable; i < next.size(); ++i) last_use[selected[i]] = i;
    for (std::size_t i = first_variable; i < next.size(); ++i) {
      PlanNode& chosen = population[selected[i]];
      if (last_use[selected[i]] == i)
        next[i] = std::move(chosen);
      else
        next[i] = chosen;
    }

    // 2c/2d. One job per consecutive pair after the elites: crossover (the
    // stream of its left index), mutation of both children (a stream per
    // individual), then evaluation of each child that either operator
    // changed; an unchanged child keeps the fitness of the plan it copies.
    // An odd last plan is only mutated.
    const std::size_t pair_count = (next.size() - first_variable) / 2;
    const std::size_t job_count = (next.size() - first_variable + 1) / 2;
    for_each(job_count, [&](std::size_t job, std::size_t worker) {
      const std::size_t i = first_variable + 2 * job;
      // Each plan's node count is its fitness's, so no operator counts it.
      std::size_t sizes[2] = {fitnesses[selected[i]].size,
                              i + 1 < next.size() ? fitnesses[selected[i + 1]].size : 0};
      bool crossed = false;
      if (job < pair_count) {
        util::Rng rng = stream_rng(config, generation, i, kCrossoverStream);
        CrossoverResult children =
            crossover(std::move(next[i]), sizes[0], std::move(next[i + 1]), sizes[1], rng,
                      config.crossover_rate, config.evaluation.smax);
        next[i] = std::move(children.first);
        next[i + 1] = std::move(children.second);
        sizes[0] = children.first_size;
        sizes[1] = children.second_size;
        crossed = children.applied;
      }
      for (std::size_t k = i; k < std::min(i + 2, next.size()); ++k) {
        util::Rng rng = stream_rng(config, generation, k, kMutationStream);
        const MutationResult mutated = mutate(next[k], sizes[k - i], rng, problem.catalogue,
                                              config.mutation_rate, config.evaluation.smax,
                                              config.init_style);
        simulated[k] = crossed || mutated.applied ? 1 : 0;
        next_fitnesses[k] =
            simulated[k] != 0 ? evaluator.evaluate(next[k], worker) : fitnesses[selected[k]];
      }
    });
    result.memo_hits += first_variable;
    for (std::size_t i = first_variable; i < next.size(); ++i)
      if (simulated[i] == 0) ++result.memo_hits;

    population.swap(next);
    fitnesses.swap(next_fitnesses);
  }

  result.evaluations = population.size() * result.history.size();
  return result;
}

}  // namespace ig::planner
