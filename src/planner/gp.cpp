#include "planner/gp.hpp"

#include <algorithm>
#include <optional>

namespace ig::planner {

namespace {

/// Phase tags for util::derive_stream — every random decision in a run is
/// addressed by (seed, generation, index, phase), never by a shared stream,
/// so the work can be scheduled on any number of threads without changing
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

GpResult run_gp(const PlanningProblem& problem, const GpConfig& config) {
  const std::size_t threads =
      config.threads == 0 ? sched::JobSystem::hardware_threads() : config.threads;
  GpResult result;
  result.threads_used = threads;
  // No individuals: nothing to evaluate and no generation to report.
  if (config.population_size == 0) return result;

  PlanEvaluator evaluator(problem, config.evaluation, threads);
  // The data-parallel loops run on the work-stealing job system; with one
  // thread everything runs inline on the caller (worker id 0).
  std::optional<sched::JobSystem> jobs;
  if (threads > 1) jobs.emplace(threads);
  const auto for_each = [&](std::size_t count, auto&& fn) {
    if (jobs)
      jobs->parallel_for(count, fn);
    else
      for (std::size_t index = 0; index < count; ++index) fn(index, 0);
  };

  // 1. Initialize population (stream per individual).
  std::vector<PlanNode> population(config.population_size);
  for_each(population.size(), [&](std::size_t i, std::size_t) {
    util::Rng rng = stream_rng(config, 0, i, kInitStream);
    population[i] =
        random_tree(rng, problem.catalogue, config.evaluation.smax, config.init_style);
  });

  bool have_best = false;

  std::vector<Fitness> fitnesses(population.size());
  for (std::size_t generation = 0; generation <= config.generations; ++generation) {
    // 2a. Evaluate — the hot loop; individuals are independent, results land
    // by index, and the evaluator is thread-safe per worker.
    for_each(population.size(), [&](std::size_t i, std::size_t worker) {
      fitnesses[i] = evaluator.evaluate(population[i], worker);
    });

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

    // 2b. Select (one stream per generation; cheap, stays serial).
    util::Rng select_rng = stream_rng(config, generation, 0, kSelectStream);
    const std::vector<std::size_t> selected = select(
        fitnesses, population.size(), config.selection, select_rng, config.tournament_size);
    std::vector<PlanNode> next;
    next.reserve(population.size());
    for (const std::size_t index : selected) next.push_back(population[index]);

    // Elitism: overwrite the head of the new population with the best-so-far.
    for (std::size_t e = 0; e < config.elitism && e < next.size(); ++e)
      next[e] = result.best_plan;

    // 2c. Crossover over consecutive pairs (elites excluded); each pair is
    // independent and draws from the stream of its left index.
    const std::size_t first_variable = std::min(config.elitism, next.size());
    const std::size_t pair_count =
        next.size() > first_variable ? (next.size() - first_variable) / 2 : 0;
    for_each(pair_count, [&](std::size_t pair, std::size_t) {
      const std::size_t i = first_variable + 2 * pair;
      util::Rng rng = stream_rng(config, generation, i, kCrossoverStream);
      CrossoverResult crossed =
          crossover(next[i], next[i + 1], rng, config.crossover_rate, config.evaluation.smax);
      if (crossed.applied) {
        next[i] = std::move(crossed.first);
        next[i + 1] = std::move(crossed.second);
      }
    });

    // 2d. Mutate (elites excluded; stream per individual).
    for_each(next.size() - first_variable, [&](std::size_t offset, std::size_t) {
      const std::size_t i = first_variable + offset;
      util::Rng rng = stream_rng(config, generation, i, kMutationStream);
      mutate(next[i], rng, problem.catalogue, config.mutation_rate, config.evaluation.smax,
             config.init_style);
    });

    population = std::move(next);
  }

  result.evaluations = evaluator.evaluations();
  if (jobs) result.scheduler_stats = jobs->stats();
  return result;
}

}  // namespace ig::planner
