// Shared helper for the GP ablation benches: run N seeded GP runs for a
// configuration and aggregate the best-of-run statistics. The seeded runs
// are independent, so they execute on the work-stealing job system (one run
// per job, each run itself single-threaded to avoid oversubscription);
// run_gp is thread-count-deterministic and results are aggregated in seed
// order, so the numbers match the serial sweep exactly.
#pragma once

#include <cstdio>
#include <vector>

#include "planner/gp.hpp"
#include "sched/job_system.hpp"
#include "util/stats.hpp"
#include "virolab/catalogue.hpp"

namespace ig::bench {

struct SweepPoint {
  util::SampleSet fitness;
  util::SampleSet validity;
  util::SampleSet goal;
  util::SampleSet size;
  int optimal_runs = 0;  ///< runs with fv = fg = 1
  int runs = 0;
  std::size_t evaluations = 0;  ///< total across runs
};

inline planner::PlanningProblem virolab_problem() {
  return planner::PlanningProblem::from_case(virolab::make_case_description(),
                                             virolab::make_catalogue());
}

/// Runs `runs` seeded GP runs. `outer_threads`: 0 = one task per hardware
/// thread (capped at `runs`), 1 = serial, N = that many concurrent runs.
inline SweepPoint run_sweep_point(const planner::PlanningProblem& problem,
                                  planner::GpConfig config, int runs,
                                  std::uint64_t seed_base = 1000,
                                  std::size_t outer_threads = 0) {
  if (outer_threads == 0)
    outer_threads = std::min<std::size_t>(sched::JobSystem::hardware_threads(),
                                          runs > 0 ? static_cast<std::size_t>(runs) : 1);

  std::vector<planner::GpResult> results(static_cast<std::size_t>(runs > 0 ? runs : 0));
  const auto run_one = [&](std::size_t run) {
    planner::GpConfig run_config = config;
    run_config.seed = seed_base + run;
    // The job system supplies the parallelism; each run stays single-threaded.
    if (outer_threads > 1) run_config.threads = 1;
    results[run] = planner::run_gp(problem, run_config);
  };
  if (outer_threads > 1) {
    sched::JobSystem jobs(outer_threads);
    jobs.parallel_for(
        results.size(), [&](std::size_t run, std::size_t) { run_one(run); },
        /*min_chunk=*/1);
  } else {
    for (std::size_t run = 0; run < results.size(); ++run) run_one(run);
  }

  SweepPoint point;
  point.runs = runs;
  for (const planner::GpResult& result : results) {
    point.fitness.add(result.best_fitness.overall);
    point.validity.add(result.best_fitness.validity);
    point.goal.add(result.best_fitness.goal);
    point.size.add(static_cast<double>(result.best_fitness.size));
    if (result.best_fitness.validity == 1.0 && result.best_fitness.goal == 1.0)
      ++point.optimal_runs;
    point.evaluations += result.evaluations;
  }
  return point;
}

inline void print_sweep_header(const char* parameter_name) {
  std::printf("%-14s %-9s %-9s %-9s %-8s %s\n", parameter_name, "fitness", "validity",
              "goal", "size", "optimal-runs");
}

inline void print_sweep_row(const char* label, const SweepPoint& point) {
  std::printf("%-14s %-9.4f %-9.3f %-9.3f %-8.1f %d/%d\n", label, point.fitness.mean(),
              point.validity.mean(), point.goal.mean(), point.size.mean(),
              point.optimal_runs, point.runs);
}

}  // namespace ig::bench
