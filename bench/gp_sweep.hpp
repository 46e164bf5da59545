// Shared helper for the GP ablation benches: run N seeded GP runs for a
// configuration and aggregate the best-of-run statistics. The seeded runs
// are independent, so they execute on the work-stealing job system (one run
// per job, each run inline on its worker); results are aggregated in seed
// order, so the numbers do not depend on the pool size.
#pragma once

#include <algorithm>
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

/// Runs `runs` seeded GP runs (seeds 1000, 1001, ...) on a pool of one
/// worker per hardware thread, capped at `runs`.
inline SweepPoint run_sweep_point(const planner::PlanningProblem& problem,
                                  const planner::GpConfig& config, int runs) {
  std::vector<planner::GpResult> results(static_cast<std::size_t>(runs > 0 ? runs : 0));
  sched::JobSystem jobs(std::min(sched::JobSystem::hardware_threads(), results.size()));
  jobs.parallel_for(
      results.size(),
      [&](std::size_t run, std::size_t) {
        planner::GpConfig run_config = config;
        run_config.seed = 1000 + run;
        results[run] = planner::run_gp(problem, run_config);
      });

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
