// Table 2 — Experiment results collected from the best solutions of ten
// runs (Section 5).
//
// Reproduces the paper's experiment exactly: the GP planner with Table 1's
// parameters on the Section 4 computational-biology planning problem
// ({D1..D7} -> a resolution file), ten independent runs, averaging the best
// individual of each run.
//
// Paper's row:   fitness 0.928, validity 1.0, goal 1.0, size 9.7
// Expectation:   validity and goal reach 1.0 in EVERY run; size stays well
//                below Smax = 40; fitness follows from
//                f = 0.2 fv + 0.5 fg + 0.3 (1 - size/40).
#include <cstdio>

#include "bench_json.hpp"
#include "planner/convert.hpp"
#include "planner/gp.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "virolab/catalogue.hpp"

using namespace ig;

int main() {
  const planner::PlanningProblem problem = planner::PlanningProblem::from_case(
      virolab::make_case_description(), virolab::make_catalogue());

  constexpr int kRuns = 10;
  util::SampleSet fitness;
  util::SampleSet validity;
  util::SampleSet goal;
  util::SampleSet size;
  int optimal_runs = 0;
  std::size_t total_evaluations = 0;

  std::printf("Running the Table 2 experiment: %d GP runs, Table 1 parameters...\n\n", kRuns);
  std::printf("%-5s %-10s %-10s %-10s %-6s %-8s  best plan (workflow text)\n", "run",
              "fitness", "validity", "goal", "size", "time(s)");

  util::Stopwatch total;
  for (int run = 1; run <= kRuns; ++run) {
    planner::GpConfig config;  // Table 1 defaults
    config.seed = static_cast<std::uint64_t>(run);
    util::Stopwatch watch;
    const planner::GpResult result = planner::run_gp(problem, config);
    const double elapsed = watch.elapsed_seconds();

    fitness.add(result.best_fitness.overall);
    validity.add(result.best_fitness.validity);
    goal.add(result.best_fitness.goal);
    size.add(static_cast<double>(result.best_fitness.size));
    if (result.best_fitness.validity == 1.0 && result.best_fitness.goal == 1.0)
      ++optimal_runs;
    total_evaluations += result.evaluations;

    std::printf("%-5d %-10.4f %-10.2f %-10.2f %-6zu %-8.2f  %s\n", run,
                result.best_fitness.overall, result.best_fitness.validity,
                result.best_fitness.goal, result.best_fitness.size,
                elapsed, planner::to_flow_expr(result.best_plan).to_text().c_str());
  }

  std::printf("\nTable 2. Experiment results collected from the best solutions of ten runs.\n");
  std::printf("%-34s %-10s %s\n", "", "Paper", "Measured");
  std::printf("%-34s %-10s %.3f\n", "Average Fitness", "0.928", fitness.mean());
  std::printf("%-34s %-10s %.3f\n", "Average Validity Fitness", "1.0", validity.mean());
  std::printf("%-34s %-10s %.3f\n", "Average Goal Fitness", "1.0", goal.mean());
  std::printf("%-34s %-10s %.1f\n", "Average Size of solutions", "9.7", size.mean());
  std::printf("\nruns reaching optimal validity AND goal fitness: %d / %d (paper: every run)\n",
              optimal_runs, kRuns);
  std::printf("total wall time: %.1f s\n", total.elapsed_seconds());

  const double wall = total.elapsed_seconds();
  bench::JsonRecord record("bench_table2_planning");
  record.add("runs", static_cast<std::size_t>(kRuns))
      .add("mean_fitness", fitness.mean())
      .add("mean_validity", validity.mean())
      .add("mean_goal", goal.mean())
      .add("mean_size", size.mean())
      .add("optimal_runs", static_cast<std::size_t>(optimal_runs))
      .add("wall_s", wall)
      .add("evaluations", total_evaluations)
      .add("evals_per_sec", wall > 0 ? total_evaluations / wall : 0.0);
  record.append_to();

  const bool shape_holds = optimal_runs == kRuns && size.mean() < 20.0 && fitness.mean() > 0.9;
  std::printf("qualitative claims hold: %s\n", shape_holds ? "yes" : "NO");
  return shape_holds ? 0 : 1;
}
