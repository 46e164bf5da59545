// Ablation A9 — planner scalability versus service-catalogue size.
//
// The virolab problem has four service types; real grids advertise many
// more, most of them irrelevant to a given goal. The sweep pads the
// catalogue with K distractor services (valid operators over unrelated data
// classifications) and measures how the distractors dilute the search.
#include <cstdio>
#include <string>

#include "bench_json.hpp"
#include "gp_sweep.hpp"
#include "util/stopwatch.hpp"

using namespace ig;

namespace {

/// Builds a chain of distractor services over private classifications:
/// Distract-k consumes "Noise-k" and produces "Noise-(k+1)".
void add_distractors(wfl::ServiceCatalogue& catalogue, int count) {
  for (int k = 0; k < count; ++k) {
    wfl::ServiceType service("Distract" + std::to_string(k));
    service.set_inputs({"A"});
    service.set_input_condition(
        wfl::Condition::parse("A.Classification = \"Noise-" + std::to_string(k) + "\""));
    service.set_outputs({"B"});
    service.set_output_condition(
        wfl::Condition::parse("B.Classification = \"Noise-" + std::to_string(k + 1) + "\""));
    catalogue.add(std::move(service));
  }
}

}  // namespace

int main() {
  const int distractor_counts[] = {0, 4, 8, 16, 32};
  constexpr int kRuns = 5;

  std::printf("A9: planner quality vs catalogue size (%d runs each)\n\n", kRuns);
  std::printf("%-12s %-10s", "catalogue", "time(s)");
  std::printf(" %-9s %-9s %-9s %-8s %s\n", "fitness", "validity", "goal", "size",
              "optimal-runs");

  int baseline_optimal = 0;
  bool any_degradation_reported = false;
  for (const int distractors : distractor_counts) {
    planner::PlanningProblem problem = bench::virolab_problem();
    add_distractors(problem.catalogue, distractors);
    // Seed one noise datum so distractor chains are actually executable and
    // compete for validity fitness.
    problem.initial_state.put(wfl::DataSpec("noise0").with_classification("Noise-0"));

    planner::GpConfig config;
    config.population_size = 100;
    config.generations = 15;
    util::Stopwatch watch;
    const bench::SweepPoint point = bench::run_sweep_point(problem, config, kRuns);
    const double elapsed = watch.elapsed_seconds();
    std::printf("%-12zu %-10.2f", static_cast<std::size_t>(4 + distractors), elapsed);
    std::printf(" %-9.4f %-9.3f %-9.3f %-8.1f %d/%d\n", point.fitness.mean(),
                point.validity.mean(), point.goal.mean(), point.size.mean(),
                point.optimal_runs, kRuns);
    if (distractors == 0) baseline_optimal = point.optimal_runs;
    if (point.optimal_runs < kRuns) any_degradation_reported = true;

    bench::JsonRecord record("bench_planner_scaling");
    record.add("catalogue_size", static_cast<std::size_t>(4 + distractors))
        .add("runs", static_cast<std::size_t>(kRuns))
        .add("mean_fitness", point.fitness.mean())
        .add("optimal_runs", static_cast<std::size_t>(point.optimal_runs))
        .add("wall_s", elapsed)
        .add("evaluations", point.evaluations)
        .add("evals_per_sec", elapsed > 0 ? point.evaluations / elapsed : 0.0);
    record.append_to();
  }
  (void)any_degradation_reported;
  std::printf("\nexpected shape: the 4-service baseline is optimal in every run; a larger\n"
              "catalogue dilutes the terminal set and goal-reaching may need more budget.\n");
  const bool ok = baseline_optimal == kRuns;
  std::printf("shape holds: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
