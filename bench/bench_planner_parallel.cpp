// Parallel planning engine: serial-vs-parallel speedup, a thread-count grid
// on the work-stealing job system, and a bitwise determinism check across
// thread counts.
//
// Headline configurations of the Table 1 virolab experiment:
//
//   serial           threads=1
//   parallel         threads=4 on the job system (the production path)
//
// Then a grid: threads in {2, 4, 8} on the job system (threads=1 is the
// serial row — the planner bypasses the job system at one thread),
// reporting per-point speedup over serial and the job system's steal rate.
//
// Pass criteria: every parallel point is bitwise-identical to serial for
// every seed. The >= 2x speedup claim is asserted only when the machine
// actually has >= 4 hardware threads; on smaller machines the ratio is
// informational.
#include <cstdio>

#include "bench_json.hpp"
#include "gp_sweep.hpp"
#include "sched/job_system.hpp"
#include "util/stopwatch.hpp"

using namespace ig;

namespace {

struct Measurement {
  double seconds = 0.0;
  double mean_fitness = 0.0;
  std::size_t evaluations = 0;
  sched::JobStats sched_stats;  ///< summed across runs; zero when serial
  std::vector<planner::GpResult> results;
};

Measurement measure(const planner::PlanningProblem& problem, std::size_t threads, int runs) {
  Measurement m;
  util::Stopwatch watch;
  for (int run = 0; run < runs; ++run) {
    planner::GpConfig config;  // Table 1 defaults: pop 200, 20 generations
    config.seed = 100 + static_cast<std::uint64_t>(run);
    config.threads = threads;
    m.results.push_back(planner::run_gp(problem, config));
  }
  m.seconds = watch.elapsed_seconds();
  for (const planner::GpResult& result : m.results) {
    m.mean_fitness += result.best_fitness.overall / runs;
    m.evaluations += result.evaluations;
    m.sched_stats.executed += result.scheduler_stats.executed;
    m.sched_stats.stolen += result.scheduler_stats.stolen;
    m.sched_stats.steal_attempts += result.scheduler_stats.steal_attempts;
  }
  return m;
}

bool identical(const planner::GpResult& a, const planner::GpResult& b) {
  if (!(a.best_plan == b.best_plan)) return false;
  if (a.best_fitness.overall != b.best_fitness.overall) return false;
  if (a.evaluations != b.evaluations) return false;
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].best_fitness != b.history[i].best_fitness ||
        a.history[i].mean_fitness != b.history[i].mean_fitness ||
        a.history[i].best_size != b.history[i].best_size)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  const planner::PlanningProblem problem = bench::virolab_problem();
  const std::size_t hardware = sched::JobSystem::hardware_threads();
  const std::size_t parallel_threads = 4;
  constexpr int kRuns = 3;

  std::printf("Parallel GP planning engine, virolab problem, Table 1 parameters, %d runs\n",
              kRuns);
  std::printf("hardware threads: %zu\n\n", hardware);

  const Measurement serial = measure(problem, 1, kRuns);
  const Measurement parallel = measure(problem, parallel_threads, kRuns);

  const double thread_speedup = serial.seconds / parallel.seconds;

  std::printf("%-22s %-9s %-12s %s\n", "configuration", "time(s)", "evals", "mean-fitness");
  std::printf("%-22s %-9.2f %-12zu %.4f\n", "serial (threads=1)", serial.seconds,
              serial.evaluations, serial.mean_fitness);
  std::printf("threads=%-14zu %-9.2f %-12zu %.4f\n", parallel_threads, parallel.seconds,
              parallel.evaluations, parallel.mean_fitness);

  std::printf("\nthread speedup (%zu threads vs 1):    %.2fx\n", parallel_threads, thread_speedup);

  bool deterministic = true;
  for (int run = 0; run < kRuns; ++run)
    if (!identical(serial.results[run], parallel.results[run])) deterministic = false;
  std::printf("threads=%zu bitwise-identical to threads=1: %s\n", parallel_threads,
              deterministic ? "yes" : "NO");

  // -- thread-count grid on the job system --
  std::printf("\n%-8s %-9s %-9s %-11s %s\n", "threads", "time(s)", "speedup", "steal-rate",
              "identical");
  std::printf("%-8d %-9.2f %-9s %-11s %s\n", 1, serial.seconds, "1.00x", "-", "yes");
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const Measurement point = measure(problem, threads, kRuns);
    bool point_identical = true;
    for (int run = 0; run < kRuns; ++run)
      if (!identical(serial.results[run], point.results[run])) point_identical = false;
    deterministic = deterministic && point_identical;
    const double speedup = point.seconds > 0.0 ? serial.seconds / point.seconds : 0.0;
    char speedup_text[32];
    std::snprintf(speedup_text, sizeof speedup_text, "%.2fx", speedup);
    char steal_text[32];
    std::snprintf(steal_text, sizeof steal_text, "%.1f%%",
                  100.0 * point.sched_stats.steal_rate());
    std::printf("%-8zu %-9.2f %-9s %-11s %s\n", threads, point.seconds, speedup_text,
                steal_text, point_identical ? "yes" : "NO");

    bench::JsonRecord grid("bench_planner_parallel_grid");
    grid.add("threads", threads)
        .add("seconds", point.seconds)
        .add("speedup_vs_serial", speedup)
        .add("jobs_executed", static_cast<std::size_t>(point.sched_stats.executed))
        .add("jobs_stolen", static_cast<std::size_t>(point.sched_stats.stolen))
        .add("steal_rate", point.sched_stats.steal_rate())
        .add("deterministic", std::string(point_identical ? "true" : "false"));
    grid.append_to();
  }

  bench::JsonRecord record("bench_planner_parallel");
  record.add("runs", static_cast<std::size_t>(kRuns))
      .add("hardware_threads", hardware)
      .add("parallel_threads", parallel_threads)
      .add("serial_s", serial.seconds)
      .add("parallel_s", parallel.seconds)
      .add("thread_speedup", thread_speedup)
      .add("mean_fitness", serial.mean_fitness)
      .add("steal_rate", parallel.sched_stats.steal_rate())
      .add("evals_per_sec_serial",
           serial.seconds > 0 ? serial.evaluations / serial.seconds : 0.0)
      .add("evals_per_sec_parallel",
           parallel.seconds > 0 ? parallel.evaluations / parallel.seconds : 0.0)
      .add("deterministic", std::string(deterministic ? "true" : "false"));
  record.append_to();

  bool ok = deterministic;
  if (hardware >= parallel_threads) {
    const bool fast_enough = thread_speedup >= 2.0;
    std::printf("speedup target (>= 2x at %zu threads): %s\n", parallel_threads,
                fast_enough ? "met" : "NOT met");
    ok = ok && fast_enough;
  } else {
    std::printf("speedup target skipped: only %zu hardware thread(s) available\n", hardware);
  }
  std::printf("pass: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
