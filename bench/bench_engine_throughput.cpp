// Engine throughput — sharded enactment of the virus case-study workload.
//
// Sweeps the shard count at a fixed offered load (every shard re-enacts the
// fig10 virus-reconstruction case) and reports completed-cases/sec, latency
// percentiles, and per-shard utilization. The scaling result runs with the
// kernel-latency model at 0, so cases/sec is CPU throughput; a second sweep
// at 10 ms per kernel shows how shards overlap waits on remote kernels. A
// fault-injected point pins shard 0 at 100% dispatch failure and shows the
// engine's checkpoint/restore retry completing every submitted case anyway.
//
// Appends one JSON Lines record per configuration to BENCH_engine.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "sched/job_system.hpp"
#include "util/stopwatch.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

using namespace ig;

namespace {

struct Point {
  double kernel_latency = 0.0;  ///< wall-clock seconds per kernel execution
  std::size_t shards = 0;
  std::size_t workers = 0;  ///< job-system workers under the shard streams
  std::size_t cases = 0;
  double wall_seconds = 0.0;
  double cases_per_second = 0.0;
  engine::EngineMetrics metrics;
  double p50 = 0.0;  ///< from the registry's latency histogram
  double p99 = 0.0;
};

// Real wall-clock latency per kernel execution: stands in for waiting on
// the actual EM reconstruction codes (a fig10 case runs ~12 executions).
// Concurrent shards overlap these waits, even on fewer cores than shards.
constexpr double kKernelLatencySeconds = 0.010;

Point run_point(std::size_t shards, std::size_t cases, std::size_t tenants,
                std::vector<double> failure_floor, int max_case_retries,
                bool engine_recovery_only, bool traced = false, std::size_t workers = 0,
                double kernel_latency = kKernelLatencySeconds) {
  engine::EngineConfig config;
  config.shards = shards;
  config.workers = workers;  // 0 = one job-system worker per shard
  config.queue_capacity = cases + 8;
  config.max_case_retries = max_case_retries;
  config.shard_failure_floor = std::move(failure_floor);
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.kernels.execution_latency_seconds = kernel_latency;
  if (engine_recovery_only) {
    // Fault point: cut the in-shard budgets to one dispatch retry so a
    // broken shard fails fast (its retry fails instantly too) and the
    // engine-level checkpoint/restore retry does the real recovery, while
    // the healthy shard can still absorb the topology's natural failures.
    config.environment.coordination.max_retries = 1;
    config.environment.coordination.max_replans = 0;
  }
  if (traced) config.environment.span_tracing = true;
  engine::EnactmentEngine engine(config);

  // Each case targets a slightly different resolution, so every submission
  // is a distinct planning problem and the bench measures real
  // plan-and-enact work per case — the load profile of a multi-user portal.
  // Targets cycle over 8.00 down to 5.64 Å: the synthetic kernels floor at
  // 5.5 Å, so a lower target could never converge.
  util::Stopwatch watch;
  for (std::size_t i = 0; i < cases; ++i) {
    const double resolution = 8.0 - 0.04 * static_cast<double>(i % 60);
    const std::string tenant = "tenant-" + std::to_string(i % tenants);
    engine.submit(virolab::make_fig10_process(resolution),
                  virolab::make_case_description(resolution), tenant);
  }
  engine.drain();

  Point point;
  point.kernel_latency = kernel_latency;
  point.shards = shards;
  point.workers = engine.worker_count();
  point.cases = cases;
  point.wall_seconds = watch.elapsed_seconds();
  point.metrics = engine.metrics();
  point.cases_per_second =
      point.wall_seconds > 0.0
          ? static_cast<double>(point.metrics.completed) / point.wall_seconds
          : 0.0;
  // Percentiles come straight off the exported histogram — the same numbers
  // a scrape of the registry would report (and, because the sample ring is
  // larger than the sweep, exactly what SampleSet used to compute).
  const obs::RegistrySnapshot registry = engine.registry().snapshot();
  if (const obs::MetricPoint* hist = registry.find("engine_case_latency_seconds")) {
    const std::vector<double> qs = hist->histogram.quantiles({50.0, 99.0});
    point.p50 = qs[0];
    point.p99 = qs[1];
  }
  return point;
}

void emit_record(const char* label, const Point& point) {
  bench::JsonRecord record("bench_engine_throughput");
  record.add("config", std::string(label));
  record.add("kernel_latency_seconds", point.kernel_latency);
  record.add("shards", point.shards);
  record.add("workers", point.workers);
  record.add("cases", point.cases);
  record.add("wall_seconds", point.wall_seconds);
  record.add("cases_per_second", point.cases_per_second);
  record.add("completed", point.metrics.completed);
  record.add("failed", point.metrics.failed);
  record.add("retried", point.metrics.retried);
  record.add("rejected", point.metrics.rejected);
  record.add("latency_p50", point.p50);
  record.add("latency_p99", point.p99);
  record.add("jobs_executed", point.metrics.jobs_executed);
  record.add("jobs_stolen", point.metrics.jobs_stolen);
  record.add("steal_rate", point.metrics.steal_rate);
  double utilization = 0.0;
  for (const auto& shard : point.metrics.shards) utilization += shard.utilization;
  if (!point.metrics.shards.empty())
    utilization /= static_cast<double>(point.metrics.shards.size());
  record.add("mean_shard_utilization", utilization);
  record.append_to("BENCH_engine.json");
}

void print_point(const Point& point) {
  double utilization = 0.0;
  for (const auto& shard : point.metrics.shards) utilization += shard.utilization;
  if (!point.metrics.shards.empty())
    utilization /= static_cast<double>(point.metrics.shards.size());
  std::printf("%-8zu %-8zu %-8zu %-10.2f %-12.2f %-10.2f %-8zu %-8zu %-6.2f %.1f%%\n",
              point.shards, point.workers, point.cases, point.wall_seconds,
              point.cases_per_second, point.p50, point.metrics.retried, point.metrics.failed,
              utilization, 100.0 * point.metrics.steal_rate);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::size_t tenants = 4;
  const auto print_header = [] {
    std::printf("%-8s %-8s %-8s %-10s %-12s %-10s %-8s %-8s %-6s %s\n", "shards", "workers",
                "cases", "wall(s)", "cases/s", "p50(s)", "retried", "failed", "util", "steal");
  };
  // A shard sweep runs one job-system worker per shard; a worker sweep holds
  // the fleet at 8 shards, so fewer workers than shards time-slice the pump
  // streams via stealing.
  const auto sweep_points = [&](const char* label, std::size_t cases, double latency,
                                bool over_workers) {
    std::vector<Point> points;
    for (const std::size_t n : over_workers
                                   ? std::vector<std::size_t>{2, 4, 8}
                                   : std::vector<std::size_t>{1, 2, 4, 8}) {
      points.push_back(run_point(over_workers ? 8 : n, cases, tenants, {},
                                 /*max_case_retries=*/1, /*engine_recovery_only=*/false,
                                 /*traced=*/false, over_workers ? n : 0, latency));
      print_point(points.back());
      emit_record(label, points.back());
    }
    return points;
  };

  // Scaling result: the kernel-latency model at 0, so every case is CPU
  // work and the sweep measures how far the shards and the job system
  // spread it over the cores. Enough cases that each point runs for a
  // measurable time.
  const std::size_t cpu_cases = quick ? 400 : 2000;
  std::printf("Engine throughput: %zu fig10 cases, %zu tenants, kernel latency 0 "
              "(CPU scaling), %zu hardware threads\n\n",
              cpu_cases, tenants, sched::JobSystem::hardware_threads());
  print_header();
  const std::vector<Point> cpu_sweep = sweep_points("cpu_sweep", cpu_cases, 0.0, false);
  std::printf("\n-- CPU worker sweep at 8 shards --\n");
  sweep_points("cpu_worker_sweep", cpu_cases, 0.0, true);
  std::printf("\nCPU scaling result (cases/s over 1 shard):");
  for (std::size_t i = 1; i < cpu_sweep.size(); ++i) {
    std::printf(" %zu shards %.2fx%s", cpu_sweep[i].shards,
                cpu_sweep.front().cases_per_second > 0.0
                    ? cpu_sweep[i].cases_per_second / cpu_sweep.front().cases_per_second
                    : 0.0,
                i + 1 < cpu_sweep.size() ? "," : "\n");
  }

  // Remote-kernel overlap: 10 ms of real sleep per kernel, so shards
  // overlap waits and the speedup can exceed the core count. Deep backlog:
  // the queue stays several cases deep per shard even at the widest sweep
  // point, so the 8-shard point measures steady-state overlap rather than
  // queue-drain tail effects.
  const std::size_t cases = quick ? 16 : 48;
  std::printf("\n-- remote-kernel overlap: %zu fig10 cases, %.0f ms kernel latency per "
              "execution, shard sweep --\n",
              cases, kKernelLatencySeconds * 1000.0);
  print_header();
  const std::vector<Point> sweep = sweep_points("sweep", cases, kKernelLatencySeconds, false);

  const double speedup = sweep.front().cases_per_second > 0.0
                             ? sweep[2].cases_per_second / sweep.front().cases_per_second
                             : 0.0;
  const double deep_speedup =
      sweep[2].cases_per_second > 0.0
          ? sweep.back().cases_per_second / sweep[2].cases_per_second
          : 0.0;
  std::printf("\n1 -> 4 shard overlap speedup: %.2fx (target >= 2x)\n", speedup);
  std::printf("4 -> 8 shard overlap speedup under backlog: %.2fx (target >= 1.15x)\n",
              deep_speedup);

  // Every case must still complete when workers < shards, and the steal
  // rate shows the rebalancing actually happening.
  std::printf("\n-- overlap worker sweep at 8 shards (workers < shards time-slice via "
              "stealing) --\n");
  bool worker_sweep_ok = true;
  for (const Point& point : sweep_points("worker_sweep", cases, kKernelLatencySeconds, true))
    worker_sweep_ok =
        worker_sweep_ok && point.metrics.completed == cases && point.metrics.failed == 0;
  std::printf("every case completed at every worker count: %s\n",
              worker_sweep_ok ? "yes" : "NO");

  std::printf("\n-- fault injection: shard 0 at 100%% dispatch failure, retries on --\n");
  const Point fault = run_point(2, quick ? 6 : 12, tenants, {1.0, 0.0},
                                /*max_case_retries=*/3, /*engine_recovery_only=*/true);
  print_point(fault);
  emit_record("fault", fault);
  const bool fault_ok = fault.metrics.failed == 0 && fault.metrics.completed == fault.cases;
  std::printf("all cases completed despite faulty shard: %s (retried %zu)\n",
              fault_ok ? "yes" : "NO", fault.metrics.retried);

  // Tracing overhead: the same 2-shard point with span tracing on. Spans
  // are emitted per activity (orders of magnitude rarer than messages), so
  // the traced run must stay within a few percent of the plain one.
  std::printf("\n-- span tracing overhead (2 shards, tracing on) --\n");
  const Point plain = run_point(2, cases, tenants, {}, 1, false, /*traced=*/false);
  const Point traced = run_point(2, cases, tenants, {}, 1, false, /*traced=*/true);
  const double overhead = plain.wall_seconds > 0.0
                              ? (traced.wall_seconds - plain.wall_seconds) /
                                    plain.wall_seconds
                              : 0.0;
  std::printf("plain %.2fs, traced %.2fs, overhead %+.1f%% (target <= 5%%)\n",
              plain.wall_seconds, traced.wall_seconds, overhead * 100.0);
  bench::JsonRecord overhead_record("bench_engine_throughput");
  overhead_record.add("config", std::string("tracing_overhead"));
  overhead_record.add("plain_wall_seconds", plain.wall_seconds);
  overhead_record.add("traced_wall_seconds", traced.wall_seconds);
  overhead_record.add("overhead_fraction", overhead);
  overhead_record.append_to("BENCH_engine.json");

  const bool scaling_ok = speedup >= 2.0 && deep_speedup >= 1.15;
  std::printf("\noverlap target holds: %s\n", scaling_ok ? "yes" : "NO");
  return (scaling_ok && fault_ok && worker_sweep_ok) ? 0 : 1;
}
