// Engine soak — an open-loop stream of cases through a durable,
// chaos-enabled engine, checked to run in bounded memory.
//
// Cases arrive as a Poisson process at 100 per second, whether or not
// the engine keeps up (open loop: a slow engine shows up as latency, and as
// rejections once the admission queue is full, never as a slower arrival
// rate). One shard journals every lifecycle transition, and the chaos
// layer drops and delays container-bound messages. The engine keeps only
// 4096 terminal outcomes, so after warm-up its memory must stay
// flat however many cases pass through.
//
// Each case is timed from when it was *due*, not from when the submitter
// got round to it: due -> submit call, plus the engine's own submit ->
// terminal latency. Those samples land in the engine registry's
// `soak_due_latency_seconds` histogram, next to the engine's
// `engine_case_latency_seconds`. Every 10k cases the bench prints VmRSS.
//
// Exits nonzero when the peak VmRSS after warm-up (the first quarter of
// the cases) exceeds the warm-up's own peak by more than 8 MB
// (peaks on both sides, so the mapped-WAL sawtooth between snapshots
// cancels and what remains is growth), when an admitted case never
// reaches a terminal state, when fewer than 95% of the admitted cases complete, or
// when the journal degrades. Appends one JSON Lines record to
// BENCH_engine_soak.json.
//
//   bench_engine_soak [--cases N]
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "engine/engine.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"

using namespace ig;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kRate = 100.0;  ///< mean arrivals per second
/// Above the admission queue's capacity, so a retried case that finishes
/// a full queue later than its successors is still retained when the
/// in-order waiter reaches it.
constexpr std::size_t kRetained = 4096;
/// Allowed growth of the post-warm-up VmRSS peak over the warm-up peak.
constexpr double kRssBoundMb = 8.0;
constexpr std::uint64_t kSeed = 2004;

/// A kB field of /proc/self/status ("VmRSS", "RssFile") in MB; 0 when
/// unavailable.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string key = field + ":";
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0)
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
  }
  return 0.0;
}

double rss_mb() { return status_mb("VmRSS"); }

/// Parses `[--cases N]`; 0 on a bad command line.
std::size_t parse_cases(int argc, char** argv) {
  std::size_t cases = 20000;
  if (argc == 3 && std::string(argv[1]) == "--cases")
    cases = std::strtoull(argv[2], nullptr, 10);
  else if (argc != 1)
    cases = 0;
  if (cases == 0) std::fprintf(stderr, "usage: %s [--cases N] (N > 0)\n", argv[0]);
  return cases;
}

engine::EngineConfig soak_config(const std::string& data_dir) {
  engine::EngineConfig config;
  config.shards = 1;
  config.seed = kSeed;
  // A saturated open loop fills the queue; keep what that costs (queued
  // inputs, and snapshots that carry them) small next to the RSS bound.
  config.queue_capacity = 256;
  config.max_case_retries = 1;
  config.retained_outcomes = kRetained;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.heartbeat_period = 5.0;
  // Under chaos the request layer is the recovery path: re-send within a
  // makespan instead of the honest-transport defaults.
  config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  config.environment.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";  // everything bound for a container
  rule.drop = 0.05;
  rule.delay = 0.025;
  config.environment.chaos.rules.push_back(rule);
  config.environment.chaos.seed = kSeed;
  config.storage.data_dir = data_dir;
  // The mapped WAL between two snapshots is resident too; a snapshot every
  // 1024 records (about 500 cases) keeps that window to a few MB.
  config.storage.snapshot_interval = 1024;
  return config;
}

/// A case handed from the submitter to the waiter.
struct Pending {
  engine::CaseId id = engine::kInvalidCase;
  double lag = 0.0;  ///< seconds from the case's due time to its submit call
};

/// Submitted-but-unobserved cases, in submission order. Bounded by what the
/// engine holds in flight, not by the run length.
class Handoff {
 public:
  void push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(pending);
    }
    ready_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
  }
  std::optional<Pending> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    Pending pending = queue_.front();
    queue_.pop_front();
    return pending;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Pending> queue_;
  bool closed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cases = parse_cases(argc, argv);
  if (cases == 0) return 2;
  const std::size_t warmup = cases / 4;

  // A pool of distinct cases, serialized once. Targets stay at or above
  // 5.6 A: the synthetic kernels floor at 5.5 A, below which the
  // resolution loop never converges.
  constexpr std::size_t kPool = 64;
  std::vector<std::pair<std::string, std::string>> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const double resolution = 5.6 + 2.4 * static_cast<double>(i) / (kPool - 1);
    pool.emplace_back(wfl::process_to_xml_string(virolab::make_fig10_process(resolution)),
                      wfl::case_to_xml_string(virolab::make_case_description(resolution)));
  }

  const std::filesystem::path data_dir = std::filesystem::temp_directory_path() /
                                         ("igrid-soak-" + std::to_string(::getpid()));
  std::filesystem::remove_all(data_dir);

  std::printf("Engine soak: %zu cases, Poisson arrivals at %.0f/s, durable, 5%% drop, "
              "%zu outcomes retained\n",
              cases, kRate, kRetained);
  bool pass = true;
  {
    engine::EnactmentEngine engine(soak_config(data_dir.string()));
    obs::Histogram& due_latency = engine.registry().histogram(
        "soak_due_latency_seconds", obs::default_latency_buckets(), {}, 65536);

    Handoff handoff;
    std::size_t unobserved = 0;  ///< outcomes evicted before the waiter read them
    std::thread waiter([&] {
      while (std::optional<Pending> pending = handoff.pop()) {
        const std::optional<engine::CaseOutcome> outcome = engine.wait(pending->id);
        if (!outcome.has_value()) {
          ++unobserved;
          continue;
        }
        due_latency.observe(pending->lag + outcome->latency_seconds);
      }
    });

    std::mt19937_64 rng(kSeed);
    std::exponential_distribution<double> gap(kRate);
    std::size_t rejected = 0;
    double rss_warm = 0.0;  ///< peak VmRSS during warm-up
    double rss_peak = 0.0;  ///< peak VmRSS after it
    const Clock::time_point start = Clock::now();
    Clock::time_point due = start;
    for (std::size_t i = 0; i < cases; ++i) {
      due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap(rng)));
      std::this_thread::sleep_until(due);
      const auto& [process_xml, case_xml] = pool[i % kPool];
      const Clock::time_point submitted = Clock::now();
      const engine::CaseId id = engine.submit_xml(process_xml, case_xml);
      if (id == engine::kInvalidCase) ++rejected;
      else handoff.push({id, std::chrono::duration<double>(submitted - due).count()});

      const std::size_t done = i + 1;
      if (done % 100 == 0) {
        double& peak = done <= warmup ? rss_warm : rss_peak;
        peak = std::max(peak, rss_mb());
      }
      if (done % 10000 == 0 || done == cases) {
        const engine::EngineMetrics metrics = engine.metrics();
        std::printf("  %7zu cases: VmRSS %.1f MB (%.1f MB mapped journal and binary), "
                    "%zu queued, %zu retained, %zu evicted\n",
                    done, rss_mb(), status_mb("RssFile"), metrics.queue_depth,
                    metrics.cases_retained,
                    metrics.cases_evicted);
        std::fflush(stdout);
      }
    }
    engine.drain();
    rss_peak = std::max(rss_peak, rss_mb());
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    handoff.close();
    waiter.join();

    const engine::EngineMetrics metrics = engine.metrics();
    const std::size_t terminal = metrics.completed + metrics.failed + metrics.cancelled;
    const obs::HistogramSnapshot due_hist = due_latency.snapshot();
    const obs::HistogramSnapshot engine_hist =
        engine.registry().histogram("engine_case_latency_seconds", {}).snapshot();
    const std::vector<double> qs = {50.0, 99.0, 99.9};
    const std::vector<double> due_q =
        due_hist.count > 0 ? due_hist.quantiles(qs) : std::vector<double>(3, 0.0);
    const std::vector<double> engine_q =
        engine_hist.count > 0 ? engine_hist.quantiles(qs) : std::vector<double>(3, 0.0);
    const double growth = rss_peak - rss_warm;
    const double completed_frac =
        metrics.submitted > 0
            ? static_cast<double>(metrics.completed) / static_cast<double>(metrics.submitted)
            : 0.0;

    std::printf("admitted %zu, rejected %zu, completed %zu, failed %zu; %.1f cases/s over "
                "%.1f s; %zu chaos faults, %zu request retries\n",
                metrics.submitted, rejected, metrics.completed, metrics.failed,
                static_cast<double>(terminal) / wall, wall, metrics.faults_injected,
                metrics.request_retries);
    std::printf("due -> terminal: p50 %.2f ms, p99 %.2f ms, p999 %.2f ms (%zu unobserved)\n",
                due_q[0] * 1e3, due_q[1] * 1e3, due_q[2] * 1e3, unobserved);
    std::printf("submit -> terminal (engine): p50 %.2f ms, p99 %.2f ms, p999 %.2f ms\n",
                engine_q[0] * 1e3, engine_q[1] * 1e3, engine_q[2] * 1e3);
    std::printf("VmRSS peak during warm-up (%zu cases) %.1f MB, after it %.1f MB: growth "
                "%.1f MB (bound %.1f MB)\n",
                warmup, rss_warm, rss_peak, growth, kRssBoundMb);

    const bool bounded = growth <= kRssBoundMb;
    const bool accounted = terminal == metrics.submitted;
    const bool healthy = completed_frac >= 0.95 && !metrics.degraded;
    std::printf("memory bounded: %s; every admitted case terminal: %s; >= 95%% completed "
                "and journal healthy: %s\n",
                bounded ? "yes" : "NO", accounted ? "yes" : "NO", healthy ? "yes" : "NO");
    pass = bounded && accounted && healthy;

    bench::JsonRecord record("bench_engine_soak");
    record.add("cases", cases);
    record.add("rate", kRate);
    record.add("retained", kRetained);
    record.add("admitted", metrics.submitted);
    record.add("rejected", rejected);
    record.add("completed", metrics.completed);
    record.add("failed", metrics.failed);
    record.add("cases_per_s", static_cast<double>(terminal) / wall);
    record.add("due_p50_s", due_q[0]);
    record.add("due_p99_s", due_q[1]);
    record.add("due_p999_s", due_q[2]);
    record.add("rss_warm_mb", rss_warm);
    record.add("rss_peak_mb", rss_peak);
    record.add("rss_growth_mb", growth);
    record.append_to("BENCH_engine_soak.json");
  }
  std::filesystem::remove_all(data_dir);
  std::printf("pass: %s\n", pass ? "yes" : "no");
  return pass ? 0 : 1;
}
