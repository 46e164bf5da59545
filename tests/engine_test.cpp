#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "engine/engine.hpp"
#include "store/fault_fs.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/structure.hpp"

namespace ig::engine {
namespace {

EngineConfig small_config(std::size_t shards) {
  EngineConfig config;
  config.shards = shards;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 2;
  return config;
}

/// small_config whose kernels each hold the shard's worker for 5 ms of wall
/// clock, so one fig10 case (12 executions) lasts about 60 ms. Tests whose
/// claim needs a case still running while the test thread submits, cancels
/// or lets another shard pull work use it: a latency-0 case takes about a
/// millisecond, and a test thread descheduled for that long on a loaded
/// host finds the race it set up already over.
EngineConfig slow_kernel_config(std::size_t shards) {
  EngineConfig config = small_config(shards);
  config.environment.kernels.execution_latency_seconds = 0.005;
  return config;
}

/// A workflow whose always-true loop guard runs the full iteration
/// guardrail: long enough that a cancel lands mid-run.
wfl::ProcessDescription long_process() {
  const wfl::FlowExpr expr = wfl::parse_flow(
      "BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; "
      "{FORK {P3DR3=P3DR} {P3DR4=P3DR} JOIN}; PSF, END");
  return wfl::lower_to_process(expr, "looper");
}

TEST(Engine, CompletesSubmittedCasesOnOneShard) {
  EnactmentEngine engine(small_config(1));
  std::vector<CaseId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
    ASSERT_NE(ids.back(), kInvalidCase);
  }
  engine.drain();
  for (const CaseId id : ids) {
    ASSERT_EQ(engine.status(id), CaseState::Completed);
    const auto outcome = engine.result(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, CaseState::Completed);
    EXPECT_DOUBLE_EQ(outcome->goal_satisfaction, 1.0);
    EXPECT_EQ(outcome->activities_executed, 12);
    EXPECT_GT(outcome->makespan, 0.0);
    EXPECT_EQ(outcome->engine_retries, 0);
  }
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.completed, 3u);
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_EQ(metrics.running, 0u);
  ASSERT_EQ(metrics.shards.size(), 1u);
  EXPECT_EQ(metrics.shards[0].cases_completed, 3u);
  EXPECT_GT(metrics.latency_p50, 0.0);
}

TEST(Engine, SpreadsCasesAcrossShards) {
  EngineConfig config = small_config(4);
  config.queue_capacity = 64;
  EnactmentEngine engine(config);
  std::vector<CaseId> ids;
  for (int i = 0; i < 12; ++i)
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
  engine.drain();
  for (const CaseId id : ids) EXPECT_EQ(engine.status(id), CaseState::Completed);

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.completed, 12u);
  std::size_t total_runs = 0;
  std::size_t shards_used = 0;
  for (const auto& shard : metrics.shards) {
    total_runs += shard.cases_run;
    if (shard.cases_run > 0) ++shards_used;
  }
  EXPECT_EQ(total_runs, 12u);
  // With 12 cases and 4 idle shards, more than one shard must have worked.
  EXPECT_GE(shards_used, 2u);
}

TEST(Engine, BackpressureRejectsWhenQueueFull) {
  EngineConfig config = small_config(1);
  config.queue_capacity = 2;
  EnactmentEngine engine(config);
  const wfl::ProcessDescription process = virolab::make_fig10_process();
  const wfl::CaseDescription case_description = virolab::make_case_description();

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 16; ++i) {
    if (engine.submit(process, case_description) == kInvalidCase) ++rejected;
    else ++accepted;
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(accepted, 2u);
  engine.drain();
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.rejected, rejected);
  EXPECT_EQ(metrics.submitted, accepted);
  EXPECT_EQ(metrics.completed, accepted);
}

TEST(Engine, RoundRobinFairnessAcrossTenants) {
  // One shard, so completion order mirrors the admission scheduler. Tenant A
  // floods first; B's first case must not wait behind all of A's backlog.
  EngineConfig config = slow_kernel_config(1);
  config.queue_capacity = 32;
  EnactmentEngine engine(config);
  const wfl::ProcessDescription process = virolab::make_fig10_process();
  const wfl::CaseDescription case_description = virolab::make_case_description();

  std::vector<CaseId> tenant_a;
  for (int i = 0; i < 4; ++i)
    tenant_a.push_back(engine.submit(process, case_description, "tenant-a"));
  const CaseId first_b = engine.submit(process, case_description, "tenant-b");
  engine.drain();

  const auto outcome_b = engine.result(first_b);
  const auto outcome_a_last = engine.result(tenant_a.back());
  ASSERT_TRUE(outcome_b.has_value());
  ASSERT_TRUE(outcome_a_last.has_value());
  EXPECT_EQ(outcome_b->state, CaseState::Completed);
  // Round-robin interleaves the tenants, so B's only case finishes before
  // A's last one even though A submitted its whole backlog first.
  EXPECT_LT(outcome_b->completion_index, outcome_a_last->completion_index);
}

TEST(Engine, CancelWhileQueuedTerminatesImmediately) {
  EngineConfig config = slow_kernel_config(1);
  EnactmentEngine engine(config);
  const wfl::ProcessDescription process = virolab::make_fig10_process();
  const wfl::CaseDescription case_description = virolab::make_case_description();

  const CaseId running = engine.submit(process, case_description);
  const CaseId queued_1 = engine.submit(process, case_description);
  const CaseId queued_2 = engine.submit(process, case_description);
  // The single shard is busy with the first case; the last one is still
  // queued and cancels synchronously.
  EXPECT_TRUE(engine.cancel(queued_2));
  const auto outcome = engine.result(queued_2);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, CaseState::Cancelled);
  EXPECT_EQ(outcome->activities_executed, 0);

  engine.drain();
  EXPECT_EQ(engine.status(running), CaseState::Completed);
  EXPECT_EQ(engine.status(queued_1), CaseState::Completed);
  EXPECT_EQ(engine.status(queued_2), CaseState::Cancelled);
  EXPECT_FALSE(engine.cancel(queued_2));  // already terminal
  EXPECT_EQ(engine.metrics().cancelled, 1u);
}

TEST(Engine, CancelWhileRunningAbandonsTheAttempt) {
  EngineConfig config = slow_kernel_config(1);
  // Small slices so the worker checks the cancel flag often, and a long
  // looping workload so there is plenty of run to interrupt.
  config.events_per_slice = 16;
  config.environment.coordination.max_loop_iterations = 2048;
  EnactmentEngine engine(config);

  const CaseId id = engine.submit(long_process(), virolab::make_case_description());
  ASSERT_NE(id, kInvalidCase);
  while (engine.status(id) == CaseState::Queued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(engine.status(id), CaseState::Running);
  EXPECT_TRUE(engine.cancel(id));

  const auto outcome = engine.wait(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, CaseState::Cancelled);
  EXPECT_EQ(engine.metrics().cancelled, 1u);

  // The shard must still be healthy for the next case.
  const CaseId next =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  const auto next_outcome = engine.wait(next);
  ASSERT_TRUE(next_outcome.has_value());
  EXPECT_EQ(next_outcome->state, CaseState::Completed);
}

TEST(Engine, RetriesFailedCasesOnAnotherShard) {
  // Shard 0 fails every dispatch; shard 1 is healthy. With the in-shard
  // recovery budgets cut to one dispatch retry (which also fails instantly
  // at a 100% floor), a case landing on shard 0 fails fast, and the
  // engine's checkpoint/restore retry must complete it on the healthy
  // shard.
  EngineConfig config = slow_kernel_config(2);
  config.shard_failure_floor = {1.0, 0.0};
  config.max_case_retries = 2;
  config.queue_capacity = 32;
  config.environment.coordination.max_retries = 1;
  config.environment.coordination.max_replans = 0;
  config.shard_setup = [](svc::Environment& environment, std::size_t) {
    for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
  };
  EnactmentEngine engine(config);

  std::vector<CaseId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
  engine.drain();

  for (const CaseId id : ids) {
    const auto outcome = engine.result(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, CaseState::Completed) << outcome->error;
    EXPECT_DOUBLE_EQ(outcome->goal_satisfaction, 1.0);
  }
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.completed, 6u);
  EXPECT_EQ(metrics.failed, 0u);
  // At least one case must have been bounced off the faulty shard.
  EXPECT_GE(metrics.retried, 1u);
  EXPECT_EQ(metrics.shards[0].cases_completed + metrics.shards[1].cases_completed, 6u);
}

/// Impostor container agent whose handler always throws — it stands in for
/// a real container, so every dispatch to it exercises the platform's
/// containment net instead of the normal execute/Inform exchange.
class PoisonedAgent : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const agent::AclMessage&) override {
    throw std::runtime_error("poisoned container");
  }
};

/// Replaces every container hosting `service` on the shard with a
/// same-named PoisonedAgent. Matchmaking ranks from the grid model, so the
/// impostors keep receiving execute requests.
void poison_service_hosts(svc::Environment& environment, const std::string& service) {
  for (const auto* container : environment.grid().containers_hosting(service)) {
    environment.platform().deregister_agent(container->id());
    environment.platform().spawn<PoisonedAgent>(container->id());
  }
}

TEST(Engine, ContainedHandlerFaultsRetryOnHealthyShard) {
  // Shard 0's P3DR containers throw from inside their message handlers —
  // mid-FORK for the fig10 workflow, whose FORK block fans out three P3DR
  // activities. The platform containment net must convert each throw into
  // a dispatch Failure so the case fails cleanly (instead of tearing down
  // the shard), and the engine's checkpoint/restore retry completes it on
  // the healthy shard while shard 1's own enactments keep running.
  EngineConfig config = slow_kernel_config(2);
  config.max_case_retries = 2;
  config.queue_capacity = 32;
  config.environment.coordination.max_retries = 1;
  config.environment.coordination.max_replans = 0;
  config.shard_setup = [](svc::Environment& environment, std::size_t shard) {
    for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
    if (shard == 0) poison_service_hosts(environment, "P3DR");
  };
  EnactmentEngine engine(config);

  std::vector<CaseId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
  engine.drain();

  for (const CaseId id : ids) {
    const auto outcome = engine.result(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, CaseState::Completed) << outcome->error;
  }
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.completed, 6u);
  EXPECT_EQ(metrics.failed, 0u);
  // The contained throws are visible in the metrics snapshot, attributed to
  // the poisoned shard.
  EXPECT_GT(metrics.handler_failures, 0u);
  EXPECT_GT(metrics.shards[0].handler_failures, 0u);
  EXPECT_EQ(metrics.shards[1].handler_failures, 0u);
}

TEST(Engine, PoisonedCaseStaysControllable) {
  // With every shard poisoned and no retry budget, the case must terminate
  // as Failed — and status/result/cancel must keep answering rather than
  // hang or throw.
  EngineConfig config = small_config(1);
  config.max_case_retries = 0;
  config.environment.coordination.max_retries = 1;
  config.environment.coordination.max_replans = 0;
  config.shard_setup = [](svc::Environment& environment, std::size_t) {
    poison_service_hosts(environment, "P3DR");
  };
  EnactmentEngine engine(config);

  const CaseId id =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  engine.drain();

  EXPECT_EQ(engine.status(id), CaseState::Failed);
  const auto outcome = engine.result(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->error.empty());
  EXPECT_FALSE(engine.cancel(id));  // terminal, but still answered
  EXPECT_GT(engine.metrics().handler_failures, 0u);
}

TEST(Engine, FailsAfterRetryBudgetExhausted) {
  // Every shard is broken: the case fails, is retried the configured number
  // of times, and then terminates as Failed with the retry count reported.
  EngineConfig config = small_config(1);
  config.shard_failure_floor = {1.0};
  config.max_case_retries = 1;
  config.environment.coordination.max_retries = 1;
  config.environment.coordination.max_replans = 0;
  EnactmentEngine engine(config);

  const CaseId id =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  const auto outcome = engine.wait(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->state, CaseState::Failed);
  EXPECT_EQ(outcome->engine_retries, 1);
  EXPECT_FALSE(outcome->error.empty());
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_EQ(metrics.retried, 1u);
}

TEST(Engine, StatusOfUnknownCaseIsRejected) {
  EnactmentEngine engine(small_config(1));
  EXPECT_EQ(engine.status(kInvalidCase), CaseState::Rejected);
  EXPECT_EQ(engine.status(9999), CaseState::Rejected);
  EXPECT_FALSE(engine.result(9999).has_value());
  EXPECT_FALSE(engine.cancel(9999));
}

TEST(Engine, ObservabilitySnapshotsRaceShardWorkersSafely) {
  // The observability read paths — metrics() (atomic platform/tracker
  // counters + registry refresh), shard_spans() (tracer mutex) — run from a
  // monitor thread while shard workers enact. Under TSan this is the proof
  // the snapshot surfaces are race-free; everywhere it checks that a tight
  // message-trace ring records its evictions in the engine snapshot.
  EngineConfig config = small_config(2);
  config.queue_capacity = 32;
  config.environment.tracing = true;
  config.environment.trace_limit = 32;  // fig10 traffic overflows this fast
  config.environment.span_tracing = true;
  EnactmentEngine engine(config);

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load()) {
      const EngineMetrics metrics = engine.metrics();
      (void)metrics;
      for (std::size_t shard = 0; shard < 2; ++shard) (void)engine.shard_spans(shard);
      (void)engine.registry().snapshot();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<CaseId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
  engine.drain();
  done.store(true);
  monitor.join();

  std::size_t busy_shard = 0;
  for (const CaseId id : ids) {
    const auto outcome = engine.result(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, CaseState::Completed) << outcome->error;
    busy_shard = outcome->shard;
  }
  // Shards pull cases from one queue, so which shard ran them is timing:
  // one shard may finish all six before the other's pump is scheduled.
  // Check the shard that ran the last case.
  const EngineMetrics metrics = engine.metrics();
  EXPECT_GT(metrics.shards[busy_shard].trace_dropped, 0u);
  // The shard emitted spans and they survive into the engine-level view.
  EXPECT_FALSE(engine.shard_spans(busy_shard).empty());
  EXPECT_TRUE(engine.shard_spans(99).empty());  // out of range, not a crash
}

/// Value of an unlabelled registry counter, or -1 when it is not registered.
double registry_value(const EnactmentEngine& engine, const std::string& name) {
  const obs::RegistrySnapshot snapshot = engine.registry().snapshot();
  const obs::MetricPoint* point = snapshot.find(name);
  return point != nullptr ? point->value : -1.0;
}

TEST(Engine, RegistryCaseCountersAreCurrentWithoutAMetricsCall) {
  EnactmentEngine engine(small_config(1));
  for (int i = 0; i < 2; ++i)
    ASSERT_NE(engine.submit(virolab::make_fig10_process(), virolab::make_case_description()),
              kInvalidCase);
  engine.drain();
  // Read the registry first: a scrape must not depend on metrics() having
  // refreshed anything.
  const double submitted = registry_value(engine, "engine_cases_submitted_total");
  const double completed = registry_value(engine, "engine_cases_completed_total");
  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.submitted, 2u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(submitted, static_cast<double>(metrics.submitted));
  EXPECT_EQ(completed, static_cast<double>(metrics.completed));
}

/// Value of one labelled series in a snapshot, or -1 when it is absent.
double point_value(const obs::RegistrySnapshot& snapshot, const std::string& name,
                   const obs::Labels& labels) {
  const obs::MetricPoint* point = snapshot.find(name, labels);
  return point != nullptr ? point->value : -1.0;
}

TEST(Engine, RegistryShardCountersAreCurrentWithoutAMetricsCall) {
  // A durable, wire-on, chaos-on shard: every component that counts (the
  // platform and its chaos layer, the wire link, the request trackers, the
  // job system, the journal) counts in the engine's registry in place, so a
  // scrape sees each series current with no metrics() call at all.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("igrid-engine-scrape-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  EngineConfig config = slow_kernel_config(1);  // the mid-run scrape finds a case running
  config.storage.data_dir = dir.string();
  config.environment.wire_transport = true;
  config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  config.environment.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";
  rule.drop = 0.2;
  rule.delay = 0.1;
  config.environment.chaos.rules.push_back(rule);
  config.environment.chaos.seed = 2004;
  svc::Environment* environment = nullptr;
  config.shard_setup = [&](svc::Environment& shard, std::size_t) { environment = &shard; };
  {
    EnactmentEngine engine(config);
    ASSERT_NE(environment, nullptr);
    std::vector<CaseId> ids;
    for (int i = 0; i < 4; ++i)
      ids.push_back(
          engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
    ASSERT_NE(ids.front(), kInvalidCase);

    const obs::Labels shard{{"shard", "0"}};
    const auto with = [](obs::Labels labels, const char* key, const char* value) {
      labels.emplace_back(key, value);
      return labels;
    };
    struct Series {
      std::string name;
      obs::Labels labels;
      std::function<std::uint64_t()> owner;  ///< the owner's own accessor
    };
    const svc::Environment& stack = *environment;
    std::vector<Series> series = {
        {"platform_messages_delivered_total", shard,
         [&] { return environment->platform().messages_delivered(); }},
        {"wire_frames_total", shard, [&] { return stack.wire_link()->stats().frames; }},
        {"tracker_retries_total", with(shard, "owner", "coordination"),
         [&] { return environment->coordination().tracker().retries_total(); }},
        {"tracker_retries_total", with(shard, "owner", "planning"),
         [&] { return environment->planning().tracker().retries_total(); }},
        {"store_wal_appends_total", {{"component", "engine-journal"}},
         [&] { return engine.journal()->stats().wal.appends; }},
    };
    const auto chaos = [&](const char* kind, std::size_t agent::ChaosStats::*field) {
      series.push_back({"chaos_faults_total", with(shard, "kind", kind),
                        [&, field] { return environment->platform().chaos_stats().*field; }});
    };
    chaos("dropped", &agent::ChaosStats::dropped);
    chaos("delayed", &agent::ChaosStats::delayed);
    chaos("duplicated", &agent::ChaosStats::duplicated);
    chaos("reordered", &agent::ChaosStats::reordered);
    chaos("crashed", &agent::ChaosStats::crashed);
    chaos("hung", &agent::ChaosStats::hung);
    chaos("swallowed", &agent::ChaosStats::swallowed);

    // Mid-run: every series is there, and none is ahead of its owner.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.status(ids.front()) != CaseState::Running &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    const obs::RegistrySnapshot running = engine.registry().snapshot();
    for (const Series& s : series) {
      const double scraped = point_value(running, s.name, s.labels);
      EXPECT_GE(scraped, 0.0) << s.name << " missing mid-run";
      EXPECT_LE(scraped, static_cast<double>(s.owner())) << s.name;
    }
    EXPECT_GE(point_value(running, "sched_jobs_executed_total", {}), 0.0);

    // After the drain (and the pump jobs' tail), each equals its owner.
    engine.drain();
    engine.shutdown();
    const obs::RegistrySnapshot drained = engine.registry().snapshot();
    for (const Series& s : series)
      EXPECT_EQ(point_value(drained, s.name, s.labels), static_cast<double>(s.owner()))
          << s.name;
    EXPECT_GT(point_value(drained, "platform_messages_delivered_total", shard), 0.0);
    EXPECT_GT(point_value(drained, "wire_frames_total", shard), 0.0);
    EXPECT_GT(point_value(drained, "store_wal_appends_total", {{"component", "engine-journal"}}),
              0.0);
    EXPECT_GT(environment->platform().chaos_stats().total_injected(), 0u);
    const double executed = point_value(drained, "sched_jobs_executed_total", {});
    const EngineMetrics metrics = engine.metrics();  // the first call, after both scrapes
    EXPECT_GT(executed, 0.0);
    EXPECT_EQ(executed, static_cast<double>(metrics.jobs_executed));
    EXPECT_EQ(metrics.completed + metrics.failed, ids.size());
  }
  fs::remove_all(dir);
}

TEST(Engine, FailedDurableCommitCountsOneRejectionAndNoSubmission) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("igrid-engine-commit-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  EngineConfig config = small_config(1);
  config.storage.data_dir = dir.string();
  {
    // One case journaled on a healthy disk; the reopen below recovers it.
    EnactmentEngine engine(config);
    ASSERT_NE(engine.submit(virolab::make_fig10_process(), virolab::make_case_description()),
              kInvalidCase);
    engine.drain();
  }
  // Every durability barrier now fails, so the next admit never commits.
  store::FaultRule msync_fails;
  msync_fails.match.op = store::FileOp::kMsync;
  msync_fails.fsync_error = 1.0;
  store::FaultFsOptions fault_options;
  fault_options.rules.push_back(msync_fails);
  store::FaultFs faults(fault_options);
  config.storage.file_ops = &faults;
  {
    EnactmentEngine engine(config);
    EXPECT_EQ(registry_value(engine, "engine_cases_submitted_total"), 1.0);
    EXPECT_EQ(engine.submit(virolab::make_fig10_process(), virolab::make_case_description()),
              kInvalidCase);
    EXPECT_EQ(registry_value(engine, "engine_cases_submitted_total"), 1.0);
    EXPECT_EQ(registry_value(engine, "engine_cases_rejected_total"), 1.0);
    EXPECT_EQ(registry_value(engine, "store_io_errors_total"), 1.0);
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.submitted, 1u);
    EXPECT_EQ(metrics.rejected, 1u);
    EXPECT_TRUE(metrics.degraded);
  }
  fs::remove_all(dir);
}

/// Real file I/O whose first durability barrier (an MS_SYNC msync) after
/// `arm()` starts `hook` on a second thread, gives it a head start, and then
/// fails with EIO (or, with `fail` false, syncs as usual). The barrier runs
/// under the journal's append lock, so a hook that appends blocks until the
/// barrier returns; the head start lets it take the engine mutex first.
class BarrierHookFs final : public store::FileOps {
 public:
  BarrierHookFs(std::function<void()> hook, bool fail) : hook_(std::move(hook)), fail_(fail) {}
  ~BarrierHookFs() override { join(); }

  void arm() { armed_.store(true); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

  int open(const std::string& path, int flags, int mode) override {
    return inner_.open(path, flags, mode);
  }
  int close(int fd) override { return inner_.close(fd); }
  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override {
    return inner_.pread(fd, buf, count, offset);
  }
  ssize_t pwrite(int fd, const void* buf, std::size_t count, off_t offset) override {
    return inner_.pwrite(fd, buf, count, offset);
  }
  int fsync(int fd) override { return inner_.fsync(fd); }
  int ftruncate(int fd, off_t length) override { return inner_.ftruncate(fd, length); }
  off_t size(int fd) override { return inner_.size(fd); }
  void* mmap(int fd, std::size_t length) override { return inner_.mmap(fd, length); }
  int msync(void* addr, std::size_t length, bool sync) override {
    if (!sync || !armed_.exchange(false)) return inner_.msync(addr, length, sync);
    thread_ = std::thread(hook_);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (!fail_) return inner_.msync(addr, length, sync);
    errno = EIO;
    return -1;
  }
  int munmap(void* addr, std::size_t length) override { return inner_.munmap(addr, length); }
  int rename(const std::string& from, const std::string& to) override {
    return inner_.rename(from, to);
  }
  int unlink(const std::string& path) override { return inner_.unlink(path); }
  int mkdir(const std::string& path, int mode) override { return inner_.mkdir(path, mode); }

 private:
  store::FileOps& inner_ = store::posix_file_ops();
  std::function<void()> hook_;
  bool fail_;
  std::atomic<bool> armed_{false};
  std::thread thread_;
};

TEST(Engine, CancelRacingAFailedDurableAdmitLeavesNoTrace) {
  // submit_xml creates the record and releases the engine mutex before the
  // admit commits. A cancel in that window must not finalize the record:
  // the commit then fails, the id is never acked, and a never-acked
  // submission counts only as a rejection, with no retained outcome.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("igrid-engine-cancel-admit-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  EngineConfig config = small_config(1);
  config.storage.data_dir = dir.string();
  std::atomic<bool> cancelled{false};
  EnactmentEngine* target = nullptr;
  BarrierHookFs fops([&] { cancelled.store(target->cancel(1)); }, /*fail=*/true);
  config.storage.file_ops = &fops;
  {
    EnactmentEngine engine(config);
    target = &engine;
    fops.arm();
    EXPECT_EQ(engine.submit(virolab::make_fig10_process(), virolab::make_case_description()),
              kInvalidCase);
    fops.join();
    EXPECT_TRUE(cancelled.load()) << "the cancel missed the uncommitted-admit window";
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.submitted, 0u);
    EXPECT_EQ(metrics.rejected, 1u);
    EXPECT_EQ(metrics.cancelled, 0u);
    EXPECT_EQ(metrics.cases_retained, 0u);
    EXPECT_TRUE(metrics.degraded);
    EXPECT_EQ(engine.status(1), CaseState::Rejected);
    EXPECT_EQ(registry_value(engine, "engine_illegal_transitions_total"), 0.0);
  }
  fs::remove_all(dir);
}

TEST(Engine, CancelRacingADurableAdmitEndsCancelledOnceAcked) {
  // The same window with a barrier that succeeds: the case is acked, and
  // the cancel that landed before the ack takes it straight to Cancelled,
  // journaled so a restart reads it back.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("igrid-engine-cancel-acked-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  EngineConfig config = small_config(1);
  config.storage.data_dir = dir.string();
  std::atomic<bool> cancelled{false};
  EnactmentEngine* target = nullptr;
  BarrierHookFs fops([&] { cancelled.store(target->cancel(1)); }, /*fail=*/false);
  config.storage.file_ops = &fops;
  {
    EnactmentEngine engine(config);
    target = &engine;
    fops.arm();
    EXPECT_EQ(engine.submit(virolab::make_fig10_process(), virolab::make_case_description()),
              1u);
    fops.join();
    EXPECT_TRUE(cancelled.load()) << "the cancel missed the uncommitted-admit window";
    engine.drain();
    const auto outcome = engine.result(1);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, CaseState::Cancelled);
    EXPECT_EQ(outcome->error, "cancelled while queued");
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.submitted, 1u);
    EXPECT_EQ(metrics.cancelled, 1u);
    EXPECT_EQ(metrics.completed, 0u);
    EXPECT_EQ(metrics.shards[0].cases_run, 0u);
  }
  config.storage.file_ops = nullptr;
  {
    EnactmentEngine restarted(config);
    EXPECT_EQ(restarted.status(1), CaseState::Cancelled);
    EXPECT_EQ(restarted.metrics().recovered, 0u);
  }
  fs::remove_all(dir);
}

TEST(Engine, ShutdownIsIdempotentAndStopsWorkers) {
  auto engine = std::make_unique<EnactmentEngine>(small_config(2));
  const CaseId id =
      engine->submit(virolab::make_fig10_process(), virolab::make_case_description());
  engine->wait(id);
  engine->shutdown();
  engine->shutdown();
  // Submissions after shutdown are rejected.
  EXPECT_EQ(engine->submit(virolab::make_fig10_process(), virolab::make_case_description()),
            kInvalidCase);
  engine.reset();  // destructor after explicit shutdown must be safe
}

TEST(Engine, SubmitRacingShutdownIsSafe) {
  // Regression: submit posts its pump jobs after releasing the engine
  // mutex. A concurrent shutdown() used to reset the job system inside
  // that window, so the racing post dereferenced null (or joined against a
  // pump blocked on the engine mutex). The pool now lives until the engine
  // is destroyed and a late pump just observes stopping_ and no-ops.
  for (int round = 0; round < 5; ++round) {
    EnactmentEngine engine(small_config(2));
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> submits{0};
    std::thread submitter([&] {
      while (!stop.load()) {
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
        submits.fetch_add(1);
      }
    });
    // The final metrics check needs at least one submit to have landed; on a
    // loaded machine the 2 ms window alone doesn't guarantee the submitter
    // thread was ever scheduled.
    while (submits.load() == 0) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    engine.shutdown();
    stop.store(true);
    submitter.join();
    // The engine must still answer queries consistently after the race.
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.running, 0u);
    EXPECT_GE(metrics.submitted + metrics.rejected, 1u);
  }
}

}  // namespace
}  // namespace ig::engine
