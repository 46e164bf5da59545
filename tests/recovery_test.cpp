// Durable-mode enactment engine: journaled lifecycle, cold-start recovery,
// and the determinism contract — a same-seed chaos run interrupted by a
// kill and resumed on a fresh engine must produce bitwise-identical
// per-case outcomes to an uninterrupted run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = fs::path(::testing::TempDir()) /
            ("igrid-recovery-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// The chaos soak configuration (mirrors chaos_test.cpp) plus a journal.
engine::EngineConfig durable_config(const std::string& dir, std::size_t cases,
                                    double drop, std::uint64_t seed) {
  engine::EngineConfig config;
  config.shards = 1;  // one shard = deterministic case order
  config.queue_capacity = cases + 8;
  config.seed = seed;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.heartbeat_period = 5.0;
  config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  config.environment.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  if (drop > 0.0) {
    agent::ChaosRule rule;
    rule.match.receiver = "ac-*";
    rule.drop = drop;
    rule.delay = drop / 2.0;
    config.environment.chaos.rules.push_back(rule);
    config.environment.chaos.seed = seed;
  }
  config.storage.data_dir = dir;
  config.storage.snapshot_interval = 8;  // exercise snapshots mid-run
  return config;
}

/// durable_config whose kernels each hold the shard's worker for 5 ms of
/// wall clock, so one fig10 case lasts about 60 ms. For tests whose claim
/// needs a case still queued or running when the test thread acts (cancels
/// it, or reads the counters of a restarted engine before a resumed case
/// can finish): a latency-0 case takes a few milliseconds, which a test
/// thread descheduled on a loaded host can miss entirely.
engine::EngineConfig slow_durable_config(const std::string& dir, std::size_t cases,
                                         std::uint64_t seed) {
  engine::EngineConfig config = durable_config(dir, cases, 0.0, seed);
  config.environment.kernels.execution_latency_seconds = 0.005;
  return config;
}

std::vector<engine::CaseId> submit_fleet(engine::EnactmentEngine& engine,
                                         std::size_t cases) {
  std::vector<engine::CaseId> ids;
  for (std::size_t i = 0; i < cases; ++i) {
    const double resolution = 8.0 - 0.04 * static_cast<double>(i);
    ids.push_back(engine.submit(virolab::make_fig10_process(resolution),
                                virolab::make_case_description(resolution)));
  }
  return ids;
}

/// The deterministic slice of a case outcome: everything that must be
/// bitwise-identical across a kill-and-restart. Wall-clock fields
/// (latency), placement (shard) and completion order are excluded by
/// design — they describe the host, not the enactment.
struct OutcomeSignature {
  engine::CaseState state{};
  std::uint64_t makespan_bits = 0;
  int activities_executed = 0;
  int activities_replayed = 0;
  int dispatch_failures = 0;
  int replans = 0;
  std::uint64_t goal_bits = 0;
  std::uint64_t cost_bits = 0;

  bool operator==(const OutcomeSignature& other) const {
    return std::memcmp(this, &other, sizeof(OutcomeSignature)) == 0;
  }
};

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

OutcomeSignature signature(const engine::CaseOutcome& outcome) {
  OutcomeSignature sig{};
  sig.state = outcome.state;
  sig.makespan_bits = bits(outcome.makespan);
  sig.activities_executed = outcome.activities_executed;
  sig.activities_replayed = outcome.activities_replayed;
  sig.dispatch_failures = outcome.dispatch_failures;
  sig.replans = outcome.replans;
  sig.goal_bits = bits(outcome.goal_satisfaction);
  sig.cost_bits = bits(outcome.total_cost);
  return sig;
}

std::vector<OutcomeSignature> collect_signatures(engine::EnactmentEngine& engine,
                                                 const std::vector<engine::CaseId>& ids) {
  std::vector<OutcomeSignature> signatures;
  for (const engine::CaseId id : ids) {
    const auto outcome = engine.result(id);
    EXPECT_TRUE(outcome.has_value()) << "case " << id << " not terminal";
    signatures.push_back(outcome.has_value() ? signature(*outcome) : OutcomeSignature{});
  }
  return signatures;
}

TEST(DurableEngine, InMemoryByDefault) {
  engine::EngineConfig config;
  config.shards = 1;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 2;
  engine::EnactmentEngine engine(config);
  EXPECT_FALSE(engine.durable());
  EXPECT_EQ(engine.journal(), nullptr);
}

TEST(DurableEngine, ColdStartResumesQueuedAndRunningCases) {
  TempDir dir("resume");
  const std::size_t kCases = 4;
  std::vector<engine::CaseId> ids;
  {
    engine::EnactmentEngine engine(slow_durable_config(dir.str(), kCases, 11));
    ASSERT_TRUE(engine.durable());
    ids = submit_fleet(engine, kCases);
    for (const engine::CaseId id : ids) ASSERT_NE(id, engine::kInvalidCase);
    // Kill without draining: whatever is mid-flight is abandoned, nothing
    // terminal is journaled for it.
  }
  engine::EnactmentEngine restarted(slow_durable_config(dir.str(), kCases, 11));
  const engine::EngineMetrics after_recovery = restarted.metrics();
  EXPECT_EQ(after_recovery.submitted, kCases);
  EXPECT_GE(after_recovery.recovered, 1u);
  EXPECT_EQ(after_recovery.recovered + after_recovery.completed, kCases);
  restarted.drain();
  for (const engine::CaseId id : ids)
    EXPECT_EQ(restarted.status(id), engine::CaseState::Completed) << "case " << id;
  EXPECT_EQ(restarted.metrics().completed, kCases);
}

// The acceptance bar: a chaos run killed mid-flight and cold-started on a
// fresh engine ends bitwise-identical (per-case) to the uninterrupted run.
TEST(DurableEngine, KillAndRestartReplayIsBitwiseIdenticalToUninterruptedRun) {
  const std::size_t kCases = 6;
  const double kDrop = 0.25;
  const std::uint64_t kSeed = 77;

  TempDir baseline_dir("baseline");
  std::vector<OutcomeSignature> baseline;
  {
    engine::EnactmentEngine engine(durable_config(baseline_dir.str(), kCases, kDrop, kSeed));
    const std::vector<engine::CaseId> ids = submit_fleet(engine, kCases);
    engine.drain();
    baseline = collect_signatures(engine, ids);
    // The chaos layer must actually be biting for this test to mean much.
    EXPECT_GT(engine.metrics().faults_injected, 0u);
  }

  TempDir killed_dir("killed");
  std::vector<engine::CaseId> ids;
  {
    engine::EnactmentEngine engine(durable_config(killed_dir.str(), kCases, kDrop, kSeed));
    ids = submit_fleet(engine, kCases);
    // Let part of the fleet finish, then kill mid-flight (the in-flight
    // attempt — enactment or checkpoint — is abandoned un-journaled).
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
      const engine::EngineMetrics m = engine.metrics();
      if (m.completed + m.failed + m.cancelled >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  engine::EnactmentEngine restarted(durable_config(killed_dir.str(), kCases, kDrop, kSeed));
  EXPECT_GE(restarted.metrics().recovered, 1u);
  restarted.drain();
  const std::vector<OutcomeSignature> replayed = collect_signatures(restarted, ids);

  ASSERT_EQ(replayed.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_TRUE(replayed[i] == baseline[i])
        << "case " << ids[i] << " diverged after the restart (state "
        << engine::to_string(replayed[i].state) << " vs "
        << engine::to_string(baseline[i].state) << ")";
  }
}

TEST(DurableEngine, TerminalOutcomesSurviveRestart) {
  TempDir dir("terminal");
  const std::size_t kCases = 3;
  std::vector<engine::CaseId> ids;
  std::vector<OutcomeSignature> before;
  {
    engine::EnactmentEngine engine(durable_config(dir.str(), kCases, 0.0, 5));
    ids = submit_fleet(engine, kCases);
    engine.drain();
    before = collect_signatures(engine, ids);
  }
  engine::EnactmentEngine restarted(durable_config(dir.str(), kCases, 0.0, 5));
  const engine::EngineMetrics metrics = restarted.metrics();
  EXPECT_EQ(metrics.recovered, 0u);
  EXPECT_EQ(metrics.completed, kCases);
  EXPECT_EQ(metrics.submitted, kCases);
  const std::vector<OutcomeSignature> after = collect_signatures(restarted, ids);
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_TRUE(after[i] == before[i]);
  // New submissions pick up fresh ids after the recovered ones.
  const engine::CaseId next = restarted.submit(virolab::make_fig10_process(),
                                               virolab::make_case_description());
  EXPECT_GT(next, ids.back());
  restarted.drain();
}

TEST(DurableEngine, RetryStateAndFailureSurviveRestart) {
  TempDir dir("retry");
  engine::EngineConfig config = durable_config(dir.str(), 1, 0.0, 9);
  config.max_case_retries = 1;
  config.shard_failure_floor = {1.0};  // every dispatch fails: retry, then Failed
  engine::CaseId id = engine::kInvalidCase;
  {
    engine::EnactmentEngine engine(config);
    id = engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
    const auto outcome = engine.wait(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, engine::CaseState::Failed);
    EXPECT_EQ(outcome->engine_retries, 1);
  }
  engine::EnactmentEngine restarted(config);
  EXPECT_EQ(restarted.metrics().recovered, 0u);
  EXPECT_EQ(restarted.status(id), engine::CaseState::Failed);
  const auto outcome = restarted.result(id);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->engine_retries, 1);
  EXPECT_EQ(restarted.metrics().retried, 1u);
}

TEST(DurableEngine, CancelledCaseStaysCancelledAfterRestart) {
  TempDir dir("cancel");
  const std::size_t kCases = 2;
  std::vector<engine::CaseId> ids;
  {
    engine::EnactmentEngine engine(slow_durable_config(dir.str(), kCases, 3));
    ids = submit_fleet(engine, kCases);
    // With one shard the second case sits queued behind the first for the
    // whole first enactment; cancelling it now is deterministic.
    EXPECT_TRUE(engine.cancel(ids[1]));
    engine.drain();
    EXPECT_EQ(engine.status(ids[1]), engine::CaseState::Cancelled);
  }
  engine::EnactmentEngine restarted(slow_durable_config(dir.str(), kCases, 3));
  EXPECT_EQ(restarted.status(ids[1]), engine::CaseState::Cancelled);
  EXPECT_EQ(restarted.metrics().cancelled, 1u);
  restarted.drain();
  EXPECT_EQ(restarted.status(ids[0]), engine::CaseState::Completed);
}

// A crash between writing snap-N.snap.tmp and renaming it leaves the .tmp
// on disk. The next open must discard it — the previous good snapshot stays
// authoritative — and recover every terminal outcome as if the half-written
// snapshot had never existed.
TEST(DurableEngine, StaleSnapshotTmpIsRemovedAtReopenAndPreviousSnapshotWins) {
  TempDir dir("staletmp");
  const std::size_t kCases = 2;
  std::vector<engine::CaseId> ids;
  std::vector<OutcomeSignature> before;
  {
    engine::EnactmentEngine engine(durable_config(dir.str(), kCases, 0.0, 13));
    ids = submit_fleet(engine, kCases);
    engine.drain();
    ASSERT_TRUE(engine.journal()->snapshot());  // the good, authoritative one
    before = collect_signatures(engine, ids);
  }
  // Plant the crash artifact: a half-written snapshot that never got renamed.
  const fs::path stale = fs::path(dir.str()) / "snap-9999999999999999.snap.tmp";
  std::ofstream(stale) << "half-written snapshot garbage";
  ASSERT_TRUE(fs::exists(stale));

  engine::EnactmentEngine restarted(durable_config(dir.str(), kCases, 0.0, 13));
  EXPECT_FALSE(fs::exists(stale)) << "stale .tmp survived reopen";
  const engine::EngineMetrics metrics = restarted.metrics();
  EXPECT_EQ(metrics.recovered, 0u);
  EXPECT_EQ(metrics.completed, kCases);
  const std::vector<OutcomeSignature> after = collect_signatures(restarted, ids);
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_TRUE(after[i] == before[i]);
}

TEST(DurableEngine, JournalStatsAndMetricsArePublished) {
  TempDir dir("metrics");
  engine::EnactmentEngine engine(durable_config(dir.str(), 2, 0.0, 21));
  const std::vector<engine::CaseId> ids = submit_fleet(engine, 2);
  engine.drain();
  ASSERT_NE(engine.journal(), nullptr);
  const store::StoreStats stats = engine.journal()->stats();
  // At least one Admit and one Terminal per case.
  EXPECT_GE(stats.wal.appends + stats.snapshot_lsn, 2u * ids.size());
  engine.metrics();  // refreshes the registry, including store_* series
  bool store_series_present = false;
  for (const auto& point : engine.registry().snapshot().points) {
    if (point.name.rfind("store_", 0) == 0) store_series_present = true;
  }
  EXPECT_TRUE(store_series_present);
}

}  // namespace
}  // namespace ig
