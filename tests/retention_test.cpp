// Bounded-memory engine: a finished case releases its enactment on the
// shard's coordinator, and its engine record shrinks to its outcome, kept
// up to EngineConfig::retained_outcomes; older ids report Evicted, in
// memory and across a durable restart.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "store/codec.hpp"
#include "store/storage_engine.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/structure.hpp"
#include "wfl/xml_io.hpp"

namespace ig::engine {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = fs::path(::testing::TempDir()) /
            ("igrid-retention-" + tag + "-" + std::to_string(::getpid()) + "-" +
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

EngineConfig small_config(std::size_t shards) {
  EngineConfig config;
  config.shards = shards;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 2;
  return config;
}

/// Impostor container whose handler always throws, so every dispatch to it
/// fails through the platform's containment net.
class PoisonedAgent : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const agent::AclMessage&) override {
    throw std::runtime_error("poisoned container");
  }
};

void poison_service_hosts(svc::Environment& environment, const std::string& service) {
  for (const auto* container : environment.grid().containers_hosting(service)) {
    environment.platform().deregister_agent(container->id());
    environment.platform().spawn<PoisonedAgent>(container->id());
  }
}

/// A loop of P3DR passes that never touches POR, so it runs on either shard
/// of the test below and lasts long enough to be cancelled mid-run.
wfl::ProcessDescription looping_process() {
  const wfl::FlowExpr expr = wfl::parse_flow(
      "BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; "
      "{FORK {P3DR3=P3DR} {P3DR4=P3DR} JOIN}; PSF, END");
  return wfl::lower_to_process(expr, "looper");
}

double registry_value(const EnactmentEngine& engine, const std::string& name) {
  const obs::RegistrySnapshot snapshot = engine.registry().snapshot();
  const obs::MetricPoint* point = snapshot.find(name);
  return point != nullptr ? point->value : -1.0;
}

TEST(EngineRetention, DrainedShardsHoldNoFinishedEnactments) {
  // Shard 0's POR hosts throw, so a fig10 case there fails after POD and
  // P3DR1 completed; the checkpointed retry on shard 1 replays them. Each
  // kernel holds the worker 5 ms, so cases outlast the test thread's calls.
  EngineConfig config = small_config(2);
  config.environment.kernels.execution_latency_seconds = 0.005;
  config.events_per_slice = 16;
  config.max_case_retries = 2;
  config.queue_capacity = 32;
  config.environment.coordination.max_retries = 1;
  config.environment.coordination.max_replans = 0;
  config.environment.coordination.max_loop_iterations = 128;
  std::vector<svc::Environment*> environments(config.shards, nullptr);
  config.shard_setup = [&environments](svc::Environment& environment, std::size_t shard) {
    environments[shard] = &environment;
    for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
    if (shard == 0) poison_service_hosts(environment, "POR");
  };
  EnactmentEngine engine(config);

  // Cancel while running.
  const CaseId looper = engine.submit(looping_process(), virolab::make_case_description());
  ASSERT_NE(looper, kInvalidCase);
  while (engine.status(looper) == CaseState::Queued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(engine.cancel(looper));
  const auto looper_outcome = engine.wait(looper);
  ASSERT_TRUE(looper_outcome.has_value());
  EXPECT_EQ(looper_outcome->state, CaseState::Cancelled);

  // Successes, checkpointed retries, and a cancel while queued behind them.
  std::vector<CaseId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
  const CaseId queued =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_NE(queued, kInvalidCase);
  EXPECT_TRUE(engine.cancel(queued));
  engine.drain();

  int replayed = 0;
  for (const CaseId id : ids) {
    const auto outcome = engine.result(id);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_EQ(outcome->state, CaseState::Completed) << outcome->error;
    replayed += outcome->activities_replayed;
  }
  EXPECT_GT(replayed, 0) << "no case was retried from a checkpoint";
  EXPECT_EQ(engine.status(queued), CaseState::Cancelled);
  EXPECT_GE(engine.metrics().retried, 1u);
  for (std::size_t shard = 0; shard < environments.size(); ++shard) {
    ASSERT_NE(environments[shard], nullptr);
    EXPECT_EQ(environments[shard]->coordination().finished_enactment_count(), 0u)
        << "shard " << shard;
  }
  EXPECT_EQ(engine.metrics().cases_retained, ids.size() + 2);
  EXPECT_EQ(engine.metrics().cases_evicted, 0u);
}

TEST(EngineRetention, OutcomesPastTheHorizonReportEvicted) {
  EngineConfig config = small_config(1);
  config.retained_outcomes = 4;
  config.queue_capacity = 32;
  EnactmentEngine engine(config);
  std::vector<CaseId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
    ASSERT_NE(ids.back(), kInvalidCase);
  }
  engine.drain();

  // Registry first: both instruments must be current without metrics().
  EXPECT_EQ(registry_value(engine, "engine_cases_retained"), 4.0);
  EXPECT_EQ(registry_value(engine, "engine_cases_evicted_total"), 16.0);

  // One shard finishes cases in submission order, so the first 16 are gone.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const CaseId id = ids[i];
    if (i < 16) {
      EXPECT_EQ(engine.status(id), CaseState::Evicted) << "case " << id;
      EXPECT_FALSE(engine.result(id).has_value());
      EXPECT_FALSE(engine.wait(id).has_value());  // returns at once
      EXPECT_FALSE(engine.cancel(id));
    } else {
      EXPECT_EQ(engine.status(id), CaseState::Completed) << "case " << id;
      const auto outcome = engine.wait(id);
      ASSERT_TRUE(outcome.has_value());
      EXPECT_EQ(outcome->completion_index, i + 1);
    }
  }
  // Never-allocated ids are still Rejected, not Evicted.
  EXPECT_EQ(engine.status(kInvalidCase), CaseState::Rejected);
  EXPECT_EQ(engine.status(9999), CaseState::Rejected);
  EXPECT_EQ(to_string(CaseState::Evicted), "Evicted");

  const EngineMetrics metrics = engine.metrics();
  EXPECT_EQ(metrics.completed, 20u);
  EXPECT_EQ(metrics.cases_retained, 4u);
  EXPECT_EQ(metrics.cases_evicted, 16u);
}

TEST(EngineRetention, ZeroHorizonStillKeepsTheNewestOutcome) {
  EngineConfig config = small_config(1);
  config.retained_outcomes = 0;
  EnactmentEngine engine(config);
  const CaseId first =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_TRUE(engine.wait(first).has_value());
  const CaseId second =
      engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
  engine.drain();
  EXPECT_EQ(engine.status(first), CaseState::Evicted);
  EXPECT_EQ(engine.status(second), CaseState::Completed);
  EXPECT_EQ(engine.metrics().cases_retained, 1u);
}

TEST(EngineRetention, AbandonedConversationsLeaveNoRepliesBehind) {
  // A cancelled looper keeps running on the shard's simulation until the
  // next attempt drains it, and its completion reply then reaches the
  // engine client for a conversation nobody will take.
  EngineConfig config = small_config(1);
  config.environment.kernels.execution_latency_seconds = 0.005;
  config.events_per_slice = 16;
  config.environment.coordination.max_loop_iterations = 128;
  EnactmentEngine engine(config);

  for (int round = 0; round < 2; ++round) {
    const CaseId looper = engine.submit(looping_process(), virolab::make_case_description());
    ASSERT_NE(looper, kInvalidCase);
    while (engine.status(looper) == CaseState::Queued)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(engine.cancel(looper));
    const auto cancelled = engine.wait(looper);
    ASSERT_TRUE(cancelled.has_value());
    EXPECT_EQ(cancelled->state, CaseState::Cancelled);
    EXPECT_EQ(cancelled->error, "cancelled while running");

    const CaseId next =
        engine.submit(virolab::make_fig10_process(), virolab::make_case_description());
    const auto completed = engine.wait(next);
    ASSERT_TRUE(completed.has_value());
    EXPECT_EQ(completed->state, CaseState::Completed);
    engine.drain();
    // The next attempt dropped the looper's late reply when it began.
    EXPECT_EQ(engine.metrics().shards[0].stale_replies, 0u) << "round " << round;
  }
}

// -- durable mode ----------------------------------------------------------------

EngineConfig durable_config(const std::string& dir) {
  EngineConfig config = small_config(1);
  config.queue_capacity = 32;
  config.retained_outcomes = 4;
  config.storage.data_dir = dir;
  config.storage.snapshot_interval = 8;  // snapshots (and evictions in them) mid-run
  return config;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

void expect_same_outcome(const CaseOutcome& a, const CaseOutcome& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(a.activities_executed, b.activities_executed);
  EXPECT_EQ(a.activities_replayed, b.activities_replayed);
  EXPECT_EQ(a.dispatch_failures, b.dispatch_failures);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.engine_retries, b.engine_retries);
  EXPECT_EQ(bits(a.goal_satisfaction), bits(b.goal_satisfaction));
  EXPECT_EQ(bits(a.total_cost), bits(b.total_cost));
  EXPECT_EQ(bits(a.latency_seconds), bits(b.latency_seconds));
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.completion_index, b.completion_index);
}

TEST(DurableEngineRetention, EvictedIdsStayEvictedAcrossRestarts) {
  TempDir dir("evict");
  const EngineConfig config = durable_config(dir.str());
  std::vector<CaseId> ids;
  std::vector<CaseOutcome> outcomes;  ///< as first reported, indexed like ids

  const auto run_cases = [&](EnactmentEngine& engine, int cases) {
    const std::size_t first = ids.size();
    for (int i = 0; i < cases; ++i) {
      ids.push_back(
          engine.submit(virolab::make_fig10_process(), virolab::make_case_description()));
      ASSERT_NE(ids.back(), kInvalidCase);
    }
    engine.drain();
    for (std::size_t i = first; i < ids.size(); ++i) {
      // Read at once: a later case would evict it.
      const auto outcome = engine.result(ids[i]);
      outcomes.push_back(outcome.value_or(CaseOutcome{}));
    }
  };
  // Every id but the newest four is Evicted; those four come back bitwise.
  const auto check = [&](EnactmentEngine& engine) {
    const std::size_t retained_from = ids.size() - 4;
    for (std::size_t i = 0; i < retained_from; ++i)
      EXPECT_EQ(engine.status(ids[i]), CaseState::Evicted) << "case " << ids[i];
    for (std::size_t i = retained_from; i < ids.size(); ++i) {
      const auto outcome = engine.result(ids[i]);
      ASSERT_TRUE(outcome.has_value()) << "case " << ids[i];
      EXPECT_EQ(outcome->state, CaseState::Completed);
      expect_same_outcome(*outcome, outcomes[i]);
    }
    EXPECT_EQ(engine.status(9999), CaseState::Rejected);
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.recovered, 0u);  // nothing resurrected and re-run
    EXPECT_EQ(metrics.submitted, ids.size());
    EXPECT_EQ(metrics.completed, ids.size());
    EXPECT_EQ(metrics.cases_retained, 4u);
    EXPECT_EQ(metrics.cases_evicted, retained_from);
  };

  {
    EnactmentEngine engine(config);
    run_cases(engine, 20);
    // The live engine's own state: four outcomes, no XML.
    ASSERT_TRUE(engine.journal()->snapshot());
  }
  std::size_t blob_bytes = 0;
  {
    // Restart from that snapshot, then run more cases whose events stay in
    // the WAL tail (snapshots every 8 records may or may not cover them).
    EnactmentEngine engine(config);
    blob_bytes = engine.journal()->recovered_state("engine").size();
    check(engine);
    run_cases(engine, 6);
    EXPECT_EQ(ids[20], ids[19] + 1);  // new ids continue past the evicted ones
  }
  {
    // Snapshot plus WAL tail, with the horizon re-applied after replay.
    EnactmentEngine engine(config);
    check(engine);
  }
  // Four outcomes of ~100 bytes each; one fig10 process description alone
  // is several kB, so any retained XML would blow this bound.
  EXPECT_GT(blob_bytes, 0u);
  EXPECT_LT(blob_bytes, 1024u);
}

/// One record of a version-1 engine snapshot blob, the format written
/// before eviction existed: every record carried its inputs, terminal or
/// not, and the blob ended after the records.
struct V1Record {
  CaseId id = kInvalidCase;
  CaseState state = CaseState::Queued;
  CaseOutcome outcome;
};

std::string v1_blob(const std::vector<V1Record>& records, CaseId next_id,
                    std::uint64_t completion_sequence) {
  const std::string process_xml = wfl::process_to_xml_string(virolab::make_fig10_process());
  const std::string case_xml = wfl::case_to_xml_string(virolab::make_case_description());
  std::string out;
  store::Writer w(out);
  w.u32(1);
  w.u64(next_id);
  w.u64(completion_sequence);
  w.u64(records.size());
  for (const V1Record& record : records) {
    const CaseOutcome& outcome = record.outcome;
    w.u64(record.id);
    w.str("default");
    w.str(process_xml);
    w.str(case_xml);
    w.str("");  // checkpoint
    w.u8(static_cast<std::uint8_t>(record.state));
    w.u8(0);    // cancel requested
    w.u32(0);   // retries used
    w.u64(0);   // excluded shards
    w.u8(static_cast<std::uint8_t>(outcome.state));
    w.str(outcome.error);
    w.u64(bits(outcome.makespan));
    w.u32(static_cast<std::uint32_t>(outcome.activities_executed));
    w.u32(static_cast<std::uint32_t>(outcome.activities_replayed));
    w.u32(static_cast<std::uint32_t>(outcome.dispatch_failures));
    w.u32(static_cast<std::uint32_t>(outcome.replans));
    w.u32(static_cast<std::uint32_t>(outcome.engine_retries));
    w.u64(bits(outcome.goal_satisfaction));
    w.u64(bits(outcome.total_cost));
    w.u64(bits(outcome.latency_seconds));
    w.u64(outcome.shard);
    w.u64(outcome.completion_index);
  }
  return out;
}

TEST(DurableEngineRetention, VersionOneSnapshotBlobsStillRecover) {
  TempDir dir("v1");
  EngineConfig config = small_config(1);
  config.storage.data_dir = dir.str();

  CaseOutcome completed;
  completed.state = CaseState::Completed;
  completed.makespan = 1234.5;
  completed.activities_executed = 16;
  completed.goal_satisfaction = 1.0;
  completed.total_cost = 42.25;
  completed.latency_seconds = 0.0125;
  completed.completion_index = 1;
  CaseOutcome failed;
  failed.state = CaseState::Failed;
  failed.error = "no container for POR";
  failed.activities_executed = 3;
  failed.engine_retries = 1;
  failed.completion_index = 2;
  const std::string blob =
      v1_blob({{1, CaseState::Completed, completed}, {2, CaseState::Failed, failed},
               {3, CaseState::Queued, CaseOutcome{}}},
              /*next_id=*/4, /*completion_sequence=*/2);
  {
    store::StorageEngine store(config.storage);
    store.set_state_provider("engine", [&blob] { return blob; });
    ASSERT_TRUE(store.snapshot());
  }

  {
    EnactmentEngine engine(config);
    const auto first = engine.result(1);
    ASSERT_TRUE(first.has_value());
    expect_same_outcome(*first, completed);
    const auto second = engine.result(2);
    ASSERT_TRUE(second.has_value());
    expect_same_outcome(*second, failed);
    EXPECT_EQ(engine.metrics().recovered, 1u);  // the queued case resumes
    engine.drain();
    EXPECT_EQ(engine.status(3), CaseState::Completed);
    EXPECT_EQ(engine.status(4), CaseState::Rejected);  // never allocated
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.cases_evicted, 0u);
    EXPECT_EQ(metrics.cases_retained, 3u);
    EXPECT_EQ(metrics.completed, 2u);
    EXPECT_EQ(metrics.failed, 1u);
    ASSERT_TRUE(engine.journal()->snapshot());
  }
  // Reopened from the blob the upgraded engine wrote: three outcomes and
  // no XML. The version-1 blob carried three copies of the inputs.
  EnactmentEngine engine(config);
  EXPECT_GT(blob.size(), 3000u);
  EXPECT_LT(engine.journal()->recovered_state("engine").size(), 1024u);
  EXPECT_EQ(engine.status(1), CaseState::Completed);
  EXPECT_EQ(engine.status(2), CaseState::Failed);
  EXPECT_EQ(engine.status(3), CaseState::Completed);
  EXPECT_EQ(engine.metrics().recovered, 0u);
}

}  // namespace
}  // namespace ig::engine
