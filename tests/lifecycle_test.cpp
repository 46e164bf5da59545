// Lifecycle model checker: seeded random interleavings of submit, cancel,
// shutdown and reopen on a durable engine, checked after every operation
// against the case lifecycle's invariants:
//   * status() never moves from a terminal state back to a non-terminal one
//     (an outcome read before a shutdown reads the same, or Evicted, after
//     the reopen);
//   * every acked id ends terminal, is resumed after a reopen, or reads
//     Evicted; none ever reads Rejected ("never heard of it"). A shutdown
//     returns running cases to Queued, and the reopened journal agrees with
//     the stopped engine: it resumes exactly the cases left Queued;
//   * completed + failed + cancelled <= submitted, and no lifecycle edge was
//     refused (engine_illegal_transitions_total stays 0).
// The shard pumps run concurrently with the driver, so the interleavings of
// the driver's operations with dispatch, retries and completions vary from
// run to run; the operation sequence itself is seeded.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>

#include "engine/engine.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig::engine {
namespace {

namespace fs = std::filesystem;

bool finished(CaseState state) {
  return state == CaseState::Completed || state == CaseState::Failed ||
         state == CaseState::Cancelled;
}

/// -1 when the counter is missing: it must exist from construction on.
double illegal_transitions(const EnactmentEngine& engine) {
  const obs::RegistrySnapshot snapshot = engine.registry().snapshot();
  const obs::MetricPoint* point = snapshot.find("engine_illegal_transitions_total");
  return point != nullptr ? point->value : -1.0;
}

EngineConfig checker_config(const std::string& dir) {
  EngineConfig config;
  config.shards = 2;
  config.queue_capacity = 6;    // a burst of submits meets backpressure
  config.retained_outcomes = 5; // outcomes are evicted within a round
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 2;
  // Cases last a few milliseconds, so cancels and shutdowns land on queued
  // and running cases alike.
  config.environment.kernels.execution_latency_seconds = 0.0003;
  // Shard 1 fails most dispatches: failed attempts, retries on shard 0
  // (Running -> Queued) and cases that exhaust their retries.
  config.shard_failure_floor = {0.0, 0.6};
  config.storage.data_dir = dir;
  config.storage.snapshot_interval = 6;  // snapshots (with evictions) mid-round
  return config;
}

class Checker {
 public:
  Checker(std::uint64_t seed, std::string dir) : rng_(seed), dir_(std::move(dir)) {}

  void run(int rounds, int ops_per_round) {
    for (int round = 0; round < rounds; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto engine = std::make_unique<EnactmentEngine>(checker_config(dir_));
      check_reopened(*engine);
      for (int op = 0; op < ops_per_round && !::testing::Test::HasFatalFailure(); ++op) {
        step(*engine);
        observe(*engine);
      }
      check_counters(*engine);
      engine->shutdown();
      observe(*engine);
      check_counters(*engine);
      EXPECT_EQ(engine->metrics().running, 0u);
      live_ = 0;
      for (const auto& [id, state] : seen_) {
        EXPECT_NE(state, CaseState::Running) << "case " << id << " still running when stopped";
        live_ += state == CaseState::Queued ? 1 : 0;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Final reopen: everything acked runs to an end.
    EnactmentEngine engine(checker_config(dir_));
    check_reopened(engine);
    engine.drain();
    observe(engine);
    for (const auto& [id, state] : seen_)
      EXPECT_TRUE(finished(state) || state == CaseState::Evicted)
          << "case " << id << " ended " << to_string(state);
    check_counters(engine);
  }

  std::size_t acked() const { return seen_.size(); }
  std::size_t cancels_accepted() const { return cancels_accepted_; }

 private:
  void step(EnactmentEngine& engine) {
    const int dice = static_cast<int>(rng_() % 100);
    if (dice < 45) {
      static const char* const kTenants[] = {"a", "b", "c"};
      const CaseId id = engine.submit(virolab::make_fig10_process(),
                                      virolab::make_case_description(), kTenants[rng_() % 3]);
      if (id != kInvalidCase) {
        ASSERT_EQ(seen_.count(id), 0u) << "id " << id << " acked twice";
        seen_[id] = CaseState::Queued;
      }
    } else if (dice < 70 && !seen_.empty()) {
      auto it = seen_.begin();
      std::advance(it, static_cast<long>(rng_() % seen_.size()));
      const bool accepted = engine.cancel(it->first);
      // A case already seen terminal can never be cancelled again.
      if (finished(it->second) || it->second == CaseState::Evicted)
        EXPECT_FALSE(accepted) << "cancel of finished case " << it->first;
      cancels_accepted_ += accepted ? 1 : 0;
    } else if (dice < 90) {
      std::this_thread::sleep_for(std::chrono::microseconds(500 + rng_() % 1500));
    }
  }

  /// One status() read per acked id, checked against the last one.
  void observe(const EnactmentEngine& engine) {
    for (auto& [id, last] : seen_) {
      const CaseState now = engine.status(id);
      ASSERT_NE(now, CaseState::Rejected) << "acked case " << id << " lost";
      if (finished(last))
        ASSERT_TRUE(now == last || now == CaseState::Evicted)
            << "case " << id << ": " << to_string(last) << " -> " << to_string(now);
      if (last == CaseState::Evicted)
        ASSERT_EQ(now, CaseState::Evicted) << "case " << id << " came back";
      last = now;
    }
  }

  /// After a reopen, what was terminal at the shutdown stays so (or reads
  /// Evicted), an evicted outcome may be read back but never as a live
  /// case, and exactly the cases left Queued are resumed.
  void check_reopened(const EnactmentEngine& engine) {
    const EngineMetrics metrics = engine.metrics();
    EXPECT_EQ(metrics.submitted, seen_.size());
    EXPECT_EQ(metrics.recovered, live_);
    for (auto& [id, last] : seen_) {
      const CaseState now = engine.status(id);
      ASSERT_NE(now, CaseState::Rejected) << "acked case " << id << " lost by the reopen";
      if (finished(last))
        ASSERT_TRUE(now == last || now == CaseState::Evicted)
            << "case " << id << ": " << to_string(last) << " -> " << to_string(now)
            << " across the reopen";
      if (last == CaseState::Evicted)
        ASSERT_TRUE(finished(now) || now == CaseState::Evicted)
            << "evicted case " << id << " came back " << to_string(now);
      last = now;
    }
  }

  void check_counters(const EnactmentEngine& engine) {
    const EngineMetrics metrics = engine.metrics();
    EXPECT_LE(metrics.completed + metrics.failed + metrics.cancelled, metrics.submitted);
    EXPECT_EQ(illegal_transitions(engine), 0.0);
  }

  std::mt19937_64 rng_;
  std::string dir_;
  std::map<CaseId, CaseState> seen_;  ///< last status read per acked id
  std::size_t live_ = 0;              ///< acked cases Queued at the last shutdown
  std::size_t cancels_accepted_ = 0;
};

TEST(LifecycleChecker, RandomInterleavingsKeepTheLifecycleInvariants) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fs::path dir = fs::path(::testing::TempDir()) /
                         ("igrid-lifecycle-" + std::to_string(::getpid()) + "-" +
                          std::to_string(seed));
    fs::remove_all(dir);
    Checker checker(seed, dir.string());
    checker.run(/*rounds=*/5, /*ops_per_round=*/40);
    EXPECT_GT(checker.acked(), 0u);
    EXPECT_GT(checker.cancels_accepted(), 0u);
    fs::remove_all(dir);
    if (HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace ig::engine
