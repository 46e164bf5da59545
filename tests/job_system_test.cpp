// The work-stealing job system: exactly-once execution under forced
// stealing, nested posts and loops, affinity, exception propagation, the
// worker-id contract of parallel_for, drain-on-destruct, and the bitwise-
// determinism contract the planner and engine build on (same results at any
// worker count, chaos replay included).
#include "sched/job_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "planner/gp.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig {
namespace {

/// Spins until `done` returns true or ~5s pass; returns whether it held.
template <typename Fn>
bool eventually(Fn&& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// True once every worker is parked. Until then a worker may still be in a
/// steal scan (freshly started or just finished a job) and can legitimately
/// grab a job posted for another worker — affinity is advisory exactly in
/// that window.
bool all_parked(const sched::JobSystem& jobs, std::size_t workers) {
  const sched::JobStats s = jobs.stats();
  return s.parks - s.unparks == workers;
}

TEST(JobSystem, EveryJobRunsExactlyOnceUnderForcedStealing) {
  constexpr std::size_t kJobs = 100;
  sched::JobSystem jobs(4);

  // Occupy worker 0 so the affinity-0 backlog below can only drain through
  // steals by the other three workers. Post the blocker only once everyone
  // is parked, so a startup steal scan cannot walk off with it.
  ASSERT_TRUE(eventually([&] { return all_parked(jobs, 4); }));
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release_blocker{false};
  jobs.post(
      [&] {
        blocker_started.store(true);
        while (!release_blocker.load()) std::this_thread::yield();
      },
      /*affinity=*/0);
  ASSERT_TRUE(eventually([&] { return blocker_started.load(); }));

  std::vector<std::atomic<int>> runs(kJobs);
  std::atomic<std::size_t> completed{0};
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.post(
        [&, i] {
          runs[i].fetch_add(1);
          completed.fetch_add(1);
        },
        /*affinity=*/0);
  }
  // Only a deepening backlog pokes a thief: one job queued behind a busy
  // worker is left for that worker. So the last post may wait for the
  // blocker, and it must not be a backlog job. When this tail lands on a
  // non-empty deque it pokes a thief; when it lands on an empty one, every
  // backlog job is already on a thief.
  jobs.post([] {}, /*affinity=*/0);
  const bool drained = eventually([&] { return completed.load() == kJobs; });
  release_blocker.store(true);  // before any assertion, so a failure cannot hang
  jobs.wait_idle();
  ASSERT_TRUE(drained);

  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(runs[i].load(), 1) << "job " << i;
  const sched::JobStats stats = jobs.stats();
  EXPECT_EQ(stats.executed, kJobs + 2);
  // Worker 0 ran no backlog job: every one reached its executor via a
  // steal, one job per steal.
  EXPECT_GE(stats.stolen, kJobs);
  EXPECT_GT(stats.steal_attempts, 0u);
}

TEST(JobSystem, NestedSubmitFromInsideAJob) {
  sched::JobSystem jobs(2);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> outer_ran{false};
  jobs.post([&] {
    for (int i = 0; i < 8; ++i) jobs.post([&] { inner_runs.fetch_add(1); });
    outer_ran.store(true);
  });
  // Jobs posted by a running job count as pending before it finishes, so
  // wait_idle covers them too.
  jobs.wait_idle();
  EXPECT_TRUE(outer_ran.load());
  EXPECT_EQ(inner_runs.load(), 8);
}

TEST(JobSystem, AffinityHintHonoredWhenTargetWorkerFree) {
  sched::JobSystem jobs(4);
  // "Target free" means *parked* (see all_parked). Once every worker
  // sleeps, a single post wakes only the hinted worker (nothing pokes a
  // thief for a depth-1 deque), so the hint is guaranteed, not advisory.
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(eventually([&] { return all_parked(jobs, 4); })) << "round " << round;
    const std::size_t target = static_cast<std::size_t>(round) % 4;
    std::atomic<std::size_t> ran_on{sched::JobSystem::kAnyWorker};
    jobs.post([&] { ran_on.store(jobs.current_worker()); }, target);
    jobs.wait_idle();
    EXPECT_EQ(ran_on.load(), target) << "round " << round;
  }
  EXPECT_EQ(jobs.stats().stolen, 0u);
}

TEST(JobSystem, ParallelForRethrowsTheFirstException) {
  sched::JobSystem jobs(4);
  EXPECT_THROW(jobs.parallel_for(64,
                                 [](std::size_t index, std::size_t) {
                                   if (index == 17) throw std::runtime_error("bad index");
                                 }),
               std::runtime_error);
  jobs.wait_idle();
  // The system survives the exception.
  std::atomic<std::size_t> ran{0};
  jobs.parallel_for(5, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5u);
}

TEST(JobSystem, ParallelForCoversEveryIndexOnceWithValidWorkerIds) {
  EXPECT_GE(sched::JobSystem::hardware_threads(), 1u);
  // A request for zero workers clamps to one. Each system runs several
  // loops back to back — empty, one item, fewer items than workers, and a
  // large range twice — so reusing one system is covered too.
  for (const std::size_t requested : {std::size_t{3}, std::size_t{0}}) {
    sched::JobSystem jobs(requested);
    const std::size_t workers = std::max<std::size_t>(requested, 1);
    ASSERT_EQ(jobs.size(), workers);
    for (const std::size_t count : {0, 1, 2, 1000, 1000}) {
      std::vector<std::atomic<int>> hits(count);
      std::atomic<bool> worker_in_range{true};
      jobs.parallel_for(count, [&](std::size_t index, std::size_t worker) {
        hits[index].fetch_add(1);
        if (worker >= workers) worker_in_range.store(false);
      });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "workers " << workers << " count " << count
                                     << " index " << i;
      EXPECT_TRUE(worker_in_range.load()) << "workers " << workers << " count " << count;
    }
  }
}

TEST(JobSystem, NestedParallelForDoesNotDeadlockOnOneWorker) {
  sched::JobSystem jobs(1);
  std::atomic<int> total{0};
  jobs.parallel_for(4, [&](std::size_t, std::size_t) {
    // Worker-context caller: helps drain instead of blocking the only worker.
    jobs.parallel_for(4, [&](std::size_t, std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(JobSystem, ParallelForNeverSharesAWorkerIdBetweenRunningInvocations) {
  // PlanEvaluator keeps one scratch table per worker id and trusts that no
  // two invocations running at the same time carry the same id. Check it
  // with a busy flag per id, under two external callers at once and loops
  // nested inside a loop's invocations.
  constexpr std::size_t kWorkers = 4;
  sched::JobSystem jobs(kWorkers);
  std::vector<std::atomic<bool>> busy(kWorkers);
  std::atomic<std::size_t> clashes{0};
  std::atomic<std::size_t> leaves{0};
  const auto leaf = [&](std::size_t, std::size_t worker) {
    if (worker >= kWorkers || busy[worker].exchange(true)) {
      clashes.fetch_add(1);
      return;
    }
    std::this_thread::yield();  // widen the window a clash would need
    busy[worker].store(false);
    leaves.fetch_add(1);
  };
  const auto caller = [&] {
    for (int round = 0; round < 20; ++round) {
      jobs.parallel_for(64, leaf);
      // The outer invocation only nests: it is suspended, not running,
      // while its inner loop runs under the same id.
      jobs.parallel_for(8, [&](std::size_t, std::size_t) { jobs.parallel_for(16, leaf); });
    }
  };
  std::thread second(caller);
  caller();
  second.join();
  EXPECT_EQ(clashes.load(), 0u);
  EXPECT_EQ(leaves.load(), 2u * 20u * (64u + 8u * 16u));
}

TEST(JobSystem, NestedParallelForFinishesWhileEveryOtherWorkerIsBusy) {
  // Workers 1-3 are held on a latch that opens only after the nested loop
  // returns, so the helpers the loop posts to them cannot start in time:
  // the calling worker must claim every chunk itself and must not wait for
  // those helpers. When they do run later, they find the loop spent.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kCount = 100;
  sched::JobSystem jobs(kWorkers);
  ASSERT_TRUE(eventually([&] { return all_parked(jobs, kWorkers); }));
  std::atomic<bool> release{false};
  std::atomic<std::size_t> held{0};
  for (std::size_t worker = 1; worker < kWorkers; ++worker) {
    jobs.post(
        [&] {
          held.fetch_add(1);
          while (!release.load()) std::this_thread::yield();
        },
        worker);
  }
  if (!eventually([&] { return held.load() == kWorkers - 1; })) {
    release.store(true);  // so the destructor's drain cannot hang
    FAIL() << "workers 1-" << kWorkers - 1 << " were not all held";
  }

  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<std::size_t> off_caller{0};
  std::atomic<std::size_t> caller_id{sched::JobSystem::kAnyWorker};
  std::atomic<bool> returned{false};
  jobs.post(
      [&] {
        const std::size_t self = jobs.current_worker();
        caller_id.store(self);
        jobs.parallel_for(kCount, [&](std::size_t index, std::size_t worker) {
          hits[index].fetch_add(1);
          if (worker != self) off_caller.fetch_add(1);
        });
        returned.store(true);
      },
      /*affinity=*/0);
  const bool finished = eventually([&] { return returned.load(); });
  release.store(true);  // before any assertion, so a failure cannot hang
  jobs.wait_idle();
  ASSERT_TRUE(finished);
  EXPECT_EQ(caller_id.load(), 0u);
  EXPECT_EQ(off_caller.load(), 0u);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(JobSystem, DestructorDrainsAFullDeque) {
  std::atomic<int> runs{0};
  {
    sched::JobSystem jobs(2);
    // Park both workers behind slow jobs, then pile up a backlog; the
    // destructor must run all of it before joining.
    for (int i = 0; i < 2; ++i)
      jobs.post([&] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    for (int i = 0; i < 200; ++i) jobs.post([&] { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 200);
}

TEST(JobSystem, JobsPostedDuringDrainStillExecute) {
  std::atomic<int> runs{0};
  {
    sched::JobSystem jobs(2);
    jobs.post([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      jobs.post([&] { runs.fetch_add(1); });  // posted while the dtor drains
    });
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(JobSystem, HintedPostDuringDrainRedirectsOffExitedWorkers) {
  // A job still running during the destructor's drain posts with affinity
  // hints naming workers that have (very likely) already exited; each job
  // must land on a live deque and run instead of being stranded on a dead
  // one, which would also wedge pending_ above zero and hang the join.
  std::atomic<int> runs{0};
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  std::thread releaser;
  {
    sched::JobSystem jobs(4);
    jobs.post(
        [&] {
          blocker_started.store(true);
          while (!release.load()) std::this_thread::yield();
          for (std::size_t hint = 1; hint < 4; ++hint)
            jobs.post([&] { runs.fetch_add(1); }, hint);
        },
        /*affinity=*/0);
    ASSERT_TRUE(eventually([&] { return blocker_started.load(); }));
    releaser = std::thread([&] {
      // Give ~JobSystem time to set stopping_ and let the idle workers
      // drain out and exit before the blocker posts its hinted jobs.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      release.store(true);
    });
  }  // ~JobSystem joins the blocker's worker, gated on `release`
  releaser.join();
  EXPECT_EQ(runs.load(), 3);
}

TEST(JobSystem, PublishMetricsExportsSchedulerCounters) {
  // The job system counts in the registry of the scope it is given.
  obs::Scope metrics;
  sched::JobSystem jobs(2, metrics);
  jobs.parallel_for(100, [](std::size_t, std::size_t) {});
  jobs.post([] { throw std::runtime_error("lost in a fire-and-forget job"); });
  jobs.wait_idle();
  EXPECT_EQ(jobs.stats().swallowed, 1u);
  const obs::RegistrySnapshot snapshot = metrics.registry().snapshot();
  const obs::MetricPoint* executed = snapshot.find("sched_jobs_executed_total");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->value, 0.0);
  const obs::MetricPoint* swallowed = snapshot.find("sched_jobs_swallowed_total");
  ASSERT_NE(swallowed, nullptr);
  EXPECT_EQ(swallowed->value, 1.0);
  EXPECT_NE(snapshot.find("sched_workers"), nullptr);
  EXPECT_EQ(executed->value, static_cast<double>(jobs.stats().executed));
}

// -- the determinism contract the callers rely on --

planner::GpResult small_gp_run(sched::JobSystem* pool) {
  const planner::PlanningProblem problem = planner::PlanningProblem::from_case(
      virolab::make_case_description(), virolab::make_catalogue());
  planner::GpConfig config;
  config.population_size = 40;
  config.generations = 4;
  config.seed = 7;
  return planner::run_gp(problem, config, pool);
}

TEST(JobSystemDeterminism, GpResultsBitwiseIdenticalAcrossWorkerCounts) {
  const planner::GpResult one = small_gp_run(nullptr);
  sched::JobSystem pool(3);
  const planner::GpResult three = small_gp_run(&pool);
  EXPECT_EQ(one.best_fitness.overall, three.best_fitness.overall);
  EXPECT_EQ(one.evaluations, three.evaluations);
  EXPECT_TRUE(one.best_plan == three.best_plan);
  ASSERT_EQ(one.history.size(), three.history.size());
  for (std::size_t i = 0; i < one.history.size(); ++i) {
    EXPECT_EQ(one.history[i].best_fitness, three.history[i].best_fitness) << "gen " << i;
    EXPECT_EQ(one.history[i].mean_fitness, three.history[i].mean_fitness) << "gen " << i;
  }
}

std::vector<engine::CaseOutcome> run_engine_cases(std::size_t workers, bool chaos) {
  engine::EngineConfig config;
  config.shards = 1;  // the engine's bit-reproducibility envelope
  config.workers = workers;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  if (chaos) {
    agent::ChaosRule rule;
    rule.match.receiver = "ac-*";
    rule.drop = 0.2;
    rule.delay = 0.1;
    config.environment.chaos.rules.push_back(rule);
    config.environment.chaos.seed = 99;
    config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  }
  engine::EnactmentEngine engine(config);
  std::vector<engine::CaseId> ids;
  for (int i = 0; i < 3; ++i) {
    const double resolution = 8.0 - 0.2 * i;
    ids.push_back(engine.submit(virolab::make_fig10_process(resolution),
                                virolab::make_case_description(resolution)));
  }
  engine.drain();
  std::vector<engine::CaseOutcome> outcomes;
  for (const engine::CaseId id : ids) outcomes.push_back(*engine.result(id));
  return outcomes;
}

void expect_identical_outcomes(const std::vector<engine::CaseOutcome>& a,
                               const std::vector<engine::CaseOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].state, b[i].state) << "case " << i;
    EXPECT_EQ(a[i].makespan, b[i].makespan) << "case " << i;
    EXPECT_EQ(a[i].activities_executed, b[i].activities_executed) << "case " << i;
    EXPECT_EQ(a[i].dispatch_failures, b[i].dispatch_failures) << "case " << i;
    EXPECT_EQ(a[i].total_cost, b[i].total_cost) << "case " << i;
  }
}

TEST(JobSystemDeterminism, EngineOutcomesIdenticalAcrossWorkerCounts) {
  expect_identical_outcomes(run_engine_cases(1, /*chaos=*/false),
                            run_engine_cases(3, /*chaos=*/false));
}

TEST(JobSystemDeterminism, ChaosReplayIdenticalAcrossWorkerCounts) {
  // Same seed, same fault stream, same outcomes — whether the pump stream
  // has a private worker or shares a wider pool.
  expect_identical_outcomes(run_engine_cases(1, /*chaos=*/true),
                            run_engine_cases(2, /*chaos=*/true));
}

}  // namespace
}  // namespace ig
