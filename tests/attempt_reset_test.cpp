// One attempt model: a shard stack is built once and reset to its pristine
// state before every attempt. These tests hold the reset to what a rebuild
// would give, and check what follows from it: outcomes independent of
// placement and mode, stalled enactments cleared by the next attempt, and
// shard counters that never need folding in.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "util/rng.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/flowexpr.hpp"
#include "wfl/structure.hpp"
#include "wfl/xml_io.hpp"

namespace ig {
namespace {

using agent::AclMessage;
using agent::Performative;

constexpr std::uint64_t kEngineSeed = 42;

std::string bits(double value) { return std::to_string(std::bit_cast<std::uint64_t>(value)); }

/// Collects replies by conversation id, like the engine's own client.
class Client final : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override {
    replies_[message.conversation_id] = message;
  }
  void reset(std::uint64_t) override { replies_.clear(); }
  void post(AclMessage message) { send(std::move(message)); }
  std::optional<AclMessage> take(const std::string& conversation_id) {
    auto it = replies_.find(conversation_id);
    if (it == replies_.end()) return std::nullopt;
    AclMessage message = std::move(it->second);
    replies_.erase(it);
    return message;
  }

 private:
  std::map<std::string, AclMessage> replies_;
};

// -- reset = rebuild -------------------------------------------------------------

/// POD, three P3DR passes and PSF: no POR, so it completes on the test grid.
wfl::ProcessDescription short_process() {
  return wfl::lower_to_process(
      wfl::parse_flow("BEGIN, POD; P3DR1=P3DR; {FORK {P3DR3=P3DR} {P3DR4=P3DR} JOIN}; PSF, END"),
      "short");
}

/// A P3DR loop that runs until the coordinator's iteration guardrail.
wfl::ProcessDescription looping_process() {
  return wfl::lower_to_process(
      wfl::parse_flow("BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; "
                      "{FORK {P3DR3=P3DR} {P3DR4=P3DR} JOIN}; PSF, END"),
      "looper");
}

struct StackConfig {
  bool chaos = false;
  bool wire = false;
  int max_replans = 0;
};

svc::EnvironmentOptions stack_options(const StackConfig& config) {
  svc::EnvironmentOptions options;
  options.tracing = true;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 3;
  options.heartbeat_period = 5.0;
  options.wire_transport = config.wire;
  options.coordination.max_retries = 1;
  options.coordination.max_replans = config.max_replans;
  options.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  if (config.chaos) {
    agent::ChaosRule rule;
    rule.match.receiver = "ac-*";
    rule.drop = 0.2;
    rule.delay = 0.1;
    options.chaos.rules.push_back(rule);
    // The coordinator hangs at its 20th delivery in an attempt: the looping
    // case gets there, the short ones do not.
    agent::AgentFault hang;
    hang.agent = svc::names::kCoordination;
    hang.after_deliveries = 20;
    hang.kind = agent::AgentFault::Kind::Hang;
    options.chaos.agent_faults.push_back(hang);
    // A container hangs at its first delivery: its heartbeats stop, so the
    // monitor walks it to Dead and probes it.
    hang.agent = "ac-1";
    hang.after_deliveries = 1;
    options.chaos.agent_faults.push_back(hang);
    options.chaos.seed = 9;
  }
  return options;
}

/// A pristine stack as the engine builds one: the shard stack, its client,
/// a customization, then save_pristine. The customization withdraws POR
/// everywhere (so fig10 fails or re-plans at POR) and makes one P3DR host
/// fail 40% of its dispatches (so the brokerage's history of it changes).
struct Stack {
  std::unique_ptr<svc::Environment> environment;
  Client* client = nullptr;
};

Stack build_pristine(const StackConfig& config) {
  Stack stack;
  stack.environment = svc::make_shard_stack(stack_options(config), kEngineSeed, 0);
  stack.client = &stack.environment->platform().spawn<Client>("engine-client");
  for (const auto* container : stack.environment->grid().containers_advertising("POR"))
    stack.environment->grid().find_container(container->id())->unhost_service("POR");
  const auto p3dr_hosts = stack.environment->grid().containers_advertising("P3DR");
  stack.environment->grid().find_container(p3dr_hosts.front()->id())->set_failure_probability(0.4);
  stack.environment->save_pristine();
  return stack;
}

struct Attempt {
  std::uint64_t seed = 0;
  wfl::ProcessDescription process{"empty"};
  bool restore_previous = false;  ///< restore the previous attempt's checkpoint
  std::string checkpoint_xml;     ///< what a restore restores (filled in)
  std::size_t event_budget = std::numeric_limits<std::size_t>::max();
  bool checkpoint_on_failure = false;
};

struct AttemptRecord {
  std::string outcome;  ///< every CaseOutcome field the attempt decides
  std::vector<std::string> trace;
  std::vector<std::shared_ptr<const wfl::DataSet>> payloads;
  std::size_t sim_events = 0;
  std::string checkpoint_xml;
};

std::string trace_line(const agent::TraceRecord& record) {
  const AclMessage& m = record.message;
  std::string line = bits(record.sent_at) + " " + bits(record.delivered_at) + " " +
                     std::string(agent::to_string(m.performative)) + " " + m.sender + "->" +
                     m.receiver + " [" + m.protocol + "] " + m.conversation_id + " " +
                     (record.delivered ? "delivered" : "lost") + " " + record.chaos + " " +
                     record.handler_error + " |" + m.ontology + "|" + m.content + "|";
  for (const auto& [key, value] : m.params) line += key + "=" + value + ";";
  return line;
}

/// Resets the stack with the attempt's seed and runs the attempt the way a
/// shard does: the request, the calendar (up to the budget), and on a
/// failure with a coordinator case, a checkpoint.
AttemptRecord run_attempt(Stack& stack, const Attempt& attempt) {
  svc::Environment& environment = *stack.environment;
  environment.platform().clear_trace();
  environment.reset(attempt.seed);
  // Nothing an earlier attempt started survives the reset.
  EXPECT_EQ(environment.coordination().enactment_count(), 0u);
  EXPECT_EQ(environment.coordination().tracker().outstanding_count(), 0u);
  EXPECT_EQ(environment.planning().tracker().outstanding_count(), 0u);
  EXPECT_EQ(environment.sim().real_pending(), 0u);
  for (const auto& container : environment.grid().containers())
    EXPECT_EQ(container->dispatch_count(), 0u) << container->id();
  const std::size_t events_before = environment.sim().executed_events();

  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = svc::names::kCoordination;
  request.conversation_id = "attempt";
  if (attempt.checkpoint_xml.empty()) {
    request.protocol = svc::protocols::kEnactCase;
    request.content = wfl::process_to_xml_string(attempt.process);
    request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  } else {
    request.protocol = svc::protocols::kRestoreCase;
    request.content = attempt.checkpoint_xml;
    request.params["reset-replans"] = "true";
  }
  stack.client->post(std::move(request));
  environment.sim().run(attempt.event_budget);

  AttemptRecord record;
  const std::optional<AclMessage> reply = stack.client->take("attempt");
  if (!reply.has_value()) {
    record.outcome = "no reply";
  } else {
    engine::CaseOutcome outcome;
    outcome.error = reply->param("error");
    outcome.makespan = reply->param_double("makespan", 0.0);
    outcome.activities_executed = reply->param_int("activities-executed", 0);
    outcome.activities_replayed = reply->param_int("activities-replayed", 0);
    outcome.dispatch_failures = reply->param_int("dispatch-failures", 0);
    outcome.replans = reply->param_int("replans", 0);
    outcome.goal_satisfaction = reply->param_double("goal-satisfaction", 0.0);
    outcome.total_cost = reply->param_double("total-cost", 0.0);
    const bool success =
        reply->performative == Performative::Inform && reply->param_bool("success", true);
    record.outcome = std::string(success ? "ok" : "failed") + " '" + outcome.error +
                     "' makespan " + bits(outcome.makespan) + " executed " +
                     std::to_string(outcome.activities_executed) + " replayed " +
                     std::to_string(outcome.activities_replayed) + " dispatch-failures " +
                     std::to_string(outcome.dispatch_failures) + " replans " +
                     std::to_string(outcome.replans) + " goal " +
                     bits(outcome.goal_satisfaction) + " cost " + bits(outcome.total_cost);
    if (!success && attempt.checkpoint_on_failure && !reply->param("case").empty()) {
      AclMessage checkpoint;
      checkpoint.performative = Performative::Request;
      checkpoint.receiver = svc::names::kCoordination;
      checkpoint.protocol = svc::protocols::kCheckpointCase;
      checkpoint.conversation_id = "attempt/checkpoint";
      checkpoint.params["case"] = reply->param("case");
      stack.client->post(std::move(checkpoint));
      environment.sim().run();
      const std::optional<AclMessage> snapshot = stack.client->take("attempt/checkpoint");
      if (snapshot.has_value() && snapshot->performative == Performative::Inform)
        record.checkpoint_xml = snapshot->content;
    }
  }
  record.sim_events = environment.sim().executed_events() - events_before;
  for (const agent::TraceRecord& entry : environment.platform().trace()) {
    record.trace.push_back(trace_line(entry));
    record.payloads.push_back(entry.message.data);
  }
  return record;
}

bool same_payload(const std::shared_ptr<const wfl::DataSet>& a,
                  const std::shared_ptr<const wfl::DataSet>& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return *a == *b;
}

/// Appends an attempt with its own seed.
Attempt& add(std::vector<Attempt>& attempts, wfl::ProcessDescription process) {
  Attempt& attempt = attempts.emplace_back();
  attempt.seed = util::derive_stream(kEngineSeed, attempts.size(), 0);
  attempt.process = std::move(process);
  return attempt;
}

/// Runs a sequence of attempts twice: each on a freshly built pristine stack
/// (the reference), and all in order on one long-lived stack. Every attempt
/// must match its reference bitwise. Returns the reference records.
std::vector<AttemptRecord> expect_reset_matches_rebuild(const StackConfig& config,
                                                        std::vector<Attempt> attempts) {
  Stack long_lived = build_pristine(config);
  std::vector<AttemptRecord> records;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (attempts[i].restore_previous) {
      EXPECT_FALSE(records.back().checkpoint_xml.empty()) << "no checkpoint to restore";
      attempts[i].checkpoint_xml = records.back().checkpoint_xml;
    }
    Stack fresh = build_pristine(config);
    const AttemptRecord reference = run_attempt(fresh, attempts[i]);
    const AttemptRecord reused = run_attempt(long_lived, attempts[i]);
    EXPECT_EQ(reused.outcome, reference.outcome) << "attempt " << i;
    EXPECT_EQ(reused.sim_events, reference.sim_events) << "attempt " << i;
    EXPECT_EQ(reused.checkpoint_xml, reference.checkpoint_xml) << "attempt " << i;
    EXPECT_EQ(reused.trace.size(), reference.trace.size()) << "attempt " << i;
    for (std::size_t k = 0; k < std::min(reference.trace.size(), reused.trace.size()); ++k) {
      EXPECT_EQ(reused.trace[k], reference.trace[k]) << "attempt " << i << " record " << k;
      EXPECT_TRUE(same_payload(reused.payloads[k], reference.payloads[k]))
          << "attempt " << i << " record " << k;
    }
    records.push_back(reference);
  }
  return records;
}

/// Abandons attempts mid-way — cancelled, failed then checkpointed, and
/// (under chaos) hung — between complete ones.
void expect_abandoned_attempts_leave_nothing_behind(const StackConfig& config) {
  std::vector<Attempt> attempts;
  add(attempts, short_process());
  add(attempts, looping_process()).event_budget = 25;  // cancelled mid-way
  add(attempts, short_process());
  add(attempts, virolab::make_fig10_process()).checkpoint_on_failure = true;  // fails at POR
  add(attempts, virolab::make_fig10_process()).restore_previous = true;  // fails again
  add(attempts, looping_process());  // chaos: the coordinator hangs, the attempt stalls
  add(attempts, short_process()).seed = attempts.front().seed;  // same as the first
  const std::vector<AttemptRecord> records = expect_reset_matches_rebuild(config, attempts);
  ASSERT_EQ(records.size(), attempts.size());

  // The sequence really took the paths it claims to.
  EXPECT_EQ(records[0].outcome.rfind("ok", 0), 0u) << records[0].outcome;
  EXPECT_EQ(records[1].outcome, "no reply");
  EXPECT_EQ(records[3].outcome.rfind("failed", 0), 0u) << records[3].outcome;
  EXPECT_EQ(records[4].outcome.find("replayed 0 "), std::string::npos) << records[4].outcome;
  if (config.chaos) {
    EXPECT_EQ(records[5].outcome, "no reply");
  }
  EXPECT_EQ(records[6].outcome, records[0].outcome);
  EXPECT_EQ(records[6].trace, records[0].trace);
}

TEST(AttemptReset, ResetMatchesAFreshPristineStack) {
  expect_abandoned_attempts_leave_nothing_behind({/*chaos=*/false, /*wire=*/false});
}

TEST(AttemptReset, ResetMatchesAFreshPristineStackWithTheWire) {
  expect_abandoned_attempts_leave_nothing_behind({/*chaos=*/false, /*wire=*/true});
}

TEST(AttemptReset, ResetMatchesAFreshPristineStackUnderChaos) {
  expect_abandoned_attempts_leave_nothing_behind({/*chaos=*/true, /*wire=*/false});
}

TEST(AttemptReset, ResetMatchesAFreshPristineStackUnderChaosWithTheWire) {
  expect_abandoned_attempts_leave_nothing_behind({/*chaos=*/true, /*wire=*/true});
}

TEST(AttemptReset, ResetRestartsThePlanningEpisodes) {
  // POR is hosted nowhere, so every fig10 attempt re-plans (GP) once.
  StackConfig config;
  config.max_replans = 1;
  std::vector<Attempt> attempts;
  add(attempts, virolab::make_fig10_process());
  add(attempts, virolab::make_fig10_process());
  add(attempts, virolab::make_fig10_process()).seed = attempts.front().seed;
  const std::vector<AttemptRecord> records = expect_reset_matches_rebuild(config, attempts);
  ASSERT_EQ(records.size(), attempts.size());
  for (const AttemptRecord& record : records)
    EXPECT_NE(record.outcome.find("replans 1 "), std::string::npos) << record.outcome;
  EXPECT_EQ(records[2].outcome, records[0].outcome);
  EXPECT_EQ(records[2].trace, records[0].trace);
}

// -- through the engine ------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    static std::atomic<std::uint64_t> counter{0};
    path_ = std::filesystem::path(::testing::TempDir()) /
            ("igrid-attempt-reset-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

engine::EngineConfig chaos_engine_config() {
  engine::EngineConfig config;
  config.queue_capacity = 64;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.heartbeat_period = 5.0;
  config.environment.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  config.environment.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";
  rule.drop = 0.2;
  rule.delay = 0.1;
  config.environment.chaos.rules.push_back(rule);
  config.environment.chaos.seed = 2004;
  return config;
}

/// Every outcome field an attempt decides: all but shard, latency and
/// completion order.
std::string placement_free(const engine::CaseOutcome& outcome) {
  return std::string(engine::to_string(outcome.state)) + " '" + outcome.error + "' makespan " +
         bits(outcome.makespan) + " executed " + std::to_string(outcome.activities_executed) +
         " replayed " + std::to_string(outcome.activities_replayed) + " dispatch-failures " +
         std::to_string(outcome.dispatch_failures) + " replans " +
         std::to_string(outcome.replans) + " retries " + std::to_string(outcome.engine_retries) +
         " goal " + bits(outcome.goal_satisfaction) + " cost " + bits(outcome.total_cost);
}

TEST(AttemptReset, OutcomesAreIndependentOfShardCountAndMode) {
  constexpr int kCases = 12;
  const auto run = [](std::size_t shards, bool durable, bool wire) {
    engine::EngineConfig config = chaos_engine_config();
    config.shards = shards;
    config.environment.wire_transport = wire;
    TempDir dir;
    if (durable) config.storage.data_dir = dir.str();
    engine::EnactmentEngine engine(config);
    std::vector<engine::CaseId> ids;
    for (int i = 0; i < kCases; ++i) {
      const double target = 8.0 - 0.2 * static_cast<double>(i);  // >= 5.80 A
      ids.push_back(engine.submit(virolab::make_fig10_process(target),
                                  virolab::make_case_description(target)));
    }
    engine.drain();
    std::vector<std::string> outcomes;
    for (const engine::CaseId id : ids) {
      const auto outcome = engine.result(id);
      outcomes.push_back(outcome.has_value() ? placement_free(*outcome) : "missing");
    }
    return std::make_pair(outcomes, engine.metrics().faults_injected);
  };

  const auto [reference, faults] = run(1, false, false);
  EXPECT_GT(faults, 0u);  // the nemesis really fired
  const auto in_memory_sharded = run(3, false, false).first;
  const auto durable = run(1, true, false).first;
  const auto durable_sharded_wire = run(3, true, true).first;
  for (int i = 0; i < kCases; ++i) {
    EXPECT_NE(reference[i], "missing");
    EXPECT_EQ(in_memory_sharded[i], reference[i]) << "case " << i << ": 3 shards, in memory";
    EXPECT_EQ(durable[i], reference[i]) << "case " << i << ": 1 shard, durable";
    EXPECT_EQ(durable_sharded_wire[i], reference[i])
        << "case " << i << ": 3 shards, durable, wire";
  }
}

TEST(AttemptReset, StalledEnactmentIsClearedByTheNextAttempt) {
  engine::EngineConfig config;
  config.shards = 1;
  config.max_case_retries = 0;
  config.environment.topology.domains = 2;
  config.environment.topology.nodes_per_domain = 3;
  config.environment.heartbeat_period = 5.0;
  // The coordinator hangs at its 20th delivery in an attempt: the looping
  // case stalls there, the short case finishes well before.
  agent::AgentFault hang;
  hang.agent = svc::names::kCoordination;
  hang.after_deliveries = 20;
  hang.kind = agent::AgentFault::Kind::Hang;
  config.environment.chaos.agent_faults.push_back(hang);
  svc::Environment* environment = nullptr;
  std::size_t pristine_events = 0;
  config.shard_setup = [&](svc::Environment& shard_environment, std::size_t) {
    environment = &shard_environment;
    pristine_events = shard_environment.sim().pending_events();
  };
  engine::EnactmentEngine engine(config);
  ASSERT_NE(environment, nullptr);
  EXPECT_GT(pristine_events, 0u);  // the heartbeats

  const engine::CaseId stalled =
      engine.submit(looping_process(), virolab::make_case_description());
  const auto stalled_outcome = engine.wait(stalled);
  ASSERT_TRUE(stalled_outcome.has_value());
  EXPECT_EQ(stalled_outcome->state, engine::CaseState::Failed);
  EXPECT_EQ(stalled_outcome->error, "enactment stalled (no completion reply)");
  engine.drain();
  // The stall leaves the coordinator hung; the next attempt starts healthy.
  EXPECT_EQ(environment->platform().agent_health(svc::names::kCoordination),
            agent::AgentHealth::Hung);

  const engine::CaseId next = engine.submit(short_process(), virolab::make_case_description());
  const auto next_outcome = engine.wait(next);
  ASSERT_TRUE(next_outcome.has_value());
  EXPECT_EQ(next_outcome->state, engine::CaseState::Completed) << next_outcome->error;
  engine.drain();
  EXPECT_EQ(environment->coordination().enactment_count(), 0u);
  EXPECT_EQ(environment->platform().agent_health(svc::names::kCoordination),
            agent::AgentHealth::Healthy);
  EXPECT_EQ(environment->sim().real_pending(), 0u);
  EXPECT_EQ(environment->sim().pending_events(), pristine_events);
}

std::uint64_t registry_counter(engine::EnactmentEngine& engine, const std::string& name,
                               const obs::Labels& labels) {
  return engine.registry().counter(name, labels).value();
}

TEST(AttemptReset, ShardCountersMatchTheRegistryAndNeverDecrease) {
  constexpr int kCases = 10;
  engine::EngineConfig config = chaos_engine_config();
  config.shards = 1;
  TempDir dir;
  config.storage.data_dir = dir.str();
  engine::EnactmentEngine engine(config);
  const obs::Labels shard{{"shard", "0"}};
  const auto registry_faults = [&] {
    std::uint64_t total = 0;
    for (const char* kind :
         {"dropped", "delayed", "duplicated", "reordered", "crashed", "hung", "swallowed"}) {
      obs::Labels labels = shard;
      labels.emplace_back("kind", kind);
      total += registry_counter(engine, "chaos_faults_total", labels);
    }
    return total;
  };
  const auto tracker_counter = [&](const std::string& name) {
    obs::Labels coordination = shard;
    coordination.emplace_back("owner", "coordination");
    obs::Labels planning = shard;
    planning.emplace_back("owner", "planning");
    return registry_counter(engine, name, coordination) +
           registry_counter(engine, name, planning);
  };

  engine::EngineMetrics previous;
  std::size_t completed = 0;
  std::size_t failed = 0;
  for (int i = 0; i < kCases; ++i) {
    const double target = 8.0 - 0.2 * static_cast<double>(i);
    const engine::CaseId id = engine.submit(virolab::make_fig10_process(target),
                                            virolab::make_case_description(target));
    const auto outcome = engine.wait(id);
    ASSERT_TRUE(outcome.has_value());
    if (outcome->state == engine::CaseState::Completed) ++completed;
    if (outcome->state == engine::CaseState::Failed) ++failed;

    const engine::EngineMetrics metrics = engine.metrics();
    ASSERT_EQ(metrics.shards.size(), 1u);
    const engine::ShardMetrics& sm = metrics.shards[0];
    EXPECT_EQ(sm.faults_injected, registry_faults());
    EXPECT_EQ(sm.request_retries, tracker_counter("tracker_retries_total"));
    EXPECT_EQ(sm.dead_letters, tracker_counter("tracker_dead_letters_total"));
    EXPECT_EQ(sm.handler_failures,
              registry_counter(engine, "platform_handler_failures_total", shard));
    EXPECT_EQ(metrics.faults_injected, sm.faults_injected);
    EXPECT_EQ(metrics.request_retries, sm.request_retries);
    EXPECT_EQ(metrics.dead_letters, sm.dead_letters);
    EXPECT_EQ(metrics.handler_failures, sm.handler_failures);
    EXPECT_GE(metrics.faults_injected, previous.faults_injected) << "after case " << i;
    EXPECT_GE(metrics.request_retries, previous.request_retries) << "after case " << i;
    EXPECT_GE(metrics.dead_letters, previous.dead_letters) << "after case " << i;
    EXPECT_GE(metrics.handler_failures, previous.handler_failures) << "after case " << i;
    EXPECT_GE(metrics.containers_recovered, previous.containers_recovered) << "after case " << i;
    previous = metrics;
  }
  EXPECT_GT(previous.faults_injected, 0u);
  EXPECT_GT(previous.request_retries, 0u);
  // The engine's case tallies are its own, untouched by the stack's reset.
  EXPECT_EQ(registry_counter(engine, "engine_cases_submitted_total", {}),
            static_cast<std::uint64_t>(kCases));
  EXPECT_EQ(registry_counter(engine, "engine_cases_completed_total", {}), completed);
  EXPECT_EQ(registry_counter(engine, "engine_cases_failed_total", {}), failed);
  EXPECT_EQ(previous.completed, completed);
  EXPECT_EQ(previous.failed, failed);
}

/// Every counter a stack's registry holds, keyed by name and labels.
std::map<std::string, double> counter_values(const svc::Environment& environment) {
  std::map<std::string, double> values;
  for (const obs::MetricPoint& point : environment.registry().snapshot().points) {
    if (point.kind != obs::MetricKind::Counter) continue;
    std::string key = point.name;
    for (const auto& [name, value] : point.labels) key += "," + name + "=" + value;
    values[key] = point.value;
  }
  return values;
}

TEST(AttemptReset, StandaloneStacksCountSeparatelyAndResetKeepsTheCounts) {
  const StackConfig config{/*chaos=*/true, /*wire=*/true};
  Stack busy = build_pristine(config);
  Stack idle = build_pristine(config);
  // Built on their own, the two stacks count in registries of their own.
  EXPECT_NE(&busy.environment->registry(), &idle.environment->registry());
  const std::map<std::string, double> idle_counts = counter_values(*idle.environment);

  std::vector<Attempt> attempts;
  add(attempts, short_process());
  add(attempts, looping_process());
  std::map<std::string, double> previous = counter_values(*busy.environment);
  for (const Attempt& attempt : attempts) {
    run_attempt(busy, attempt);  // resets the stack before it runs
    const std::map<std::string, double> now = counter_values(*busy.environment);
    EXPECT_EQ(now.size(), previous.size());
    for (const auto& [series, value] : previous) EXPECT_GE(now.at(series), value) << series;
    previous = now;
  }
  EXPECT_GT(previous.at("platform_messages_delivered_total"),
            idle_counts.at("platform_messages_delivered_total"));
  EXPECT_GT(previous.at("wire_frames_total"), idle_counts.at("wire_frames_total"));
  EXPECT_GT(previous.at("chaos_faults_total,kind=dropped"), 0.0);
  // Work on one stack moves none of the other's counts.
  EXPECT_EQ(counter_values(*idle.environment), idle_counts);

  // A reset leaves every count in place, and the accessors read the very
  // counters the registry shows.
  svc::Environment& environment = *busy.environment;
  environment.reset(attempts.front().seed);
  const std::map<std::string, double> after_reset = counter_values(environment);
  EXPECT_EQ(after_reset, previous);
  EXPECT_EQ(after_reset.at("platform_messages_delivered_total"),
            static_cast<double>(environment.platform().messages_delivered()));
  EXPECT_EQ(after_reset.at("platform_messages_sent_total"),
            static_cast<double>(environment.platform().messages_sent()));
  EXPECT_EQ(after_reset.at("chaos_faults_total,kind=dropped"),
            static_cast<double>(environment.platform().chaos_stats().dropped));
  EXPECT_EQ(after_reset.at("wire_frames_total"),
            static_cast<double>(environment.wire_link()->stats().frames));
  EXPECT_EQ(after_reset.at("tracker_retries_total,owner=coordination"),
            static_cast<double>(environment.coordination().tracker().retries_total()));
  EXPECT_EQ(after_reset.at("monitor_heartbeats_received_total"),
            static_cast<double>(environment.monitoring().heartbeats_received()));
}

}  // namespace
}  // namespace ig
