#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>

#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/structure.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {
namespace {

using agent::AclMessage;
using agent::Performative;

class Client : public agent::Agent {
 public:
  explicit Client(std::string name = "ui") : Agent(std::move(name)) {}
  void handle_message(const AclMessage& message) override { replies.push_back(message); }
  std::vector<AclMessage> replies;
};

struct Fixture {
  explicit Fixture(EnvironmentOptions options = {}) {
    if (options.topology.domains == 3 && options.topology.nodes_per_domain == 4) {
      options.topology.domains = 2;
      options.topology.nodes_per_domain = 3;
    }
    options.gp.population_size = 140;
    options.gp.generations = 18;
    environment = make_environment(options);
    client = &environment->platform().spawn<Client>("ui");
  }

  AclMessage enact(const wfl::ProcessDescription& process, const wfl::CaseDescription& cd) {
    AclMessage request;
    request.performative = Performative::Request;
    request.sender = client->name();
    request.receiver = names::kCoordination;
    request.protocol = protocols::kEnactCase;
    request.content = wfl::process_to_xml_string(process);
    request.params["case-xml"] = wfl::case_to_xml_string(cd);
    environment->platform().send(request);
    environment->run();
    EXPECT_FALSE(client->replies.empty());
    return client->replies.empty() ? AclMessage{} : client->replies.back();
  }

  std::unique_ptr<Environment> environment;
  Client* client = nullptr;
};

TEST(Coordination, EnactsFigure10CaseToCompletion) {
  Fixture fixture;
  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  EXPECT_EQ(reply.param("success"), "true");
  EXPECT_EQ(reply.param("goal-satisfaction"), "1");
  EXPECT_EQ(reply.param("replans"), "0");
  EXPECT_GT(std::stod(reply.param("makespan")), 0.0);

  // The refinement loop converges after two passes (18 -> 11.7 -> 7.6 A):
  // 2 x (POR + 3xP3DR + PSF) + POD + P3DR1 = 12 activity executions.
  EXPECT_EQ(reply.param("activities-executed"), "12");

  // Final state carries the expected result D12 with a value at the target.
  ASSERT_NE(reply.data, nullptr);
  const wfl::DataSet& final_state = *reply.data;
  ASSERT_NE(final_state.find("D12"), nullptr);
  EXPECT_LE(final_state.find("D12")->get("Value").as_number(), 8.0);
  EXPECT_EQ(fixture.environment->coordination().cases_completed(), 1u);
}

TEST(Coordination, KernelOutputsReachTheCoordinatorsDataSetWithTheirExactBits) {
  // A model size with all 17 significant digits: an XML hop would have
  // rounded it to 12 decimal places. Each dispatch after P3DR ships the
  // coordinator's whole data set, so the trace shows what it holds.
  util::Rng rng(2004);
  EnvironmentOptions options;
  options.kernels.model_size_mb = 64.0 * rng.next_double(0.6, 1.4);
  options.tracing = true;
  const double size = options.kernels.model_size_mb;
  ASSERT_NE(util::parse_double(util::format_number(size, 12)), std::optional<double>(size));
  Fixture fixture(options);
  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(reply.param("success"), "true") << reply.param("error");

  std::size_t models_seen = 0;
  for (const auto& record : fixture.environment->platform().trace()) {
    const AclMessage& message = record.message;
    if (message.protocol != protocols::kExecuteActivity ||
        message.performative != Performative::Request)
      continue;
    ASSERT_NE(message.data, nullptr) << message.conversation_id;
    for (const auto& item : message.data->items()) {
      if (item.get(wfl::props::kCreator) != meta::Value("P3DR")) continue;
      ++models_seen;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(item.get(wfl::props::kSize).as_number()),
                std::bit_cast<std::uint64_t>(size))
          << item.name() << " in " << message.conversation_id;
    }
  }
  EXPECT_GT(models_seen, 0u);
}

TEST(Coordination, LoopIterationCountFollowsKernelConvergence) {
  // A slower-converging instrument needs three refinement passes.
  EnvironmentOptions options;
  options.kernels.initial_resolution = 24.0;
  options.kernels.refinement_factor = 0.7;  // 24 -> 16.8 -> 11.8 -> 8.2 -> 5.8
  Fixture fixture(options);
  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(reply.param("success"), "true") << reply.param("error");
  // 4 passes x 5 activities + 2 = 22.
  EXPECT_EQ(reply.param("activities-executed"), "22");
}

TEST(Coordination, InvalidProcessRejected) {
  Fixture fixture;
  wfl::ProcessDescription broken("broken");
  broken.add_flow_control("B", wfl::ActivityKind::Begin);
  // No End activity at all.
  const AclMessage reply = fixture.enact(broken, virolab::make_case_description());
  EXPECT_EQ(reply.performative, Performative::Failure);
}

TEST(Coordination, RetriesOnAlternateContainerAfterFailure) {
  // Containers fail 30% of dispatches; with retries the case still completes.
  EnvironmentOptions options;
  options.topology.container_failure_probability = 0.3;
  options.coordination.max_retries = 4;
  options.coordination.max_replans = 2;
  options.seed = 101;
  Fixture fixture(options);
  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  EXPECT_EQ(reply.param("success"), "true");
  EXPECT_EQ(reply.param("goal-satisfaction"), "1");
}

TEST(Coordination, ReplansWhenServiceLosesAllHosts) {
  Fixture fixture;
  // Enact a plan that needs POR, but take POR offline first: the dispatch
  // fails outright, coordination triggers Figure 3 re-planning, and the new
  // plan reaches the goal without POR.
  auto& grid = fixture.environment->grid();
  for (const auto* container : grid.containers_advertising("POR"))
    grid.find_container(container->id())->unhost_service("POR");

  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  EXPECT_EQ(reply.param("success"), "true");
  EXPECT_NE(reply.param("replans"), "0");
  EXPECT_EQ(reply.param("goal-satisfaction"), "1");
  EXPECT_GE(fixture.environment->coordination().replans_triggered(), 1u);
}

TEST(Coordination, FailsAfterReplanBudgetExhausted) {
  EnvironmentOptions options;
  options.coordination.max_replans = 1;
  Fixture fixture(options);
  // No PSF anywhere: the goal (a resolution file) is unreachable, every
  // plan eventually stalls, and the case fails gracefully.
  auto& grid = fixture.environment->grid();
  for (const auto* container : grid.containers_advertising("PSF"))
    grid.find_container(container->id())->unhost_service("PSF");

  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  EXPECT_EQ(reply.performative, Performative::Failure);
  EXPECT_EQ(fixture.environment->coordination().cases_failed(), 1u);
}

TEST(Coordination, TrivialLoopGuardTerminatesViaGuardrail) {
  EnvironmentOptions options;
  options.coordination.max_loop_iterations = 3;
  Fixture fixture(options);
  // A loop whose continue-guard is always true (as GP-evolved plans have)
  // must still terminate through the loop-iteration guardrail.
  const wfl::FlowExpr expr = wfl::parse_flow(
      "BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; "
      "{FORK {P3DR3=P3DR} {P3DR4=P3DR} JOIN}; PSF, END");
  const wfl::ProcessDescription process = wfl::lower_to_process(expr, "looper");
  const AclMessage reply = fixture.enact(process, virolab::make_case_description());
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  EXPECT_EQ(reply.param("success"), "true");
}

TEST(Coordination, MultipleCasesSequentially) {
  Fixture fixture;
  for (int i = 0; i < 3; ++i) {
    fixture.environment->kernels().reset();
    const AclMessage reply =
        fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
    EXPECT_EQ(reply.param("success"), "true") << reply.param("error");
  }
  EXPECT_EQ(fixture.environment->coordination().cases_completed(), 3u);
}

TEST(Coordination, ReleaseFinishedDropsOnlyFinishedEnactments) {
  Fixture fixture;
  CoordinationService& coordination = fixture.environment->coordination();
  const AclMessage done =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(done.param("success"), "true") << done.param("error");

  // A second case, started but not run to its end.
  AclMessage request;
  request.performative = Performative::Request;
  request.sender = fixture.client->name();
  request.receiver = names::kCoordination;
  request.protocol = protocols::kEnactCase;
  request.content = wfl::process_to_xml_string(virolab::make_fig10_process());
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  fixture.environment->platform().send(request);
  fixture.environment->sim().run(4);
  ASSERT_EQ(coordination.enactment_count(), 2u);
  EXPECT_EQ(coordination.finished_enactment_count(), 1u);

  EXPECT_EQ(coordination.release_finished(), 1u);
  EXPECT_EQ(coordination.enactment_count(), 1u);
  EXPECT_EQ(coordination.finished_enactment_count(), 0u);

  const auto checkpoint = [&](const std::string& id) {
    AclMessage snapshot;
    snapshot.performative = Performative::Request;
    snapshot.sender = fixture.client->name();
    snapshot.receiver = names::kCoordination;
    snapshot.protocol = protocols::kCheckpointCase;
    snapshot.conversation_id = "snapshot/" + id;
    snapshot.params["case"] = id;
    fixture.environment->platform().send(snapshot);
    fixture.environment->sim().run_until(fixture.environment->sim().now() + 1.0);
    for (auto it = fixture.client->replies.rbegin(); it != fixture.client->replies.rend(); ++it)
      if (it->conversation_id == snapshot.conversation_id) return it->performative;
    return Performative::NotUnderstood;
  };
  // The released case is gone; the running one can still be snapshotted.
  EXPECT_EQ(checkpoint(done.param("case")), Performative::Failure);
  EXPECT_EQ(checkpoint("case-2"), Performative::Inform);

  // Late traffic of the released case is dropped as for a finished one, and
  // the running case still completes.
  fixture.environment->run();
  ASSERT_FALSE(fixture.client->replies.empty());
  const AclMessage& last = fixture.client->replies.back();
  EXPECT_EQ(last.protocol, protocols::kCaseCompleted);
  EXPECT_EQ(last.param("success"), "true") << last.param("error");
  EXPECT_EQ(coordination.release_finished(), 1u);
  EXPECT_EQ(coordination.enactment_count(), 0u);
  EXPECT_EQ(coordination.release_finished(), 0u);
}

TEST(Coordination, MakespanReflectsSlowWanStaging) {
  // Same workload, but all inter-domain links throttled: makespan grows.
  EnvironmentOptions fast_options;
  fast_options.seed = 7;
  Fixture fast(fast_options);
  const AclMessage fast_reply =
      fast.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(fast_reply.param("success"), "true");

  EnvironmentOptions slow_options;
  slow_options.seed = 7;
  Fixture slow(slow_options);
  const auto domains = slow.environment->grid().domains();
  for (std::size_t i = 0; i < domains.size(); ++i) {
    for (std::size_t j = i + 1; j < domains.size(); ++j) {
      slow.environment->grid().network().set_link(domains[i], domains[j], {5.0, 0.5});
    }
  }
  slow.environment->grid().network().set_default_link({5.0, 0.5});
  const AclMessage slow_reply =
      slow.enact(virolab::make_fig10_process(), virolab::make_case_description());
  ASSERT_EQ(slow_reply.param("success"), "true");
  EXPECT_GT(std::stod(slow_reply.param("makespan")),
            std::stod(fast_reply.param("makespan")));
}


// -- pinned transcripts ------------------------------------------------------------

/// FNV-1a over a platform message trace: every message's envelope, params,
/// the bit patterns of its send and delivery times, and its typed data set.
class TranscriptDigest {
 public:
  void add(const agent::AgentPlatform& platform) {
    for (const agent::TraceRecord& record : platform.trace()) {
      add_bits(record.sent_at);
      add_bits(record.delivered_at);
      add(record.message);
    }
  }
  void add(const AclMessage& message) {
    add_word(static_cast<std::uint64_t>(message.performative));
    for (const std::string* field : {&message.sender, &message.receiver, &message.protocol,
                                     &message.conversation_id})
      add(*field);
    add_params(message);
    add_word(message.data != nullptr ? message.data->items().size() + 1 : 0);
    if (message.data == nullptr) return;
    for (const wfl::DataSpec& item : message.data->items()) {
      add(item.name());
      add_word(item.properties().size());
      for (const auto& [key, value] : item.properties()) {
        add(key);
        add(value);
      }
    }
  }
  void add_params(const AclMessage& message) {
    add_word(message.params.size());
    for (const auto& [key, value] : message.params) {
      add(key);
      add(value);
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  void add(const meta::Value& value) {
    add_word(static_cast<std::uint64_t>(value.type()));
    switch (value.type()) {
      case meta::ValueType::None: return;
      case meta::ValueType::String: return add(value.as_string());
      case meta::ValueType::Number: return add_bits(value.as_number());
      case meta::ValueType::Boolean: return add_word(value.as_boolean() ? 1 : 0);
      case meta::ValueType::List:
        add_word(value.as_list().size());
        for (const meta::Value& element : value.as_list()) add(element);
        return;
    }
  }
  void add(const std::string& text) {
    add_word(text.size());
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  void add_bits(double value) { add_word(std::bit_cast<std::uint64_t>(value)); }
  void add_word(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Sends `request` from the fixture's client and runs the calendar dry;
/// returns the client's last reply.
AclMessage request_and_run(Fixture& fixture, AclMessage request) {
  request.sender = fixture.client->name();
  fixture.environment->platform().send(std::move(request));
  fixture.environment->run();
  EXPECT_FALSE(fixture.client->replies.empty());
  return fixture.client->replies.empty() ? AclMessage{} : fixture.client->replies.back();
}

EnvironmentOptions healthy_grid(std::uint64_t seed) {
  EnvironmentOptions options;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 2;
  options.tracing = true;
  options.seed = seed;
  return options;
}

void make_reliable(Environment& environment) {
  for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
}

/// A restore-case request for a checkpoint of `process` (initial data, no
/// completions).
AclMessage restore_request(const wfl::ProcessDescription& process) {
  xml::Document document("checkpoint");
  xml::Element& root = document.root();
  root.set_attribute("case", "case-1");
  root.add_child("process-xml").set_text(wfl::process_to_xml_string(process));
  const wfl::CaseDescription case_description = virolab::make_case_description();
  root.add_child("case-xml").set_text(wfl::case_to_xml_string(case_description));
  root.add_child("dataset-xml")
      .set_text(wfl::dataset_to_xml_string(case_description.initial_data()));
  root.add_child("completions");
  AclMessage restore;
  restore.performative = Performative::Request;
  restore.receiver = names::kCoordination;
  restore.protocol = protocols::kRestoreCase;
  restore.content = document.to_string();
  return restore;
}

TEST(Coordination, RestoreRejectsAnInvalidCheckpointProcess) {
  wfl::ProcessDescription no_end("no-end");
  no_end.add_flow_control("B", wfl::ActivityKind::Begin);
  no_end.add_end_user("P", "POD", "POD");
  no_end.add_transition("B", "P");
  wfl::ProcessDescription no_begin("no-begin");
  no_begin.add_end_user("P", "POD", "POD");
  no_begin.add_flow_control("E", wfl::ActivityKind::End);
  no_begin.add_transition("P", "E");

  for (const auto& [process, missing] :
       {std::pair{no_end, "End activity"}, std::pair{no_begin, "Begin activity"}}) {
    Fixture fixture;
    const AclMessage reply = request_and_run(fixture, restore_request(process));
    EXPECT_EQ(fixture.client->replies.size(), 1u) << process.name();
    EXPECT_EQ(reply.performative, Performative::Failure) << process.name();
    EXPECT_NE(reply.param("error").find(missing), std::string::npos) << reply.param("error");
    EXPECT_EQ(fixture.environment->coordination().enactment_count(), 0u) << process.name();
    EXPECT_EQ(fixture.environment->platform().handler_failures_total(), 0u) << process.name();
  }
}

/// Planning-service stand-in that answers every re-plan request with a
/// fixed process.
class StubPlanner : public agent::Agent {
 public:
  StubPlanner(std::string name, wfl::ProcessDescription plan)
      : Agent(std::move(name)), plan_(std::move(plan)) {}
  void handle_message(const AclMessage& message) override {
    if (message.protocol != protocols::kReplanRequest) return;
    AclMessage reply = message.make_reply(Performative::Inform);
    reply.content = wfl::process_to_xml_string(plan_);
    send(std::move(reply));
  }

 private:
  wfl::ProcessDescription plan_;
};

TEST(Coordination, AnInvalidReplanEndsTheCaseFailed) {
  Fixture fixture;
  // POR is hosted nowhere, so the case asks for a new plan; the planner's
  // answer has no End activity.
  auto& grid = fixture.environment->grid();
  for (const auto* container : grid.containers_advertising("POR"))
    grid.find_container(container->id())->unhost_service("POR");
  wfl::ProcessDescription no_end("no-end");
  no_end.add_flow_control("B", wfl::ActivityKind::Begin);
  no_end.add_end_user("P", "POD", "POD");
  no_end.add_transition("B", "P");
  auto& platform = fixture.environment->platform();
  platform.deregister_agent(names::kPlanning);
  platform.spawn<StubPlanner>(names::kPlanning, no_end);

  const AclMessage reply =
      fixture.enact(virolab::make_fig10_process(), virolab::make_case_description());
  EXPECT_EQ(reply.protocol, protocols::kCaseCompleted);
  EXPECT_EQ(reply.param("success"), "false");
  EXPECT_NE(reply.param("error").find("End activity"), std::string::npos) << reply.param("error");
  EXPECT_EQ(fixture.environment->coordination().cases_failed(), 1u);
  EXPECT_EQ(fixture.environment->coordination().finished_enactment_count(),
            fixture.environment->coordination().enactment_count());
  EXPECT_EQ(platform.handler_failures_total(), 0u);
}

TEST(CoordinationPin, TranscriptDigestIsUnchanged) {
  // Four fig10 workloads through the asynchronous machine: a healthy grid,
  // the chaos settings of `igrid_cli chaos`, the Figure 3 re-plan with POR
  // hosted nowhere, and a case that fails at POR, is checkpointed post
  // mortem and is restored on a healthy grid. Any change to the order,
  // timing or content of the coordinator's messages changes the digest.
  TranscriptDigest digest;
  const auto record = [&digest](Fixture& fixture, const AclMessage& completed) {
    EXPECT_EQ(completed.protocol, protocols::kCaseCompleted);
    digest.add_params(completed);
    digest.add(fixture.environment->platform());
  };

  {
    Fixture healthy(healthy_grid(123));
    make_reliable(*healthy.environment);
    const AclMessage reply =
        healthy.enact(virolab::make_fig10_process(), virolab::make_case_description());
    EXPECT_EQ(reply.param("success"), "true") << reply.param("error");
    record(healthy, reply);
  }
  {
    EnvironmentOptions options = healthy_grid(2004);
    options.topology.nodes_per_domain = 3;
    options.heartbeat_period = 5.0;
    options.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
    options.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
    agent::ChaosRule rule;
    rule.match.receiver = "ac-*";
    rule.drop = 0.2;
    rule.delay = 0.1;
    options.chaos.rules.push_back(rule);
    options.chaos.seed = 2004;
    Fixture chaotic(options);
    const AclMessage reply =
        chaotic.enact(virolab::make_fig10_process(), virolab::make_case_description());
    EXPECT_GT(chaotic.environment->platform().chaos_stats().dropped, 0u);
    record(chaotic, reply);
  }
  {
    Fixture replan(healthy_grid(77));
    auto& grid = replan.environment->grid();
    for (const auto* container : grid.containers_advertising("POR"))
      grid.find_container(container->id())->unhost_service("POR");
    const AclMessage reply =
        replan.enact(virolab::make_fig10_process(), virolab::make_case_description());
    EXPECT_NE(reply.param("replans"), "0");
    record(replan, reply);
  }
  {
    EnvironmentOptions options = healthy_grid(31);
    options.coordination.max_replans = 0;
    Fixture failing(options);
    auto& grid = failing.environment->grid();
    for (const auto* container : grid.containers_advertising("POR"))
      grid.find_container(container->id())->unhost_service("POR");
    const AclMessage failed =
        failing.enact(virolab::make_fig10_process(), virolab::make_case_description());
    EXPECT_EQ(failed.param("success"), "false");
    record(failing, failed);

    AclMessage snapshot;
    snapshot.performative = Performative::Request;
    snapshot.receiver = names::kCoordination;
    snapshot.protocol = protocols::kCheckpointCase;
    snapshot.params["case"] = failed.param("case");
    const AclMessage checkpoint = request_and_run(failing, snapshot);
    ASSERT_EQ(checkpoint.performative, Performative::Inform) << checkpoint.param("error");

    Fixture restored(healthy_grid(31));
    AclMessage restore;
    restore.performative = Performative::Request;
    restore.receiver = names::kCoordination;
    restore.protocol = protocols::kRestoreCase;
    restore.content = checkpoint.content;
    restore.params["reset-replans"] = "true";
    const AclMessage reply = request_and_run(restored, restore);
    EXPECT_EQ(reply.param("success"), "true") << reply.param("error");
    EXPECT_NE(reply.param("activities-replayed"), "0");
    record(restored, reply);
  }
  // A reference value, not derived: change it only with a deliberate change
  // of the coordinator's behaviour.
  EXPECT_EQ(digest.value(), 0xc2166e80b01d8e49ULL);
}

}  // namespace
}  // namespace ig::svc
