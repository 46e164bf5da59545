// Tests for the simulation service's two dry-run protocols and assorted
// service edge cases that the main services suite does not cover.
#include <gtest/gtest.h>

#include "services/environment.hpp"
#include "services/protocol.hpp"
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
  void request(agent::AgentPlatform& platform, AclMessage message) {
    message.sender = name();
    platform.send(std::move(message));
  }
  std::vector<AclMessage> replies;
};

struct Fixture {
  Fixture() {
    EnvironmentOptions options;
    options.topology.domains = 1;
    options.topology.nodes_per_domain = 2;
    options.seed = 3;
    environment = make_environment(options);
    client = &environment->platform().spawn<Client>("ui");
  }
  AclMessage last() const {
    return client->replies.empty() ? AclMessage{} : client->replies.back();
  }
  std::unique_ptr<Environment> environment;
  Client* client = nullptr;
};

TEST(SimulateCase, DryRunsTheFigure10Workflow) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kSimulation;
  request.protocol = protocols::kSimulateCase;
  request.content = wfl::process_to_xml_string(virolab::make_fig10_process());
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();

  const AclMessage reply = fixture.last();
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  EXPECT_EQ(reply.param("success"), "true");
  EXPECT_EQ(reply.param("goal-satisfaction"), "1");
  // Declarative outputs carry no resolution Value, so the loop runs once:
  // 7 end-user executions.
  EXPECT_EQ(reply.param("activities-executed"), "7");
  ASSERT_NE(reply.data, nullptr);
  const wfl::DataSet& predicted = *reply.data;
  EXPECT_FALSE(predicted.with_classification("Resolution File").empty());
}

TEST(SimulateCase, ReportsFailureForUnreachableGoal) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kSimulation;
  request.protocol = protocols::kSimulateCase;
  request.content = wfl::process_to_xml_string(
      wfl::lower_to_process(wfl::parse_flow("BEGIN, POD, END"), "short"));
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  ASSERT_EQ(reply.performative, Performative::Inform);
  EXPECT_EQ(reply.param("success"), "false");
  EXPECT_EQ(reply.param("goal-satisfaction"), "0");
}

TEST(SimulateCase, BadPayloadFails) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kSimulation;
  request.protocol = protocols::kSimulateCase;
  request.content = "not xml at all";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
}

TEST(SimulatePlan, CountsSimulations) {
  Fixture fixture;
  auto& simulation = fixture.environment->simulation();
  const std::size_t before = simulation.simulations_run();
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kSimulation;
  request.protocol = protocols::kSimulatePlan;
  request.content = wfl::process_to_xml_string(virolab::make_fig10_process());
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  EXPECT_EQ(simulation.simulations_run(), before + 1);
  EXPECT_EQ(fixture.last().param("goal-fitness"), "1");
}

TEST(ServiceEdgeCases, OntologyShellUnknownNameFails) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::QueryRef;
  request.receiver = names::kOntology;
  request.protocol = protocols::kGetShell;
  request.params["name"] = "nope";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
}

TEST(ServiceEdgeCases, UnknownProtocolOnRequestBounces) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kBrokerage;
  request.protocol = "make-coffee";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::NotUnderstood);
}

TEST(ServiceEdgeCases, StrayInformDoesNotBounceBack) {
  Fixture fixture;
  AclMessage inform;
  inform.performative = Performative::Inform;
  inform.receiver = names::kBrokerage;
  inform.protocol = "make-coffee";
  fixture.client->request(fixture.environment->platform(), inform);
  fixture.environment->run();
  EXPECT_TRUE(fixture.client->replies.empty());
}

TEST(ServiceEdgeCases, ServiceWithdrawalMakesProbeNegative) {
  Fixture fixture;
  auto& grid = fixture.environment->grid();
  const auto hosts = grid.containers_advertising("POD");
  ASSERT_FALSE(hosts.empty());
  const std::string container_id = hosts.front()->id();
  ASSERT_TRUE(grid.find_container(container_id)->unhost_service("POD"));
  EXPECT_FALSE(grid.find_container(container_id)->unhost_service("POD"));  // idempotent

  AclMessage probe;
  probe.performative = Performative::QueryIf;
  probe.receiver = container_id;
  probe.protocol = protocols::kQueryExecutable;
  probe.params["service"] = "POD";
  fixture.client->request(fixture.environment->platform(), probe);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("executable"), "false");
}

TEST(ServiceEdgeCases, PlanningSeedRotationStillDeterministic) {
  // Two identical environments produce identical re-plans even though the
  // planning service rotates seeds across episodes.
  auto run_once = [] {
    EnvironmentOptions options;
    options.topology.domains = 1;
    options.topology.nodes_per_domain = 2;
    options.gp.population_size = 50;
    options.gp.generations = 8;
    options.seed = 5;
    auto environment = make_environment(options);
    auto& client = environment->platform().spawn<Client>("ui");
    AclMessage request;
    request.performative = Performative::Request;
    request.receiver = names::kPlanning;
    request.protocol = protocols::kPlanRequest;
    request.content = wfl::case_to_xml_string(virolab::make_case_description());
    client.request(environment->platform(), request);
    environment->run();
    return client.replies.empty() ? std::string() : client.replies.back().content;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ig::svc
