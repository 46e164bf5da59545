// End-to-end scenarios across the full service stack: plan with the GP
// planner through the planning service, then enact the returned process
// description through the coordination service — the complete Figure 1
// pipeline on the simulated grid.
#include <gtest/gtest.h>

#include "services/container_agent.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {
namespace {

using agent::AclMessage;
using agent::Performative;

/// A user-interface agent that requests a plan and then enacts it.
class UserAgent : public agent::Agent {
 public:
  explicit UserAgent(std::string name, wfl::CaseDescription cd)
      : Agent(std::move(name)), case_(std::move(cd)) {}

  void on_start() override {
    AclMessage request;
    request.performative = Performative::Request;
    request.receiver = names::kPlanning;
    request.protocol = protocols::kPlanRequest;
    request.conversation_id = "user-plan";
    request.params["seed"] = "13";
    request.content = wfl::case_to_xml_string(case_);
    send(std::move(request));
  }

  void handle_message(const AclMessage& message) override {
    if (message.protocol == protocols::kPlanRequest) {
      plan_reply = message;
      if (message.performative != Performative::Inform) return;
      AclMessage enact;
      enact.performative = Performative::Request;
      enact.receiver = names::kCoordination;
      enact.protocol = protocols::kEnactCase;
      enact.content = message.content;
      enact.params["case-xml"] = wfl::case_to_xml_string(case_);
      send(std::move(enact));
      return;
    }
    if (message.protocol == protocols::kCaseCompleted) {
      case_reply = message;
    }
  }

  wfl::CaseDescription case_;
  AclMessage plan_reply;
  AclMessage case_reply;
};

EnvironmentOptions small_options(std::uint64_t seed = 42) {
  EnvironmentOptions options;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 3;
  options.gp.population_size = 140;
  options.gp.generations = 18;
  options.seed = seed;
  return options;
}

TEST(Integration, PlanThenEnactReachesGoal) {
  auto environment = make_environment(small_options());
  auto& user = environment->platform().spawn<UserAgent>(
      "user", virolab::make_case_description());
  environment->run();

  ASSERT_EQ(user.plan_reply.performative, Performative::Inform)
      << user.plan_reply.param("error");
  EXPECT_EQ(user.plan_reply.param("goal-fitness"), "1");

  ASSERT_EQ(user.case_reply.performative, Performative::Inform)
      << user.case_reply.param("error");
  EXPECT_EQ(user.case_reply.param("success"), "true");
  EXPECT_EQ(user.case_reply.param("goal-satisfaction"), "1");

  // The produced resolution file is in the final state.
  const wfl::DataSet final_state = wfl::dataset_from_xml_string(user.case_reply.content);
  bool has_resolution = false;
  for (const auto& item : final_state.items()) {
    if (item.classification() == "Resolution File") has_resolution = true;
  }
  EXPECT_TRUE(has_resolution);
}

TEST(Integration, PlanThenEnactSurvivesMidRunOutages) {
  auto environment = make_environment(small_options(77));
  auto& grid = environment->grid();
  // Guarantee an alternate POD host exists, then take the primary one down
  // mid-run (it recovers much later): the retry ladder must reroute.
  grid::HardwareSpec spare_hw;
  spare_hw.speed = 2.0;
  grid.add_node("spare-node", "spare", "domain1", spare_hw);
  auto& spare = grid.add_container("spare-ac", "spare-node");
  spare.host_service("POD");
  environment->platform().spawn<ContainerAgent>("spare-ac", grid, environment->sim(),
                                                environment->injector(), "spare-ac",
                                                environment->catalogue(),
                                                environment->kernels());
  const auto pod_hosts = grid.containers_advertising("POD");
  ASSERT_GE(pod_hosts.size(), 2u);
  environment->injector().schedule_container_outage(environment->sim(), grid,
                                                    pod_hosts.front()->id(), 0.5, 200.0);
  auto& user = environment->platform().spawn<UserAgent>(
      "user", virolab::make_case_description());
  environment->run();
  ASSERT_EQ(user.case_reply.performative, Performative::Inform)
      << user.case_reply.param("error");
  EXPECT_EQ(user.case_reply.param("success"), "true");
}

TEST(Integration, MessageTraceCoversFigure2Exchange) {
  EnvironmentOptions options = small_options();
  options.tracing = true;
  auto environment = make_environment(options);
  environment->platform().clear_trace();

  environment->platform().spawn<UserAgent>("user", virolab::make_case_description());
  environment->run();

  // Figure 2: a planning request reaches PS and a plan comes back.
  bool saw_request = false;
  bool saw_reply = false;
  for (const auto& record : environment->platform().trace()) {
    if (record.message.protocol == protocols::kPlanRequest) {
      if (record.message.receiver == names::kPlanning &&
          record.message.performative == Performative::Request)
        saw_request = true;
      if (record.message.sender == names::kPlanning &&
          record.message.performative == Performative::Inform)
        saw_reply = true;
    }
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_reply);
}

TEST(Integration, BrokerageHistoryGrowsWithExecutions) {
  auto environment = make_environment(small_options());
  auto& user = environment->platform().spawn<UserAgent>(
      "user", virolab::make_case_description());
  environment->run();
  ASSERT_EQ(user.case_reply.param("success"), "true");

  // Every executed activity reported its performance to the brokerage.
  std::size_t recorded = 0;
  for (const auto& container : environment->grid().containers()) {
    const PerformanceHistory* history =
        environment->brokerage().history_of(container->id());
    if (history != nullptr) recorded += history->successes + history->failures;
  }
  EXPECT_GE(recorded, std::stoul(user.case_reply.param("activities-executed")));
}

TEST(Integration, MonitoringSamplesUtilization) {
  EnvironmentOptions options = small_options();
  options.monitor_period = 0.5;
  auto environment = make_environment(options);
  environment->platform().spawn<UserAgent>("user", virolab::make_case_description());
  environment->run(200'000);
  EXPECT_FALSE(environment->monitoring().samples().empty());
}

TEST(Integration, DeterministicAcrossIdenticalEnvironments) {
  auto run_once = [] {
    auto environment = make_environment(small_options(5));
    auto& user = environment->platform().spawn<UserAgent>(
        "user", virolab::make_case_description());
    environment->run();
    return user.case_reply.param("makespan");
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ig::svc
