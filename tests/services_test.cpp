#include <gtest/gtest.h>

#include <set>

#include "meta/standard.hpp"
#include "meta/xml_io.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {
namespace {

using agent::AclMessage;
using agent::Performative;

/// Test client that records replies.
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
    options.topology.domains = 2;
    options.topology.nodes_per_domain = 2;
    options.seed = 11;
    environment = make_environment(options);
    client = &environment->platform().spawn<Client>("ui");
  }

  AclMessage last() const {
    EXPECT_FALSE(client->replies.empty());
    return client->replies.empty() ? AclMessage{} : client->replies.back();
  }

  std::unique_ptr<Environment> environment;
  Client* client = nullptr;
};

TEST(InformationServiceTest, CoreServicesSelfRegister) {
  Fixture fixture;
  auto& info = fixture.environment->information();
  EXPECT_EQ(info.providers_of("brokerage"), (std::vector<std::string>{names::kBrokerage}));
  EXPECT_EQ(info.providers_of("planning"), (std::vector<std::string>{names::kPlanning}));
  EXPECT_EQ(info.providers_of("coordination"),
            (std::vector<std::string>{names::kCoordination}));
  EXPECT_FALSE(info.providers_of("application-container").empty());
  EXPECT_TRUE(info.providers_of("teleportation").empty());
}

TEST(InformationServiceTest, QueryByMessage) {
  Fixture fixture;
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kInformation;
  query.protocol = protocols::kQueryService;
  query.params["type"] = "matchmaking";
  fixture.client->request(fixture.environment->platform(), query);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("providers"), names::kMatchmaking);
}

TEST(InformationServiceTest, DeregisterRemovesProvider) {
  Fixture fixture;
  AclMessage dereg;
  dereg.performative = Performative::Request;
  dereg.receiver = names::kInformation;
  dereg.protocol = protocols::kDeregister;
  dereg.params["type"] = "scheduling";
  dereg.params["provider"] = names::kScheduling;
  fixture.client->request(fixture.environment->platform(), dereg);
  fixture.environment->run();
  EXPECT_TRUE(fixture.environment->information().providers_of("scheduling").empty());
}

TEST(BrokerageTest, ContainersAdvertiseOnStartup) {
  Fixture fixture;
  auto& brokerage = fixture.environment->brokerage();
  for (const char* service : {"POD", "P3DR", "POR", "PSF"}) {
    EXPECT_FALSE(brokerage.providers_of(service).empty()) << service;
  }
  EXPECT_FALSE(brokerage.equivalence_classes().empty());
}

TEST(BrokerageTest, HistoryQueryNeutralWhenUnknown) {
  Fixture fixture;
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kBrokerage;
  query.protocol = protocols::kQueryHistory;
  query.params["container"] = "never-dispatched";
  fixture.client->request(fixture.environment->platform(), query);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("success-rate"), "1");
}

TEST(BrokerageTest, PerformanceReportsAccumulate) {
  Fixture fixture;
  auto& platform = fixture.environment->platform();
  for (int i = 0; i < 3; ++i) {
    AclMessage report;
    report.performative = Performative::Inform;
    report.receiver = names::kBrokerage;
    report.protocol = protocols::kReportPerformance;
    report.params["container"] = "ac-1";
    report.params["outcome"] = i < 2 ? "success" : "failure";
    report.params["duration"] = "2.0";
    fixture.client->request(platform, report);
  }
  fixture.environment->run();
  const PerformanceHistory* history = fixture.environment->brokerage().history_of("ac-1");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->successes, 2u);
  EXPECT_EQ(history->failures, 1u);
  EXPECT_NEAR(history->success_rate(), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(history->mean_duration(), 2.0);
}

TEST(MatchmakingTest, FindsContainerForService) {
  Fixture fixture;
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kMatchmaking;
  query.protocol = protocols::kFindContainer;
  query.params["service"] = "POD";
  fixture.client->request(fixture.environment->platform(), query);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Inform);
  EXPECT_FALSE(reply.param("container").empty());
}

TEST(MatchmakingTest, ExclusionRespected) {
  Fixture fixture;
  const auto all = fixture.environment->matchmaking().rank("POD", {}, MatchStrategy::Balanced);
  ASSERT_FALSE(all.empty());
  const auto without_best =
      fixture.environment->matchmaking().rank("POD", {all.front()}, MatchStrategy::Balanced);
  for (const auto& container : without_best) EXPECT_NE(container, all.front());
}

TEST(MatchmakingTest, FailsWhenNoProvider) {
  Fixture fixture;
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kMatchmaking;
  query.protocol = protocols::kFindContainer;
  query.params["service"] = "NONEXISTENT";
  fixture.client->request(fixture.environment->platform(), query);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
}

TEST(MatchmakingTest, StrategiesRankDifferently) {
  Fixture fixture;
  auto& matchmaking = fixture.environment->matchmaking();
  const auto fastest = matchmaking.rank("POD", {}, MatchStrategy::Fastest);
  const auto first_fit = matchmaking.rank("POD", {}, MatchStrategy::FirstFit);
  ASSERT_FALSE(fastest.empty());
  EXPECT_EQ(fastest.size(), first_fit.size());
  // FirstFit preserves discovery order; Fastest sorts by speed. They may
  // coincide by luck on tiny grids, but the sets must be equal.
  std::set<std::string> a(fastest.begin(), fastest.end());
  std::set<std::string> b(first_fit.begin(), first_fit.end());
  EXPECT_EQ(a, b);
}

TEST(MonitoringTest, NodeStatusQuery) {
  Fixture fixture;
  const std::string node_id = fixture.environment->grid().nodes().front()->id();
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kMonitoring;
  query.protocol = protocols::kQueryStatus;
  query.params["node"] = node_id;
  fixture.client->request(fixture.environment->platform(), query);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("state"), "up");
}

TEST(MonitoringTest, UnknownNodeFails) {
  Fixture fixture;
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kMonitoring;
  query.protocol = protocols::kQueryStatus;
  query.params["node"] = "ghost";
  fixture.client->request(fixture.environment->platform(), query);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
}

TEST(OntologyServiceTest, ShellVersusPopulated) {
  Fixture fixture;
  auto& platform = fixture.environment->platform();
  AclMessage shell_query;
  shell_query.performative = Performative::QueryRef;
  shell_query.receiver = names::kOntology;
  shell_query.protocol = protocols::kGetShell;
  shell_query.params["name"] = "3DSD-instances";
  fixture.client->request(platform, shell_query);
  fixture.environment->run();
  {
    const meta::Ontology shell = meta::from_xml_string(fixture.last().content);
    EXPECT_TRUE(shell.is_shell());
    EXPECT_EQ(shell.class_count(), 10u);
  }
  AclMessage full_query;
  full_query.performative = Performative::QueryRef;
  full_query.receiver = names::kOntology;
  full_query.protocol = protocols::kGetOntology;
  full_query.params["name"] = "3DSD-instances";
  fixture.client->request(platform, full_query);
  fixture.environment->run();
  {
    const meta::Ontology full = meta::from_xml_string(fixture.last().content);
    EXPECT_FALSE(full.is_shell());
    EXPECT_EQ(full.instances_of(meta::classes::kData).size(), 12u);
  }
}

TEST(OntologyServiceTest, StoreValidatesDocuments) {
  Fixture fixture;
  meta::Ontology bad("broken");
  bad.add_class("Task").add_slot({"ID", meta::ValueType::String, true, {}, ""});
  bad.add_instance("T1", "Task");  // required ID missing
  AclMessage store;
  store.performative = Performative::Request;
  store.receiver = names::kOntology;
  store.protocol = protocols::kStoreOntology;
  store.content = meta::to_xml_string(bad);
  fixture.client->request(fixture.environment->platform(), store);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Refuse);
  EXPECT_EQ(fixture.environment->ontology().find("broken"), nullptr);
}

TEST(AuthenticationTest, TokenLifecycle) {
  Fixture fixture;
  fixture.environment->authentication().add_principal("alice", "secret");
  AclMessage login;
  login.performative = Performative::Request;
  login.receiver = names::kAuthentication;
  login.protocol = protocols::kAuthenticate;
  login.params["principal"] = "alice";
  login.params["secret"] = "secret";
  fixture.client->request(fixture.environment->platform(), login);
  fixture.environment->run();
  const std::string token = fixture.last().param("token");
  EXPECT_FALSE(token.empty());
  EXPECT_TRUE(fixture.environment->authentication().verify("alice", token));
  EXPECT_FALSE(fixture.environment->authentication().verify("alice", "forged"));
  EXPECT_FALSE(fixture.environment->authentication().verify("bob", token));
}

TEST(AuthenticationTest, BadCredentialsRefused) {
  Fixture fixture;
  fixture.environment->authentication().add_principal("alice", "secret");
  AclMessage login;
  login.performative = Performative::Request;
  login.receiver = names::kAuthentication;
  login.protocol = protocols::kAuthenticate;
  login.params["principal"] = "alice";
  login.params["secret"] = "wrong";
  fixture.client->request(fixture.environment->platform(), login);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Refuse);
}

TEST(StorageTest, PutGetList) {
  Fixture fixture;
  auto& platform = fixture.environment->platform();
  AclMessage put;
  put.performative = Performative::Request;
  put.receiver = names::kPersistentStorage;
  put.protocol = protocols::kStorePut;
  put.params["key"] = "process/PD-1";
  put.content = "<process name=\"PD-1\"/>";
  fixture.client->request(platform, put);
  fixture.environment->run();

  AclMessage get;
  get.performative = Performative::QueryRef;
  get.receiver = names::kPersistentStorage;
  get.protocol = protocols::kStoreGet;
  get.params["key"] = "process/PD-1";
  fixture.client->request(platform, get);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().content, "<process name=\"PD-1\"/>");

  AclMessage list;
  list.performative = Performative::QueryRef;
  list.receiver = names::kPersistentStorage;
  list.protocol = protocols::kStoreList;
  list.params["prefix"] = "process/";
  fixture.client->request(platform, list);
  fixture.environment->run();
  EXPECT_NE(fixture.last().param("keys").find("process/PD-1"), std::string::npos);
}

TEST(StorageTest, KeysWithPrefixRangeScan) {
  PersistentStorageService storage;
  // Interleaved prefixes, plus neighbours that sort immediately around the
  // "process/" range: "process" (no slash) sorts before it, "process0"
  // ('0' > '/') sorts after every "process/..." key and must not match.
  for (const char* key : {"plan/PD-1", "process/PD-1", "plan/PD-2", "process/PD-10",
                          "process", "process0", "case/1", "process/PD-2"})
    storage.put(key, "x");

  EXPECT_EQ(storage.keys_with_prefix("process/"),
            (std::vector<std::string>{"process/PD-1", "process/PD-10", "process/PD-2"}));
  EXPECT_EQ(storage.keys_with_prefix("plan/"),
            (std::vector<std::string>{"plan/PD-1", "plan/PD-2"}));
  EXPECT_EQ(storage.keys_with_prefix("proc").size(), 5u);  // "process*" family
  EXPECT_TRUE(storage.keys_with_prefix("zzz").empty());
  EXPECT_EQ(storage.keys_with_prefix("").size(), storage.size());
}

TEST(StorageTest, MissingKeyFails) {
  Fixture fixture;
  AclMessage get;
  get.performative = Performative::QueryRef;
  get.receiver = names::kPersistentStorage;
  get.protocol = protocols::kStoreGet;
  get.params["key"] = "void";
  fixture.client->request(fixture.environment->platform(), get);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
}

TEST(SchedulingTest, LptBeatsNothingAndOptimalBeatsLpt) {
  std::vector<ScheduledTask> tasks;
  for (double work : {7.0, 5.0, 4.0, 3.0, 3.0, 2.0}) tasks.push_back({"t", work, -1});
  const std::vector<double> speeds{1.0, 1.0};
  const Schedule lpt = schedule_lpt(tasks, speeds);
  const Schedule optimal = schedule_optimal(tasks, speeds);
  EXPECT_LE(optimal.makespan, lpt.makespan + 1e-12);
  EXPECT_DOUBLE_EQ(optimal.makespan, 12.0);  // total 24 split evenly
  for (const auto& task : lpt.tasks) EXPECT_GE(task.assigned_machine, 0);
}

TEST(SchedulingTest, HeterogeneousSpeedsFavorFastMachine) {
  std::vector<ScheduledTask> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back({"t" + std::to_string(i), 4.0, -1});
  const Schedule schedule = schedule_lpt(tasks, {4.0, 1.0});
  int fast = 0;
  for (const auto& task : schedule.tasks) {
    if (task.assigned_machine == 0) ++fast;
  }
  EXPECT_GT(fast, 4);
}

TEST(SchedulingTest, MessageProtocol) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kScheduling;
  request.protocol = protocols::kScheduleRequest;
  request.params["tasks"] = "a:6,b:4,c:2";
  request.params["speeds"] = "1,1";
  request.params["mode"] = "optimal";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("makespan"), "6");
  EXPECT_FALSE(fixture.last().param("assignment").empty());
}

TEST(SimulationServiceTest, DryRunsProcessDescription) {
  Fixture fixture;
  const auto process = virolab::make_fig10_process();
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kSimulation;
  request.protocol = protocols::kSimulatePlan;
  request.content = wfl::process_to_xml_string(process);
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Inform);
  EXPECT_EQ(reply.param("validity-fitness"), "1");
  EXPECT_EQ(reply.param("goal-fitness"), "1");
  EXPECT_EQ(reply.param("size"), "10");
}

TEST(ContainerAgentTest, QueryExecutableReflectsAvailability) {
  Fixture fixture;
  auto& grid = fixture.environment->grid();
  // Find a container hosting POD.
  const auto hosts = grid.containers_hosting("POD");
  ASSERT_FALSE(hosts.empty());
  const std::string container_id = hosts.front()->id();

  AclMessage probe;
  probe.performative = Performative::QueryIf;
  probe.receiver = container_id;
  probe.protocol = protocols::kQueryExecutable;
  probe.params["service"] = "POD";
  fixture.client->request(fixture.environment->platform(), probe);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("executable"), "true");

  grid.set_container_available(container_id, false);
  fixture.client->request(fixture.environment->platform(), probe);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().param("executable"), "false");
}

TEST(ContainerAgentTest, ExecuteProducesOutputs) {
  Fixture fixture;
  const auto hosts = fixture.environment->grid().containers_hosting("POD");
  ASSERT_FALSE(hosts.empty());

  AclMessage execute;
  execute.performative = Performative::Request;
  execute.receiver = hosts.front()->id();
  execute.protocol = protocols::kExecuteActivity;
  execute.params["service"] = "POD";
  execute.params["activity"] = "A2";
  execute.params["outputs"] = "D8";
  execute.data = std::make_shared<const wfl::DataSet>(virolab::make_initial_data());
  fixture.client->request(fixture.environment->platform(), execute);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  ASSERT_NE(reply.data, nullptr);
  const wfl::DataSet& produced = *reply.data;
  ASSERT_NE(produced.find("D8"), nullptr);
  EXPECT_EQ(produced.find("D8")->classification(), "Orientation File");
  EXPECT_GT(std::stod(reply.param("duration")), 0.0);
}

TEST(ContainerAgentTest, ExecuteFailsOnUnmetPrecondition) {
  Fixture fixture;
  const auto hosts = fixture.environment->grid().containers_hosting("PSF");
  ASSERT_FALSE(hosts.empty());
  AclMessage execute;
  execute.performative = Performative::Request;
  execute.receiver = hosts.front()->id();
  execute.protocol = protocols::kExecuteActivity;
  execute.params["service"] = "PSF";
  execute.params["activity"] = "A11";
  execute.data = std::make_shared<const wfl::DataSet>(virolab::make_initial_data());  // no models
  fixture.client->request(fixture.environment->platform(), execute);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
  EXPECT_NE(fixture.last().param("error").find("precondition"), std::string::npos);
}

TEST(ContainerAgentTest, ExecuteWithoutADataPayloadFailsThePrecondition) {
  // No typed payload binds the empty set, which POD's precondition rejects.
  Fixture fixture;
  const auto hosts = fixture.environment->grid().containers_hosting("POD");
  ASSERT_FALSE(hosts.empty());
  AclMessage execute;
  execute.performative = Performative::Request;
  execute.receiver = hosts.front()->id();
  execute.protocol = protocols::kExecuteActivity;
  execute.params["service"] = "POD";
  execute.params["activity"] = "A2";
  execute.content = wfl::dataset_to_xml_string(virolab::make_initial_data());  // ignored
  fixture.client->request(fixture.environment->platform(), execute);
  fixture.environment->run();
  EXPECT_EQ(fixture.last().performative, Performative::Failure);
  EXPECT_NE(fixture.last().param("error").find("precondition"), std::string::npos);
  EXPECT_EQ(fixture.last().data, nullptr);
}

TEST(PlanningServiceTest, Figure2PlanRequestReturnsValidProcess) {
  Fixture fixture;
  planner::GpConfig config = fixture.environment->planning().gp_config();
  config.population_size = 140;
  config.generations = 18;
  fixture.environment->planning().set_gp_config(config);

  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kPlanning;
  request.protocol = protocols::kPlanRequest;
  request.content = wfl::case_to_xml_string(virolab::make_case_description());
  request.params["seed"] = "5";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();

  const AclMessage reply = fixture.last();
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  EXPECT_EQ(reply.param("validity-fitness"), "1");
  EXPECT_EQ(reply.param("goal-fitness"), "1");
  const auto process = wfl::process_from_xml_string(reply.content);
  EXPECT_GT(process.end_user_activity_count(), 0u);
  // The plan is archived in the knowledge base (persistent storage).
  EXPECT_TRUE(fixture.environment->storage().get("process/PD-3DSD").has_value());
}

TEST(PlanningServiceTest, Figure3ReplanExcludesFailedServices) {
  Fixture fixture;
  planner::GpConfig config = fixture.environment->planning().gp_config();
  config.population_size = 140;
  config.generations = 18;
  fixture.environment->planning().set_gp_config(config);

  // Kill every container hosting POR so probing reports it non-executable.
  auto& grid = fixture.environment->grid();
  for (const auto* container : grid.containers_advertising("POR"))
    grid.find_container(container->id())->unhost_service("POR");

  wfl::CaseDescription replan_case = virolab::make_case_description();
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kPlanning;
  request.protocol = protocols::kReplanRequest;
  request.params["probe"] = "true";
  request.content = wfl::case_to_xml_string(replan_case);
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();

  const AclMessage reply = fixture.last();
  ASSERT_EQ(reply.performative, Performative::Inform) << reply.param("error");
  const auto process = wfl::process_from_xml_string(reply.content);
  // POR cannot appear in the new plan.
  for (const auto& activity : process.activities()) {
    EXPECT_NE(activity.service_name, "POR") << "POR is not executable anywhere";
  }
}

}  // namespace
}  // namespace ig::svc
