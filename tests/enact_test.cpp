// Tests for the synchronous abstract ATN machine (wfl/enact.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "planner/convert.hpp"
#include "planner/operators.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "services/user_interface.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/kernels.hpp"
#include "virolab/workflow.hpp"
#include "wfl/enact.hpp"
#include "wfl/structure.hpp"

namespace ig::wfl {
namespace {

CaseDescription virolab_case() { return virolab::make_case_description(); }

/// Generated plans in the differential suite (GP's random_tree, size <= 12).
constexpr int kGeneratedPlans = 200;
/// Sim events one asynchronous run may take (fig10 takes about 100).
constexpr std::size_t kAsyncEventBudget = 5'000;

/// Executor backed by the synthetic kernels (stateful convergence).
ActivityExecutor kernels_executor(virolab::SyntheticKernels& kernels,
                                  const ServiceCatalogue& catalogue) {
  return [&kernels, &catalogue](const Activity& activity,
                                const DataSet& state) -> std::optional<std::vector<DataSpec>> {
    const ServiceType* service = catalogue.find(activity.service_name);
    if (service == nullptr) return std::nullopt;
    auto bindings = service->bind_inputs(state);
    if (!bindings.has_value()) return std::nullopt;
    return kernels.execute(*service, *bindings, activity.output_data);
  };
}

TEST(SyncEnact, Figure10WithKernelsConvergesInTwoPasses) {
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  virolab::SyntheticKernels kernels;
  const EnactmentResult result =
      enact(process, virolab_case(), kernels_executor(kernels, catalogue));
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 12);  // 2 + 2 x 5
  EXPECT_DOUBLE_EQ(result.goal_satisfaction, 1.0);
  ASSERT_NE(result.final_data.find("D12"), nullptr);
  EXPECT_LE(result.final_data.find("D12")->get("Value").as_number(), 8.0);
  EXPECT_EQ(kernels.refinement_passes(), 2u);
}

TEST(SyncEnact, Figure10WithDeclarativeExecutorExitsLoopAfterOnePass) {
  // The declarative executor produces a Resolution File without a Value
  // property, so Cons1 ("Value > 8") is immediately false: one loop pass.
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 7);  // 2 + 1 x 5
}

TEST(SyncEnact, ForkJoinExecutesAllBranchesOnce) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, POD; P3DR1=P3DR; {FORK {P3DR2=P3DR} {P3DR3=P3DR} JOIN}; PSF, END"),
      "forky");
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success) << result.error;
  EXPECT_EQ(result.activities_executed, 5);
  // Every end-user activity appears exactly once in the trace.
  int executions = 0;
  for (const auto& step : result.trace) {
    if (step.executed) ++executions;
  }
  EXPECT_EQ(executions, 5);
}

TEST(SyncEnact, ExecutorFailureFailsTheEnactment) {
  const ProcessDescription process =
      lower_to_process(parse_flow("BEGIN, POD, END"), "failing");
  ActivityExecutor failing = [](const Activity&, const DataSet&) {
    return std::optional<std::vector<DataSpec>>{};
  };
  const EnactmentResult result = enact(process, virolab_case(), failing);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("failed"), std::string::npos);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_TRUE(result.trace.back().failed);
}

TEST(SyncEnact, InvalidProcessRejected) {
  ProcessDescription broken("broken");
  broken.add_flow_control("B", ActivityKind::Begin);
  const EnactmentResult result =
      enact(broken, virolab_case(), make_catalogue_executor(virolab::make_catalogue()));
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("invalid process"), std::string::npos);
}

TEST(SyncEnact, ReachingEndWithoutGoalIsNotSuccess) {
  // POD alone does not produce a resolution file.
  const ProcessDescription process = lower_to_process(parse_flow("BEGIN, POD, END"), "short");
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(virolab::make_catalogue()));
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.activities_executed, 1);
  EXPECT_DOUBLE_EQ(result.goal_satisfaction, 0.0);
}

TEST(SyncEnact, TrivialLoopGuardStopsAtGuardrail) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; PSF, END"),
      "looper");
  EnactmentOptions options;
  options.max_loop_iterations = 3;
  const EnactmentResult result = enact(process, virolab_case(),
                                       make_catalogue_executor(virolab::make_catalogue()),
                                       options);
  ASSERT_TRUE(result.success) << result.error;
  // POD + P3DR1 + 3 loop iterations of P3DR2 + PSF.
  EXPECT_EQ(result.activities_executed, 6);
}

TEST(SyncEnact, SelectiveTakesFirstSatisfiedGuard) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, POD; P3DR1=P3DR; P3DR2=P3DR; "
                 "{CHOICE {D7.Classification = \"2D Image\"} {PSF} "
                 "{D7.Classification = \"text\"} {POR} MERGE}, END"),
      "choosy");
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success) << result.error;
  // PSF ran (guard 1 held); POR did not.
  bool ran_psf = false;
  bool ran_por = false;
  for (const auto& step : result.trace) {
    if (step.activity_name == "PSF" && step.executed) ran_psf = true;
    if (step.activity_name == "POR" && step.executed) ran_por = true;
  }
  EXPECT_TRUE(ran_psf);
  EXPECT_FALSE(ran_por);
}

TEST(SyncEnact, StepBudgetGuardsAgainstRunaways) {
  const ProcessDescription process = lower_to_process(
      parse_flow("BEGIN, {ITERATIVE {COND true} {POD}}, END"), "runaway");
  EnactmentOptions options;
  options.max_loop_iterations = 1000000;  // defeat the loop guardrail
  options.max_steps = 500;
  const EnactmentResult result = enact(process, virolab_case(),
                                       make_catalogue_executor(virolab::make_catalogue()),
                                       options);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("step budget"), std::string::npos);
}

TEST(SyncEnact, TraceCoversEveryActivity) {
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success);
  // BEGIN and END appear; flow controls are recorded unexecuted.
  bool saw_begin = false;
  bool saw_end = false;
  for (const auto& step : result.trace) {
    if (step.activity_name == "BEGIN") saw_begin = true;
    if (step.activity_name == "END") saw_end = true;
    if (step.activity_name == "FORK") EXPECT_FALSE(step.executed);
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

// -- differential: the synchronous driver against the coordination service ------

struct DifferentialCase {
  std::string name;
  ProcessDescription process;
};

/// The FORK / CHOICE / ITERATIVE flows above and generated plans (fig10 has
/// its own test below).
std::vector<DifferentialCase> differential_cases() {
  std::vector<DifferentialCase> cases;
  const std::pair<const char*, const char*> flows[] = {
      {"fork", "BEGIN, POD; P3DR1=P3DR; {FORK {P3DR2=P3DR} {P3DR3=P3DR} JOIN}; PSF, END"},
      {"choice",
       "BEGIN, POD; P3DR1=P3DR; P3DR2=P3DR; "
       "{CHOICE {D7.Classification = \"2D Image\"} {PSF} "
       "{D7.Classification = \"text\"} {POR} MERGE}, END"},
      {"loop", "BEGIN, POD; P3DR1=P3DR; {ITERATIVE {COND true} {P3DR2=P3DR}}; PSF, END"},
  };
  for (const auto& [name, flow] : flows)
    cases.push_back({name, lower_to_process(parse_flow(flow), name)});
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  util::Rng rng(2004);
  for (int i = 0; i < kGeneratedPlans; ++i) {
    const planner::PlanNode plan =
        planner::to_tree(planner::random_tree(rng, catalogue, 12), catalogue);
    const std::string name = "generated_" + std::to_string(i);
    cases.push_back({name, planner::to_process(plan, name)});
  }
  return cases;
}

/// What a run leaves behind, in a form both drivers can be compared on.
struct Observed {
  bool success = false;
  std::string error;
  std::multiset<std::string> executed;  ///< activity ids of successful executions
  std::set<std::pair<std::string, std::string>> final_items;  ///< name, classification
  std::multiset<std::string> spans;  ///< kind/name/type
};

void observe_data(const DataSet& data, Observed& observed) {
  for (const DataSpec& item : data.items())
    observed.final_items.insert({item.name(), item.classification()});
}

void observe_spans(const obs::SpanTracer& tracer, Observed& observed) {
  for (const obs::Span& span : tracer.spans()) {
    const std::string* type = span.tag("type");
    observed.spans.insert(std::string(obs::to_string(span.kind)) + "/" + span.name + "/" +
                          (type != nullptr ? *type : ""));
  }
}

/// The synchronous driver with the kernels executor and the agent-based
/// coordination service on a fully reliable grid (no re-planning) must agree
/// on the outcome, the executed activities, the final data and the span shape.
void expect_drivers_agree(const DifferentialCase& input) {
  const ServiceCatalogue catalogue = virolab::make_catalogue();

  Observed sync;
  virolab::SyntheticKernels sync_kernels;
  obs::SpanTracer sync_tracer;
  sync_tracer.set_enabled(true);
  EnactmentOptions sync_options;
  sync_options.tracer = &sync_tracer;
  const EnactmentResult sync_result = enact(input.process, virolab_case(),
                                            kernels_executor(sync_kernels, catalogue),
                                            sync_options);
  sync.success = sync_result.success;
  sync.error = sync_result.error;
  for (const EnactmentStep& step : sync_result.trace)
    if (step.executed && !step.failed) sync.executed.insert(step.activity_id);
  observe_data(sync_result.final_data, sync);
  observe_spans(sync_tracer, sync);

  svc::EnvironmentOptions options;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 2;
  options.coordination.max_replans = 0;
  options.tracing = true;
  options.span_tracing = true;
  options.seed = 123;
  auto environment = svc::make_environment(options);
  for (const auto& node : environment->grid().nodes()) node->set_reliability(1.0);
  auto& ui = environment->platform().spawn<svc::UserInterfaceAgent>("ui");
  ui.submit_process(input.process, virolab_case());
  environment->run(kAsyncEventBudget);
  ASSERT_TRUE(ui.finished()) << "the coordinator never finished " << input.name;
  Observed async;
  async.success = ui.outcome().success;
  async.error = ui.outcome().error;
  for (const auto& record : environment->platform().trace()) {
    const agent::AclMessage& message = record.message;
    if (message.protocol == svc::protocols::kExecuteActivity &&
        message.performative == agent::Performative::Inform)
      async.executed.insert(message.param("activity"));
  }
  observe_data(ui.outcome().final_data, async);
  observe_spans(environment->tracer(), async);

  if (input.name == "fig10") {
    ASSERT_TRUE(sync.success) << sync.error;
    ASSERT_TRUE(async.success) << async.error;
  }
  ASSERT_EQ(sync.success, async.success) << sync.error << " | " << async.error;
  if (!sync.success) {
    // An activity failure (which the zero-budget re-planning escalation
    // reports by service) or the same machine-level error.
    const bool sync_activity_failed = sync.error.rfind("activity '", 0) == 0;
    const bool async_activity_failed =
        async.error.rfind("re-planning budget exhausted after failure of '", 0) == 0;
    EXPECT_EQ(sync_activity_failed, async_activity_failed) << sync.error << " | " << async.error;
    if (!sync_activity_failed) {
      EXPECT_EQ(sync.error, async.error);
    }
    // When a FORK branch fails, the sync driver has run the branches one at
    // a time and stops there, while the coordinator has dispatched them all
    // and how far the others got depends on timing: only the failure itself
    // compares.
    const auto& activities = input.process.activities();
    if (sync_activity_failed &&
        std::any_of(activities.begin(), activities.end(),
                    [](const Activity& activity) { return activity.kind == ActivityKind::Fork; }))
      return;
  }
  EXPECT_EQ(sync.executed, async.executed);
  EXPECT_EQ(sync.final_items, async.final_items);
  EXPECT_EQ(sync.spans, async.spans);
  EXPECT_EQ(static_cast<int>(async.executed.size()), ui.outcome().activities_executed);

  if (input.name == "fig10") {
    // Both converge to the same resolution, bit for bit.
    EXPECT_EQ(ui.outcome().activities_executed, sync_result.activities_executed);
    const DataSpec* sync_d12 = sync_result.final_data.find("D12");
    const DataSpec* async_d12 = ui.outcome().final_data.find("D12");
    ASSERT_NE(sync_d12, nullptr);
    ASSERT_NE(async_d12, nullptr);
    EXPECT_DOUBLE_EQ(sync_d12->get("Value").as_number(),
                     async_d12->get("Value").as_number());
  }
}

TEST(SyncEnact, AgreesWithAsynchronousCoordinationService) {
  expect_drivers_agree({"fig10", virolab::make_fig10_process()});
}

class SyncAsyncDifferential : public ::testing::TestWithParam<std::size_t> {
 public:
  static const std::vector<DifferentialCase>& cases() {
    static const std::vector<DifferentialCase> all = differential_cases();
    return all;
  }
};

TEST_P(SyncAsyncDifferential, AgreesWithAsynchronousCoordinationService) {
  expect_drivers_agree(cases()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    SyncEnact, SyncAsyncDifferential,
    ::testing::Range<std::size_t>(0, SyncAsyncDifferential::cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return SyncAsyncDifferential::cases()[info.param].name;
    });

TEST(SyncEnact, CatalogueExecutorNamesOutputsFromActivity) {
  const ProcessDescription process = virolab::make_fig10_process();
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  const EnactmentResult result =
      enact(process, virolab_case(), make_catalogue_executor(catalogue));
  ASSERT_TRUE(result.success);
  EXPECT_NE(result.final_data.find("D8"), nullptr);   // POD/POR output
  EXPECT_NE(result.final_data.find("D12"), nullptr);  // PSF output
}

}  // namespace
}  // namespace ig::wfl
