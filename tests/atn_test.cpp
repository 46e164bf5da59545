// Loop semantics of the ATN core (wfl/atn.hpp), checked through both of
// its drivers: the synchronous wfl::enact and the coordination service.
#include <gtest/gtest.h>

#include <map>

#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "services/user_interface.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/kernels.hpp"
#include "wfl/enact.hpp"
#include "wfl/structure.hpp"

namespace ig::wfl {
namespace {

using ActivityCounts = std::map<std::string, int>;  ///< activity name -> executions

struct DriverRuns {
  ActivityCounts sync;
  ActivityCounts async;
};

/// Runs `flow` on both drivers (kernels executor; fully reliable 2x2 grid
/// without re-planning) and requires that each reaches End.
DriverRuns run_both(const std::string& flow) {
  const ProcessDescription process = lower_to_process(parse_flow(flow), "loops");
  const ServiceCatalogue catalogue = virolab::make_catalogue();
  DriverRuns runs;

  virolab::SyntheticKernels kernels;
  const ActivityExecutor executor = [&](const Activity& activity, const DataSet& state)
      -> std::optional<std::vector<DataSpec>> {
    const ServiceType* service = catalogue.find(activity.service_name);
    if (service == nullptr) return std::nullopt;
    auto bindings = service->bind_inputs(state);
    if (!bindings.has_value()) return std::nullopt;
    return kernels.execute(*service, *bindings, activity.output_data);
  };
  // Budgets far above what the loops need, so a runaway fails fast.
  EnactmentOptions budget;
  budget.max_steps = 2'000;
  const EnactmentResult sync =
      enact(process, virolab::make_case_description(), executor, budget);
  // No PSF runs, so End is reached with the goal unmet.
  EXPECT_EQ(sync.error, "plan completed without satisfying the case goals");
  EXPECT_FALSE(sync.trace.empty());
  if (!sync.trace.empty()) EXPECT_EQ(sync.trace.back().activity_name, "END");
  for (const EnactmentStep& step : sync.trace)
    if (step.executed && !step.failed) ++runs.sync[step.activity_name];

  svc::EnvironmentOptions options;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 2;
  options.coordination.max_replans = 0;
  options.tracing = true;
  options.seed = 123;
  auto environment = svc::make_environment(options);
  for (const auto& node : environment->grid().nodes()) node->set_reliability(1.0);
  auto& ui = environment->platform().spawn<svc::UserInterfaceAgent>("ui");
  ui.submit_process(process, virolab::make_case_description());
  environment->run(5'000);
  EXPECT_TRUE(ui.finished()) << "the coordinator never reached End";
  if (ui.finished())
    EXPECT_EQ(ui.outcome().error, "plan completed without satisfying the case goals");
  for (const auto& record : environment->platform().trace()) {
    const agent::AclMessage& message = record.message;
    if (message.protocol == svc::protocols::kExecuteActivity &&
        message.performative == agent::Performative::Inform)
      ++runs.async[process.find_activity(message.param("activity"))->name];
  }
  return runs;
}

TEST(Atn, NestedLoopsWithTrivialGuardsTerminate) {
  // Both loops' back edges are found from the graph, so once the inner
  // loop has spent its guardrail it exits to P3DR on every later pass, and
  // the outer loop ends after its own eight passes.
  DriverRuns runs =
      run_both("BEGIN, {ITERATIVE {COND true} {{ITERATIVE {COND true} {POD}}; P3DR}}, END");
  EXPECT_EQ(runs.sync, runs.async);
  EXPECT_EQ(runs.sync["P3DR"], 8);
  EXPECT_EQ(runs.sync["POD"], 8 + 7);  // the inner guardrail counts visits over all passes
}

TEST(Atn, ChoiceInsideALoopAlwaysTakesTheFirstSatisfiedGuard) {
  // The CHOICE's edges are forward edges, however often their targets ran
  // before: the first satisfied guard wins on every pass.
  DriverRuns runs = run_both(
      "BEGIN, {ITERATIVE {COND true} {{CHOICE {true} {POD} {true} {P3DR} MERGE}}}, END");
  EXPECT_EQ(runs.sync, runs.async);
  EXPECT_EQ(runs.sync.count("P3DR"), 0u);
  EXPECT_EQ(runs.sync["POD"], 8);
  EXPECT_EQ(runs.async["POD"], 8);
}

}  // namespace
}  // namespace ig::wfl
