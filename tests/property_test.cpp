// Property-based sweeps (parameterized over seeds): round-trip invariants
// and structural contracts that must hold for *any* input, not just the
// hand-picked fixtures of the per-module suites.
#include <gtest/gtest.h>

#include <algorithm>

#include "grid/sim.hpp"
#include "planner/convert.hpp"
#include "planner/evaluate.hpp"
#include "planner/gp.hpp"
#include "planner/operators.hpp"
#include "services/scheduling.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "virolab/catalogue.hpp"
#include "wfl/flowexpr.hpp"
#include "wfl/structure.hpp"
#include "wfl/validate.hpp"
#include "wfl/xml_io.hpp"

namespace ig {
namespace {

// ---------------------------------------------------------------------------
// Random generators
// ---------------------------------------------------------------------------

meta::Value random_value(util::Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: {
      const char* words[] = {"2D Image", "3D Model", "Orientation File", "Text", "x&y<z"};
      return meta::Value(words[rng.next_below(5)]);
    }
    case 1:
      // Multiples of 0.25 render and re-parse exactly.
      return meta::Value(static_cast<double>(rng.next_int(-40, 40)) * 0.25);
    default:
      return meta::Value(rng.next_bool(0.5));
  }
}

wfl::Condition random_condition(util::Rng& rng, int depth) {
  if (depth <= 0 || rng.next_bool(0.4)) {
    const char* variables[] = {"A", "B", "C", "D", "R"};
    const char* properties[] = {"Classification", "Value", "Size", "Format"};
    const wfl::CompareOp ops[] = {wfl::CompareOp::Less,      wfl::CompareOp::Greater,
                                  wfl::CompareOp::Equal,     wfl::CompareOp::NotEqual,
                                  wfl::CompareOp::LessEqual, wfl::CompareOp::GreaterEqual};
    return wfl::Condition::comparison(variables[rng.next_below(5)],
                                      properties[rng.next_below(4)], ops[rng.next_below(6)],
                                      random_value(rng));
  }
  switch (rng.next_below(3)) {
    case 0:
      return wfl::Condition::conjunction(random_condition(rng, depth - 1),
                                         random_condition(rng, depth - 1));
    case 1:
      return wfl::Condition::disjunction(random_condition(rng, depth - 1),
                                         random_condition(rng, depth - 1));
    default:
      return wfl::Condition::negation(random_condition(rng, depth - 1));
  }
}

wfl::DataSpec random_data(util::Rng& rng, int index) {
  wfl::DataSpec data("item-" + std::to_string(index));
  const char* classifications[] = {"2D Image", "3D Model", "Orientation File",
                                   "Resolution File", "POD-Parameter"};
  data.with_classification(classifications[rng.next_below(5)]);
  if (rng.next_bool(0.7))
    data.with("Value", meta::Value(static_cast<double>(rng.next_int(0, 20))));
  if (rng.next_bool(0.5))
    data.with("Size", meta::Value(static_cast<double>(rng.next_int(1, 2048))));
  return data;
}

// ---------------------------------------------------------------------------
// Condition properties
// ---------------------------------------------------------------------------

class ConditionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConditionProperty, RenderParseRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const wfl::Condition original = random_condition(rng, 4);
    const wfl::Condition reparsed = wfl::Condition::parse(original.to_string());
    EXPECT_TRUE(original == reparsed) << original.to_string();
  }
}

TEST_P(ConditionProperty, EvaluationIsDeterministic) {
  util::Rng rng(GetParam());
  wfl::DataSet state;
  for (int i = 0; i < 6; ++i) state.put(random_data(rng, i));
  for (int i = 0; i < 50; ++i) {
    const wfl::Condition condition = random_condition(rng, 3);
    const bool first = wfl::evaluate_against_state(condition, state);
    const bool second = wfl::evaluate_against_state(condition, state);
    EXPECT_EQ(first, second);
  }
}

TEST_P(ConditionProperty, NegationInvertsUnderFullBindings) {
  util::Rng rng(GetParam());
  wfl::DataSet state;
  // Bind every variable name the generator can emit.
  for (const char* name : {"A", "B", "C", "D", "R"}) {
    wfl::DataSpec data = random_data(rng, 0);
    data.set_name(name);
    state.put(data);
  }
  const wfl::Bindings bindings = wfl::self_bindings(state);
  for (int i = 0; i < 50; ++i) {
    const wfl::Condition condition = random_condition(rng, 3);
    EXPECT_NE(condition.evaluate(bindings),
              wfl::Condition::negation(condition).evaluate(bindings));
  }
}

TEST_P(ConditionProperty, ConjunctsConjoinBackToSameTruth) {
  util::Rng rng(GetParam());
  wfl::DataSet state;
  for (const char* name : {"A", "B", "C", "D", "R"}) {
    wfl::DataSpec data = random_data(rng, 0);
    data.set_name(name);
    state.put(data);
  }
  const wfl::Bindings bindings = wfl::self_bindings(state);
  for (int i = 0; i < 50; ++i) {
    const wfl::Condition condition = random_condition(rng, 3);
    bool conjunction_truth = true;
    for (const auto& conjunct : condition.conjuncts())
      conjunction_truth = conjunction_truth && conjunct.evaluate(bindings);
    EXPECT_EQ(conjunction_truth, condition.evaluate(bindings)) << condition.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConditionProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ---------------------------------------------------------------------------
// Plan tree / process round-trip properties
// ---------------------------------------------------------------------------

class TreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeProperty, RandomTreesLowerToValidProcesses) {
  util::Rng rng(GetParam());
  const auto catalogue = virolab::make_catalogue();
  for (int i = 0; i < 30; ++i) {
    const planner::PlanNode tree = planner::random_tree(rng, catalogue, 30);
    const wfl::ProcessDescription process = planner::to_process(tree, "prop");
    EXPECT_TRUE(wfl::is_valid(process))
        << tree.to_tree_string() << wfl::to_string(wfl::validate(process));
  }
}

TEST_P(TreeProperty, LiftLowerIsIdentityOnText) {
  util::Rng rng(GetParam());
  const auto catalogue = virolab::make_catalogue();
  for (int i = 0; i < 30; ++i) {
    const planner::PlanNode tree = planner::random_tree(rng, catalogue, 30);
    const wfl::ProcessDescription process = planner::to_process(tree, "prop");
    const planner::PlanNode lifted = planner::from_process(process);
    EXPECT_EQ(planner::to_flow_expr(lifted).to_text(), planner::to_flow_expr(tree).to_text());
  }
}

TEST_P(TreeProperty, FlowTextRoundTripsThroughParser) {
  util::Rng rng(GetParam());
  const auto catalogue = virolab::make_catalogue();
  for (int i = 0; i < 30; ++i) {
    const planner::PlanNode tree = planner::random_tree(rng, catalogue, 25);
    const wfl::FlowExpr expr = planner::to_flow_expr(tree);
    const wfl::FlowExpr reparsed = wfl::parse_flow(expr.to_text());
    EXPECT_TRUE(expr == reparsed) << expr.to_text();
  }
}

TEST_P(TreeProperty, ProcessXmlRoundTripPreservesGraph) {
  util::Rng rng(GetParam());
  const auto catalogue = virolab::make_catalogue();
  for (int i = 0; i < 20; ++i) {
    const planner::PlanNode tree = planner::random_tree(rng, catalogue, 25);
    const wfl::ProcessDescription process = planner::to_process(tree, "prop");
    const wfl::ProcessDescription restored =
        wfl::process_from_xml_string(wfl::process_to_xml_string(process));
    EXPECT_EQ(restored.activity_count(), process.activity_count());
    EXPECT_EQ(restored.transition_count(), process.transition_count());
    // Lifting the restored graph yields the same expression.
    EXPECT_EQ(planner::to_flow_expr(planner::from_process(restored)).to_text(),
              planner::to_flow_expr(tree).to_text());
  }
}

TEST_P(TreeProperty, FitnessComponentsWithinBounds) {
  util::Rng rng(GetParam());
  const planner::PlanningProblem problem = planner::PlanningProblem::from_case(
      virolab::make_case_description(), virolab::make_catalogue());
  planner::PlanEvaluator evaluator(problem);
  for (int i = 0; i < 30; ++i) {
    const planner::PlanNode tree = planner::random_tree(rng, problem.catalogue, 40);
    const planner::Fitness fitness = evaluator.evaluate(tree);
    EXPECT_GE(fitness.validity, 0.0);
    EXPECT_LE(fitness.validity, 1.0);
    EXPECT_GE(fitness.goal, 0.0);
    EXPECT_LE(fitness.goal, 1.0);
    EXPECT_GE(fitness.representation, 0.0);
    EXPECT_LT(fitness.representation, 1.0);
    EXPECT_GE(fitness.overall, 0.0);
    EXPECT_LE(fitness.overall, 1.0);
    EXPECT_GE(fitness.flows, 1u);
    EXPECT_LE(fitness.flows, evaluator.config().max_flows);
  }
}

TEST_P(TreeProperty, CrossoverChildrenStayWellFormed) {
  util::Rng rng(GetParam());
  const auto catalogue = virolab::make_catalogue();
  for (int i = 0; i < 50; ++i) {
    const planner::PlanNode a = planner::random_tree(rng, catalogue, 35);
    const planner::PlanNode b = planner::random_tree(rng, catalogue, 35);
    const auto result = planner::crossover(a, a.size(), b, b.size(), rng, 0.9, 40);
    if (!result.applied) continue;
    EXPECT_EQ(planner::check_structure(result.first), "");
    EXPECT_EQ(planner::check_structure(result.second), "");
    EXPECT_LE(result.first.size(), 40u);
    EXPECT_LE(result.second.size(), 40u);
    EXPECT_EQ(result.first.size() + result.second.size(), a.size() + b.size());
  }
}

TEST_P(TreeProperty, OperatorsReturnTheirChildrensSizes) {
  // crossover and mutate take the plans' sizes from the caller and hand
  // back their children's; those must be the children's real node counts,
  // applied or not, for every initialization style.
  util::Rng rng(GetParam());
  const auto catalogue = virolab::make_catalogue();
  for (const planner::InitStyle style :
       {planner::InitStyle::Grow, planner::InitStyle::Full, planner::InitStyle::Ramped}) {
    for (int i = 0; i < 40; ++i) {
      planner::PlanNode a = planner::random_tree(rng, catalogue, 35, style);
      planner::PlanNode b = planner::random_tree(rng, catalogue, 35, style);
      const std::size_t smax = i % 2 == 0 ? 40 : 20;  // the tighter Smax refuses more often
      const std::size_t size_a = a.size();
      const std::size_t size_b = b.size();
      const auto crossed =
          planner::crossover(std::move(a), size_a, std::move(b), size_b, rng, 0.9, smax);
      EXPECT_EQ(crossed.first_size, crossed.first.size());
      EXPECT_EQ(crossed.second_size, crossed.second.size());
      planner::PlanNode tree = crossed.first;
      const auto mutated = planner::mutate(tree, crossed.first_size, rng, catalogue,
                                           i % 3 == 0 ? 0.5 : 0.05, smax, style);
      EXPECT_EQ(mutated.size, tree.size());
      if (!mutated.applied) EXPECT_EQ(tree, crossed.first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperty, ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Data / XML properties
// ---------------------------------------------------------------------------

class DataProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DataProperty, DatasetXmlRoundTrip) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    wfl::DataSet original;
    const int count = static_cast<int>(rng.next_int(0, 10));
    for (int i = 0; i < count; ++i) original.put(random_data(rng, i));
    const wfl::DataSet restored =
        wfl::dataset_from_xml_string(wfl::dataset_to_xml_string(original));
    EXPECT_EQ(restored, original);
  }
}

TEST_P(DataProperty, XmlEscapeRoundTripsArbitraryAscii) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    const int length = static_cast<int>(rng.next_int(0, 60));
    for (int i = 0; i < length; ++i)
      text += static_cast<char>(rng.next_int(32, 126));
    EXPECT_EQ(xml::unescape(xml::escape(text)), text) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataProperty, ::testing::Values(7, 14, 28));

// ---------------------------------------------------------------------------
// Simulation determinism
// ---------------------------------------------------------------------------

class GpDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GpDeterminism, SameSeedSameBestPlan) {
  const planner::PlanningProblem problem = planner::PlanningProblem::from_case(
      virolab::make_case_description(), virolab::make_catalogue());
  planner::GpConfig config;
  config.population_size = 30;
  config.generations = 6;
  config.seed = GetParam();
  const planner::GpResult a = planner::run_gp(problem, config);
  const planner::GpResult b = planner::run_gp(problem, config);
  EXPECT_EQ(a.best_plan, b.best_plan);
  EXPECT_DOUBLE_EQ(a.best_fitness.overall, b.best_fitness.overall);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpDeterminism, ::testing::Values(100, 200, 300, 400));

// ---------------------------------------------------------------------------
// Scheduling properties
// ---------------------------------------------------------------------------

class SchedulingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulingProperty, OptimalNeverWorseThanLpt) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<svc::ScheduledTask> tasks;
    const int count = static_cast<int>(rng.next_int(1, 9));
    for (int i = 0; i < count; ++i)
      tasks.push_back({"t" + std::to_string(i), rng.next_double(0.5, 10.0), -1});
    std::vector<double> speeds;
    const int machines = static_cast<int>(rng.next_int(1, 4));
    for (int m = 0; m < machines; ++m) speeds.push_back(rng.next_double(0.5, 4.0));

    const svc::Schedule lpt = svc::schedule_lpt(tasks, speeds);
    const svc::Schedule optimal = svc::schedule_optimal(tasks, speeds);
    EXPECT_LE(optimal.makespan, lpt.makespan + 1e-9);
    // Every task is assigned to a real machine in both schedules.
    for (const auto& task : lpt.tasks) {
      EXPECT_GE(task.assigned_machine, 0);
      EXPECT_LT(task.assigned_machine, machines);
    }
    for (const auto& task : optimal.tasks) {
      EXPECT_GE(task.assigned_machine, 0);
      EXPECT_LT(task.assigned_machine, machines);
    }
  }
}

TEST_P(SchedulingProperty, MakespanMatchesAssignment) {
  util::Rng rng(GetParam() ^ 0xABCDEF);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<svc::ScheduledTask> tasks;
    const int count = static_cast<int>(rng.next_int(1, 10));
    for (int i = 0; i < count; ++i)
      tasks.push_back({"t" + std::to_string(i), rng.next_double(0.5, 10.0), -1});
    std::vector<double> speeds{1.0, 2.0};
    const svc::Schedule schedule = svc::schedule_lpt(tasks, speeds);
    std::vector<double> finish(speeds.size(), 0.0);
    for (const auto& task : schedule.tasks)
      finish[static_cast<std::size_t>(task.assigned_machine)] +=
          task.work / speeds[static_cast<std::size_t>(task.assigned_machine)];
    EXPECT_NEAR(*std::max_element(finish.begin(), finish.end()), schedule.makespan, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingProperty, ::testing::Values(3, 6, 9));

// ---------------------------------------------------------------------------
// Simulation ordering properties
// ---------------------------------------------------------------------------

class SimulationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationProperty, EventsFireInNonDecreasingTimeOrder) {
  util::Rng rng(GetParam());
  grid::Simulation sim;
  std::vector<double> fired;
  for (int i = 0; i < 200; ++i) {
    sim.schedule(rng.next_double(0, 100), [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 200u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST_P(SimulationProperty, CancelledEventsNeverFire) {
  util::Rng rng(GetParam() ^ 0x1111);
  grid::Simulation sim;
  int fired = 0;
  std::vector<grid::EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(sim.schedule(rng.next_double(0, 10), [&fired] { ++fired; }));
  int cancelled = 0;
  for (const auto id : ids) {
    if (rng.next_bool(0.5)) {
      sim.cancel(id);
      ++cancelled;
    }
  }
  sim.run();
  EXPECT_EQ(fired, 100 - cancelled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationProperty, ::testing::Values(17, 34, 51));

// ---------------------------------------------------------------------------
// Statistics properties
// ---------------------------------------------------------------------------

class StatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StatsProperty, PercentilesAreMonotoneAndBounded) {
  util::Rng rng(GetParam());
  util::SampleSet samples;
  for (int i = 0; i < 200; ++i) samples.add(rng.next_double(-50, 50));
  double previous = samples.percentile(0);
  EXPECT_DOUBLE_EQ(previous, samples.min());
  for (double q = 5; q <= 100; q += 5) {
    const double current = samples.percentile(q);
    EXPECT_GE(current, previous - 1e-12);
    previous = current;
  }
  EXPECT_DOUBLE_EQ(samples.percentile(100), samples.max());
  EXPECT_GE(samples.mean(), samples.min());
  EXPECT_LE(samples.mean(), samples.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty, ::testing::Values(41, 82));

}  // namespace
}  // namespace ig
