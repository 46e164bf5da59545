// Dedicated interchange tests: process / case / dataset XML under awkward
// content — special characters, empty collections, guard expressions, and
// GP-generated graphs.
#include <gtest/gtest.h>

#include "planner/convert.hpp"
#include "planner/operators.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/validate.hpp"
#include "wfl/xml_io.hpp"

namespace ig::wfl {
namespace {

TEST(ProcessXml, Figure10FullFidelity) {
  const ProcessDescription original = virolab::make_fig10_process();
  const ProcessDescription restored =
      process_from_xml_string(process_to_xml_string(original));
  ASSERT_EQ(restored.activity_count(), original.activity_count());
  ASSERT_EQ(restored.transition_count(), original.transition_count());
  for (const auto& activity : original.activities()) {
    const Activity* copy = restored.find_activity(activity.id);
    ASSERT_NE(copy, nullptr) << activity.id;
    EXPECT_EQ(copy->name, activity.name);
    EXPECT_EQ(copy->kind, activity.kind);
    EXPECT_EQ(copy->service_name, activity.service_name);
    EXPECT_EQ(copy->input_data, activity.input_data);
    EXPECT_EQ(copy->output_data, activity.output_data);
    EXPECT_EQ(copy->constraint, activity.constraint);
  }
  for (const auto& transition : original.transitions()) {
    const Transition* copy = restored.find_transition(transition.id);
    ASSERT_NE(copy, nullptr) << transition.id;
    EXPECT_EQ(copy->source, transition.source);
    EXPECT_EQ(copy->destination, transition.destination);
    EXPECT_TRUE(copy->guard == transition.guard) << transition.id;
  }
}

TEST(ProcessXml, GuardWithSpecialCharactersSurvives) {
  ProcessDescription process("special");
  process.add_flow_control("B", ActivityKind::Begin);
  process.add_flow_control("C", ActivityKind::Choice);
  process.add_end_user("X", "X", "svc");
  process.add_end_user("Y", "Y", "svc");
  process.add_flow_control("M", ActivityKind::Merge);
  process.add_flow_control("E", ActivityKind::End);
  process.add_transition("B", "C");
  const Condition guard = Condition::parse("A.Name = \"x<y&z>'w'\" and A.Value >= 2");
  process.add_transition("C", "X", guard);
  process.add_transition("C", "Y", Condition::negation(guard));
  process.add_transition("X", "M");
  process.add_transition("Y", "M");
  process.add_transition("M", "E");

  const ProcessDescription restored = process_from_xml_string(process_to_xml_string(process));
  const auto outgoing = restored.outgoing("C");
  ASSERT_EQ(outgoing.size(), 2u);
  EXPECT_TRUE(outgoing[0]->guard == guard);
}

TEST(ProcessXml, EmptyProcessRoundTrips) {
  ProcessDescription empty("void");
  const ProcessDescription restored = process_from_xml_string(process_to_xml_string(empty));
  EXPECT_EQ(restored.activity_count(), 0u);
  EXPECT_EQ(restored.name(), "void");
}

TEST(CaseXml, EmptyCaseRoundTrips) {
  CaseDescription empty("bare");
  const CaseDescription restored = case_from_xml_string(case_to_xml_string(empty));
  EXPECT_EQ(restored.name(), "bare");
  EXPECT_TRUE(restored.initial_data().empty());
  EXPECT_TRUE(restored.goals().empty());
  EXPECT_TRUE(restored.constraints().empty());
}

TEST(CaseXml, DataPropertiesWithAllValueTypes) {
  CaseDescription original("typed");
  DataSpec item("mixed");
  item.with("Text", meta::Value("a & b < c"))
      .with("Number", meta::Value(-2.5))
      .with("Flag", meta::Value(true))
      .with("Tags", meta::Value::list_of({"x", "y"}));
  original.initial_data().put(item);
  const CaseDescription restored = case_from_xml_string(case_to_xml_string(original));
  const DataSpec* copy = restored.initial_data().find("mixed");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->get("Text").as_string(), "a & b < c");
  EXPECT_DOUBLE_EQ(copy->get("Number").as_number(), -2.5);
  EXPECT_TRUE(copy->get("Flag").as_boolean());
  EXPECT_EQ(copy->get("Tags").as_string_list(), (std::vector<std::string>{"x", "y"}));
}

TEST(CaseXml, MultipleGoalsAndConstraints) {
  CaseDescription original("multi");
  for (int i = 0; i < 3; ++i) {
    GoalSpec goal;
    goal.description = "goal " + std::to_string(i);
    goal.condition = Condition::parse("G.Value > " + std::to_string(i));
    original.add_goal(std::move(goal));
    original.add_constraint("C" + std::to_string(i),
                            Condition::parse("X.Value < " + std::to_string(i + 10)));
  }
  const CaseDescription restored = case_from_xml_string(case_to_xml_string(original));
  ASSERT_EQ(restored.goals().size(), 3u);
  ASSERT_EQ(restored.constraints().size(), 3u);
  EXPECT_EQ(restored.goals()[2].description, "goal 2");
  ASSERT_NE(restored.find_constraint("C1"), nullptr);
  EXPECT_EQ(restored.find_constraint("C1")->to_string(), "X.Value < 11");
}

TEST(DatasetXml, EmptyAndSingleton) {
  EXPECT_TRUE(dataset_from_xml_string(dataset_to_xml_string(DataSet{})).empty());
  DataSet one;
  one.put(DataSpec("only").with_classification("Thing"));
  const DataSet restored = dataset_from_xml_string(dataset_to_xml_string(one));
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.find("only")->classification(), "Thing");
}

TEST(ProcessXml, GpGeneratedGraphsSurviveArchival) {
  // The planning service archives every plan it produces; any GP output
  // must survive the store/load cycle with its guards intact.
  util::Rng rng(2026);
  const auto catalogue = virolab::make_catalogue();
  for (int i = 0; i < 25; ++i) {
    const planner::PlanNode tree =
        planner::to_tree(planner::random_tree(rng, catalogue, 30), catalogue);
    const ProcessDescription process = planner::to_process(tree, "archived");
    const ProcessDescription restored =
        process_from_xml_string(process_to_xml_string(process));
    EXPECT_TRUE(is_valid(restored));
    EXPECT_EQ(planner::to_flow_expr(planner::from_process(restored)).to_text(),
              planner::to_flow_expr(tree).to_text());
  }
}

}  // namespace
}  // namespace ig::wfl
