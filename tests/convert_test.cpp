#include <gtest/gtest.h>

#include "planner/convert.hpp"
#include "planner/operators.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/validate.hpp"

namespace ig::planner {
namespace {

TEST(Convert, TerminalNumberingMatchesFigure10) {
  // Figure 11's tree uses P3DR four times; conversion numbers the instances
  // P3DR1..P3DR4 while singleton services stay unnumbered.
  const PlanNode tree = virolab::make_fig11_plan_tree();
  const wfl::FlowExpr expr = to_flow_expr(tree);
  const std::string text = expr.to_text();
  EXPECT_NE(text.find("POD"), std::string::npos);
  EXPECT_NE(text.find("P3DR1=P3DR"), std::string::npos);
  EXPECT_NE(text.find("P3DR4=P3DR"), std::string::npos);
  EXPECT_EQ(text.find("POD1"), std::string::npos);
  EXPECT_EQ(text.find("PSF1"), std::string::npos);
}

TEST(Convert, TreeToFlowToTreeRoundTrip) {
  const PlanNode original = virolab::make_fig11_plan_tree();
  const PlanNode recovered = from_flow_expr(to_flow_expr(original));
  EXPECT_EQ(recovered, original);
}

TEST(Convert, TreeToProcessMatchesFigure10Counts) {
  const PlanNode tree = virolab::make_fig11_plan_tree();
  const wfl::ProcessDescription process = to_process(tree, "PD-3DSD");
  // Figure 10: 7 end-user activities, 6 flow-control activities,
  // 15 transitions.
  EXPECT_EQ(process.end_user_activity_count(), 7u);
  EXPECT_EQ(process.flow_control_activity_count(), 6u);
  EXPECT_EQ(process.transition_count(), 15u);
  EXPECT_TRUE(wfl::is_valid(process));
}

TEST(Convert, ProcessToTreeRecoversFigure11) {
  const wfl::ProcessDescription process = virolab::make_fig10_process();
  const PlanNode tree = from_process(process);
  EXPECT_EQ(tree, virolab::make_fig11_plan_tree());
}

TEST(Convert, FullCircleThroughAllRepresentations) {
  const PlanNode original = virolab::make_fig11_plan_tree();
  const wfl::ProcessDescription process = to_process(original, "circle");
  const PlanNode recovered = from_process(process);
  EXPECT_EQ(recovered, original);
}

TEST(Convert, SequenceOfOneFlattens) {
  const PlanNode single = PlanNode::terminal("POD");
  const wfl::FlowExpr expr = to_flow_expr(single);
  EXPECT_EQ(expr.kind, wfl::FlowExpr::Kind::Activity);
  EXPECT_EQ(from_flow_expr(expr), single);
}

TEST(Convert, SelectiveGuardsSurvive) {
  std::vector<wfl::Condition> guards;
  guards.push_back(wfl::Condition::parse("X.V > 1"));
  guards.push_back(wfl::Condition::parse("X.V <= 1"));
  const PlanNode tree = PlanNode::selective(
      {PlanNode::terminal("POD"), PlanNode::terminal("PSF")}, guards);
  const PlanNode recovered = from_flow_expr(to_flow_expr(tree));
  EXPECT_EQ(recovered, tree);
  ASSERT_EQ(recovered.guards.size(), 2u);
  EXPECT_EQ(recovered.guards[0].to_string(), "X.V > 1");
}

TEST(Convert, IterativeConditionSurvives) {
  const PlanNode tree =
      PlanNode::iterative({PlanNode::terminal("POR"), PlanNode::terminal("PSF")},
                          wfl::Condition::parse("R.Value > 8"));
  const PlanNode recovered = from_flow_expr(to_flow_expr(tree));
  EXPECT_EQ(recovered, tree);
  EXPECT_EQ(recovered.continue_condition.to_string(), "R.Value > 8");
}

TEST(Convert, RandomTreesRoundTripThroughProcess) {
  util::Rng rng(77);
  const auto catalogue = virolab::make_catalogue();
  int round_tripped = 0;
  for (int i = 0; i < 60; ++i) {
    const PlanNode tree = to_tree(random_tree(rng, catalogue, 25), catalogue);
    const wfl::ProcessDescription process = to_process(tree, "rnd");
    EXPECT_TRUE(wfl::is_valid(process)) << tree.to_tree_string();
    const PlanNode recovered = from_process(process);
    // Sequence flattening: a Sequential whose parent is Sequential collapses
    // in the flow expression, so compare via a second conversion instead of
    // node-for-node equality.
    EXPECT_EQ(to_flow_expr(recovered).to_text(), to_flow_expr(tree).to_text());
    ++round_tripped;
  }
  EXPECT_EQ(round_tripped, 60);
}

}  // namespace
}  // namespace ig::planner
