#include <gtest/gtest.h>

#include <utility>

#include "planner/operators.hpp"
#include "planner/plan_tree.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"

namespace ig::planner {
namespace {

PlanNode sample() {
  // Sequential(POD, Concurrent(P3DR, P3DR), PSF) — 6 nodes.
  std::vector<PlanNode> concurrent;
  concurrent.push_back(PlanNode::terminal("P3DR"));
  concurrent.push_back(PlanNode::terminal("P3DR"));
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::concurrent(std::move(concurrent)));
  top.push_back(PlanNode::terminal("PSF"));
  return PlanNode::sequential(std::move(top));
}

TEST(PlanTree, SizeAndTerminals) {
  const PlanNode tree = sample();
  EXPECT_EQ(tree.size(), 6u);
  EXPECT_EQ(tree.terminal_count(), 4u);
  EXPECT_EQ(PlanNode::terminal("X").size(), 1u);
}

TEST(PlanTree, Equality) {
  EXPECT_EQ(sample(), sample());
  PlanNode changed = sample();
  changed.children[2] = PlanNode::terminal("POR");
  EXPECT_FALSE(sample() == changed);
}

TEST(PlanTree, IterativeHoldsBodyAsChildren) {
  // Figure 11: the iterative node's children are the loop body in order.
  const PlanNode tree = virolab::make_fig11_plan_tree();
  ASSERT_EQ(tree.kind, PlanNode::Kind::Sequential);
  ASSERT_EQ(tree.children.size(), 3u);
  const PlanNode& loop = tree.children[2];
  EXPECT_EQ(loop.kind, PlanNode::Kind::Iterative);
  ASSERT_EQ(loop.children.size(), 3u);
  EXPECT_EQ(loop.children[0].service, "POR");
  EXPECT_EQ(loop.children[1].kind, PlanNode::Kind::Concurrent);
  EXPECT_EQ(loop.children[2].service, "PSF");
  EXPECT_FALSE(loop.continue_condition.is_trivially_true());
}

TEST(PlanTree, Figure11Size) {
  // POD, P3DR, POR, P3DR x3, PSF = 7 terminals; Sequential + Iterative +
  // Concurrent = 3 controllers; 10 nodes total (paper: average size < 10).
  const PlanNode tree = virolab::make_fig11_plan_tree();
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.terminal_count(), 7u);
}

TEST(PlanTree, TreeStringShowsStructure) {
  const std::string text = virolab::make_fig11_plan_tree().to_tree_string();
  EXPECT_NE(text.find("Sequential"), std::string::npos);
  EXPECT_NE(text.find("Iterative"), std::string::npos);
  EXPECT_NE(text.find("Concurrent"), std::string::npos);
  EXPECT_NE(text.find("POD"), std::string::npos);
}

TEST(PlanTree, StructureChecks) {
  EXPECT_EQ(check_structure(sample()), "");
  // Controller without children.
  PlanNode empty_controller;
  empty_controller.kind = PlanNode::Kind::Sequential;
  EXPECT_NE(check_structure(empty_controller), "");
  // Terminal with children.
  PlanNode bad_terminal = PlanNode::terminal("X");
  bad_terminal.children.push_back(PlanNode::terminal("Y"));
  EXPECT_NE(check_structure(bad_terminal), "");
  // Terminal without service.
  EXPECT_NE(check_structure(PlanNode::terminal("")), "");
  // Selective guard mismatch.
  PlanNode selective = PlanNode::selective({PlanNode::terminal("A")});
  selective.guards.clear();
  EXPECT_NE(check_structure(selective), "");
}

TEST(PlanTree, SelectiveDefaultsGuards) {
  const PlanNode selective =
      PlanNode::selective({PlanNode::terminal("A"), PlanNode::terminal("B")});
  ASSERT_EQ(selective.guards.size(), 2u);
  EXPECT_TRUE(selective.guards[0].is_trivially_true());
}

TEST(PlanTree, KindNames) {
  EXPECT_EQ(to_string(PlanNode::Kind::Terminal), "Terminal");
  EXPECT_EQ(to_string(PlanNode::Kind::Iterative), "Iterative");
}

// The PlanTreeHash tests keep the names they had when PlanNode also had a
// structural hash. Plan identity is now operator== alone; these tests pin
// that it sees every structural field the hash covered.
TEST(PlanTreeHash, EqualTreesHashEqual) {
  const PlanNode a = sample();
  const PlanNode b = sample();
  EXPECT_EQ(a, b);
  // Copies too.
  const PlanNode c = a;
  EXPECT_EQ(a, c);
  EXPECT_EQ(PlanNode(c), a);
}

TEST(PlanTreeHash, SensitiveToEveryStructuralField) {
  // Service, kind, child count and order, guards and the continue condition.
  const PlanNode base = sample();

  PlanNode renamed = base;
  renamed.children[0].service = "POR";
  EXPECT_FALSE(renamed == base);

  PlanNode rekinded = base;
  rekinded.children[1].kind = PlanNode::Kind::Sequential;
  EXPECT_FALSE(rekinded == base);

  PlanNode extended = base;
  extended.children.push_back(PlanNode::terminal("POR"));
  EXPECT_FALSE(extended == base);

  PlanNode reordered = base;
  std::swap(reordered.children.front(), reordered.children.back());
  EXPECT_FALSE(reordered == base);

  const PlanNode trivially_guarded =
      PlanNode::selective({PlanNode::terminal("A"), PlanNode::terminal("B")});
  PlanNode guarded = trivially_guarded;
  guarded.guards[0] = wfl::Condition::parse("A.Classification = \"2D Image\"");
  EXPECT_FALSE(guarded == trivially_guarded);

  const PlanNode trivially_looped = PlanNode::iterative({PlanNode::terminal("POR")});
  PlanNode looped = trivially_looped;
  looped.continue_condition = wfl::Condition::parse("D10.Value > 8");
  EXPECT_FALSE(looped == trivially_looped);
}

TEST(PlanTreeHash, TerminalVersusControllerOfSameName) {
  // A lone terminal and a one-child controller around it must differ.
  const PlanNode leaf = PlanNode::terminal("POD");
  const PlanNode wrapped = PlanNode::sequential({PlanNode::terminal("POD")});
  EXPECT_FALSE(leaf == wrapped);
}

TEST(FlatPlan, PreorderLayout) {
  // Node i's first child is i + 1 and its next sibling i + size; terminals
  // hold catalogue indices, and a name the catalogue lacks gets -1.
  const wfl::ServiceCatalogue services = virolab::make_catalogue();
  const ServiceIndex index = index_services(services);
  const auto id = [&](const char* name) { return index.at(name); };
  using Kind = PlanNode::Kind;
  const FlatPlan plan = flatten(sample(), index);
  const FlatPlan want = {{Kind::Sequential, -1, 6}, {Kind::Terminal, id("POD"), 1},
                         {Kind::Concurrent, -1, 3}, {Kind::Terminal, id("P3DR"), 1},
                         {Kind::Terminal, id("P3DR"), 1}, {Kind::Terminal, id("PSF"), 1}};
  EXPECT_EQ(plan, want);
  EXPECT_EQ(check_structure(plan), "");
  EXPECT_EQ(to_tree(plan, services), sample());
  EXPECT_EQ(flatten(PlanNode::terminal("BOGUS"), index),
            (FlatPlan{{Kind::Terminal, -1, 1}}));
}

TEST(FlatPlan, GpShapedTreesRoundTrip) {
  // Every initialization style, and the empty catalogue whose terminals are
  // all "noop": to_tree(flatten(t)) == t and flatten(to_tree(p)) == p.
  const wfl::ServiceCatalogue services = virolab::make_catalogue();
  const wfl::ServiceCatalogue empty;
  for (const wfl::ServiceCatalogue* catalogue : {&services, &empty}) {
    const ServiceIndex index = index_services(*catalogue);
    for (const InitStyle style : {InitStyle::Grow, InitStyle::Full, InitStyle::Ramped}) {
      util::Rng rng(31);
      for (int i = 0; i < 100; ++i) {
        const FlatPlan plan = random_tree(rng, *catalogue, 40, style);
        const PlanNode tree = to_tree(plan, *catalogue);
        EXPECT_EQ(check_structure(tree), "");
        EXPECT_EQ(tree.size(), plan.size());
        EXPECT_EQ(flatten(tree, index), plan);
        EXPECT_EQ(to_tree(flatten(tree, index), *catalogue), tree) << tree.to_tree_string();
      }
    }
  }
}

TEST(FlatPlan, StructureChecks) {
  using Kind = PlanNode::Kind;
  EXPECT_EQ(check_structure(FlatPlan{{Kind::Terminal, 0, 1}}), "");
  EXPECT_NE(check_structure(FlatPlan{}), "");
  // The root must span the plan.
  EXPECT_NE(check_structure(FlatPlan{{Kind::Terminal, 0, 1}, {Kind::Terminal, 0, 1}}), "");
  // A controller without children, a terminal with some.
  EXPECT_NE(check_structure(FlatPlan{{Kind::Selective, -1, 1}}), "");
  EXPECT_NE(check_structure(FlatPlan{{Kind::Terminal, 0, 2}, {Kind::Terminal, 0, 1}}), "");
  // Children that overrun their parent's count.
  EXPECT_NE(check_structure(FlatPlan{{Kind::Sequential, -1, 3},
                                     {Kind::Concurrent, -1, 3},
                                     {Kind::Terminal, 0, 1}}),
            "");
  EXPECT_NE(check_structure(FlatPlan{{Kind::Sequential, -1, 2}, {Kind::Terminal, 0, 0}}), "");
}

}  // namespace
}  // namespace ig::planner
