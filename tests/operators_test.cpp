#include <gtest/gtest.h>

#include "planner/operators.hpp"
#include "virolab/catalogue.hpp"

namespace ig::planner {
namespace {

wfl::ServiceCatalogue catalogue() { return virolab::make_catalogue(); }

TEST(RandomTree, RespectsSizeBoundAndStructure) {
  util::Rng rng(1);
  const auto services = catalogue();
  for (int i = 0; i < 200; ++i) {
    const PlanNode tree = random_tree(rng, services, 40);
    EXPECT_LE(tree.size(), 40u);
    EXPECT_GE(tree.size(), 1u);
    EXPECT_EQ(check_structure(tree), "") << tree.to_tree_string();
  }
}

TEST(RandomTree, TerminalsNameCatalogueServices) {
  util::Rng rng(2);
  const auto services = catalogue();
  const PlanNode tree = random_tree(rng, services, 30);
  std::vector<const PlanNode*> stack{&tree};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    if (node->is_terminal()) {
      EXPECT_NE(services.find(node->service), nullptr) << node->service;
    }
    for (const auto& child : node->children) stack.push_back(&child);
  }
}

TEST(RandomTree, SizeOneYieldsTerminal) {
  util::Rng rng(3);
  const PlanNode tree = random_tree(rng, catalogue(), 1);
  EXPECT_TRUE(tree.is_terminal());
}

TEST(RandomTree, ProducesVariedKinds) {
  util::Rng rng(4);
  const auto services = catalogue();
  bool saw_controller = false;
  bool saw_terminal_root = false;
  for (int i = 0; i < 100; ++i) {
    const PlanNode tree = random_tree(rng, services, 20);
    if (tree.is_terminal()) saw_terminal_root = true;
    else saw_controller = true;
  }
  EXPECT_TRUE(saw_controller);
  EXPECT_TRUE(saw_terminal_root);
}

TEST(RandomTree, EmptyCatalogueFallsBack) {
  util::Rng rng(5);
  wfl::ServiceCatalogue empty;
  const PlanNode tree = random_tree(rng, empty, 5);
  EXPECT_EQ(check_structure(tree), "");
}

namespace {
std::size_t min_terminal_depth(const PlanNode& node) {
  if (node.is_terminal()) return 1;
  std::size_t best = SIZE_MAX;
  for (const auto& child : node.children)
    best = std::min(best, min_terminal_depth(child));
  return best + 1;
}
}  // namespace

TEST(RandomTree, FullStylePlacesTerminalsDeeper) {
  util::Rng rng(21);
  const auto services = catalogue();
  // Full-style construction keeps controllers going until the budget is
  // nearly spent, so the *shallowest* terminal sits deeper than in
  // grow-style trees (which may drop a terminal right under the root).
  double grow_depth = 0;
  double full_depth = 0;
  int samples = 0;
  for (int i = 0; i < 300; ++i) {
    const PlanNode grow = random_tree(rng, services, 30, InitStyle::Grow);
    const PlanNode full = random_tree(rng, services, 30, InitStyle::Full);
    EXPECT_EQ(check_structure(grow), "");
    EXPECT_EQ(check_structure(full), "");
    EXPECT_LE(full.size(), 30u);
    if (grow.size() < 8 || full.size() < 8) continue;
    grow_depth += static_cast<double>(min_terminal_depth(grow));
    full_depth += static_cast<double>(min_terminal_depth(full));
    ++samples;
  }
  ASSERT_GT(samples, 50);
  EXPECT_GT(full_depth / samples, grow_depth / samples);
}

TEST(RandomTree, RampedMixesBothStyles) {
  util::Rng rng(22);
  const auto services = catalogue();
  for (int i = 0; i < 100; ++i) {
    const PlanNode tree = random_tree(rng, services, 25, InitStyle::Ramped);
    EXPECT_EQ(check_structure(tree), "");
    EXPECT_LE(tree.size(), 25u);
  }
}

TEST(Mutation, StyleParameterRespectsSmax) {
  util::Rng rng(23);
  const auto services = catalogue();
  for (int i = 0; i < 50; ++i) {
    PlanNode tree = random_tree(rng, services, 20);
    mutate(tree, tree.size(), rng, services, 0.5, 30, InitStyle::Full);
    EXPECT_LE(tree.size(), 30u);
    EXPECT_EQ(check_structure(tree), "");
  }
}

TEST(Crossover, RateZeroNeverApplies) {
  util::Rng rng(6);
  const auto services = catalogue();
  const PlanNode a = random_tree(rng, services, 20);
  const PlanNode b = random_tree(rng, services, 20);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(crossover(a, a.size(), b, b.size(), rng, 0.0, 40).applied);
  }
}

TEST(Crossover, SwapsSubtreesAndPreservesTotalSize) {
  util::Rng rng(7);
  const auto services = catalogue();
  int applied = 0;
  for (int i = 0; i < 100; ++i) {
    const PlanNode a = random_tree(rng, services, 20);
    const PlanNode b = random_tree(rng, services, 20);
    const CrossoverResult result = crossover(a, a.size(), b, b.size(), rng, 1.0, 40);
    if (!result.applied) continue;
    ++applied;
    EXPECT_EQ(result.first.size() + result.second.size(), a.size() + b.size());
    EXPECT_EQ(check_structure(result.first), "");
    EXPECT_EQ(check_structure(result.second), "");
    EXPECT_LE(result.first.size(), 40u);
    EXPECT_LE(result.second.size(), 40u);
  }
  EXPECT_GT(applied, 50);
}

TEST(Crossover, FailsWhenChildWouldExceedSmax) {
  util::Rng rng(8);
  const auto services = catalogue();
  // Tiny Smax: swapping a big subtree into a big tree must fail often;
  // verify the guarantee rather than the frequency.
  for (int i = 0; i < 100; ++i) {
    const PlanNode a = random_tree(rng, services, 10);
    const PlanNode b = random_tree(rng, services, 10);
    const CrossoverResult result = crossover(a, a.size(), b, b.size(), rng, 1.0, 10);
    if (result.applied) {
      EXPECT_LE(result.first.size(), 10u);
      EXPECT_LE(result.second.size(), 10u);
    }
  }
}

TEST(Crossover, RefusedCrossoverReturnsParentsUnchanged) {
  util::Rng rng(31);
  const auto services = catalogue();
  // The rate says no: both parents come back as they went in.
  const PlanNode a = random_tree(rng, services, 20);
  const PlanNode b = random_tree(rng, services, 20);
  for (int i = 0; i < 20; ++i) {
    const CrossoverResult result = crossover(a, a.size(), b, b.size(), rng, 0.0, 40);
    EXPECT_FALSE(result.applied);
    EXPECT_EQ(result.first, a);
    EXPECT_EQ(result.second, b);
  }
  // Smax refuses: two six-node sequences at Smax 6 can only swap subtrees
  // of equal size, so picking a leaf in one and the root in the other fails.
  const auto sequence = [](std::vector<const char*> services) {
    std::vector<PlanNode> children;
    for (const char* service : services) children.push_back(PlanNode::terminal(service));
    return PlanNode::sequential(std::move(children));
  };
  const PlanNode left = sequence({"POD", "P3DR", "P3DR", "PSF", "POR"});
  const PlanNode right = sequence({"PSF", "POR", "POD", "P3DR", "P3DR"});
  int refused = 0;
  for (int i = 0; i < 50; ++i) {
    const CrossoverResult result = crossover(left, 6, right, 6, rng, 1.0, 6);
    EXPECT_LE(result.first.size(), 6u);
    EXPECT_LE(result.second.size(), 6u);
    if (result.applied) continue;
    ++refused;
    EXPECT_EQ(result.first, left);
    EXPECT_EQ(result.second, right);
  }
  EXPECT_GT(refused, 0);
}

TEST(Crossover, EqualSubtreesAreNotSwapped) {
  util::Rng rng(37);
  const auto services = catalogue();
  // A plan crossed with its own copy picks equal subtrees whenever it picks
  // the same position (or two equal leaves): that swap changes nothing, so
  // it is not applied and both parents come back as they were. Smax is
  // large enough that it never refuses, so every other swap is applied and
  // changes both children.
  int refused = 0;
  int applied = 0;
  for (int i = 0; i < 200; ++i) {
    const PlanNode plan = random_tree(rng, services, 12);
    const std::size_t size = plan.size();
    const CrossoverResult result = crossover(plan, size, plan, size, rng, 1.0, 2 * size);
    if (result.applied) {
      ++applied;
      EXPECT_NE(result.first, plan);
      EXPECT_NE(result.second, plan);
    } else {
      ++refused;
      EXPECT_EQ(result.first, plan);
      EXPECT_EQ(result.second, plan);
    }
    EXPECT_EQ(result.first_size, result.first.size());
    EXPECT_EQ(result.second_size, result.second.size());
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(applied, 0);
}

TEST(Mutation, RateZeroNeverChanges) {
  util::Rng rng(9);
  const auto services = catalogue();
  PlanNode tree = random_tree(rng, services, 20);
  const PlanNode original = tree;
  EXPECT_FALSE(mutate(tree, tree.size(), rng, services, 0.0, 40).applied);
  EXPECT_EQ(tree, original);
}

TEST(Mutation, RateOneChangesAndRespectsSmax) {
  util::Rng rng(10);
  const auto services = catalogue();
  for (int i = 0; i < 50; ++i) {
    PlanNode tree = random_tree(rng, services, 20);
    mutate(tree, tree.size(), rng, services, 1.0, 25);
    EXPECT_LE(tree.size(), 25u);
    EXPECT_EQ(check_structure(tree), "");
  }
}

TEST(Mutation, PaperRateMutatesRarely) {
  util::Rng rng(11);
  const auto services = catalogue();
  int changed = 0;
  for (int i = 0; i < 200; ++i) {
    PlanNode tree = random_tree(rng, services, 20);
    if (mutate(tree, tree.size(), rng, services, 0.001, 40).applied) ++changed;
  }
  // ~1% of trees (20 nodes x 0.001) should mutate; allow generous slack.
  EXPECT_LT(changed, 20);
}

TEST(Selection, TournamentPrefersFitter) {
  util::Rng rng(12);
  std::vector<Fitness> fitnesses(10);
  for (std::size_t i = 0; i < fitnesses.size(); ++i)
    fitnesses[i].overall = static_cast<double>(i) / 10.0;
  const auto chosen = select(fitnesses, 2000, SelectionScheme::Tournament, rng);
  ASSERT_EQ(chosen.size(), 2000u);
  double mean = 0;
  for (const auto index : chosen) mean += fitnesses[index].overall;
  mean /= 2000.0;
  // Binary tournament expectation over uniform [0,0.9] ranks is ~0.6.
  EXPECT_GT(mean, 0.5);
}

TEST(Selection, RoulettePrefersFitter) {
  util::Rng rng(13);
  std::vector<Fitness> fitnesses(2);
  fitnesses[0].overall = 0.1;
  fitnesses[1].overall = 0.9;
  const auto chosen = select(fitnesses, 2000, SelectionScheme::Roulette, rng);
  std::size_t second = 0;
  for (const auto index : chosen) {
    if (index == 1) ++second;
  }
  EXPECT_NEAR(static_cast<double>(second) / 2000.0, 0.9, 0.05);
}

TEST(Selection, HandlesEmptyAndZeroFitness) {
  util::Rng rng(14);
  EXPECT_TRUE(select({}, 5, SelectionScheme::Tournament, rng).empty());
  std::vector<Fitness> zeros(3);
  const auto chosen = select(zeros, 10, SelectionScheme::Roulette, rng);
  EXPECT_EQ(chosen.size(), 10u);
  for (const auto index : chosen) EXPECT_LT(index, 3u);
}

TEST(Selection, TournamentSizeOneIsUniform) {
  util::Rng rng(15);
  std::vector<Fitness> fitnesses(4);
  fitnesses[3].overall = 100.0;
  const auto chosen = select(fitnesses, 4000, SelectionScheme::Tournament, rng, 1);
  std::size_t best = 0;
  for (const auto index : chosen) {
    if (index == 3) ++best;
  }
  EXPECT_NEAR(static_cast<double>(best) / 4000.0, 0.25, 0.05);
}

}  // namespace
}  // namespace ig::planner
