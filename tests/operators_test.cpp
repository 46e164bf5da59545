#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "planner/operators.hpp"
#include "virolab/catalogue.hpp"

namespace ig::planner {
namespace {

wfl::ServiceCatalogue catalogue() { return virolab::make_catalogue(); }

TEST(RandomTree, RespectsSizeBoundAndStructure) {
  util::Rng rng(1);
  const auto services = catalogue();
  for (int i = 0; i < 200; ++i) {
    const FlatPlan plan = random_tree(rng, services, 40);
    const PlanNode tree = to_tree(plan, services);
    EXPECT_LE(tree.size(), 40u);
    EXPECT_GE(tree.size(), 1u);
    EXPECT_EQ(check_structure(tree), "") << tree.to_tree_string();
    EXPECT_EQ(check_structure(plan), "") << tree.to_tree_string();
  }
}

TEST(RandomTree, TerminalsNameCatalogueServices) {
  util::Rng rng(2);
  const auto services = catalogue();
  const PlanNode tree = to_tree(random_tree(rng, services, 30), services);
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
  const auto services = catalogue();
  const PlanNode tree = to_tree(random_tree(rng, services, 1), services);
  EXPECT_TRUE(tree.is_terminal());
}

TEST(RandomTree, ProducesVariedKinds) {
  util::Rng rng(4);
  const auto services = catalogue();
  bool saw_controller = false;
  bool saw_terminal_root = false;
  for (int i = 0; i < 100; ++i) {
    const PlanNode tree = to_tree(random_tree(rng, services, 20), services);
    if (tree.is_terminal()) saw_terminal_root = true;
    else saw_controller = true;
  }
  EXPECT_TRUE(saw_controller);
  EXPECT_TRUE(saw_terminal_root);
}

TEST(RandomTree, EmptyCatalogueFallsBack) {
  util::Rng rng(5);
  wfl::ServiceCatalogue empty;
  const PlanNode tree = to_tree(random_tree(rng, empty, 5), empty);
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
    const PlanNode grow = to_tree(random_tree(rng, services, 30, InitStyle::Grow), services);
    const PlanNode full = to_tree(random_tree(rng, services, 30, InitStyle::Full), services);
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
    const PlanNode tree = to_tree(random_tree(rng, services, 25, InitStyle::Ramped), services);
    EXPECT_EQ(check_structure(tree), "");
    EXPECT_LE(tree.size(), 25u);
  }
}

TEST(Mutation, StyleParameterRespectsSmax) {
  util::Rng rng(23);
  const auto services = catalogue();
  for (int i = 0; i < 50; ++i) {
    FlatPlan plan = random_tree(rng, services, 20);
    mutate(plan, rng, services, 0.5, 30, InitStyle::Full);
    EXPECT_LE(plan.size(), 30u);
    EXPECT_EQ(check_structure(plan), "");
    EXPECT_EQ(check_structure(to_tree(plan, services)), "");
  }
}

TEST(Crossover, RateZeroNeverApplies) {
  util::Rng rng(6);
  const auto services = catalogue();
  FlatPlan a = random_tree(rng, services, 20);
  FlatPlan b = random_tree(rng, services, 20);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(crossover(a, b, rng, 0.0, 40));
  }
}

TEST(Crossover, SwapsSubtreesAndPreservesTotalSize) {
  util::Rng rng(7);
  const auto services = catalogue();
  int applied = 0;
  for (int i = 0; i < 100; ++i) {
    const FlatPlan a = random_tree(rng, services, 20);
    const FlatPlan b = random_tree(rng, services, 20);
    FlatPlan first = a;
    FlatPlan second = b;
    if (!crossover(first, second, rng, 1.0, 40)) continue;
    ++applied;
    EXPECT_EQ(first.size() + second.size(), a.size() + b.size());
    EXPECT_EQ(check_structure(first), "");
    EXPECT_EQ(check_structure(second), "");
    EXPECT_EQ(check_structure(to_tree(first, services)), "");
    EXPECT_EQ(check_structure(to_tree(second, services)), "");
    EXPECT_LE(first.size(), 40u);
    EXPECT_LE(second.size(), 40u);
  }
  EXPECT_GT(applied, 50);
}

TEST(Crossover, FailsWhenChildWouldExceedSmax) {
  util::Rng rng(8);
  const auto services = catalogue();
  // Tiny Smax: swapping a big subtree into a big tree must fail often;
  // verify the guarantee rather than the frequency.
  for (int i = 0; i < 100; ++i) {
    FlatPlan a = random_tree(rng, services, 10);
    FlatPlan b = random_tree(rng, services, 10);
    if (crossover(a, b, rng, 1.0, 10)) {
      EXPECT_LE(a.size(), 10u);
      EXPECT_LE(b.size(), 10u);
    }
  }
}

TEST(Crossover, RefusedCrossoverReturnsParentsUnchanged) {
  util::Rng rng(31);
  const auto services = catalogue();
  // The rate says no: both parents come back as they went in.
  const FlatPlan a = random_tree(rng, services, 20);
  const FlatPlan b = random_tree(rng, services, 20);
  for (int i = 0; i < 20; ++i) {
    FlatPlan first = a;
    FlatPlan second = b;
    EXPECT_FALSE(crossover(first, second, rng, 0.0, 40));
    EXPECT_EQ(first, a);
    EXPECT_EQ(second, b);
  }
  // Smax refuses: two six-node sequences at Smax 6 can only swap subtrees
  // of equal size, so picking a leaf in one and the root in the other fails.
  const auto sequence = [](std::vector<const char*> services) {
    std::vector<PlanNode> children;
    for (const char* service : services) children.push_back(PlanNode::terminal(service));
    return PlanNode::sequential(std::move(children));
  };
  const ServiceIndex index = index_services(services);
  const FlatPlan left = flatten(sequence({"POD", "P3DR", "P3DR", "PSF", "POR"}), index);
  const FlatPlan right = flatten(sequence({"PSF", "POR", "POD", "P3DR", "P3DR"}), index);
  int refused = 0;
  for (int i = 0; i < 50; ++i) {
    FlatPlan first = left;
    FlatPlan second = right;
    const bool applied = crossover(first, second, rng, 1.0, 6);
    EXPECT_LE(first.size(), 6u);
    EXPECT_LE(second.size(), 6u);
    if (applied) continue;
    ++refused;
    EXPECT_EQ(first, left);
    EXPECT_EQ(second, right);
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
    const FlatPlan plan = random_tree(rng, services, 12);
    FlatPlan first = plan;
    FlatPlan second = plan;
    if (crossover(first, second, rng, 1.0, 2 * plan.size())) {
      ++applied;
      EXPECT_NE(first, plan);
      EXPECT_NE(second, plan);
    } else {
      ++refused;
      EXPECT_EQ(first, plan);
      EXPECT_EQ(second, plan);
    }
    EXPECT_EQ(check_structure(first), "");
    EXPECT_EQ(check_structure(second), "");
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(applied, 0);
}

TEST(Mutation, RateZeroNeverChanges) {
  util::Rng rng(9);
  const auto services = catalogue();
  FlatPlan plan = random_tree(rng, services, 20);
  const FlatPlan original = plan;
  EXPECT_FALSE(mutate(plan, rng, services, 0.0, 40));
  EXPECT_EQ(plan, original);
}

TEST(Mutation, RateOneChangesAndRespectsSmax) {
  util::Rng rng(10);
  const auto services = catalogue();
  for (int i = 0; i < 50; ++i) {
    FlatPlan plan = random_tree(rng, services, 20);
    mutate(plan, rng, services, 1.0, 25);
    EXPECT_LE(plan.size(), 25u);
    EXPECT_EQ(check_structure(plan), "");
    EXPECT_EQ(check_structure(to_tree(plan, services)), "");
  }
}

TEST(Mutation, PaperRateMutatesRarely) {
  util::Rng rng(11);
  const auto services = catalogue();
  int changed = 0;
  for (int i = 0; i < 200; ++i) {
    FlatPlan plan = random_tree(rng, services, 20);
    if (mutate(plan, rng, services, 0.001, 40)) ++changed;
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

// ---------------------------------------------------------------------------
// OperatorsPin: what the operators hand back, pinned bitwise. Each operator
// is reached through one adapter below, so the sweep and its digest stay as
// recorded when the operators' types change.
// ---------------------------------------------------------------------------

/// What an operator call reports: whether it changed its plans and their
/// node counts afterwards.
struct Outcome {
  bool applied = false;
  std::size_t size_a = 0;
  std::size_t size_b = 0;
};

using Plan = FlatPlan;

Plan pin_tree(util::Rng& rng, const wfl::ServiceCatalogue& services, std::size_t max_size,
              InitStyle style) {
  return random_tree(rng, services, max_size, style);
}

std::string pin_text(const Plan& plan, const wfl::ServiceCatalogue& services) {
  return to_tree(plan, services).to_tree_string();
}

std::size_t pin_size(const Plan& plan) { return plan.size(); }

Outcome pin_crossover(Plan& a, Plan& b, util::Rng& rng, double rate, std::size_t smax) {
  const bool applied = crossover(a, b, rng, rate, smax);
  return {applied, a.size(), b.size()};
}

Outcome pin_mutate(Plan& plan, util::Rng& rng, const wfl::ServiceCatalogue& services,
                   double rate, std::size_t smax, InitStyle style) {
  const bool applied = mutate(plan, rng, services, rate, smax, style);
  return {applied, plan.size(), 0};
}

/// FNV-1a over strings and numbers.
class OperatorDigest {
 public:
  void add(const std::string& text) {
    for (const char c : text) step(static_cast<unsigned char>(c));
    add(std::uint64_t{text.size()});
  }
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) step((word >> (8 * byte)) & 0xFFu);
  }
  void add(const Outcome& outcome) {
    add(std::uint64_t{outcome.applied});
    add(std::uint64_t{outcome.size_a});
    add(std::uint64_t{outcome.size_b});
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  void step(std::uint64_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

TEST(OperatorsPin, OperatorsReproduceBitwiseAsPinned) {
  // Every tree, size and applied flag the operators return over a sweep of
  // seeds, styles, sizes and rates, plus one draw from each stream after
  // each call, so a change in how many numbers an operator consumes shows
  // too. InitStyle::Full is pinned only here.
  const auto services = catalogue();
  const wfl::ServiceCatalogue empty;
  const InitStyle styles[] = {InitStyle::Grow, InitStyle::Full, InitStyle::Ramped};
  OperatorDigest digest;

  // random_tree: each style at max_size 1..40, 50 seeds; then the empty
  // catalogue's "noop" terminals.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    for (const InitStyle style : styles) {
      for (std::size_t max_size = 1; max_size <= 40; ++max_size) {
        const Plan plan = pin_tree(rng, services, max_size, style);
        digest.add(pin_text(plan, services));
        digest.add(std::uint64_t{pin_size(plan)});
      }
    }
    digest.add(rng.next_below(1u << 30));
  }
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    for (const InitStyle style : styles) {
      for (const std::size_t max_size : {1u, 5u, 12u}) {
        const Plan plan = pin_tree(rng, empty, max_size, style);
        digest.add(pin_text(plan, empty));
        digest.add(std::uint64_t{pin_size(plan)});
      }
    }
  }

  // crossover: rate 0.7 at Smax 40, and rate 1.0 at Smax 20, where many
  // pairs are refused for size.
  std::size_t applied = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(1000 + seed);
    for (const auto& [rate, smax] :
         {std::pair{0.7, std::size_t{40}}, std::pair{1.0, std::size_t{20}}}) {
      for (std::size_t i = 0; i < 12; ++i) {
        const InitStyle style = styles[i % 3];
        Plan a = pin_tree(rng, services, smax == 40 ? 30 : 18, style);
        Plan b = pin_tree(rng, services, smax == 40 ? 30 : 18, style);
        const Outcome outcome = pin_crossover(a, b, rng, rate, smax);
        if (rate == 1.0) (outcome.applied ? applied : refused) += 1;
        digest.add(outcome);
        digest.add(pin_text(a, services));
        digest.add(pin_text(b, services));
        digest.add(rng.next_below(1u << 30));
      }
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_GT(refused, 0u);

  // mutate: the paper's rate, a busy one and a heavy one, each style.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(2000 + seed);
    for (const double rate : {0.001, 0.05, 0.5}) {
      for (const InitStyle style : styles) {
        Plan plan = pin_tree(rng, services, 30, style);
        const Outcome outcome = pin_mutate(plan, rng, services, rate, seed % 2 ? 40 : 25, style);
        digest.add(outcome);
        digest.add(pin_text(plan, services));
        digest.add(rng.next_below(1u << 30));
      }
    }
  }
  // A reference value, recorded before the operators moved to flat plans:
  // change it only with a deliberate change of what the operators compute.
  EXPECT_EQ(digest.value(), 0x618e8cd870f94e3cULL);
}

}  // namespace
}  // namespace ig::planner
