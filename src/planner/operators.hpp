// Genetic operators: initialization, crossover, mutation, selection
// (Sections 3.4.2, 3.4.3, 3.4.5).
#pragma once

#include <cstddef>
#include <vector>

#include "planner/evaluate.hpp"
#include "planner/plan_tree.hpp"
#include "util/rng.hpp"
#include "wfl/service.hpp"

namespace ig::planner {

/// How random plan trees are shaped (Section 3.4.2 leaves the distribution
/// open: "we generate an arbitrary tree structure for a plan of a given
/// size").
enum class InitStyle {
  Grow,    ///< free-form: arities and depths vary, terminals may appear early
  Full,    ///< bushy: controllers until the budget runs out, terminals at the frontier
  Ramped,  ///< GP's ramped half-and-half: alternate Grow and Full
};

/// Generates a random plan tree ("first ... an arbitrary tree structure for
/// a plan of a given size; second ... instantiate each node": internal nodes
/// get one of the four controller kinds, leaves get end-user activities).
/// The result has between 1 and `max_size` nodes.
PlanNode random_tree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
                     std::size_t max_size, InitStyle style = InitStyle::Grow);

/// Result of a crossover attempt.
struct CrossoverResult {
  /// True when the children differ from the parents. False when the rate
  /// said no, when a child would exceed Smax, or when the two picked
  /// subtrees were equal (swapping them changes neither parent): then the
  /// parents come back unchanged and a caller may keep their fitness.
  bool applied = false;
  PlanNode first;               ///< the first child, or parent_a unchanged when !applied
  PlanNode second;              ///< the second child, or parent_b unchanged when !applied
  std::size_t first_size = 0;   ///< first.size()
  std::size_t second_size = 0;  ///< second.size()
};

/// Subtree crossover: picks a random node in each parent and swaps the
/// subtrees in place. "In case the size of a new tree exceeds Smax,
/// crossover fails and both parents are kept." The crossover_rate gate is
/// applied inside. Takes the parents by value, so a caller done with them
/// moves them in; when crossover does not apply they come back unchanged.
/// `size_a` and `size_b` must be the parents' node counts (PlanNode::size(),
/// or Fitness::size of their evaluation), which the caller already holds:
/// the operator never walks a whole parent to count it.
CrossoverResult crossover(PlanNode parent_a, std::size_t size_a, PlanNode parent_b,
                          std::size_t size_b, util::Rng& rng, double crossover_rate,
                          std::size_t smax);

/// Result of a mutation pass.
struct MutationResult {
  bool applied = false;  ///< true when the tree changed
  std::size_t size = 0;  ///< the tree's node count afterwards
};

/// Subtree-replacement mutation: every node is independently selected with
/// probability `mutation_rate`; a selected node's subtree is replaced by a
/// freshly generated random tree ("using the same method as plan
/// initialization", hence the style parameter). "If ... the new tree
/// exceeds the size limitation, mutation fails and we keep the original
/// tree." `size` must be the tree's node count on entry (as for crossover).
MutationResult mutate(PlanNode& tree, std::size_t size, util::Rng& rng,
                      const wfl::ServiceCatalogue& catalogue, double mutation_rate,
                      std::size_t smax, InitStyle style = InitStyle::Grow);

enum class SelectionScheme {
  Tournament,  ///< the paper's scheme: binary tournament with replacement
  Roulette,    ///< fitness-proportional (ablation A5)
};

/// Selects `count` indices into `fitnesses` forming the next generation.
std::vector<std::size_t> select(const std::vector<Fitness>& fitnesses, std::size_t count,
                                SelectionScheme scheme, util::Rng& rng,
                                std::size_t tournament_size = 2);

}  // namespace ig::planner
