// Genetic operators: initialization, crossover, mutation, selection
// (Sections 3.4.2, 3.4.3, 3.4.5). They work on flat preorder plans
// (plan_tree.hpp), the individuals GP evolves.
#pragma once

#include <cstddef>
#include <vector>

#include "planner/evaluate.hpp"
#include "planner/plan_tree.hpp"
#include "util/rng.hpp"
#include "wfl/service.hpp"

namespace ig::planner {

/// How random plans are shaped (Section 3.4.2 leaves the distribution
/// open: "we generate an arbitrary tree structure for a plan of a given
/// size").
enum class InitStyle {
  Grow,    ///< free-form: arities and depths vary, terminals may appear early
  Full,    ///< bushy: controllers until the budget runs out, terminals at the frontier
  Ramped,  ///< GP's ramped half-and-half: alternate Grow and Full
};

/// Generates a random plan ("first ... an arbitrary tree structure for a
/// plan of a given size; second ... instantiate each node": internal nodes
/// get one of the four controller kinds, leaves get end-user activities,
/// as catalogue indices). The result has between 1 and `max_size` nodes.
FlatPlan random_tree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
                     std::size_t max_size, InitStyle style = InitStyle::Grow);

/// Subtree crossover: picks a random node in each parent and swaps the
/// subtrees in place ("in case the size of a new tree exceeds Smax,
/// crossover fails and both parents are kept"); the crossover_rate gate is
/// applied inside. Returns true when the plans changed: false when the rate
/// said no, when a child would exceed Smax, or when the two picked subtrees
/// were equal (swapping them changes neither parent), and then both come
/// back unchanged and a caller may keep their fitness. `a` and `b` must be
/// distinct objects.
bool crossover(FlatPlan& a, FlatPlan& b, util::Rng& rng, double crossover_rate,
               std::size_t smax);

/// Subtree-replacement mutation: every node is independently selected with
/// probability `mutation_rate`; a selected node's subtree is replaced by a
/// freshly generated random one ("using the same method as plan
/// initialization", hence the style parameter). "If ... the new tree
/// exceeds the size limitation, mutation fails and we keep the original
/// tree." Returns true when the plan changed.
bool mutate(FlatPlan& plan, util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
            double mutation_rate, std::size_t smax, InitStyle style = InitStyle::Grow);

enum class SelectionScheme {
  Tournament,  ///< the paper's scheme: binary tournament with replacement
  Roulette,    ///< fitness-proportional (ablation A5)
};

/// Selects `count` indices into `fitnesses` forming the next generation.
std::vector<std::size_t> select(const std::vector<Fitness>& fitnesses, std::size_t count,
                                SelectionScheme scheme, util::Rng& rng,
                                std::size_t tournament_size = 2);

}  // namespace ig::planner
