#include "planner/operators.hpp"

#include <algorithm>

namespace ig::planner {

namespace {

PlanNode random_terminal(util::Rng& rng, const wfl::ServiceCatalogue& catalogue) {
  const auto& services = catalogue.services();
  if (services.empty()) return PlanNode::terminal("noop");
  const auto index = rng.next_below(services.size());
  return PlanNode::terminal(services[index].name());
}

PlanNode::Kind random_controller(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return PlanNode::Kind::Sequential;
    case 1: return PlanNode::Kind::Concurrent;
    case 2: return PlanNode::Kind::Selective;
    default: return PlanNode::Kind::Iterative;
  }
}

/// Builds a random subtree consuming at most `budget` nodes (budget >= 1).
PlanNode random_subtree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
                        std::size_t budget) {
  if (budget <= 1) return random_terminal(rng, catalogue);
  // Bias towards small arities so trees stay bushy rather than degenerate.
  const std::size_t max_children = std::min<std::size_t>(budget - 1, 4);
  const std::size_t child_count = 1 + rng.next_below(max_children);
  std::size_t remaining = budget - 1;
  std::vector<PlanNode> children;
  children.reserve(child_count);
  for (std::size_t i = 0; i < child_count; ++i) {
    const std::size_t slots_left = child_count - i;
    // Leave at least one node of budget for each remaining child.
    const std::size_t max_for_this = remaining - (slots_left - 1);
    const std::size_t child_budget = 1 + rng.next_below(max_for_this);
    children.push_back(random_subtree(rng, catalogue, child_budget));
    remaining -= children.back().size();
    if (remaining < slots_left - 1) remaining = slots_left - 1;  // defensive
  }
  switch (random_controller(rng)) {
    case PlanNode::Kind::Sequential: return PlanNode::sequential(std::move(children));
    case PlanNode::Kind::Concurrent: return PlanNode::concurrent(std::move(children));
    case PlanNode::Kind::Selective: return PlanNode::selective(std::move(children));
    case PlanNode::Kind::Iterative: return PlanNode::iterative(std::move(children));
    default: return PlanNode::sequential(std::move(children));
  }
}

/// Bushy construction: a controller with 2-3 children whenever the budget
/// allows, terminals only once it is nearly spent.
PlanNode full_subtree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
                      std::size_t budget) {
  if (budget < 3) return random_terminal(rng, catalogue);
  const std::size_t child_count = std::min<std::size_t>(2 + rng.next_below(2), budget - 1);
  std::size_t remaining = budget - 1;
  std::vector<PlanNode> children;
  children.reserve(child_count);
  for (std::size_t i = 0; i < child_count; ++i) {
    const std::size_t slots_left = child_count - i;
    const std::size_t share = remaining / slots_left;
    children.push_back(full_subtree(rng, catalogue, share > 0 ? share : 1));
    remaining -= std::min(children.back().size(), remaining);
    if (remaining < slots_left - 1) remaining = slots_left - 1;
  }
  switch (random_controller(rng)) {
    case PlanNode::Kind::Sequential: return PlanNode::sequential(std::move(children));
    case PlanNode::Kind::Concurrent: return PlanNode::concurrent(std::move(children));
    case PlanNode::Kind::Selective: return PlanNode::selective(std::move(children));
    case PlanNode::Kind::Iterative: return PlanNode::iterative(std::move(children));
    default: return PlanNode::sequential(std::move(children));
  }
}

}  // namespace

PlanNode random_tree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
                     std::size_t max_size, InitStyle style) {
  if (max_size < 1) max_size = 1;
  const std::size_t target = 1 + rng.next_below(max_size);
  switch (style) {
    case InitStyle::Grow:
      return random_subtree(rng, catalogue, target);
    case InitStyle::Full:
      return full_subtree(rng, catalogue, target);
    case InitStyle::Ramped:
      return rng.next_bool(0.5) ? random_subtree(rng, catalogue, target)
                                : full_subtree(rng, catalogue, target);
  }
  return random_subtree(rng, catalogue, target);
}

CrossoverResult crossover(PlanNode parent_a, std::size_t size_a, PlanNode parent_b,
                          std::size_t size_b, util::Rng& rng, double crossover_rate,
                          std::size_t smax) {
  CrossoverResult result;
  result.first_size = size_a;
  result.second_size = size_b;
  if (rng.next_bool(crossover_rate)) {
    PlanNode& subtree_a = parent_a.at_preorder(rng.next_below(size_a));
    PlanNode& subtree_b = parent_b.at_preorder(rng.next_below(size_b));
    // new_a = a - |sa| + |sb|, and the same for b.
    const std::size_t swapped_a = subtree_a.size();
    const std::size_t swapped_b = subtree_b.size();
    const std::size_t new_a = size_a - swapped_a + swapped_b;
    const std::size_t new_b = size_b - swapped_b + swapped_a;
    // Swapping equal subtrees would hand back both parents as they were.
    if (new_a <= smax && new_b <= smax &&
        !(swapped_a == swapped_b && subtree_a == subtree_b)) {
      std::swap(subtree_a, subtree_b);
      result.applied = true;
      result.first_size = new_a;
      result.second_size = new_b;
    }
  }
  result.first = std::move(parent_a);
  result.second = std::move(parent_b);
  return result;
}

MutationResult mutate(PlanNode& tree, std::size_t size, util::Rng& rng,
                      const wfl::ServiceCatalogue& catalogue, double mutation_rate,
                      std::size_t smax, InitStyle style) {
  bool changed = false;
  // Per-node selection. Node indices are re-derived after each applied
  // mutation because the tree's shape changes; `size` follows the tree.
  std::size_t index = 0;
  while (index < size) {
    if (!rng.next_bool(mutation_rate)) {
      ++index;
      continue;
    }
    const std::size_t rest = size - tree.at_preorder(index).size();
    if (rest >= smax) {
      ++index;
      continue;
    }
    PlanNode replacement = random_tree(rng, catalogue, smax - rest, style);
    const std::size_t inserted = replacement.size();
    if (rest + inserted > smax) {
      // "mutation fails and we keep the original tree"
      ++index;
      continue;
    }
    // Skip over the freshly inserted subtree so one pass cannot cascade.
    tree.replace_at_preorder(index, std::move(replacement));
    size = rest + inserted;
    index += inserted;
    changed = true;
  }
  return {changed, size};
}

std::vector<std::size_t> select(const std::vector<Fitness>& fitnesses, std::size_t count,
                                SelectionScheme scheme, util::Rng& rng,
                                std::size_t tournament_size) {
  std::vector<std::size_t> chosen;
  chosen.reserve(count);
  if (fitnesses.empty()) return chosen;

  if (scheme == SelectionScheme::Tournament) {
    if (tournament_size < 1) tournament_size = 1;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t best = rng.next_below(fitnesses.size());
      for (std::size_t k = 1; k < tournament_size; ++k) {
        const std::size_t rival = rng.next_below(fitnesses.size());
        if (fitnesses[rival].overall > fitnesses[best].overall) best = rival;
      }
      chosen.push_back(best);
    }
    return chosen;
  }

  // Roulette: fitness-proportional with a floor so zero-fitness individuals
  // keep an epsilon chance (avoids division by zero on degenerate runs).
  double total = 0.0;
  for (const auto& fitness : fitnesses) total += std::max(fitness.overall, 1e-9);
  for (std::size_t i = 0; i < count; ++i) {
    double ticket = rng.next_double() * total;
    std::size_t winner = fitnesses.size() - 1;
    for (std::size_t j = 0; j < fitnesses.size(); ++j) {
      ticket -= std::max(fitnesses[j].overall, 1e-9);
      if (ticket <= 0) {
        winner = j;
        break;
      }
    }
    chosen.push_back(winner);
  }
  return chosen;
}

}  // namespace ig::planner
