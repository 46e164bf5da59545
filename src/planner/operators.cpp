#include "planner/operators.hpp"

#include <algorithm>

namespace ig::planner {

namespace {

/// Appends a terminal: a random catalogue index, or -1 ("noop") when the
/// catalogue is empty.
void add_terminal(util::Rng& rng, const wfl::ServiceCatalogue& catalogue, FlatPlan& out) {
  const std::size_t count = catalogue.size();
  out.push_back({PlanNode::Kind::Terminal,
                 count == 0 ? -1 : static_cast<std::int32_t>(rng.next_below(count)), 1});
}

PlanNode::Kind random_controller(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return PlanNode::Kind::Sequential;
    case 1: return PlanNode::Kind::Concurrent;
    case 2: return PlanNode::Kind::Selective;
    default: return PlanNode::Kind::Iterative;
  }
}

/// Fills in out[at], the controller whose children end `out`: its kind is
/// drawn after them.
void close_controller(util::Rng& rng, std::size_t at, FlatPlan& out) {
  out[at] = {random_controller(rng), -1, static_cast<std::uint32_t>(out.size() - at)};
}

/// Appends a random subtree of at most `budget` nodes (budget >= 1).
void random_subtree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue, std::size_t budget,
                    FlatPlan& out) {
  if (budget <= 1) return add_terminal(rng, catalogue, out);
  // Bias towards small arities so trees stay bushy rather than degenerate.
  const std::size_t max_children = std::min<std::size_t>(budget - 1, 4);
  const std::size_t child_count = 1 + rng.next_below(max_children);
  const std::size_t at = out.size();
  out.emplace_back();
  std::size_t remaining = budget - 1;
  for (std::size_t i = 0; i < child_count; ++i) {
    const std::size_t slots_left = child_count - i;
    // Leave at least one node of budget for each remaining child.
    const std::size_t max_for_this = remaining - (slots_left - 1);
    const std::size_t child_budget = 1 + rng.next_below(max_for_this);
    const std::size_t child = out.size();
    random_subtree(rng, catalogue, child_budget, out);
    remaining -= out.size() - child;
    if (remaining < slots_left - 1) remaining = slots_left - 1;  // defensive
  }
  close_controller(rng, at, out);
}

/// Bushy construction: a controller with 2-3 children whenever the budget
/// allows, terminals only once it is nearly spent.
void full_subtree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue, std::size_t budget,
                  FlatPlan& out) {
  if (budget < 3) return add_terminal(rng, catalogue, out);
  const std::size_t child_count = std::min<std::size_t>(2 + rng.next_below(2), budget - 1);
  const std::size_t at = out.size();
  out.emplace_back();
  std::size_t remaining = budget - 1;
  for (std::size_t i = 0; i < child_count; ++i) {
    const std::size_t slots_left = child_count - i;
    const std::size_t share = remaining / slots_left;
    const std::size_t child = out.size();
    full_subtree(rng, catalogue, share > 0 ? share : 1, out);
    remaining -= std::min(out.size() - child, remaining);
    if (remaining < slots_left - 1) remaining = slots_left - 1;
  }
  close_controller(rng, at, out);
}

/// Updates the counts of the ancestors of node `at`, whose subtree grows
/// from `removed` to `inserted` nodes; the plan's layout is not changed yet.
void resize_ancestors(FlatPlan& plan, std::size_t at, std::size_t removed,
                      std::size_t inserted) {
  for (std::size_t node = 0; node != at;) {
    plan[node].size = static_cast<std::uint32_t>(plan[node].size - removed + inserted);
    std::size_t child = node + 1;
    while (child + plan[child].size <= at) child += plan[child].size;
    node = child;
  }
}

}  // namespace

FlatPlan random_tree(util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
                     std::size_t max_size, InitStyle style) {
  if (max_size < 1) max_size = 1;
  const std::size_t target = 1 + rng.next_below(max_size);
  // Ramped alternates: a coin flip picks Grow or Full for each plan.
  const bool full =
      style == InitStyle::Full || (style == InitStyle::Ramped && !rng.next_bool(0.5));
  FlatPlan plan;
  plan.reserve(target);
  (full ? full_subtree : random_subtree)(rng, catalogue, target, plan);
  return plan;
}

bool crossover(FlatPlan& a, FlatPlan& b, util::Rng& rng, double crossover_rate,
               std::size_t smax) {
  if (!rng.next_bool(crossover_rate)) return false;
  const std::size_t at_a = rng.next_below(a.size());
  const std::size_t at_b = rng.next_below(b.size());
  const std::size_t swapped_a = a[at_a].size;
  const std::size_t swapped_b = b[at_b].size;
  const auto node = [](FlatPlan& plan, std::size_t at) {
    return plan.begin() + static_cast<std::ptrdiff_t>(at);
  };
  // Swapping equal subtrees would hand back both parents as they were.
  if (a.size() - swapped_a + swapped_b > smax || b.size() - swapped_b + swapped_a > smax ||
      (swapped_a == swapped_b &&
       std::equal(node(a, at_a), node(a, at_a + swapped_a), node(b, at_b))))
    return false;
  resize_ancestors(a, at_a, swapped_a, swapped_b);
  resize_ancestors(b, at_b, swapped_b, swapped_a);
  // Each plan takes in the other's subtree behind its own, then drops its own.
  a.insert(node(a, at_a + swapped_a), node(b, at_b), node(b, at_b + swapped_b));
  b.insert(node(b, at_b + swapped_b), node(a, at_a), node(a, at_a + swapped_a));
  a.erase(node(a, at_a), node(a, at_a + swapped_a));
  b.erase(node(b, at_b), node(b, at_b + swapped_b));
  return true;
}

bool mutate(FlatPlan& plan, util::Rng& rng, const wfl::ServiceCatalogue& catalogue,
            double mutation_rate, std::size_t smax, InitStyle style) {
  bool changed = false;
  // Per-node selection. Node indices are re-derived after each applied
  // mutation because the plan's shape changes.
  std::size_t index = 0;
  while (index < plan.size()) {
    if (!rng.next_bool(mutation_rate)) {
      ++index;
      continue;
    }
    const std::size_t removed = plan[index].size;
    const std::size_t rest = plan.size() - removed;
    if (rest >= smax) {
      ++index;
      continue;
    }
    const FlatPlan replacement = random_tree(rng, catalogue, smax - rest, style);
    if (rest + replacement.size() > smax) {
      // "mutation fails and we keep the original tree"
      ++index;
      continue;
    }
    resize_ancestors(plan, index, removed, replacement.size());
    const auto at = plan.begin() + static_cast<std::ptrdiff_t>(index);
    plan.insert(plan.erase(at, at + static_cast<std::ptrdiff_t>(removed)), replacement.begin(),
                replacement.end());
    // Skip over the freshly inserted subtree so one pass cannot cascade.
    index += replacement.size();
    changed = true;
  }
  return changed;
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
