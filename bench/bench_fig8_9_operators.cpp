// Figures 8-9 — Crossover and mutation on plan trees.
//
// Reconstructs the paper's worked examples: two parents exchange subtrees
// (Figure 8) and a selected node's subtree is replaced by a randomly
// generated one (Figure 9). Also verifies the operators' contracts over a
// large random sample: sizes stay within Smax, structures stay well-formed,
// and crossover conserves total node count.
#include <cstdio>

#include "planner/operators.hpp"
#include "virolab/catalogue.hpp"

using namespace ig;
using planner::PlanNode;

namespace {

PlanNode figure8_parent_a() {
  // Sequential(A, Selective(B, C), D) -- mirrors the left parent's shape.
  std::vector<PlanNode> top;
  top.push_back(PlanNode::terminal("POD"));
  top.push_back(PlanNode::selective({PlanNode::terminal("P3DR"), PlanNode::terminal("POR")}));
  top.push_back(PlanNode::terminal("PSF"));
  return PlanNode::sequential(std::move(top));
}

PlanNode figure8_parent_b() {
  // Sequential(Concurrent(E, F), G).
  std::vector<PlanNode> top;
  top.push_back(PlanNode::concurrent({PlanNode::terminal("P3DR"), PlanNode::terminal("P3DR")}));
  top.push_back(PlanNode::terminal("PSF"));
  return PlanNode::sequential(std::move(top));
}

}  // namespace

int main() {
  const auto catalogue = virolab::make_catalogue();
  const planner::ServiceIndex index = planner::index_services(catalogue);
  const auto text = [&](const planner::FlatPlan& plan) {
    return planner::to_tree(plan, catalogue).to_tree_string();
  };
  // A plan is well-formed when its node counts add up and its tree passes
  // the Section 3.4.1 checks.
  const auto well_formed = [&](const planner::FlatPlan& plan) {
    return planner::check_structure(plan).empty() &&
           planner::check_structure(planner::to_tree(plan, catalogue)).empty();
  };
  util::Rng rng(88);

  std::printf("=== Figure 8: crossover on two plan trees ===\n\n");
  const planner::FlatPlan parent_a = planner::flatten(figure8_parent_a(), index);
  const planner::FlatPlan parent_b = planner::flatten(figure8_parent_b(), index);
  std::printf("(a) parents:\n%s\n%s\n", text(parent_a).c_str(), text(parent_b).c_str());

  planner::FlatPlan first = parent_a;
  planner::FlatPlan second = parent_b;
  for (int attempt = 0; attempt < 100; ++attempt) {
    first = parent_a;
    second = parent_b;
    if (planner::crossover(first, second, rng, 1.0, 40)) break;
  }
  std::printf("(c) offspring (subtrees swapped):\n%s\n%s\n", text(first).c_str(),
              text(second).c_str());
  const bool conserved = first.size() + second.size() == parent_a.size() + parent_b.size();
  std::printf("total node count conserved: %s\n\n", conserved ? "yes" : "NO");

  std::printf("=== Figure 9: mutation on a plan tree ===\n\n");
  planner::FlatPlan mutated = parent_a;
  std::printf("(a) original:\n%s\n", text(mutated).c_str());
  bool changed = false;
  for (int attempt = 0; attempt < 1000 && !changed; ++attempt)
    changed = planner::mutate(mutated, rng, catalogue, 0.5, 40);
  std::printf("(b) after subtree-replacement mutation:\n%s\n", text(mutated).c_str());
  std::printf("tree changed: %s, still well-formed: %s\n\n", changed ? "yes" : "NO",
              well_formed(mutated) ? "yes" : "NO");

  // Contract sweep.
  std::printf("=== operator contract sweep (2000 random applications) ===\n");
  std::size_t crossover_applied = 0;
  std::size_t violations = 0;
  for (int i = 0; i < 1000; ++i) {
    const planner::FlatPlan a = planner::random_tree(rng, catalogue, 30);
    const planner::FlatPlan b = planner::random_tree(rng, catalogue, 30);
    planner::FlatPlan child_a = a;
    planner::FlatPlan child_b = b;
    if (!planner::crossover(child_a, child_b, rng, 0.7, 40)) {
      if (child_a != a || child_b != b) ++violations;
      continue;
    }
    ++crossover_applied;
    if (child_a.size() > 40 || child_b.size() > 40) ++violations;
    if (!well_formed(child_a) || !well_formed(child_b)) ++violations;
    if (child_a.size() + child_b.size() != a.size() + b.size()) ++violations;
  }
  for (int i = 0; i < 1000; ++i) {
    planner::FlatPlan plan = planner::random_tree(rng, catalogue, 30);
    const planner::FlatPlan original = plan;
    if (!planner::mutate(plan, rng, catalogue, 0.05, 40) && plan != original) ++violations;
    if (plan.size() > 40) ++violations;
    if (!well_formed(plan)) ++violations;
  }
  std::printf(
      "crossovers applied: %zu / 1000 (rate 0.7, minus Smax rejections and equal-subtree "
      "swaps)\n",
      crossover_applied);
  std::printf("contract violations: %zu\n", violations);
  const bool ok = conserved && changed && violations == 0;
  std::printf("figures 8-9 semantics hold: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
