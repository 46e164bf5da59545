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
  util::Rng rng(88);

  std::printf("=== Figure 8: crossover on two plan trees ===\n\n");
  const PlanNode parent_a = figure8_parent_a();
  const PlanNode parent_b = figure8_parent_b();
  std::printf("(a) parents:\n%s\n%s\n", parent_a.to_tree_string().c_str(),
              parent_b.to_tree_string().c_str());

  planner::CrossoverResult crossed;
  for (int attempt = 0; attempt < 100 && !crossed.applied; ++attempt)
    crossed = planner::crossover(parent_a, parent_a.size(), parent_b, parent_b.size(), rng,
                                 1.0, 40);
  std::printf("(c) offspring (subtrees swapped):\n%s\n%s\n",
              crossed.first.to_tree_string().c_str(), crossed.second.to_tree_string().c_str());
  const bool conserved =
      crossed.first.size() + crossed.second.size() == parent_a.size() + parent_b.size();
  std::printf("total node count conserved: %s\n\n", conserved ? "yes" : "NO");

  std::printf("=== Figure 9: mutation on a plan tree ===\n\n");
  PlanNode mutated = figure8_parent_a();
  std::printf("(a) original:\n%s\n", mutated.to_tree_string().c_str());
  bool changed = false;
  for (int attempt = 0; attempt < 1000 && !changed; ++attempt)
    changed = planner::mutate(mutated, mutated.size(), rng, catalogue, 0.5, 40).applied;
  std::printf("(b) after subtree-replacement mutation:\n%s\n", mutated.to_tree_string().c_str());
  std::printf("tree changed: %s, still well-formed: %s\n\n", changed ? "yes" : "NO",
              planner::check_structure(mutated).empty() ? "yes" : "NO");

  // Contract sweep.
  std::printf("=== operator contract sweep (2000 random applications) ===\n");
  std::size_t crossover_applied = 0;
  std::size_t violations = 0;
  for (int i = 0; i < 1000; ++i) {
    const PlanNode a = planner::random_tree(rng, catalogue, 30);
    const PlanNode b = planner::random_tree(rng, catalogue, 30);
    const auto result = planner::crossover(a, a.size(), b, b.size(), rng, 0.7, 40);
    if (!result.applied) continue;
    ++crossover_applied;
    if (result.first.size() > 40 || result.second.size() > 40) ++violations;
    if (!planner::check_structure(result.first).empty()) ++violations;
    if (result.first.size() + result.second.size() != a.size() + b.size()) ++violations;
    if (result.first_size != result.first.size() || result.second_size != result.second.size())
      ++violations;
  }
  for (int i = 0; i < 1000; ++i) {
    PlanNode tree = planner::random_tree(rng, catalogue, 30);
    if (planner::mutate(tree, tree.size(), rng, catalogue, 0.05, 40).size != tree.size())
      ++violations;
    if (tree.size() > 40) ++violations;
    if (!planner::check_structure(tree).empty()) ++violations;
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
