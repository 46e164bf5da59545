// Plan trees: the GP individual representation (Section 3.4.1).
//
// "A plan tree consists of a group of nodes. The nodes can be either
// terminal nodes or controller nodes. Every terminal node is a leaf ...
// corresponding to an end-user activity. Controller nodes are internal
// nodes and must have at least one child." The four controller kinds are
// sequential, concurrent, selective and iterative; Figure 11 shows the
// iterative node holding its loop body directly as its children.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "wfl/condition.hpp"

namespace ig::planner {

/// One node of a plan tree. Value semantics: copying copies the subtree.
struct PlanNode {
  enum class Kind { Terminal, Sequential, Concurrent, Selective, Iterative };

  Kind kind = Kind::Terminal;

  /// Terminal: the end-user service this activity invokes.
  std::string service;

  /// Controller nodes: the children, executed according to `kind`
  /// (sequential order / any order / one of / repeatedly in order).
  std::vector<PlanNode> children;

  /// Selective: guards[i] selects children[i] during enactment (GP-evolved
  /// trees leave them trivially true; enumeration explores all branches).
  std::vector<wfl::Condition> guards;

  /// Iterative: the continue condition of the loop (trivially true for
  /// GP-evolved trees; bounded unrolling is used during evaluation).
  wfl::Condition continue_condition;

  // -- factories --------------------------------------------------------------
  static PlanNode terminal(std::string service);
  static PlanNode sequential(std::vector<PlanNode> children);
  static PlanNode concurrent(std::vector<PlanNode> children);
  static PlanNode selective(std::vector<PlanNode> children, std::vector<wfl::Condition> guards = {});
  static PlanNode iterative(std::vector<PlanNode> body, wfl::Condition continue_condition = {});

  // -- queries ----------------------------------------------------------------
  bool is_terminal() const noexcept { return kind == Kind::Terminal; }

  /// Total number of nodes (the paper's plan size measure, bounded by Smax).
  std::size_t size() const noexcept;
  std::size_t depth() const noexcept;
  /// Number of terminal (activity) nodes.
  std::size_t terminal_count() const noexcept;

  /// Preorder access: node 0 is this node itself. Throws std::out_of_range.
  const PlanNode& at_preorder(std::size_t index) const;
  PlanNode& at_preorder(std::size_t index);

  /// Replaces the subtree rooted at preorder `index` (0 replaces the whole
  /// tree). Throws std::out_of_range.
  void replace_at_preorder(std::size_t index, PlanNode replacement);

  /// Structural equality (guards compared by canonical text).
  bool operator==(const PlanNode& other) const;

  /// Indented rendering in the style of Figure 11.
  std::string to_tree_string() const;

 private:
  const PlanNode* find_preorder(std::size_t& index) const noexcept;
  PlanNode* find_preorder(std::size_t& index) noexcept;
};

std::string_view to_string(PlanNode::Kind kind) noexcept;

/// Checks the structural invariants of Section 3.4.1: controller nodes have
/// at least one child, terminals have none and name a service, selective
/// guard counts match. Returns a description of the first violation, or an
/// empty string when the tree is well-formed.
std::string check_structure(const PlanNode& tree);

}  // namespace ig::planner
