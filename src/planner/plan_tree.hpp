// Plan trees (Section 3.4.1), and the flat preorder form GP evolves.
//
// "A plan tree consists of a group of nodes. The nodes can be either
// terminal nodes or controller nodes. Every terminal node is a leaf ...
// corresponding to an end-user activity. Controller nodes are internal
// nodes and must have at least one child." The four controller kinds are
// sequential, concurrent, selective and iterative; Figure 11 shows the
// iterative node holding its loop body directly as its children.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wfl/condition.hpp"
#include "wfl/service.hpp"

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
  /// Number of terminal (activity) nodes.
  std::size_t terminal_count() const noexcept;

  /// Structural equality (guards compared by canonical text).
  bool operator==(const PlanNode& other) const;

  /// Indented rendering in the style of Figure 11.
  std::string to_tree_string() const;
};

std::string_view to_string(PlanNode::Kind kind) noexcept;

/// Checks the structural invariants of Section 3.4.1: controller nodes have
/// at least one child, terminals have none and name a service, selective
/// guard counts match. Returns a description of the first violation, or an
/// empty string when the tree is well-formed.
std::string check_structure(const PlanNode& tree);

/// One node of a flat plan.
struct Gene {
  PlanNode::Kind kind = PlanNode::Kind::Terminal;
  /// Terminal: the service's catalogue index; -1 for "noop", the terminal
  /// of an empty catalogue, and for a service the catalogue lacks.
  std::int32_t service = -1;
  /// Nodes in the subtree rooted here, this one included.
  std::uint32_t size = 1;

  bool operator==(const Gene&) const = default;
};

/// A plan tree laid out in preorder: node i's first child is i + 1 and its
/// next sibling i + plan[i].size, so a subtree is a contiguous range and the
/// plan's node count is its length. This is the individual GP evolves:
/// copying one is a flat assign and crossover a range splice. Guards and
/// loop conditions are not kept; GP leaves them trivially true, and the
/// evaluator ignores them.
using FlatPlan = std::vector<Gene>;

/// Catalogue index by service name, as flatten() resolves terminals.
using ServiceIndex = std::unordered_map<std::string, std::int32_t>;
ServiceIndex index_services(const wfl::ServiceCatalogue& catalogue);

/// `tree` as a flat plan; a terminal `services` does not name gets -1.
FlatPlan flatten(const PlanNode& tree, const ServiceIndex& services);

/// The plan tree of `plan`, whose indices are into `catalogue` (-1 becomes
/// "noop"), with trivially true guards and loop conditions.
PlanNode to_tree(const FlatPlan& plan, const wfl::ServiceCatalogue& catalogue);

/// The flat counterpart of check_structure: every node's count is one plus
/// its children's, terminals have none, controllers have at least one, and
/// the root spans the plan. Empty when well-formed.
std::string check_structure(const FlatPlan& plan);

}  // namespace ig::planner
