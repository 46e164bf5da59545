#include "planner/plan_tree.hpp"

#include <algorithm>
#include <stdexcept>

namespace ig::planner {

std::string_view to_string(PlanNode::Kind kind) noexcept {
  switch (kind) {
    case PlanNode::Kind::Terminal: return "Terminal";
    case PlanNode::Kind::Sequential: return "Sequential";
    case PlanNode::Kind::Concurrent: return "Concurrent";
    case PlanNode::Kind::Selective: return "Selective";
    case PlanNode::Kind::Iterative: return "Iterative";
  }
  return "?";
}

PlanNode PlanNode::terminal(std::string service) {
  PlanNode node;
  node.kind = Kind::Terminal;
  node.service = std::move(service);
  return node;
}

PlanNode PlanNode::sequential(std::vector<PlanNode> children) {
  PlanNode node;
  node.kind = Kind::Sequential;
  node.children = std::move(children);
  return node;
}

PlanNode PlanNode::concurrent(std::vector<PlanNode> children) {
  PlanNode node;
  node.kind = Kind::Concurrent;
  node.children = std::move(children);
  return node;
}

PlanNode PlanNode::selective(std::vector<PlanNode> children, std::vector<wfl::Condition> guards) {
  PlanNode node;
  node.kind = Kind::Selective;
  if (guards.empty()) guards.resize(children.size());
  node.children = std::move(children);
  node.guards = std::move(guards);
  return node;
}

PlanNode PlanNode::iterative(std::vector<PlanNode> body, wfl::Condition continue_condition) {
  PlanNode node;
  node.kind = Kind::Iterative;
  node.children = std::move(body);
  node.continue_condition = std::move(continue_condition);
  return node;
}

std::size_t PlanNode::size() const noexcept {
  std::size_t total = 1;
  for (const auto& child : children) total += child.size();
  return total;
}

std::size_t PlanNode::depth() const noexcept {
  std::size_t deepest = 0;
  for (const auto& child : children) deepest = std::max(deepest, child.depth());
  return deepest + 1;
}

std::size_t PlanNode::terminal_count() const noexcept {
  if (is_terminal()) return 1;
  std::size_t total = 0;
  for (const auto& child : children) total += child.terminal_count();
  return total;
}

const PlanNode* PlanNode::find_preorder(std::size_t& index) const noexcept {
  if (index == 0) return this;
  --index;
  for (const auto& child : children) {
    const PlanNode* found = child.find_preorder(index);
    if (found != nullptr) return found;
  }
  return nullptr;
}

PlanNode* PlanNode::find_preorder(std::size_t& index) noexcept {
  if (index == 0) return this;
  --index;
  for (auto& child : children) {
    PlanNode* found = child.find_preorder(index);
    if (found != nullptr) return found;
  }
  return nullptr;
}

const PlanNode& PlanNode::at_preorder(std::size_t index) const {
  std::size_t cursor = index;
  const PlanNode* found = find_preorder(cursor);
  if (found == nullptr)
    throw std::out_of_range("preorder index " + std::to_string(index) + " out of range");
  return *found;
}

PlanNode& PlanNode::at_preorder(std::size_t index) {
  std::size_t cursor = index;
  PlanNode* found = find_preorder(cursor);
  if (found == nullptr)
    throw std::out_of_range("preorder index " + std::to_string(index) + " out of range");
  return *found;
}

void PlanNode::replace_at_preorder(std::size_t index, PlanNode replacement) {
  at_preorder(index) = std::move(replacement);
}

bool PlanNode::operator==(const PlanNode& other) const {
  if (kind != other.kind || service != other.service) return false;
  if (children != other.children) return false;
  if (guards.size() != other.guards.size()) return false;
  for (std::size_t i = 0; i < guards.size(); ++i) {
    if (!(guards[i] == other.guards[i])) return false;
  }
  return continue_condition == other.continue_condition;
}

namespace {

void render(const PlanNode& node, std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  if (node.is_terminal()) {
    out += node.service;
    out += '\n';
    return;
  }
  out += to_string(node.kind);
  if (node.kind == PlanNode::Kind::Iterative && !node.continue_condition.is_trivially_true())
    out += " [while " + node.continue_condition.to_string() + "]";
  out += '\n';
  for (const auto& child : node.children) render(child, out, depth + 1);
}

}  // namespace

std::string PlanNode::to_tree_string() const {
  std::string out;
  render(*this, out, 0);
  return out;
}

std::string check_structure(const PlanNode& tree) {
  if (tree.is_terminal()) {
    if (!tree.children.empty()) return "terminal node has children";
    if (tree.service.empty()) return "terminal node names no service";
    return "";
  }
  if (tree.children.empty())
    return std::string(to_string(tree.kind)) + " controller node has no children";
  if (tree.kind == PlanNode::Kind::Selective && tree.guards.size() != tree.children.size())
    return "selective node has " + std::to_string(tree.guards.size()) + " guards for " +
           std::to_string(tree.children.size()) + " children";
  for (const auto& child : tree.children) {
    std::string issue = check_structure(child);
    if (!issue.empty()) return issue;
  }
  return "";
}

}  // namespace ig::planner
