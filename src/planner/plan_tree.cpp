#include "planner/plan_tree.hpp"

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

std::size_t PlanNode::terminal_count() const noexcept {
  if (is_terminal()) return 1;
  std::size_t total = 0;
  for (const auto& child : children) total += child.terminal_count();
  return total;
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

ServiceIndex index_services(const wfl::ServiceCatalogue& catalogue) {
  ServiceIndex index;
  for (std::size_t i = 0; i < catalogue.size(); ++i)
    index.emplace(catalogue.services()[i].name(), static_cast<std::int32_t>(i));
  return index;
}

namespace {

void flatten_into(const PlanNode& node, const ServiceIndex& services, FlatPlan& out) {
  const std::size_t at = out.size();
  out.push_back({node.kind, -1, 1});
  if (node.is_terminal()) {
    const auto found = services.find(node.service);
    if (found != services.end()) out[at].service = found->second;
    return;
  }
  for (const auto& child : node.children) flatten_into(child, services, out);
  out[at].size = static_cast<std::uint32_t>(out.size() - at);
}

PlanNode tree_at(const FlatPlan& plan, std::size_t at, const wfl::ServiceCatalogue& catalogue) {
  const Gene& gene = plan[at];
  if (gene.kind == PlanNode::Kind::Terminal) {
    if (gene.service < 0) return PlanNode::terminal("noop");
    return PlanNode::terminal(catalogue.services()[static_cast<std::size_t>(gene.service)].name());
  }
  std::vector<PlanNode> children;
  for (std::size_t child = at + 1; child < at + gene.size; child += plan[child].size)
    children.push_back(tree_at(plan, child, catalogue));
  switch (gene.kind) {
    case PlanNode::Kind::Concurrent: return PlanNode::concurrent(std::move(children));
    case PlanNode::Kind::Selective: return PlanNode::selective(std::move(children));
    case PlanNode::Kind::Iterative: return PlanNode::iterative(std::move(children));
    default: return PlanNode::sequential(std::move(children));
  }
}

}  // namespace

FlatPlan flatten(const PlanNode& tree, const ServiceIndex& services) {
  FlatPlan plan;
  flatten_into(tree, services, plan);
  return plan;
}

PlanNode to_tree(const FlatPlan& plan, const wfl::ServiceCatalogue& catalogue) {
  return plan.empty() ? PlanNode{} : tree_at(plan, 0, catalogue);
}

std::string check_structure(const FlatPlan& plan) {
  if (plan.empty() || plan[0].size != plan.size()) return "the root does not span the plan";
  for (std::size_t at = 0; at < plan.size(); ++at) {
    const std::size_t end = at + plan[at].size;
    const std::string node = "node " + std::to_string(at);
    if (plan[at].size == 0 || end > plan.size()) return node + " spans past the plan";
    if (plan[at].kind == PlanNode::Kind::Terminal) {
      if (end != at + 1) return "terminal " + node + " has children";
      continue;
    }
    if (end == at + 1) return "controller " + node + " has no children";
    std::size_t child = at + 1;
    while (child < end && plan[child].size > 0) child += plan[child].size;
    if (child != end) return node + "'s count is not one plus its children's";
  }
  return "";
}

}  // namespace ig::planner
