#include "wfl/condition.hpp"

#include <cctype>

#include "util/strings.hpp"

namespace ig::wfl {

std::string_view to_string(CompareOp op) noexcept {
  switch (op) {
    case CompareOp::Less: return "<";
    case CompareOp::Greater: return ">";
    case CompareOp::Equal: return "=";
    case CompareOp::NotEqual: return "!=";
    case CompareOp::LessEqual: return "<=";
    case CompareOp::GreaterEqual: return ">=";
  }
  return "?";
}

Bindings self_bindings(const DataSet& data) {
  Bindings bindings;
  for (const auto& item : data.items()) bindings[item.name()] = &item;
  return bindings;
}

// ---------------------------------------------------------------------------
// Expression tree
// ---------------------------------------------------------------------------

struct Condition::Node {
  enum class Kind { True, False, Compare, And, Or, Not } kind;

  // Compare payload.
  std::string variable;
  std::string property;
  CompareOp op = CompareOp::Equal;
  meta::Value value;

  // And/Or/Not payload.
  std::shared_ptr<const Node> lhs;
  std::shared_ptr<const Node> rhs;
};

using Node = Condition::Node;

Condition::Condition() : root_(nullptr) {}

Condition::Condition(std::shared_ptr<const Node> root) : root_(std::move(root)) {}

Condition Condition::comparison(std::string variable, std::string property, CompareOp op,
                                meta::Value value) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::Compare;
  node->variable = std::move(variable);
  node->property = std::move(property);
  node->op = op;
  node->value = std::move(value);
  return Condition(std::move(node));
}

Condition Condition::conjunction(Condition lhs, Condition rhs) {
  if (lhs.is_trivially_true()) return rhs;
  if (rhs.is_trivially_true()) return lhs;
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::And;
  node->lhs = lhs.root_;
  node->rhs = rhs.root_;
  return Condition(std::move(node));
}

Condition Condition::disjunction(Condition lhs, Condition rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::Or;
  node->lhs = lhs.is_trivially_true() ? always_true().root_ : lhs.root_;
  node->rhs = rhs.is_trivially_true() ? always_true().root_ : rhs.root_;
  return Condition(std::move(node));
}

Condition Condition::negation(Condition operand) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::Not;
  node->lhs = operand.is_trivially_true() ? always_true().root_ : operand.root_;
  return Condition(std::move(node));
}

Condition Condition::always_true() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::True;
  return Condition(std::move(node));
}

Condition Condition::always_false() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::False;
  return Condition(std::move(node));
}

bool Condition::is_trivially_true() const noexcept {
  return root_ == nullptr || root_->kind == Node::Kind::True;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

namespace {

int compare_values(const meta::Value& lhs, const meta::Value& rhs, bool& comparable) {
  comparable = true;
  if (lhs.type() == meta::ValueType::Number && rhs.type() == meta::ValueType::Number) {
    const double a = lhs.as_number();
    const double b = rhs.as_number();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (lhs.type() == meta::ValueType::String && rhs.type() == meta::ValueType::String) {
    return lhs.as_string().compare(rhs.as_string()) < 0   ? -1
           : lhs.as_string().compare(rhs.as_string()) > 0 ? 1
                                                          : 0;
  }
  if (lhs.type() == meta::ValueType::Boolean && rhs.type() == meta::ValueType::Boolean) {
    return static_cast<int>(lhs.as_boolean()) - static_cast<int>(rhs.as_boolean());
  }
  // Numbers stored as strings compare numerically against number literals.
  if (lhs.type() == meta::ValueType::String && rhs.type() == meta::ValueType::Number) {
    const auto a = util::parse_double(lhs.as_string());
    if (a.has_value()) {
      const double b = rhs.as_number();
      if (*a < b) return -1;
      if (*a > b) return 1;
      return 0;
    }
  }
  comparable = false;
  return 0;
}

/// `item` is the data item the node's variable is bound to (null = unbound).
/// `inline`: GCC keeps a function that both walks share out of line, which
/// cost planner-style single-item evaluation about 10% at -O2.
inline bool evaluate_compare(const Condition::Node& node, const DataSpec* item) {
  if (item == nullptr) return false;
  const meta::Value& actual = item->get(node.property);
  if (actual.is_none()) return false;
  bool comparable = false;
  const int cmp = compare_values(actual, node.value, comparable);
  if (!comparable) return node.op == CompareOp::NotEqual;
  switch (node.op) {
    case CompareOp::Less: return cmp < 0;
    case CompareOp::Greater: return cmp > 0;
    case CompareOp::Equal: return cmp == 0;
    case CompareOp::NotEqual: return cmp != 0;
    case CompareOp::LessEqual: return cmp <= 0;
    case CompareOp::GreaterEqual: return cmp >= 0;
  }
  return false;
}

/// One walk for every binding shape: `lookup(variable)` returns the bound
/// item or null. A template, so each call site inlines its own lookup.
template <typename Lookup>
bool evaluate_node(const Condition::Node* node, const Lookup& lookup) {
  if (node == nullptr) return true;
  switch (node->kind) {
    case Condition::Node::Kind::True: return true;
    case Condition::Node::Kind::False: return false;
    case Condition::Node::Kind::Compare:
      return evaluate_compare(*node, lookup(node->variable));
    case Condition::Node::Kind::And:
      return evaluate_node(node->lhs.get(), lookup) && evaluate_node(node->rhs.get(), lookup);
    case Condition::Node::Kind::Or:
      return evaluate_node(node->lhs.get(), lookup) || evaluate_node(node->rhs.get(), lookup);
    case Condition::Node::Kind::Not: return !evaluate_node(node->lhs.get(), lookup);
  }
  return false;
}

}  // namespace

bool Condition::evaluate(const Bindings& bindings) const {
  return evaluate_node(root_.get(), [&bindings](const std::string& name) -> const DataSpec* {
    const auto it = bindings.find(name);
    return it == bindings.end() ? nullptr : it->second;
  });
}

bool Condition::evaluate_on(const DataSet& data) const {
  const Bindings bindings = self_bindings(data);
  return evaluate(bindings);
}

bool Condition::evaluate_single(std::string_view variable, const DataSpec& item) const {
  return evaluate_node(root_.get(), [variable, &item](const std::string& name) {
    return name == variable ? &item : nullptr;
  });
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

namespace {

void collect_variables(const Condition::Node* node, std::vector<std::string>& out) {
  if (node == nullptr) return;
  switch (node->kind) {
    case Condition::Node::Kind::Compare: {
      for (const auto& existing : out) {
        if (existing == node->variable) return;
      }
      out.push_back(node->variable);
      return;
    }
    case Condition::Node::Kind::And:
    case Condition::Node::Kind::Or:
      collect_variables(node->lhs.get(), out);
      collect_variables(node->rhs.get(), out);
      return;
    case Condition::Node::Kind::Not:
      collect_variables(node->lhs.get(), out);
      return;
    default:
      return;
  }
}

void collect_equalities(const Condition::Node* node, std::string_view variable,
                        std::vector<std::pair<std::string, meta::Value>>& out) {
  if (node == nullptr) return;
  switch (node->kind) {
    case Condition::Node::Kind::Compare:
      if (node->op == CompareOp::Equal && node->variable == variable)
        out.emplace_back(node->property, node->value);
      return;
    case Condition::Node::Kind::And:
      collect_equalities(node->lhs.get(), variable, out);
      collect_equalities(node->rhs.get(), variable, out);
      return;
    default:
      // Equalities under Or / Not are not *requirements*; skip them.
      return;
  }
}

std::string value_literal(const meta::Value& value) {
  switch (value.type()) {
    case meta::ValueType::Number: return util::format_number(value.as_number());
    case meta::ValueType::Boolean: return value.as_boolean() ? "true" : "false";
    default: return "\"" + value.as_string() + "\"";
  }
}

void render(const Condition::Node* node, std::string& out, int parent_precedence);

int precedence(Condition::Node::Kind kind) {
  switch (kind) {
    case Condition::Node::Kind::Or: return 1;
    case Condition::Node::Kind::And: return 2;
    case Condition::Node::Kind::Not: return 3;
    default: return 4;
  }
}

void render(const Condition::Node* node, std::string& out, int parent_precedence) {
  if (node == nullptr) {
    out += "true";
    return;
  }
  const int self = precedence(node->kind);
  const bool parens = self < parent_precedence;
  if (parens) out += '(';
  switch (node->kind) {
    case Condition::Node::Kind::True: out += "true"; break;
    case Condition::Node::Kind::False: out += "false"; break;
    case Condition::Node::Kind::Compare:
      out += node->variable;
      out += '.';
      out += node->property;
      out += ' ';
      out += to_string(node->op);
      out += ' ';
      out += value_literal(node->value);
      break;
    case Condition::Node::Kind::And:
      // The parser is left-associative; a same-kind right child needs
      // parentheses to reparse with the original shape.
      render(node->lhs.get(), out, self);
      out += " and ";
      render(node->rhs.get(), out, self + 1);
      break;
    case Condition::Node::Kind::Or:
      render(node->lhs.get(), out, self);
      out += " or ";
      render(node->rhs.get(), out, self + 1);
      break;
    case Condition::Node::Kind::Not:
      out += "not ";
      render(node->lhs.get(), out, self);
      break;
  }
  if (parens) out += ')';
}

bool nodes_equal(const Condition::Node* a, const Condition::Node* b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) {
    // nullptr means trivially-true.
    const Condition::Node* other = a != nullptr ? a : b;
    return other->kind == Condition::Node::Kind::True;
  }
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Condition::Node::Kind::True:
    case Condition::Node::Kind::False:
      return true;
    case Condition::Node::Kind::Compare:
      return a->variable == b->variable && a->property == b->property && a->op == b->op &&
             a->value == b->value;
    case Condition::Node::Kind::And:
    case Condition::Node::Kind::Or:
      return nodes_equal(a->lhs.get(), b->lhs.get()) && nodes_equal(a->rhs.get(), b->rhs.get());
    case Condition::Node::Kind::Not:
      return nodes_equal(a->lhs.get(), b->lhs.get());
  }
  return false;
}

}  // namespace

std::vector<std::string> Condition::variables() const {
  std::vector<std::string> out;
  collect_variables(root_.get(), out);
  return out;
}

std::vector<Condition> Condition::conjuncts() const {
  std::vector<Condition> out;
  if (root_ == nullptr) return out;
  std::vector<std::shared_ptr<const Node>> stack{root_};
  while (!stack.empty()) {
    std::shared_ptr<const Node> node = stack.back();
    stack.pop_back();
    if (node->kind == Node::Kind::And) {
      stack.push_back(node->rhs);
      stack.push_back(node->lhs);
      continue;
    }
    out.push_back(Condition(node));
  }
  return out;
}

std::vector<std::pair<std::string, meta::Value>> Condition::equality_requirements(
    std::string_view variable) const {
  std::vector<std::pair<std::string, meta::Value>> out;
  collect_equalities(root_.get(), variable, out);
  return out;
}

std::string Condition::to_string() const {
  std::string out;
  render(root_.get(), out, 0);
  return out;
}

bool Condition::operator==(const Condition& other) const {
  return nodes_equal(root_.get(), other.root_.get());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class ConditionParser {
 public:
  explicit ConditionParser(std::string_view text) : text_(text) {}

  Condition parse() {
    Condition result = parse_or();
    skip_space();
    if (pos_ != text_.size()) fail("unexpected trailing input");
    return result;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    throw ConditionParseError(message + " at offset " + std::to_string(pos_) + " in '" +
                              std::string(text_) + "'");
  }

  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool eof() {
    skip_space();
    return pos_ >= text_.size();
  }

  bool match_keyword(std::string_view keyword) {
    skip_space();
    if (text_.size() - pos_ < keyword.size()) return false;
    for (std::size_t i = 0; i < keyword.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(keyword[i])))
        return false;
    }
    // Keyword must not be a prefix of a longer identifier.
    const std::size_t end = pos_ + keyword.size();
    if (end < text_.size()) {
      const char next = text_[end];
      if (std::isalnum(static_cast<unsigned char>(next)) || next == '_') return false;
    }
    pos_ = end;
    return true;
  }

  Condition parse_or() {
    Condition lhs = parse_and();
    while (match_keyword("or")) lhs = Condition::disjunction(lhs, parse_and());
    return lhs;
  }

  Condition parse_and() {
    Condition lhs = parse_unary();
    while (match_keyword("and")) lhs = Condition::conjunction(lhs, parse_unary());
    return lhs;
  }

  Condition parse_unary() {
    skip_space();
    if (match_keyword("not")) return Condition::negation(parse_unary());
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;
      Condition inner = parse_or();
      skip_space();
      if (pos_ >= text_.size() || text_[pos_] != ')') fail("expected ')'");
      ++pos_;
      return inner;
    }
    if (match_keyword("true")) return Condition::always_true();
    if (match_keyword("false")) return Condition::always_false();
    return parse_comparison();
  }

  std::string parse_identifier() {
    skip_space();
    if (pos_ >= text_.size()) fail("expected identifier");
    const char first = text_[pos_];
    if (!std::isalpha(static_cast<unsigned char>(first)) && first != '_')
      fail("expected identifier");
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-') ++pos_;
      else break;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  CompareOp parse_operator() {
    skip_space();
    if (pos_ >= text_.size()) fail("expected comparison operator");
    const char c = text_[pos_];
    const char next = pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
    if (c == '<' && next == '=') { pos_ += 2; return CompareOp::LessEqual; }
    if (c == '>' && next == '=') { pos_ += 2; return CompareOp::GreaterEqual; }
    if (c == '!' && next == '=') { pos_ += 2; return CompareOp::NotEqual; }
    if (c == '<' && next == '>') { pos_ += 2; return CompareOp::NotEqual; }
    if (c == '<') { ++pos_; return CompareOp::Less; }
    if (c == '>') { ++pos_; return CompareOp::Greater; }
    if (c == '=') { ++pos_; return CompareOp::Equal; }
    fail("expected comparison operator");
  }

  meta::Value parse_value() {
    skip_space();
    if (pos_ >= text_.size()) fail("expected value");
    const char c = text_[pos_];
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++pos_;
      const std::size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
      if (pos_ >= text_.size()) fail("unterminated string literal");
      std::string value(text_.substr(start, pos_ - start));
      ++pos_;
      return meta::Value(std::move(value));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' || c == '.') {
      const std::size_t start = pos_;
      if (c == '-' || c == '+') ++pos_;
      while (pos_ < text_.size()) {
        const char d = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d)) || d == '.') ++pos_;
        else break;
      }
      // Optional exponent with optional sign: e5, e+5, E-5. Only consumed
      // when at least one digit follows, so "2e and ..." still fails cleanly.
      if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        std::size_t probe = pos_ + 1;
        if (probe < text_.size() && (text_[probe] == '+' || text_[probe] == '-')) ++probe;
        if (probe < text_.size() && std::isdigit(static_cast<unsigned char>(text_[probe]))) {
          pos_ = probe + 1;
          while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        }
      }
      const std::string_view literal = text_.substr(start, pos_ - start);
      const auto value = util::parse_double(literal);
      if (!value.has_value()) fail("invalid numeric literal '" + std::string(literal) + "'");
      return meta::Value(*value);
    }
    if (match_keyword("true")) return meta::Value(true);
    if (match_keyword("false")) return meta::Value(false);
    // Bareword string value.
    return meta::Value(parse_identifier());
  }

  Condition parse_comparison() {
    const std::string variable = parse_identifier();
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != '.') fail("expected '.' after variable");
    ++pos_;
    const std::string property = parse_identifier();
    const CompareOp op = parse_operator();
    meta::Value value = parse_value();
    return Condition::comparison(variable, property, op, std::move(value));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Condition Condition::parse(std::string_view text) {
  const std::string_view trimmed = util::trim(text);
  if (trimmed.empty()) return always_true();
  return ConditionParser(trimmed).parse();
}

bool evaluate_against_state(const Condition& condition, const DataSet& data) {
  Bindings bindings = self_bindings(data);
  std::vector<std::string> free;
  for (const auto& variable : condition.variables()) {
    if (bindings.find(variable) == bindings.end()) free.push_back(variable);
  }
  if (free.empty()) return condition.evaluate(bindings);
  if (free.size() == 1) {
    // Existential binding of the single free variable.
    for (const auto& item : data.items()) {
      bindings[free.front()] = &item;
      if (condition.evaluate(bindings)) return true;
    }
    return false;
  }
  // Multiple free variables: conservative false (guards in this system
  // reference at most one anonymous item).
  return false;
}

}  // namespace ig::wfl
