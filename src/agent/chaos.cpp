#include "agent/chaos.hpp"

namespace ig::agent {

namespace {

/// Exact match, or prefix match when the pattern ends in '*'; empty matches
/// everything.
bool matches_pattern(const std::string& pattern, const std::string& value) {
  if (pattern.empty()) return true;
  if (pattern.back() == '*')
    return value.compare(0, pattern.size() - 1, pattern, 0, pattern.size() - 1) == 0;
  return pattern == value;
}

}  // namespace

bool ChaosMatch::matches(const AclMessage& message) const {
  if (performative.has_value() && *performative != message.performative) return false;
  if (!matches_pattern(sender, message.sender)) return false;
  if (!matches_pattern(receiver, message.receiver)) return false;
  if (!matches_pattern(protocol, message.protocol)) return false;
  return true;
}

const ChaosRule* ChaosPolicy::first_match(const AclMessage& message) const {
  for (const auto& rule : rules) {
    if (rule.match.matches(message)) return &rule;
  }
  return nullptr;
}

}  // namespace ig::agent
