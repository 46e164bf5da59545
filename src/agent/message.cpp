#include "agent/message.hpp"

#include "util/strings.hpp"

namespace ig::agent {

std::string_view to_string(Performative performative) noexcept {
  switch (performative) {
    case Performative::Request: return "REQUEST";
    case Performative::Inform: return "INFORM";
    case Performative::Agree: return "AGREE";
    case Performative::Refuse: return "REFUSE";
    case Performative::Failure: return "FAILURE";
    case Performative::QueryRef: return "QUERY-REF";
    case Performative::QueryIf: return "QUERY-IF";
    case Performative::Propose: return "PROPOSE";
    case Performative::AcceptProposal: return "ACCEPT-PROPOSAL";
    case Performative::RejectProposal: return "REJECT-PROPOSAL";
    case Performative::Subscribe: return "SUBSCRIBE";
    case Performative::Cancel: return "CANCEL";
    case Performative::NotUnderstood: return "NOT-UNDERSTOOD";
  }
  return "?";
}

std::optional<Performative> performative_from_string(std::string_view text) noexcept {
  static constexpr Performative kAll[] = {
      Performative::Request,        Performative::Inform,         Performative::Agree,
      Performative::Refuse,         Performative::Failure,        Performative::QueryRef,
      Performative::QueryIf,        Performative::Propose,        Performative::AcceptProposal,
      Performative::RejectProposal, Performative::Subscribe,      Performative::Cancel,
      Performative::NotUnderstood,
  };
  for (const Performative performative : kAll) {
    if (to_string(performative) == text) return performative;
  }
  return std::nullopt;
}

std::string AclMessage::param(std::string_view key, std::string_view fallback) const {
  auto it = params.find(key);
  return it != params.end() ? it->second : std::string(fallback);
}

bool AclMessage::has_param(std::string_view key) const {
  return params.find(key) != params.end();
}

std::optional<double> AclMessage::param_double(std::string_view key) const {
  auto it = params.find(key);
  if (it == params.end()) return std::nullopt;
  return util::parse_double(it->second);
}

std::optional<int> AclMessage::param_int(std::string_view key) const {
  auto it = params.find(key);
  if (it == params.end()) return std::nullopt;
  return util::parse_int(it->second);
}

std::optional<std::uint64_t> AclMessage::param_uint(std::string_view key) const {
  auto it = params.find(key);
  if (it == params.end()) return std::nullopt;
  return util::parse_uint(it->second);
}

std::optional<bool> AclMessage::param_bool(std::string_view key) const {
  auto it = params.find(key);
  if (it == params.end()) return std::nullopt;
  return util::parse_bool(it->second);
}

double AclMessage::param_double(std::string_view key, double fallback) const {
  return param_double(key).value_or(fallback);
}

int AclMessage::param_int(std::string_view key, int fallback) const {
  return param_int(key).value_or(fallback);
}

std::uint64_t AclMessage::param_uint(std::string_view key, std::uint64_t fallback) const {
  return param_uint(key).value_or(fallback);
}

bool AclMessage::param_bool(std::string_view key, bool fallback) const {
  return param_bool(key).value_or(fallback);
}

std::string AclMessage::describe_bad_param(std::string_view key,
                                           std::string_view expected_type) const {
  auto it = params.find(key);
  if (it == params.end()) {
    return "missing param '" + std::string(key) + "'";
  }
  return "param '" + std::string(key) + "': invalid " + std::string(expected_type) + " '" +
         it->second + "'";
}

AclMessage AclMessage::make_reply(Performative reply_performative) const {
  AclMessage reply;
  reply.performative = reply_performative;
  reply.sender = receiver;
  reply.receiver = sender;
  reply.conversation_id = conversation_id;
  reply.protocol = protocol;
  reply.ontology = ontology;
  return reply;
}

std::string AclMessage::to_display_string() const {
  std::string out(to_string(performative));
  out += ' ';
  out += sender;
  out += " -> ";
  out += receiver;
  if (!protocol.empty()) {
    out += " [";
    out += protocol;
    out += ']';
  }
  return out;
}

}  // namespace ig::agent
