// ACL messages: the lingua franca of the multi-agent system.
//
// The paper builds its services on the Jade framework, whose agents speak
// FIPA ACL. This module provides the equivalent message shape: a
// performative, sender/receiver, a conversation id correlating a whole
// exchange (e.g. one re-planning episode), a protocol name, and content.
// Content travels as a free-form string (often XML produced by the wfl/meta
// serializers), as lightweight key-value parameters, or — for a case's data
// set on the execute-activity exchange — as a typed, immutable DataSet
// shared by every copy of the message. Inside one process that payload is
// never serialised; the binary wire codec encodes it only when a message
// crosses a byte stream.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "wfl/data.hpp"

namespace ig::agent {

/// FIPA-style performatives (the subset the core services use).
enum class Performative {
  Request,
  Inform,
  Agree,
  Refuse,
  Failure,
  QueryRef,
  QueryIf,
  Propose,
  AcceptProposal,
  RejectProposal,
  Subscribe,
  Cancel,
  NotUnderstood,
};

std::string_view to_string(Performative performative) noexcept;

/// Inverse of to_string: "REQUEST" -> Performative::Request. nullopt for
/// anything else (the wire decoder turns that into a decode error instead
/// of guessing).
std::optional<Performative> performative_from_string(std::string_view text) noexcept;

struct AclMessage {
  Performative performative = Performative::Inform;
  std::string sender;
  std::string receiver;
  std::string conversation_id;  ///< correlates a whole exchange
  std::string protocol;         ///< e.g. "planning-request", "service-query"
  std::string ontology;         ///< vocabulary of the content, e.g. "grid-standard"
  std::string content;          ///< free-form payload (often XML)
  /// Structured payload fields. The transparent comparator lets every
  /// lookup below take a string_view without building a temporary key.
  std::map<std::string, std::string, std::less<>> params;
  /// Typed data-set payload (the execute-activity request's case data and
  /// its INFORM reply's produced items), or null. Immutable and shared:
  /// the request tracker's retry copy, a chaos duplicate and the message
  /// trace all point at one snapshot. make_reply does not carry it over.
  std::shared_ptr<const wfl::DataSet> data;

  /// Returns params[key] or `fallback`.
  std::string param(std::string_view key, std::string_view fallback = "") const;
  bool has_param(std::string_view key) const;

  /// Typed param access for untrusted payloads. Backed by std::from_chars:
  /// never throws, never consults the locale. The optional overloads yield
  /// nullopt when the key is missing or the value does not parse fully
  /// (empty, non-numeric, trailing junk, overflow, negative-where-unsigned);
  /// the fallback overloads substitute `fallback` in those cases. Handlers
  /// that need to report *why* a payload was rejected use describe_bad_param.
  std::optional<double> param_double(std::string_view key) const;
  std::optional<int> param_int(std::string_view key) const;
  std::optional<std::uint64_t> param_uint(std::string_view key) const;
  std::optional<bool> param_bool(std::string_view key) const;
  double param_double(std::string_view key, double fallback) const;
  int param_int(std::string_view key, int fallback) const;
  std::uint64_t param_uint(std::string_view key, std::uint64_t fallback) const;
  bool param_bool(std::string_view key, bool fallback) const;

  /// Human-readable reason a param failed typed parsing, for NotUnderstood
  /// replies: "missing param 'seed'" / "param 'seed': invalid uint 'abc'".
  std::string describe_bad_param(std::string_view key, std::string_view expected_type) const;

  /// Builds a reply: swaps sender/receiver, keeps conversation id and
  /// protocol, sets the performative.
  AclMessage make_reply(Performative reply_performative) const;

  /// One-line rendering for traces: "REQUEST cs -> ps [planning-request]".
  std::string to_display_string() const;
};

}  // namespace ig::agent
