// Deterministic message-level fault injection (the chaos layer).
//
// The paper's grid assumes agents and containers fail; the services above
// this layer claim to survive silent drops, delays and wedged peers. A
// ChaosPolicy installed on the AgentPlatform makes those claims testable:
// per (sender, receiver, performative, protocol) match rules it drops,
// delays (calendar-rescheduled), duplicates, or reorders messages, and can
// crash or hang a named agent at the Nth delivery. Every random decision is
// drawn from a stream derived with util::derive_stream from one seed and
// the message's platform-wide sequence number, so a whole chaotic run is
// bitwise reproducible — the Jepsen-style discipline of testing failure
// handling under a *repeatable* nemesis.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "agent/message.hpp"

namespace ig::agent {

/// Which messages a rule applies to. Empty string fields match anything; a
/// trailing '*' matches by prefix ("ac-*" covers every application
/// container). An unset performative matches all performatives.
struct ChaosMatch {
  std::string sender;
  std::string receiver;
  std::optional<Performative> performative;
  std::string protocol;

  bool matches(const AclMessage& message) const;
};

/// One fault rule. Probabilities are drawn independently in declaration
/// order (drop first — a dropped message cannot also be delayed). Only the
/// first matching rule of a policy applies to a message.
struct ChaosRule {
  ChaosMatch match;
  double drop = 0.0;       ///< P(message silently lost)
  double delay = 0.0;      ///< P(extra transport latency added)
  double delay_min = 0.5;  ///< extra latency bounds (virtual seconds)
  double delay_max = 2.0;
  double duplicate = 0.0;  ///< P(a second copy is also delivered)
  double reorder = 0.0;    ///< P(delivery pushed behind later sends)
};

/// Kills or wedges a named agent at the Nth message delivered to it.
/// Crash: the agent stops existing for the transport — deliveries bounce
/// with a platform FAILURE (an *observed* failure). Hang: the agent turns
/// into a black hole — deliveries to it and sends from it are silently
/// swallowed (the failure mode only timeouts can detect). Neither
/// deregisters the agent object, so its pending timers stay safe to fire.
struct AgentFault {
  enum class Kind { Crash, Hang };
  std::string agent;
  std::size_t after_deliveries = 1;  ///< fires on this delivery attempt (1-based)
  Kind kind = Kind::Crash;
};

struct ChaosPolicy {
  std::uint64_t seed = 1;
  std::vector<ChaosRule> rules;
  std::vector<AgentFault> agent_faults;

  bool enabled() const noexcept { return !rules.empty() || !agent_faults.empty(); }
  const ChaosRule* first_match(const AclMessage& message) const;
};

/// Injected-fault counts, a snapshot of the platform's
/// `chaos_faults_total{kind=...}` counters.
struct ChaosStats {
  std::size_t dropped = 0;     ///< messages lost (incl. hung/crashed senders)
  std::size_t delayed = 0;
  std::size_t duplicated = 0;
  std::size_t reordered = 0;
  std::size_t crashed = 0;     ///< agent-crash faults fired
  std::size_t hung = 0;        ///< agent-hang faults fired
  std::size_t swallowed = 0;   ///< deliveries consumed by a hung receiver

  std::size_t total_injected() const noexcept {
    return dropped + delayed + duplicated + reordered + crashed + hung + swallowed;
  }
};

}  // namespace ig::agent
