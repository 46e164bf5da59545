#include "agent/platform.hpp"

#include <stdexcept>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ig::agent {

AgentPlatform::AgentPlatform(grid::Simulation& sim, obs::Scope metrics)
    : sim_(sim),
      metrics_(std::move(metrics)),
      transport_rejects_(metrics_.counter("platform_transport_rejects_total")),
      trace_dropped_(metrics_.counter("platform_trace_dropped_total")),
      messages_sent_(metrics_.counter("platform_messages_sent_total")),
      messages_delivered_(metrics_.counter("platform_messages_delivered_total")),
      handler_failures_total_(metrics_.counter("platform_handler_failures_total")),
      chaos_dropped_(metrics_.with("kind", "dropped").counter("chaos_faults_total")),
      chaos_delayed_(metrics_.with("kind", "delayed").counter("chaos_faults_total")),
      chaos_duplicated_(metrics_.with("kind", "duplicated").counter("chaos_faults_total")),
      chaos_reordered_(metrics_.with("kind", "reordered").counter("chaos_faults_total")),
      chaos_crashed_(metrics_.with("kind", "crashed").counter("chaos_faults_total")),
      chaos_hung_(metrics_.with("kind", "hung").counter("chaos_faults_total")),
      chaos_swallowed_(metrics_.with("kind", "swallowed").counter("chaos_faults_total")) {}

Agent& AgentPlatform::register_agent(std::unique_ptr<Agent> agent) {
  if (agent == nullptr) throw std::invalid_argument("register_agent: null agent");
  if (has_agent(agent->name()))
    throw std::invalid_argument("duplicate agent name '" + agent->name() + "'");
  agent->platform_ = this;
  agents_.push_back(std::move(agent));
  Agent& reference = *agents_.back();
  reference.on_start();
  return reference;
}

bool AgentPlatform::deregister_agent(std::string_view name) {
  for (auto it = agents_.begin(); it != agents_.end(); ++it) {
    if ((*it)->name() == name) {
      agents_.erase(it);
      return true;
    }
  }
  return false;
}

Agent* AgentPlatform::find_agent(std::string_view name) noexcept {
  for (auto& agent : agents_) {
    if (agent->name() == name) return agent.get();
  }
  return nullptr;
}

bool AgentPlatform::has_agent(std::string_view name) const noexcept {
  for (const auto& agent : agents_) {
    if (agent->name() == name) return true;
  }
  return false;
}

std::vector<std::string> AgentPlatform::agent_names() const {
  std::vector<std::string> names;
  names.reserve(agents_.size());
  for (const auto& agent : agents_) names.push_back(agent->name());
  return names;
}

void AgentPlatform::send(AclMessage message) {
  const std::uint64_t sequence = send_sequence_++;
  messages_sent_.inc();
  const grid::SimTime sent_at = sim_.now();
  grid::SimTime latency =
      latency_fn_ ? latency_fn_(message.sender, message.receiver) : 0.001;

  // A crashed or hung agent cannot emit anything; its sends vanish. Checked
  // whether the fault came from a ChaosPolicy or a direct crash_agent /
  // hang_agent call, matching deliver()'s unconditional health check.
  if (!health_.empty()) {
    const AgentHealth sender_health = agent_health(message.sender);
    if (sender_health != AgentHealth::Healthy) {
      chaos_dropped_.inc();
      trace_chaos_loss(message, sent_at,
                       sender_health == AgentHealth::Crashed ? "dropped: sender crashed"
                                                             : "dropped: sender hung");
      return;
    }
  }

  // The transport hook carries the message through a real encode/decode
  // path before any chaos decision, so the chaos layer handles frames that
  // actually crossed the codec. A rejected message never reaches the wire:
  // it is counted, traced, and gone.
  if (transport_hook_) {
    std::string error;
    std::optional<AclMessage> decoded = transport_hook_(message, &error);
    if (!decoded.has_value()) {
      transport_rejects_.inc();
      trace_chaos_loss(message, sent_at,
                       "wire: " + (error.empty() ? std::string("decode error") : error));
      return;
    }
    message = *std::move(decoded);
  }

  if (chaos_.has_value() && chaos_->enabled()) {
    if (const ChaosRule* rule = chaos_->first_match(message)) {
      // One stream per message, keyed by the platform-wide send sequence:
      // the nth send of a run always sees the same draws regardless of what
      // other rules or policies did before it.
      util::Rng rng(util::derive_stream(chaos_->seed, sequence));
      if (rule->drop > 0.0 && rng.next_bool(rule->drop)) {
        chaos_dropped_.inc();
        trace_chaos_loss(message, sent_at, "dropped");
        return;
      }
      if (rule->delay > 0.0 && rng.next_bool(rule->delay)) {
        latency += rng.next_double(rule->delay_min, rule->delay_max);
        chaos_delayed_.inc();
      }
      if (rule->reorder > 0.0 && rng.next_bool(rule->reorder)) {
        // Push this delivery behind sends issued a few transport hops later.
        latency += latency * rng.next_double(1.0, 3.0) + 0.002;
        chaos_reordered_.inc();
      }
      if (rule->duplicate > 0.0 && rng.next_bool(rule->duplicate)) {
        chaos_duplicated_.inc();
        AclMessage copy = message;
        const grid::SimTime copy_latency = latency + 0.0005 + rng.next_double(0.0, latency);
        sim_.schedule(copy_latency, [this, copy = std::move(copy), sent_at]() mutable {
          deliver(std::move(copy), sent_at);
        });
      }
    }
  }

  sim_.schedule(latency, [this, message = std::move(message), sent_at]() mutable {
    deliver(std::move(message), sent_at);
  });
}

void AgentPlatform::save_pristine() {
  pristine_ = Pristine{send_sequence_, health_, deliveries_by_agent_};
  for (auto& agent : agents_) agent->save_pristine();
}

void AgentPlatform::reset(std::uint64_t attempt_seed) {
  send_sequence_ = pristine_.send_sequence;
  health_ = pristine_.health;
  deliveries_by_agent_ = pristine_.deliveries_by_agent;
  if (chaos_.has_value()) chaos_->seed = util::derive_stream(chaos_seed_, attempt_seed);
  for (auto& agent : agents_) agent->reset(attempt_seed);
}

void AgentPlatform::set_chaos(ChaosPolicy policy) {
  chaos_seed_ = policy.seed;
  chaos_ = std::move(policy);
  deliveries_by_agent_.clear();
}

void AgentPlatform::clear_chaos() {
  chaos_.reset();
  deliveries_by_agent_.clear();
}

ChaosStats AgentPlatform::chaos_stats() const {
  ChaosStats stats;
  stats.dropped = chaos_dropped_.value();
  stats.delayed = chaos_delayed_.value();
  stats.duplicated = chaos_duplicated_.value();
  stats.reordered = chaos_reordered_.value();
  stats.crashed = chaos_crashed_.value();
  stats.hung = chaos_hung_.value();
  stats.swallowed = chaos_swallowed_.value();
  return stats;
}

void AgentPlatform::crash_agent(const std::string& name) { health_[name] = AgentHealth::Crashed; }

void AgentPlatform::hang_agent(const std::string& name) { health_[name] = AgentHealth::Hung; }

void AgentPlatform::revive_agent(const std::string& name) { health_.erase(name); }

AgentHealth AgentPlatform::agent_health(std::string_view name) const {
  if (health_.empty()) return AgentHealth::Healthy;
  auto it = health_.find(std::string(name));
  return it != health_.end() ? it->second : AgentHealth::Healthy;
}

void AgentPlatform::apply_agent_faults(const std::string& receiver) {
  if (!chaos_.has_value() || chaos_->agent_faults.empty()) return;
  const std::size_t count = ++deliveries_by_agent_[receiver];
  for (const auto& fault : chaos_->agent_faults) {
    if (fault.agent != receiver || fault.after_deliveries != count) continue;
    if (fault.kind == AgentFault::Kind::Crash) {
      crash_agent(receiver);
      chaos_crashed_.inc();
    } else {
      hang_agent(receiver);
      chaos_hung_.inc();
    }
  }
}

void AgentPlatform::set_trace_limit(std::size_t limit) {
  trace_limit_.store(limit, std::memory_order_relaxed);
  if (limit == 0) return;
  while (trace_.size() > limit) {
    trace_.pop_front();
    trace_dropped_.inc();
  }
}

void AgentPlatform::push_trace(TraceRecord record) {
  trace_.push_back(std::move(record));
  const std::size_t limit = trace_limit_.load(std::memory_order_relaxed);
  if (limit > 0 && trace_.size() > limit) {
    trace_.pop_front();
    trace_dropped_.inc();
  }
}

void AgentPlatform::trace_chaos_loss(const AclMessage& message, grid::SimTime sent_at,
                                     const std::string& note) {
  if (!tracing_) return;
  TraceRecord record;
  record.sent_at = sent_at;
  record.delivered_at = sim_.now();
  record.message = message;
  record.delivered = false;
  record.chaos = note;
  push_trace(std::move(record));
}

void AgentPlatform::deliver(AclMessage message, grid::SimTime sent_at) {
  apply_agent_faults(message.receiver);

  const AgentHealth receiver_health = agent_health(message.receiver);
  if (receiver_health == AgentHealth::Hung) {
    // Black hole: no bounce, no handler, only timeouts can see this.
    chaos_swallowed_.inc();
    trace_chaos_loss(message, sent_at, "swallowed: receiver hung");
    return;
  }

  Agent* receiver =
      receiver_health == AgentHealth::Crashed ? nullptr : find_agent(message.receiver);
  if (tracing_) {
    TraceRecord record;
    record.sent_at = sent_at;
    record.delivered_at = sim_.now();
    record.message = message;
    record.delivered = receiver != nullptr;
    if (receiver_health == AgentHealth::Crashed) record.chaos = "receiver crashed";
    push_trace(std::move(record));
  }
  if (receiver == nullptr) {
    // Bounce: notify the sender (if it still exists) of the failed delivery.
    Agent* sender = find_agent(message.sender);
    if (sender != nullptr && message.performative != Performative::Failure) {
      AclMessage bounce = message.make_reply(Performative::Failure);
      bounce.sender = message.receiver;  // nominal originator
      bounce.protocol = "platform-error";
      bounce.params["error"] = "agent '" + message.receiver + "' not found";
      bounce.params["original-protocol"] = message.protocol;
      if (receiver_health == AgentHealth::Crashed)
        bounce.params["error"] = "agent '" + message.receiver + "' crashed";
      sim_.schedule(0.0, [this, bounce = std::move(bounce), when = sim_.now()]() mutable {
        deliver(std::move(bounce), when);
      });
    }
    return;
  }
  messages_delivered_.inc();
  try {
    receiver->handle_message(message);
  } catch (const std::exception& error) {
    note_handler_failure(message, error.what());
  } catch (...) {
    note_handler_failure(message, "unknown exception");
  }
}

void AgentPlatform::note_handler_failure(const AclMessage& message, const std::string& what) {
  handler_failures_[message.receiver] += 1;
  handler_failures_total_.inc();
  if (tracing_ && !trace_.empty()) {
    // Our record is still at the back: pushes happen only in deliver() and
    // the ring drops from the front.
    trace_.back().handler_error = what;
  }
  // Failure/NotUnderstood never provoke a reply, or two broken agents would
  // bounce errors at each other forever.
  if (message.performative == Performative::Failure ||
      message.performative == Performative::NotUnderstood) {
    return;
  }
  if (find_agent(message.sender) == nullptr) return;
  AclMessage failure = message.make_reply(Performative::Failure);
  failure.params["reason"] = "handler error in '" + message.receiver + "': " + what;
  failure.params["error"] = failure.params["reason"];
  sim_.schedule(0.0, [this, failure = std::move(failure), when = sim_.now()]() mutable {
    deliver(std::move(failure), when);
  });
}

std::size_t AgentPlatform::handler_failures(std::string_view name) const {
  auto it = handler_failures_.find(std::string(name));
  return it != handler_failures_.end() ? it->second : 0;
}

std::string AgentPlatform::trace_to_string() const {
  std::string out;
  for (const auto& record : trace_) {
    out += "t=" + util::format_number(record.delivered_at, 4) + "  " +
           record.message.to_display_string();
    if (!record.delivered) out += "  (UNDELIVERABLE)";
    if (!record.handler_error.empty()) out += "  (HANDLER ERROR: " + record.handler_error + ")";
    if (!record.chaos.empty()) out += "  (CHAOS: " + record.chaos + ")";
    out += '\n';
  }
  return out;
}

}  // namespace ig::agent
