// Agent base class.
//
// Agents are reactive: the platform delivers one message at a time through
// `handle_message`, always on the simulation's single thread, so agent state
// needs no locking. Agents may also schedule timers on the virtual clock.
#pragma once

#include <cstdint>
#include <string>

#include "agent/message.hpp"
#include "grid/sim.hpp"

namespace ig::agent {

class AgentPlatform;

class Agent {
 public:
  explicit Agent(std::string name) : name_(std::move(name)) {}
  virtual ~Agent() = default;

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Called once when the agent is registered with a platform.
  virtual void on_start() {}

  /// Delivers one message; the platform never calls this re-entrantly.
  virtual void handle_message(const AclMessage& message) = 0;

  // -- attempt model (svc::Environment::reset) ---------------------------------
  // A long-lived stack returns to its pristine state before every attempt.
  // `save_pristine` runs once the stack is built and records the agent's
  // per-attempt state; `reset` restores it and reseeds the agent's random
  // streams from `attempt_seed`. Pending timers are already gone (the
  // calendar is reset first), so neither may touch the simulation.
  // Monotonic counters are kept. Both do nothing by default.
  virtual void save_pristine() {}
  virtual void reset(std::uint64_t attempt_seed) { (void)attempt_seed; }

 protected:
  /// Sends a message (the sender field is stamped with this agent's name).
  void send(AclMessage message);

  /// Schedules a callback on the virtual clock.
  grid::EventId schedule(grid::SimTime delay, std::function<void()> action);

  /// Schedules a daemon (background-upkeep) callback: it never keeps the
  /// calendar alive on its own. Use for heartbeats and periodic sampling.
  grid::EventId schedule_daemon(grid::SimTime delay, std::function<void()> action);

  AgentPlatform& platform();
  grid::Simulation& sim();
  grid::SimTime now();

 private:
  friend class AgentPlatform;

  std::string name_;
  AgentPlatform* platform_ = nullptr;
};

}  // namespace ig::agent
