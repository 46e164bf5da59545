// The agent platform: registration, message transport, and tracing.
//
// Substitutes for Jade. Delivery is asynchronous on the virtual clock: a
// sent message arrives after a latency determined by a pluggable function
// (by default a small constant; the services install a domain-aware function
// backed by the grid's network model). The platform records a trace of every
// delivery, which the Figure 2/3 harnesses print as the paper's message
// flows.
//
// A ChaosPolicy (agent/chaos.hpp) may be installed to inject transport
// faults — drop, delay, duplicate, reorder — and agent faults (crash, hang),
// all drawn deterministically from one seed so chaotic runs reproduce
// bitwise. Crashed and hung agents are *not* deregistered: their objects
// (and any timers they scheduled) stay alive, the transport just refuses to
// carry their messages.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agent/agent.hpp"
#include "agent/chaos.hpp"
#include "agent/message.hpp"
#include "grid/sim.hpp"
#include "obs/metrics.hpp"

namespace ig::agent {

/// One delivered (or dropped) message, for diagnostics and the flow benches.
struct TraceRecord {
  grid::SimTime sent_at = 0.0;
  grid::SimTime delivered_at = 0.0;
  AclMessage message;
  bool delivered = false;      ///< false when the receiver did not exist
  std::string handler_error;   ///< non-empty when the handler threw on this message
  std::string chaos;           ///< non-empty when a chaos fault touched this message
};

/// Transport-level condition of an agent (see ChaosPolicy's AgentFault).
enum class AgentHealth { Healthy, Crashed, Hung };

/// A transport hook stands in for the physical medium between send() and the
/// chaos layer: it carries the message through a real encode/decode path
/// (e.g. the wire codec's framed byte stream) and returns what arrived, or
/// nullopt if the transport rejected it (writing a reason into *error). The
/// chaos policy then acts on the *decoded* message, so injected faults hit
/// frames that really crossed a codec, not in-memory copies.
using TransportHook =
    std::function<std::optional<AclMessage>(const AclMessage&, std::string* error)>;

class AgentPlatform {
 public:
  /// Counts messages, handler failures, trace drops and chaos faults in
  /// `metrics` (an engine shard's stack passes the engine's registry,
  /// labelled {shard="i"}); the default is a private registry.
  explicit AgentPlatform(grid::Simulation& sim, obs::Scope metrics = {});

  AgentPlatform(const AgentPlatform&) = delete;
  AgentPlatform& operator=(const AgentPlatform&) = delete;

  grid::Simulation& sim() noexcept { return sim_; }
  /// Where this platform counts.
  const obs::Scope& metrics() const noexcept { return metrics_; }

  // -- lifecycle --------------------------------------------------------------
  /// Registers an agent; its name must be unique. `on_start` runs
  /// immediately. Returns a reference to the stored agent.
  Agent& register_agent(std::unique_ptr<Agent> agent);

  /// Convenience: constructs and registers an agent of type T.
  template <typename T, typename... Args>
  T& spawn(Args&&... args) {
    auto agent = std::make_unique<T>(std::forward<Args>(args)...);
    T& reference = *agent;
    register_agent(std::move(agent));
    return reference;
  }

  /// Deregisters (kills) an agent; queued deliveries to it are dropped.
  bool deregister_agent(std::string_view name);

  Agent* find_agent(std::string_view name) noexcept;
  bool has_agent(std::string_view name) const noexcept;
  std::vector<std::string> agent_names() const;

  // -- messaging ---------------------------------------------------------------
  /// Queues a message for delivery after the transport latency. Messages to
  /// unknown agents bounce: the sender receives a platform FAILURE reply.
  void send(AclMessage message);

  /// Transport latency function (sender, receiver) -> seconds.
  void set_latency_function(std::function<grid::SimTime(const std::string&, const std::string&)> fn) {
    latency_fn_ = std::move(fn);
  }

  /// Installs (or clears, with nullptr) the transport hook. Runs in send()
  /// after the sender-health check and before any chaos decision.
  void set_transport_hook(TransportHook hook) { transport_hook_ = std::move(hook); }
  /// Messages the transport hook rejected (decode errors).
  std::size_t transport_rejects() const noexcept { return transport_rejects_.value(); }

  // The counters are registry instruments (relaxed atomics), so an engine
  // metrics snapshot may read them while the shard's worker is delivering.
  std::size_t messages_sent() const noexcept { return messages_sent_.value(); }
  std::size_t messages_delivered() const noexcept { return messages_delivered_.value(); }

  // -- attempt model ---------------------------------------------------------------
  /// Records the per-attempt transport state — the send sequence that keys
  /// chaos draws, agent health, and the per-agent delivery counts that arm
  /// agent faults — and has every registered agent save its own
  /// (Agent::save_pristine).
  void save_pristine();
  /// Restores what save_pristine recorded, reseeds the chaos stream from
  /// (policy seed, `attempt_seed`) and resets every agent with
  /// `attempt_seed`. Counters, the trace and the chaos rules are kept. The
  /// caller resets the calendar first: messages in flight die with it.
  void reset(std::uint64_t attempt_seed);

  // -- chaos --------------------------------------------------------------------
  /// Installs (or replaces) the fault-injection policy. The fault counters
  /// keep counting: like every registry counter they never go down.
  void set_chaos(ChaosPolicy policy);
  void clear_chaos();
  bool chaos_enabled() const noexcept { return chaos_.has_value() && chaos_->enabled(); }
  /// Snapshot of the injected-fault counters (`chaos_faults_total{kind}`),
  /// safe from another thread while the shard's worker is running.
  ChaosStats chaos_stats() const;

  /// Marks an agent crashed: deliveries to it bounce like an unknown agent,
  /// sends from it vanish. The object (and its timers) stays alive.
  void crash_agent(const std::string& name);
  /// Marks an agent hung: a black hole — deliveries to it and sends from it
  /// are silently swallowed. Only timeouts can observe this.
  void hang_agent(const std::string& name);
  /// Restores a crashed or hung agent to healthy (circuit-breaker recovery).
  void revive_agent(const std::string& name);
  AgentHealth agent_health(std::string_view name) const;

  // -- containment ---------------------------------------------------------------
  // A handler that throws must not take the platform down with it: deliver()
  // catches the exception, records it here (and in the trace), and converts
  // it into a Failure reply to the sender. Jade behaves the same way — a
  // behaviour that throws kills the behaviour, not the container.
  /// Handler exceptions caught so far for one agent.
  std::size_t handler_failures(std::string_view name) const;
  /// Per-agent breakdown of caught handler exceptions.
  const std::map<std::string, std::size_t>& handler_failures_by_agent() const noexcept {
    return handler_failures_;
  }
  /// Total caught handler exceptions.
  std::size_t handler_failures_total() const noexcept { return handler_failures_total_.value(); }

  // -- tracing ------------------------------------------------------------------
  void set_tracing(bool enabled) noexcept { tracing_ = enabled; }
  const std::deque<TraceRecord>& trace() const noexcept { return trace_; }
  void clear_trace() { trace_.clear(); }
  /// Caps the trace at the most recent `limit` records (ring buffer); the
  /// oldest record is dropped on overflow. 0 (the default) keeps everything,
  /// which the Figure 2/3 harnesses rely on; long-running shards set a cap
  /// so a traced platform cannot grow without bound.
  void set_trace_limit(std::size_t limit);
  /// The limit and drop counter are atomic: the trace ring itself is only
  /// mutated on the owning sim thread, but these two are read by engine
  /// metrics snapshots from other threads (see engine_test's TSan case).
  std::size_t trace_limit() const noexcept {
    return trace_limit_.load(std::memory_order_relaxed);
  }
  /// Records discarded so far due to the cap.
  std::size_t trace_dropped() const noexcept { return trace_dropped_.value(); }
  /// Multi-line "t=0.001 REQUEST cs -> ps [planning-request]" rendering.
  std::string trace_to_string() const;

 private:
  void deliver(AclMessage message, grid::SimTime sent_at);
  void note_handler_failure(const AclMessage& message, const std::string& what);
  void push_trace(TraceRecord record);
  /// Trace a message the chaos layer consumed before/at delivery.
  void trace_chaos_loss(const AclMessage& message, grid::SimTime sent_at,
                        const std::string& note);
  /// Fires any agent fault armed for this delivery attempt to `receiver`.
  void apply_agent_faults(const std::string& receiver);

  grid::Simulation& sim_;
  obs::Scope metrics_;
  obs::Counter& transport_rejects_;
  obs::Counter& trace_dropped_;
  obs::Counter& messages_sent_;
  obs::Counter& messages_delivered_;
  obs::Counter& handler_failures_total_;
  obs::Counter& chaos_dropped_;  ///< chaos_faults_total{kind=...}, one per kind
  obs::Counter& chaos_delayed_;
  obs::Counter& chaos_duplicated_;
  obs::Counter& chaos_reordered_;
  obs::Counter& chaos_crashed_;
  obs::Counter& chaos_hung_;
  obs::Counter& chaos_swallowed_;
  std::vector<std::unique_ptr<Agent>> agents_;
  /// Keys each send's chaos draws; unlike messages_sent_, reset per attempt.
  std::uint64_t send_sequence_ = 0;
  std::function<grid::SimTime(const std::string&, const std::string&)> latency_fn_;
  TransportHook transport_hook_;
  bool tracing_ = false;
  std::deque<TraceRecord> trace_;
  std::atomic<std::size_t> trace_limit_{0};  ///< 0 = unlimited
  std::map<std::string, std::size_t> handler_failures_;

  std::optional<ChaosPolicy> chaos_;
  std::uint64_t chaos_seed_ = 0;  ///< the installed policy's own seed
  std::map<std::string, AgentHealth> health_;
  std::map<std::string, std::size_t> deliveries_by_agent_;
  struct Pristine {
    std::uint64_t send_sequence = 0;
    std::map<std::string, AgentHealth> health;
    std::map<std::string, std::size_t> deliveries_by_agent;
  };
  Pristine pristine_;
};

}  // namespace ig::agent
