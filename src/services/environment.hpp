// One-call bootstrap of a complete intelligent grid environment.
//
// Wires Figure 1 end to end: the simulated grid (nodes, containers,
// network), the agent platform, every core service, and one container agent
// per application container. Examples, tests and benchmark harnesses build
// on this instead of repeating the wiring.
#pragma once

#include <memory>
#include <string>

#include "agent/platform.hpp"
#include "grid/grid.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "planner/gp.hpp"
#include "services/authentication.hpp"
#include "services/brokerage.hpp"
#include "services/coordination.hpp"
#include "services/information.hpp"
#include "services/matchmaking.hpp"
#include "services/monitoring.hpp"
#include "services/ontology_service.hpp"
#include "services/planning_service.hpp"
#include "services/scheduling.hpp"
#include "services/simulation_service.hpp"
#include "services/storage.hpp"
#include "virolab/kernels.hpp"
#include "wfl/service.hpp"
#include "wire/channel.hpp"

namespace ig::svc {

struct EnvironmentOptions {
  grid::TopologyParams topology;      ///< service_names filled from catalogue if empty
  wfl::ServiceCatalogue catalogue;    ///< defaults to the virolab catalogue when empty
  planner::GpConfig gp;               ///< planner settings (Table 1 defaults)
  CoordinationConfig coordination;
  virolab::KernelParams kernels;
  bool tracing = false;               ///< record every delivered message
  /// >0 caps the message trace at the most recent N records (ring); 0 keeps
  /// everything (the Figure 2/3 harnesses rely on the full trace).
  std::size_t trace_limit = 0;
  /// Enables the enactment span tracer: the coordination service emits
  /// case/activity/barrier/choice/iteration spans on the virtual clock.
  bool span_tracing = false;
  std::size_t span_limit = 0;         ///< >0 caps retained spans (oldest closed drop)
  grid::SimTime monitor_period = 0.0; ///< >0 enables periodic utilization sampling
  /// >0: container agents emit liveness heartbeats at this spacing and the
  /// monitoring service quarantines containers that stop beating (both run
  /// as daemon events, so the calendar still drains between cases).
  grid::SimTime heartbeat_period = 0.0;
  /// Routes every platform send through the binary wire codec (frame,
  /// CRC, intern, zero-copy decode, materialize) over a loopback byte
  /// stream before the chaos layer sees it. Chaos faults then hit frames
  /// that really crossed the codec; the link counts wire_* counters in the
  /// environment's registry. Deterministic: the round trip is bitwise, so
  /// chaos replays stay seed-stable with the hook on or off.
  bool wire_transport = false;
  /// Fault-injection policy installed on the platform (empty = no chaos).
  agent::ChaosPolicy chaos;
  std::uint64_t seed = 42;
};

/// The assembled environment. Not copyable or movable; construct through
/// make_environment and keep it alive for the duration of the scenario.
class Environment {
 public:
  /// Every component of the stack (platform and chaos, request trackers,
  /// monitoring, span tracer, wire link) counts in `metrics`; the engine
  /// passes its registry labelled {shard="i"}, and the default is a private
  /// registry.
  explicit Environment(const EnvironmentOptions& options, obs::Scope metrics = {});

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  grid::Simulation& sim() noexcept { return sim_; }
  grid::Grid& grid() noexcept { return grid_; }
  grid::FailureInjector& injector() noexcept { return injector_; }
  agent::AgentPlatform& platform() noexcept { return platform_; }
  const wfl::ServiceCatalogue& catalogue() const noexcept { return catalogue_; }
  virolab::SyntheticKernels& kernels() noexcept { return kernels_; }

  InformationService& information() noexcept { return *information_; }
  BrokerageService& brokerage() noexcept { return *brokerage_; }
  MatchmakingService& matchmaking() noexcept { return *matchmaking_; }
  MonitoringService& monitoring() noexcept { return *monitoring_; }
  OntologyService& ontology() noexcept { return *ontology_; }
  AuthenticationService& authentication() noexcept { return *authentication_; }
  PersistentStorageService& storage() noexcept { return *storage_; }
  SchedulingService& scheduling() noexcept { return *scheduling_; }
  SimulationService& simulation() noexcept { return *simulation_; }
  PlanningService& planning() noexcept { return *planning_; }
  CoordinationService& coordination() noexcept { return *coordination_; }

  /// The enactment span tracer (disabled unless options.span_tracing).
  obs::SpanTracer& tracer() noexcept { return tracer_; }
  const obs::SpanTracer& tracer() const noexcept { return tracer_; }

  /// The wire transport link, or nullptr unless options.wire_transport.
  wire::WireLink* wire_link() noexcept { return wire_link_.get(); }
  const wire::WireLink* wire_link() const noexcept { return wire_link_.get(); }

  /// The registry every component of this stack counts in, current at any
  /// time; safe to scrape from another thread while the stack runs.
  obs::MetricsRegistry& registry() const noexcept { return platform_.metrics().registry(); }

  /// Drains the event calendar (bounded by `max_events` as a runaway guard).
  std::size_t run(std::size_t max_events = 1'000'000) { return sim_.run(max_events); }

  // -- attempt model ---------------------------------------------------------------
  // The stack is built once and enacts any number of attempts, each from
  // the same *pristine* state: reset(seed) before every attempt makes its
  // outcome a function of the pristine stack, its inputs and the seed,
  // whatever ran on the stack before.

  /// Records the current state as pristine. The constructor calls it after
  /// the bootstrap flush; call it again after customizing the stack (extra
  /// agents, grid tweaks) to make those part of the pristine state.
  void save_pristine();

  /// Returns to the pristine state and reseeds every per-attempt random
  /// stream from `attempt_seed`: the failure injector and the request
  /// trackers restart exactly where a shard stack built from it
  /// (make_shard_stack(options, attempt_seed, 0)) starts them, and the
  /// chaos and planning streams derive from it. The calendar and clock go
  /// back to their pristine contents (the daemon events, e.g. heartbeats,
  /// pending then), along with the platform's send sequence and agent
  /// health, every agent's own state (Agent::reset), the grid's runtime
  /// state and the synthetic kernels. Monotonic counters (messages, sim
  /// events, wire, chaos, tracker, monitoring), the wire intern tables, the
  /// message trace and the spans are kept.
  void reset(std::uint64_t attempt_seed);

 private:
  grid::Simulation sim_;
  grid::Grid grid_;
  grid::FailureInjector injector_;
  agent::AgentPlatform platform_;
  std::unique_ptr<wire::WireLink> wire_link_;
  obs::SpanTracer tracer_;
  wfl::ServiceCatalogue catalogue_;
  virolab::SyntheticKernels kernels_;

  InformationService* information_ = nullptr;
  BrokerageService* brokerage_ = nullptr;
  MatchmakingService* matchmaking_ = nullptr;
  MonitoringService* monitoring_ = nullptr;
  OntologyService* ontology_ = nullptr;
  AuthenticationService* authentication_ = nullptr;
  PersistentStorageService* storage_ = nullptr;
  SchedulingService* scheduling_ = nullptr;
  SimulationService* simulation_ = nullptr;
  PlanningService* planning_ = nullptr;
  CoordinationService* coordination_ = nullptr;
};

/// Builds the standard environment (virolab catalogue unless overridden).
std::unique_ptr<Environment> make_environment(EnvironmentOptions options = {});

/// Shard-stack factory for the enactment engine: one private, fully wired
/// environment per worker shard. The shard's seed is derived from
/// (engine seed, shard index), so shards draw decorrelated random streams
/// while the whole fleet stays reproducible from one engine seed.
/// `failure_floor` > 0 arms the shard's failure injector so every dispatch
/// on the shard fails with at least that probability (per-shard fault
/// injection for retry experiments). Periodic monitoring is disabled: the
/// engine drives each shard's calendar in slices and needs it to drain
/// between cases. The stack counts in `metrics` (see Environment).
std::unique_ptr<Environment> make_shard_stack(EnvironmentOptions base,
                                              std::uint64_t engine_seed,
                                              std::size_t shard_index,
                                              double failure_floor = 0.0,
                                              obs::Scope metrics = {});

}  // namespace ig::svc
