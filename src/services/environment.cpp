#include "services/environment.hpp"

#include "meta/standard.hpp"
#include "services/container_agent.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/ontology.hpp"

namespace ig::svc {

namespace {
/// Stream tag of a shard stack's seed (see make_shard_stack and reset).
constexpr std::uint64_t kShardStream = 0x5AD0ULL;
}  // namespace

Environment::Environment(const EnvironmentOptions& options, obs::Scope metrics)
    : injector_(util::Rng(options.seed)),
      platform_(sim_, metrics),
      tracer_(metrics),
      catalogue_(options.catalogue.empty() ? virolab::make_catalogue() : options.catalogue),
      kernels_(options.kernels) {
  // -- grid topology -----------------------------------------------------------
  grid::TopologyParams topology = options.topology;
  if (topology.service_names.empty()) topology.service_names = catalogue_.names();
  util::Rng topology_rng(options.seed ^ 0x9E3779B97F4A7C15ULL);
  grid::build_topology(grid_, topology, topology_rng);

  platform_.set_tracing(options.tracing);
  platform_.set_trace_limit(options.trace_limit);
  if (options.wire_transport) {
    // Installed before the bootstrap flush so even the service registration
    // traffic crosses the codec: the intern tables warm up on the names and
    // protocols the run will keep using.
    wire_link_ = std::make_unique<wire::WireLink>(metrics);
    platform_.set_transport_hook(wire::make_transport_hook(*wire_link_));
  }
  tracer_.set_enabled(options.span_tracing);
  tracer_.set_limit(options.span_limit);

  // -- core services (information service first so registrations succeed) -------
  information_ = &platform_.spawn<InformationService>(names::kInformation);
  brokerage_ = &platform_.spawn<BrokerageService>(names::kBrokerage);
  // Monitoring precedes matchmaking: the matchmaker consults it for
  // heartbeat liveness when ranking containers.
  HeartbeatConfig heartbeat;
  if (options.heartbeat_period > 0) heartbeat.period = options.heartbeat_period;
  monitoring_ = &platform_.spawn<MonitoringService>(names::kMonitoring, grid_,
                                                    options.monitor_period, heartbeat, metrics);
  matchmaking_ = &platform_.spawn<MatchmakingService>(
      names::kMatchmaking, grid_, brokerage_,
      options.heartbeat_period > 0 ? monitoring_ : nullptr);
  ontology_ = &platform_.spawn<OntologyService>(names::kOntology);
  ontology_->store(meta::standard_grid_ontology());
  ontology_->store(virolab::make_fig13_ontology());
  authentication_ = &platform_.spawn<AuthenticationService>(names::kAuthentication);
  storage_ = &platform_.spawn<PersistentStorageService>(names::kPersistentStorage);
  scheduling_ = &platform_.spawn<SchedulingService>(names::kScheduling);
  simulation_ =
      &platform_.spawn<SimulationService>(names::kSimulation, catalogue_, options.gp.evaluation);
  planning_ =
      &platform_.spawn<PlanningService>(names::kPlanning, catalogue_, options.gp, metrics);
  coordination_ = &platform_.spawn<CoordinationService>(names::kCoordination,
                                                        options.coordination, metrics);
  // Decorrelate the retry-jitter streams from the environment seed.
  coordination_->set_tracker_seed(
      util::derive_stream(options.seed, CoordinationService::kTrackerStream));
  planning_->set_tracker_seed(util::derive_stream(options.seed, PlanningService::kTrackerStream));
  coordination_->set_tracer(&tracer_);

  // -- one agent per application container ----------------------------------------
  for (const auto& container : grid_.containers()) {
    platform_.spawn<ContainerAgent>(container->id(), grid_, sim_, injector_, container->id(),
                                    catalogue_, kernels_, options.heartbeat_period);
  }

  // Flush registrations and advertisements so the environment is ready.
  // Chaos is installed only after the bootstrap flush: losing a service
  // registration models nothing from the paper and would just wedge the
  // whole environment before the experiment starts.
  sim_.run(100'000);
  if (options.chaos.enabled()) platform_.set_chaos(options.chaos);
  save_pristine();
}

void Environment::save_pristine() {
  sim_.save_pristine();
  grid_.save_pristine();
  platform_.save_pristine();
}

void Environment::reset(std::uint64_t attempt_seed) {
  // The streams restart where a shard stack built from the attempt seed
  // starts them: the injector and the request trackers draw exactly what
  // make_shard_stack(options, attempt_seed, 0) would give them.
  const std::uint64_t seed = util::derive_stream(attempt_seed, kShardStream, 0);
  // Calendar first: the previous attempt's messages and timers die with it,
  // so no component below has a pending event to cancel.
  sim_.reset();
  grid_.reset();
  injector_.rng() = util::Rng(seed);
  kernels_.reset();
  platform_.reset(seed);
}

std::unique_ptr<Environment> make_environment(EnvironmentOptions options) {
  return std::make_unique<Environment>(options);
}

std::unique_ptr<Environment> make_shard_stack(EnvironmentOptions base,
                                              std::uint64_t engine_seed,
                                              std::size_t shard_index,
                                              double failure_floor,
                                              obs::Scope metrics) {
  base.seed = util::derive_stream(engine_seed, kShardStream, shard_index);
  base.monitor_period = 0.0;  // the engine slices the calendar and drains it
  auto environment = std::make_unique<Environment>(base, std::move(metrics));
  if (failure_floor > 0.0) environment->injector().set_failure_floor(failure_floor);
  return environment;
}

}  // namespace ig::svc
