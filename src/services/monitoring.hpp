// Monitoring service: accurate, current resource state + liveness.
//
// "Accurate information about the status of a resource may be obtained using
// monitoring services" — unlike brokerage data, which may be obsolete, the
// monitor reads the grid directly. It also samples utilization periodically
// for the soft-deadline history discussed in Section 1 (a bounded ring of
// the most recent samples per node).
//
// Liveness: application containers emit periodic heartbeats (see
// ContainerAgent). The monitor tracks when each container was last seen and
// classifies it lazily at query time — Alive, Suspect after a few missed
// beats, Dead after several more. Matchmaking consults this to quarantine
// dead containers. The breaker is half-open: a Dead container is probed at a
// bounded rate, and any sign of life (a resumed heartbeat or a probe reply)
// readmits it and counts a recovery.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "grid/grid.hpp"
#include "obs/metrics.hpp"

namespace ig::svc {

/// Heartbeat-derived transport-level state of a container.
enum class Liveness { Unknown, Alive, Suspect, Dead };

const char* to_string(Liveness liveness) noexcept;

/// Liveness thresholds, expressed in heartbeat periods so one knob scales
/// the whole scheme.
struct HeartbeatConfig {
  grid::SimTime period = 5.0;          ///< expected beat spacing (virtual s)
  double suspect_missed = 2.5;         ///< periods without a beat -> Suspect
  double dead_missed = 5.0;            ///< periods without a beat -> Dead
  grid::SimTime probe_interval = 15.0; ///< min spacing of half-open probes
};

class MonitoringService : public agent::Agent {
 public:
  /// The liveness counters live in `metrics` (default: a private registry).
  MonitoringService(std::string name, const grid::Grid& grid, grid::SimTime sample_period = 0.0,
                    HeartbeatConfig heartbeat = {}, obs::Scope metrics = {})
      : Agent(std::move(name)),
        grid_(&grid),
        sample_period_(sample_period),
        heartbeat_(heartbeat),
        metrics_(std::move(metrics)),
        heartbeats_received_(metrics_.counter("monitor_heartbeats_received_total")),
        containers_recovered_(metrics_.counter("monitor_containers_recovered_total")) {}

  void on_start() override;
  void handle_message(const agent::AclMessage& message) override;
  /// Liveness and quarantine state: last beats, probe times, probe ids.
  void save_pristine() override;
  void reset(std::uint64_t attempt_seed) override;

  /// Utilization samples per node id (busy fraction at each sample time).
  const std::map<std::string, std::vector<double>>& samples() const noexcept { return samples_; }
  /// Caps every node's series at the most recent `limit` samples (the
  /// oldest are dropped); 0 means unbounded. Existing series are trimmed.
  void set_max_samples(std::size_t limit);
  std::size_t max_samples() const noexcept { return max_samples_; }

  const HeartbeatConfig& heartbeat_config() const noexcept { return heartbeat_; }
  void set_heartbeat_config(const HeartbeatConfig& config) noexcept { heartbeat_ = config; }

  /// Classifies a container from its last heartbeat, lazily at call time —
  /// no sweep timers. A container that never beat is Unknown (not
  /// quarantined: it may predate the heartbeat scheme). May emit a
  /// half-open probe when the container is Dead and the probe budget
  /// allows, which is why this is non-const.
  Liveness liveness_of(const std::string& container_id);

  /// Containers currently classified Dead.
  std::vector<std::string> dead_containers();

  /// Registry counter: engine metrics snapshots read it from another thread.
  std::size_t heartbeats_received() const noexcept { return heartbeats_received_.value(); }
  /// Containers that resumed beating (or answered a probe) after having
  /// been silent past the Dead threshold. Registry counter: engine metrics
  /// snapshots read it from another thread while the shard runs.
  std::size_t containers_recovered() const noexcept { return containers_recovered_.value(); }

 private:
  struct Beat {
    grid::SimTime last_seen = 0.0;
    grid::SimTime last_probe = -1e18;
  };

  void sample();
  void record_heartbeat(const std::string& container_id);
  Liveness classify(const Beat& beat);  // non-const: Agent::now() is not

  const grid::Grid* grid_;
  grid::SimTime sample_period_;  ///< 0 disables periodic sampling
  std::size_t max_samples_ = 1024;
  std::map<std::string, std::vector<double>> samples_;

  HeartbeatConfig heartbeat_;
  obs::Scope metrics_;
  obs::Counter& heartbeats_received_;
  obs::Counter& containers_recovered_;
  std::map<std::string, Beat> beats_;
  std::uint64_t next_probe_ = 0;
  std::map<std::string, Beat> pristine_beats_;
  std::uint64_t pristine_next_probe_ = 0;
};

}  // namespace ig::svc
