// The simulated grid: nodes, containers, network, and topology factories.
//
// This is the substitute for the paper's physical campus grid. It exposes
// the same metadata surface the core services consume — resources grouped in
// administrative domains, application containers advertising service types,
// link characteristics — plus deterministic execution-time and failure
// models so experiments are reproducible.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "grid/container.hpp"
#include "grid/failure.hpp"
#include "grid/network.hpp"
#include "grid/node.hpp"
#include "grid/sim.hpp"
#include "util/rng.hpp"
#include "wfl/service.hpp"

namespace ig::grid {

/// Outcome of executing one activity on a container.
struct ExecutionResult {
  bool success = false;
  SimTime completion_time = 0.0;  ///< virtual time the task finished (or failed)
  std::string failure_reason;
};

class Grid {
 public:
  Grid() = default;
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  // -- topology --------------------------------------------------------------
  GridNode& add_node(std::string id, std::string name, std::string domain,
                     HardwareSpec hardware);
  ApplicationContainer& add_container(std::string id, std::string node_id);

  GridNode* find_node(std::string_view id) noexcept;
  const GridNode* find_node(std::string_view id) const noexcept;
  ApplicationContainer* find_container(std::string_view id) noexcept;
  const ApplicationContainer* find_container(std::string_view id) const noexcept;

  const std::vector<std::unique_ptr<GridNode>>& nodes() const noexcept { return nodes_; }
  const std::vector<std::unique_ptr<ApplicationContainer>>& containers() const noexcept {
    return containers_;
  }

  NetworkModel& network() noexcept { return network_; }
  const NetworkModel& network() const noexcept { return network_; }

  // -- queries ----------------------------------------------------------------
  /// Containers currently able to execute `service_name` (hosted + available
  /// + node up).
  std::vector<const ApplicationContainer*> containers_hosting(std::string_view service_name) const;
  /// All containers advertising the service, regardless of availability.
  std::vector<const ApplicationContainer*> containers_advertising(
      std::string_view service_name) const;

  std::vector<std::string> domains() const;

  // -- execution model ----------------------------------------------------------
  /// Executes `service` on `container` at virtual time `now` with inputs of
  /// total size `input_size_mb` shipped from `data_domain`. Samples failure
  /// from the injector; on success the node's queue advances.
  ExecutionResult execute(Simulation& sim, FailureInjector& injector,
                          const wfl::ServiceType& service, const std::string& container_id,
                          double input_size_mb, const std::string& data_domain);

  /// Marks a container (and optionally later restores it).
  void set_container_available(std::string_view container_id, bool available);
  /// Marks a node up/down; containers on a down node cannot execute.
  void set_node_state(std::string_view node_id, NodeState state);

  std::string to_display_string() const;

  // -- attempt model ---------------------------------------------------------------
  /// Records every node's and container's runtime state (up/down,
  /// execution queue, availability, dispatch tallies) for `reset`. The
  /// topology and its configuration (speeds, reliability, hosted services,
  /// prices) are long-lived and never reset.
  void save_pristine();
  /// Restores the runtime state save_pristine recorded (nodes and
  /// containers added since keep theirs).
  void reset();

 private:
  std::vector<std::unique_ptr<GridNode>> nodes_;
  std::vector<std::unique_ptr<ApplicationContainer>> containers_;
  NetworkModel network_;
  std::vector<GridNode::Runtime> pristine_nodes_;
  std::vector<ApplicationContainer::Runtime> pristine_containers_;
};

/// Parameters for the synthetic topology factory.
struct TopologyParams {
  int domains = 3;
  int nodes_per_domain = 4;
  int containers_per_node = 1;
  double min_speed = 0.5;       ///< slowest node speed
  double max_speed = 4.0;       ///< fastest node speed
  double container_failure_probability = 0.0;
  /// Service types each container hosts are drawn from this catalogue;
  /// every service is guaranteed at least one host.
  std::vector<std::string> service_names;
  int services_per_container = 2;
};

/// Builds a heterogeneous demo grid ("the resource-rich environment is
/// highly heterogeneous"): speeds, bandwidths and latencies vary per node,
/// domains are linked by slower WAN links.
void build_topology(Grid& grid, const TopologyParams& params, util::Rng& rng);

}  // namespace ig::grid
