// Application-container agents: the end-user service hosts.
//
// One agent fronts each grid ApplicationContainer. On start it registers
// with the information service and advertises its hosted service types to
// the brokerage service. It answers two protocols:
//
//   execute-activity   run a service on the case data set the request
//                       carries as its typed `data` payload (a request
//                       without one binds the empty set); replies INFORM
//                       with the produced items as the reply's `data` at
//                       the virtual completion time, or FAILURE (container
//                       down, precondition unmet, or injected execution
//                       failure);
//   query-executable   the re-planning probe of Figure 3 steps 6-7.
#pragma once

#include <string>

#include "agent/agent.hpp"
#include "grid/grid.hpp"
#include "virolab/kernels.hpp"
#include "wfl/service.hpp"

namespace ig::svc {

class ContainerAgent : public agent::Agent {
 public:
  /// Outputs come from the synthetic compute `kernels` (not owned).
  /// `heartbeat_period` > 0 makes the agent emit liveness heartbeats to the
  /// monitoring service at that spacing (as daemon events — they never keep
  /// the calendar alive on their own); 0 disables them.
  ContainerAgent(std::string name, grid::Grid& grid, grid::Simulation& sim,
                 grid::FailureInjector& injector, std::string container_id,
                 const wfl::ServiceCatalogue& catalogue, virolab::SyntheticKernels& kernels,
                 grid::SimTime heartbeat_period = 0.0)
      : Agent(std::move(name)),
        grid_(&grid),
        gsim_(&sim),
        injector_(&injector),
        container_id_(std::move(container_id)),
        catalogue_(&catalogue),
        kernels_(&kernels),
        heartbeat_period_(heartbeat_period) {}

  void on_start() override;
  void handle_message(const agent::AclMessage& message) override;

  const std::string& container_id() const noexcept { return container_id_; }

 private:
  void handle_execute(const agent::AclMessage& message);
  void handle_query_executable(const agent::AclMessage& message);
  void report_performance(const std::string& outcome, double duration);
  void emit_heartbeat();

  grid::Grid* grid_;
  grid::Simulation* gsim_;
  grid::FailureInjector* injector_;
  std::string container_id_;
  const wfl::ServiceCatalogue* catalogue_;
  virolab::SyntheticKernels* kernels_;
  grid::SimTime heartbeat_period_ = 0.0;
};

}  // namespace ig::svc
