// Application containers: hosts for end-user services.
//
// "Application Containers (ACs) host end-user services." A container runs on
// a grid node, advertises the service types it can execute, and may be
// unavailable (its reliability "cannot be guaranteed; such services may be
// short-lived"). The planning service probes containers during re-planning
// (Figure 3, steps 6–7).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "grid/node.hpp"

namespace ig::grid {

class ApplicationContainer {
 public:
  ApplicationContainer(std::string id, std::string node_id)
      : id_(std::move(id)), node_id_(std::move(node_id)) {}

  const std::string& id() const noexcept { return id_; }
  const std::string& node_id() const noexcept { return node_id_; }

  /// Service types this container can execute.
  void host_service(std::string service_name) {
    hosted_services_.push_back(std::move(service_name));
  }
  /// Withdraws one service offering (the container stays up for the rest).
  /// Returns false when the service was not hosted here.
  bool unhost_service(std::string_view service_name);
  bool hosts(std::string_view service_name) const noexcept;
  const std::vector<std::string>& hosted_services() const noexcept { return hosted_services_; }

  /// End-user services are not persistent: a container may go away.
  bool available() const noexcept { return runtime_.available; }
  void set_available(bool available) noexcept { runtime_.available = available; }

  /// Per-dispatch failure probability of this container's runtime (on top
  /// of node reliability).
  double failure_probability() const noexcept { return failure_probability_; }
  void set_failure_probability(double p) noexcept { failure_probability_ = p; }

  /// Spot-market price multiplier ("resource acquisition on the spot
  /// markets ... faces stiff competition"): the charge for one execution is
  /// the service's base cost times this factor.
  double price_factor() const noexcept { return price_factor_; }
  void set_price_factor(double factor) noexcept { price_factor_ = factor; }

  std::size_t dispatch_count() const noexcept { return runtime_.dispatch_count; }
  std::size_t failure_count() const noexcept { return runtime_.failure_count; }
  void record_dispatch(bool failed) noexcept {
    ++runtime_.dispatch_count;
    if (failed) ++runtime_.failure_count;
  }

  /// Availability and dispatch tallies, as one value a long-lived grid
  /// saves and restores (Grid::save_pristine / Grid::reset).
  struct Runtime {
    bool available = true;
    std::size_t dispatch_count = 0;
    std::size_t failure_count = 0;
  };
  const Runtime& runtime() const noexcept { return runtime_; }
  void set_runtime(const Runtime& runtime) noexcept { runtime_ = runtime; }

 private:
  std::string id_;
  std::string node_id_;
  std::vector<std::string> hosted_services_;
  double failure_probability_ = 0.0;
  double price_factor_ = 1.0;
  Runtime runtime_;
};

}  // namespace ig::grid
