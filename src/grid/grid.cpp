#include "grid/grid.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "util/strings.hpp"

namespace ig::grid {

GridNode& Grid::add_node(std::string id, std::string name, std::string domain,
                         HardwareSpec hardware) {
  if (find_node(id) != nullptr)
    throw std::invalid_argument("duplicate node id '" + id + "'");
  nodes_.push_back(
      std::make_unique<GridNode>(std::move(id), std::move(name), std::move(domain),
                                 std::move(hardware)));
  return *nodes_.back();
}

ApplicationContainer& Grid::add_container(std::string id, std::string node_id) {
  if (find_container(id) != nullptr)
    throw std::invalid_argument("duplicate container id '" + id + "'");
  if (find_node(node_id) == nullptr)
    throw std::invalid_argument("container '" + id + "' references unknown node '" + node_id +
                                "'");
  containers_.push_back(std::make_unique<ApplicationContainer>(std::move(id), std::move(node_id)));
  return *containers_.back();
}

GridNode* Grid::find_node(std::string_view id) noexcept {
  for (auto& node : nodes_) {
    if (node->id() == id) return node.get();
  }
  return nullptr;
}

const GridNode* Grid::find_node(std::string_view id) const noexcept {
  for (const auto& node : nodes_) {
    if (node->id() == id) return node.get();
  }
  return nullptr;
}

ApplicationContainer* Grid::find_container(std::string_view id) noexcept {
  for (auto& container : containers_) {
    if (container->id() == id) return container.get();
  }
  return nullptr;
}

const ApplicationContainer* Grid::find_container(std::string_view id) const noexcept {
  for (const auto& container : containers_) {
    if (container->id() == id) return container.get();
  }
  return nullptr;
}

std::vector<const ApplicationContainer*> Grid::containers_hosting(
    std::string_view service_name) const {
  std::vector<const ApplicationContainer*> out;
  for (const auto& container : containers_) {
    if (!container->hosts(service_name) || !container->available()) continue;
    const GridNode* node = find_node(container->node_id());
    if (node == nullptr || !node->is_up()) continue;
    out.push_back(container.get());
  }
  return out;
}

std::vector<const ApplicationContainer*> Grid::containers_advertising(
    std::string_view service_name) const {
  std::vector<const ApplicationContainer*> out;
  for (const auto& container : containers_) {
    if (container->hosts(service_name)) out.push_back(container.get());
  }
  return out;
}

std::vector<std::string> Grid::domains() const {
  std::set<std::string> unique;
  for (const auto& node : nodes_) unique.insert(node->domain());
  return {unique.begin(), unique.end()};
}

ExecutionResult Grid::execute(Simulation& sim, FailureInjector& injector,
                              const wfl::ServiceType& service, const std::string& container_id,
                              double input_size_mb, const std::string& data_domain) {
  ExecutionResult result;
  ApplicationContainer* container = find_container(container_id);
  if (container == nullptr) {
    result.failure_reason = "unknown container '" + container_id + "'";
    return result;
  }
  if (!container->available()) {
    container->record_dispatch(/*failed=*/true);
    result.failure_reason = "container unavailable";
    return result;
  }
  GridNode* node = find_node(container->node_id());
  if (node == nullptr || !node->is_up()) {
    container->record_dispatch(/*failed=*/true);
    result.failure_reason = "node down";
    return result;
  }

  // Combined failure probability: container runtime + node unreliability.
  const double p_fail =
      1.0 - (1.0 - container->failure_probability()) * node->reliability();
  if (injector.draw_failure(p_fail)) {
    container->record_dispatch(/*failed=*/true);
    result.failure_reason = "execution failure";
    // A failed attempt still wastes some time on the node's queue.
    result.completion_time = sim.now() + node->execution_time(service.base_work() * 0.25);
    return result;
  }

  const SimTime staging = network_.transfer_time(data_domain, node->domain(), input_size_mb);
  const SimTime completion = node->enqueue_work(sim.now() + staging, service.base_work());
  container->record_dispatch(/*failed=*/false);
  result.success = true;
  result.completion_time = completion;
  return result;
}

void Grid::set_container_available(std::string_view container_id, bool available) {
  ApplicationContainer* container = find_container(container_id);
  if (container != nullptr) container->set_available(available);
}

void Grid::set_node_state(std::string_view node_id, NodeState state) {
  GridNode* node = find_node(node_id);
  if (node != nullptr) node->set_state(state);
}

void Grid::save_pristine() {
  pristine_nodes_.clear();
  for (const auto& node : nodes_) pristine_nodes_.push_back(node->runtime());
  pristine_containers_.clear();
  for (const auto& container : containers_) pristine_containers_.push_back(container->runtime());
}

void Grid::reset() {
  for (std::size_t i = 0; i < pristine_nodes_.size(); ++i)
    nodes_[i]->set_runtime(pristine_nodes_[i]);
  for (std::size_t i = 0; i < pristine_containers_.size(); ++i)
    containers_[i]->set_runtime(pristine_containers_[i]);
}

std::string Grid::to_display_string() const {
  std::string out = "Grid: " + std::to_string(nodes_.size()) + " nodes, " +
                    std::to_string(containers_.size()) + " containers\n";
  for (const auto& node : nodes_) out += "  " + node->to_display_string() + "\n";
  for (const auto& container : containers_) {
    out += "  " + container->id() + " on " + container->node_id() + " hosts {" +
           util::join(container->hosted_services(), ", ") + "}" +
           (container->available() ? "" : " UNAVAILABLE") + "\n";
  }
  return out;
}

void build_topology(Grid& grid, const TopologyParams& params, util::Rng& rng) {
  int container_counter = 1;
  std::set<std::string> hosted_somewhere;
  for (int d = 0; d < params.domains; ++d) {
    const std::string domain = "domain" + std::to_string(d + 1);
    for (int n = 0; n < params.nodes_per_domain; ++n) {
      HardwareSpec hardware;
      hardware.type = (n % 3 == 0) ? "cluster" : (n % 3 == 1) ? "smp" : "workstation";
      hardware.speed = rng.next_double(params.min_speed, params.max_speed);
      hardware.memory_gb = static_cast<double>(1 << rng.next_int(1, 5));
      hardware.bandwidth_mbps = rng.next_double(10.0, 1000.0);
      hardware.latency_ms = rng.next_double(0.05, 5.0);
      const std::string node_id =
          "node-" + std::to_string(d + 1) + "-" + std::to_string(n + 1);
      GridNode& node = grid.add_node(node_id, "host " + node_id, domain, hardware);
      node.set_node_count(hardware.type == "cluster" ? static_cast<int>(rng.next_int(4, 32))
                                                     : 1);
      node.set_reliability(rng.next_double(0.95, 1.0));
      for (int c = 0; c < params.containers_per_node; ++c) {
        auto& container =
            grid.add_container("ac-" + std::to_string(container_counter++), node_id);
        container.set_failure_probability(params.container_failure_probability);
        // Spot-market heterogeneity: faster or more reliable sites charge
        // more; prices vary around 1.0.
        container.set_price_factor(rng.next_double(0.5, 2.0));
        if (params.service_names.empty()) continue;
        // Draw a random subset of services for this container.
        const int count = std::min<int>(params.services_per_container,
                                        static_cast<int>(params.service_names.size()));
        std::set<std::string> chosen;
        while (static_cast<int>(chosen.size()) < count) {
          chosen.insert(params.service_names[rng.next_below(params.service_names.size())]);
        }
        for (const auto& service : chosen) {
          container.host_service(service);
          hosted_somewhere.insert(service);
        }
      }
    }
  }
  // Guarantee coverage: every service type must have at least one host.
  for (const auto& service : params.service_names) {
    if (hosted_somewhere.count(service) > 0) continue;
    if (grid.containers().empty()) break;
    const auto index = rng.next_below(grid.containers().size());
    grid.find_container(grid.containers()[index]->id())->host_service(service);
  }
  // Inter-domain WAN links are slower than the intra-domain default.
  const auto domains = grid.domains();
  for (std::size_t i = 0; i < domains.size(); ++i) {
    for (std::size_t j = i + 1; j < domains.size(); ++j) {
      LinkSpec link;
      link.latency_s = rng.next_double(0.02, 0.2);
      link.bandwidth_mb_s = rng.next_double(5.0, 50.0);
      grid.network().set_link(domains[i], domains[j], link);
    }
  }
}

}  // namespace ig::grid
