// Grid nodes: autonomous resources in administrative domains.
//
// "The system consists of autonomous nodes in different administrative
// domains" — each node carries hardware/software metadata (for brokerage and
// matchmaking), a reliability figure (for the failure model), and a simple
// FIFO execution queue (tasks dispatched to a busy node wait).
#pragma once

#include <string>
#include <vector>

#include "grid/hardware.hpp"
#include "grid/sim.hpp"

namespace ig::grid {

enum class NodeState { Up, Down };

/// One resource (the Resource frame of Figure 12).
class GridNode {
 public:
  GridNode(std::string id, std::string name, std::string domain, HardwareSpec hardware)
      : id_(std::move(id)),
        name_(std::move(name)),
        domain_(std::move(domain)),
        hardware_(std::move(hardware)) {}

  const std::string& id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  const std::string& domain() const noexcept { return domain_; }

  const HardwareSpec& hardware() const noexcept { return hardware_; }
  HardwareSpec& hardware() noexcept { return hardware_; }

  const std::vector<SoftwareSpec>& software() const noexcept { return software_; }
  void install(SoftwareSpec software) { software_.push_back(std::move(software)); }

  NodeState state() const noexcept { return runtime_.state; }
  void set_state(NodeState state) noexcept { runtime_.state = state; }
  bool is_up() const noexcept { return runtime_.state == NodeState::Up; }

  /// Probability that a task dispatched here completes without node failure.
  double reliability() const noexcept { return reliability_; }
  void set_reliability(double reliability) noexcept { reliability_ = reliability; }

  /// Number of nodes in the cluster (parallelism available on this resource).
  int node_count() const noexcept { return node_count_; }
  void set_node_count(int count) noexcept { node_count_ = count; }

  // -- execution-queue bookkeeping -------------------------------------------
  /// Virtual time at which the node becomes free for new work.
  SimTime next_free() const noexcept { return runtime_.next_free; }

  /// Duration of `work` abstract operations on this node.
  SimTime execution_time(double work) const noexcept {
    const double effective_speed = hardware_.speed * static_cast<double>(node_count_);
    return effective_speed > 0 ? work / effective_speed : work;
  }

  /// Reserves the node for a task of the given work, starting no earlier
  /// than `now`; returns the completion time.
  SimTime enqueue_work(SimTime now, double work);

  /// Accumulated busy virtual seconds (for utilization reports).
  SimTime busy_time() const noexcept { return runtime_.busy_time; }
  std::size_t completed_tasks() const noexcept { return runtime_.completed_tasks; }

  /// Up/down and the execution queue, as one value a long-lived grid saves
  /// and restores (Grid::save_pristine / Grid::reset).
  struct Runtime {
    NodeState state = NodeState::Up;
    SimTime next_free = 0.0;
    SimTime busy_time = 0.0;
    std::size_t completed_tasks = 0;
  };
  const Runtime& runtime() const noexcept { return runtime_; }
  void set_runtime(const Runtime& runtime) noexcept { runtime_ = runtime; }

  std::string to_display_string() const;

 private:
  std::string id_;
  std::string name_;
  std::string domain_;
  HardwareSpec hardware_;
  std::vector<SoftwareSpec> software_;
  double reliability_ = 1.0;
  int node_count_ = 1;
  Runtime runtime_;
};

}  // namespace ig::grid
