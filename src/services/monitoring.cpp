#include "services/monitoring.hpp"

#include "services/protocol.hpp"
#include "util/strings.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

const char* to_string(Liveness liveness) noexcept {
  switch (liveness) {
    case Liveness::Unknown: return "unknown";
    case Liveness::Alive: return "alive";
    case Liveness::Suspect: return "suspect";
    case Liveness::Dead: return "dead";
  }
  return "unknown";
}

void MonitoringService::on_start() {
  register_with_information_service(*this, platform(), "monitoring");
  if (sample_period_ > 0) sample();
}

void MonitoringService::save_pristine() {
  pristine_beats_ = beats_;
  pristine_next_probe_ = next_probe_;
}

void MonitoringService::reset(std::uint64_t) {
  beats_ = pristine_beats_;
  next_probe_ = pristine_next_probe_;
}

void MonitoringService::sample() {
  const grid::SimTime elapsed = now() > 0 ? now() : 1.0;
  for (const auto& node : grid_->nodes()) {
    auto& series = samples_[node->id()];
    series.push_back(node->busy_time() / elapsed);
    if (max_samples_ > 0 && series.size() > max_samples_)
      series.erase(series.begin());
  }
  // A daemon event: sampling runs for as long as real work keeps the
  // calendar alive, and never keeps it alive by itself.
  schedule_daemon(sample_period_, [this] { sample(); });
}

void MonitoringService::set_max_samples(std::size_t limit) {
  max_samples_ = limit;
  if (max_samples_ == 0) return;
  for (auto& [node_id, series] : samples_) {
    if (series.size() > max_samples_)
      series.erase(series.begin(),
                   series.begin() + static_cast<std::ptrdiff_t>(series.size() - max_samples_));
  }
}

Liveness MonitoringService::classify(const Beat& beat) {
  const double missed = (now() - beat.last_seen) / std::max(heartbeat_.period, 1e-9);
  if (missed >= heartbeat_.dead_missed) return Liveness::Dead;
  if (missed >= heartbeat_.suspect_missed) return Liveness::Suspect;
  return Liveness::Alive;
}

void MonitoringService::record_heartbeat(const std::string& container_id) {
  if (container_id.empty()) return;
  heartbeats_received_.inc();
  auto it = beats_.find(container_id);
  if (it == beats_.end()) {
    beats_[container_id].last_seen = now();
    return;
  }
  // A beat after a Dead-length silence is a recovery: the breaker closes.
  if (classify(it->second) == Liveness::Dead)
    containers_recovered_.inc();
  it->second.last_seen = now();
}

Liveness MonitoringService::liveness_of(const std::string& container_id) {
  auto it = beats_.find(container_id);
  if (it == beats_.end()) return Liveness::Unknown;
  const Liveness liveness = classify(it->second);
  if (liveness == Liveness::Dead &&
      now() - it->second.last_probe >= heartbeat_.probe_interval) {
    // Half-open probe: give the quarantined container a bounded chance to
    // prove it recovered. Its reply (or a resumed heartbeat) readmits it.
    it->second.last_probe = now();
    AclMessage probe;
    probe.performative = Performative::QueryIf;
    probe.receiver = container_id;
    probe.protocol = protocols::kQueryExecutable;
    probe.conversation_id = name() + "/probe/" + std::to_string(next_probe_++);
    probe.params["service"] = "";
    send(std::move(probe));
  }
  return liveness;
}

std::vector<std::string> MonitoringService::dead_containers() {
  std::vector<std::string> dead;
  for (const auto& [container_id, beat] : beats_) {
    if (classify(beat) == Liveness::Dead) dead.push_back(container_id);
  }
  return dead;
}

void MonitoringService::handle_message(const AclMessage& message) {
  if (message.protocol == protocols::kHeartbeat) {
    return record_heartbeat(message.param("container", message.sender));
  }
  if (message.protocol == protocols::kQueryExecutable) {
    // Reply to one of our half-open probes: the container is answering
    // messages again, which counts as a sign of life.
    if (message.performative == Performative::Inform)
      record_heartbeat(message.param("container", message.sender));
    return;
  }
  if (message.protocol != protocols::kQueryStatus) {
    if (!should_bounce_unknown(message)) return;
    send(make_not_understood(message, "unknown protocol '" + message.protocol + "'"));
    return;
  }
  AclMessage reply = message.make_reply(Performative::Inform);
  if (message.has_param("node")) {
    const std::string node_id = message.param("node");
    const grid::GridNode* node = grid_->find_node(node_id);
    reply.params["node"] = node_id;
    if (node == nullptr) {
      reply.performative = Performative::Failure;
      reply.params["error"] = "unknown node";
    } else {
      reply.params["state"] = node->is_up() ? "up" : "down";
      reply.params["next-free"] = util::format_number(node->next_free(), 4);
      reply.params["busy-time"] = util::format_number(node->busy_time(), 4);
      reply.params["completed-tasks"] = std::to_string(node->completed_tasks());
    }
  } else if (message.has_param("container")) {
    const std::string container_id = message.param("container");
    const grid::ApplicationContainer* container = grid_->find_container(container_id);
    reply.params["container"] = container_id;
    if (container == nullptr) {
      reply.performative = Performative::Failure;
      reply.params["error"] = "unknown container";
    } else {
      const grid::GridNode* node = grid_->find_node(container->node_id());
      const bool usable = container->available() && node != nullptr && node->is_up();
      reply.params["available"] = usable ? "true" : "false";
      reply.params["dispatches"] = std::to_string(container->dispatch_count());
      reply.params["failures"] = std::to_string(container->failure_count());
      reply.params["liveness"] = to_string(liveness_of(container_id));
    }
  } else {
    reply.params["nodes"] = std::to_string(grid_->nodes().size());
    reply.params["containers"] = std::to_string(grid_->containers().size());
    reply.params["heartbeats"] = std::to_string(heartbeats_received());
    reply.params["dead-containers"] = std::to_string(dead_containers().size());
  }
  send(std::move(reply));
}

}  // namespace ig::svc
