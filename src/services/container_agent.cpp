#include "services/container_agent.hpp"

#include "services/protocol.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

void ContainerAgent::on_start() {
  const grid::ApplicationContainer* container = grid_->find_container(container_id_);
  if (container == nullptr) return;

  AclMessage registration;
  registration.performative = Performative::Request;
  registration.receiver = names::kInformation;
  registration.protocol = protocols::kRegister;
  registration.params["type"] = "application-container";
  send(std::move(registration));

  AclMessage advertisement;
  advertisement.performative = Performative::Inform;
  advertisement.receiver = names::kBrokerage;
  advertisement.protocol = protocols::kAdvertise;
  advertisement.params["container"] = container_id_;
  advertisement.params["services"] = util::join(container->hosted_services(), ",");
  send(std::move(advertisement));

  if (heartbeat_period_ > 0) emit_heartbeat();
}

void ContainerAgent::emit_heartbeat() {
  // Crashed/hung agents keep running this loop — the chaos layer swallows
  // their sends — so beats resume by themselves once the agent is revived
  // and the monitor counts the recovery.
  if (platform().has_agent(names::kMonitoring)) {
    AclMessage beat;
    beat.performative = Performative::Inform;
    beat.receiver = names::kMonitoring;
    beat.protocol = protocols::kHeartbeat;
    beat.params["container"] = container_id_;
    send(std::move(beat));
  }
  schedule_daemon(heartbeat_period_, [this] { emit_heartbeat(); });
}

void ContainerAgent::handle_message(const AclMessage& message) {
  if (message.protocol == protocols::kExecuteActivity) return handle_execute(message);
  if (message.protocol == protocols::kQueryExecutable) return handle_query_executable(message);
  // Registration acknowledgements and bounced messages need no action.
  if (message.performative == Performative::Agree ||
      message.performative == Performative::Failure)
    return;
  send(make_not_understood(message, "unknown protocol '" + message.protocol + "'"));
}

void ContainerAgent::report_performance(const std::string& outcome, double duration) {
  AclMessage report;
  report.performative = Performative::Inform;
  report.receiver = names::kBrokerage;
  report.protocol = protocols::kReportPerformance;
  report.params["container"] = container_id_;
  report.params["outcome"] = outcome;
  report.params["duration"] = util::format_number(duration, 6);
  send(std::move(report));
}

void ContainerAgent::handle_execute(const AclMessage& message) {
  const std::string service_name = message.param("service");
  const std::string activity_id = message.param("activity");
  auto fail = [&](const std::string& reason) {
    AclMessage reply = message.make_reply(Performative::Failure);
    reply.params["error"] = reason;
    reply.params["activity"] = activity_id;
    reply.params["container"] = container_id_;
    send(std::move(reply));
    report_performance("failure", 0.0);
  };

  const grid::ApplicationContainer* container = grid_->find_container(container_id_);
  if (container == nullptr) return fail("container vanished");
  if (!container->hosts(service_name)) return fail("service not hosted here");
  const wfl::ServiceType* service = catalogue_->find(service_name);
  if (service == nullptr) return fail("unknown service type '" + service_name + "'");

  // Bind the shipped data set against the service precondition; a request
  // without one binds the empty set, which fails it.
  const wfl::DataSet no_data;
  const wfl::DataSet& inputs = message.data != nullptr ? *message.data : no_data;
  auto bindings = service->bind_inputs(inputs);
  if (!bindings.has_value()) return fail("precondition not met by supplied data");

  double input_size_mb = 0.0;
  for (const auto& item : inputs.items()) {
    const meta::Value& size = item.get(wfl::props::kSize);
    if (size.type() == meta::ValueType::Number) input_size_mb += size.as_number();
  }

  const grid::SimTime started = now();
  const grid::ExecutionResult result = grid_->execute(
      *gsim_, *injector_, *service, container_id_, input_size_mb, message.param("domain", ""));
  if (!result.success) {
    // Failures surface after the wasted attempt time.
    const grid::SimTime delay =
        result.completion_time > started ? result.completion_time - started : 0.0;
    AclMessage reply = message.make_reply(Performative::Failure);
    reply.params["error"] = result.failure_reason;
    reply.params["activity"] = activity_id;
    reply.params["container"] = container_id_;
    schedule(delay, [this, reply]() mutable { send(std::move(reply)); });
    report_performance("failure", 0.0);
    return;
  }

  // Success: produce outputs and reply at the virtual completion time.
  const std::vector<std::string> output_names =
      util::split_trimmed(message.param("outputs"), ',');
  wfl::DataSet produced;
  for (auto& item : kernels_->execute(*service, *bindings, output_names))
    produced.put(std::move(item));

  const grid::SimTime duration = result.completion_time - started;
  AclMessage reply = message.make_reply(Performative::Inform);
  reply.params["activity"] = activity_id;
  reply.params["container"] = container_id_;
  reply.params["duration"] = util::format_number(duration, 6);
  reply.params["cost"] = util::format_number(service->cost() * container->price_factor(), 6);
  reply.data = std::make_shared<const wfl::DataSet>(std::move(produced));
  schedule(duration, [this, reply]() mutable { send(std::move(reply)); });
  report_performance("success", duration);
}

void ContainerAgent::handle_query_executable(const AclMessage& message) {
  const std::string service_name = message.param("service");
  const grid::ApplicationContainer* container = grid_->find_container(container_id_);
  const grid::GridNode* node =
      container != nullptr ? grid_->find_node(container->node_id()) : nullptr;
  const bool executable = container != nullptr && container->available() &&
                          container->hosts(service_name) && node != nullptr && node->is_up();
  AclMessage reply = message.make_reply(Performative::Inform);
  reply.params["service"] = service_name;
  reply.params["container"] = container_id_;
  reply.params["executable"] = executable ? "true" : "false";
  send(std::move(reply));
}

}  // namespace ig::svc
