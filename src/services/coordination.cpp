#include "services/coordination.hpp"

#include <algorithm>
#include <memory>

#include "services/protocol.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

void CoordinationService::on_start() {
  register_with_information_service(*this, platform(), "coordination");
  tracker_.bind(
      sim(), [this](AclMessage message) { send(std::move(message)); },
      [this](const DeadLetter& letter) { on_dead_letter(letter); });
}

std::vector<std::string> CoordinationService::split_conversation(
    const std::string& conversation_id) {
  return util::split(conversation_id, '/');
}

CoordinationService::Enactment* CoordinationService::find_enactment(const std::string& id) {
  auto it = enactments_.find(id);
  return it != enactments_.end() ? &it->second : nullptr;
}

std::size_t CoordinationService::finished_enactment_count() const {
  return static_cast<std::size_t>(
      std::count_if(enactments_.begin(), enactments_.end(),
                    [](const auto& entry) { return entry.second.finished; }));
}

void CoordinationService::reset(std::uint64_t attempt_seed) {
  enactments_.clear();
  next_enactment_ = 1;
  tracker_.reset(util::derive_stream(attempt_seed, kTrackerStream));
}

std::size_t CoordinationService::release_finished() {
  return static_cast<std::size_t>(
      std::erase_if(enactments_, [](const auto& entry) { return entry.second.finished; }));
}

void CoordinationService::handle_message(const AclMessage& message) {
  if (message.protocol == protocols::kEnactCase) return handle_enact(message);
  if (message.protocol == protocols::kCheckpointCase) return handle_checkpoint(message);
  if (message.protocol == protocols::kRestoreCase) return handle_restore(message);

  const auto parts = split_conversation(message.conversation_id);
  if (parts.size() >= 2 && find_enactment(parts[0]) != nullptr) {
    if (parts[1] == "match") return handle_match_reply(message);
    if (parts[1] == "exec") return handle_execution_reply(message);
    if (parts[1] == "replan") return handle_plan_reply(message);
  }
  if (!should_bounce_unknown(message)) return;
  send(make_not_understood(message, "unknown protocol '" + message.protocol + "'"));
}

CoordinationService::Enactment::Enactment(CoordinationService& service,
                                          std::string enactment_id)
    : id(std::move(enactment_id)),
      atn({.ready = [&service, this](const wfl::Activity& activity) {
             service.dispatch(*this, activity);
           },
           .end = [&service, this] { service.reach_end(*this); },
           .fail = [&service, this](const std::string& error) {
             service.finish(*this, false, error);
           }},
          service.config_.max_loop_iterations) {}

CoordinationService::Enactment& CoordinationService::open_enactment(const AclMessage& message) {
  std::string id = "case-" + std::to_string(next_enactment_++);
  Enactment& enactment = enactments_.try_emplace(id, *this, id).first->second;
  enactment.original = message;
  enactment.started = now();
  return enactment;
}

void CoordinationService::load_plan(Enactment& enactment, wfl::ProcessDescription process) {
  const std::string error = enactment.atn.load(std::move(process));
  if (!error.empty()) throw wfl::ProcessError(error);
}

void CoordinationService::open_case_span(Enactment& enactment) {
  if (tracer_ != nullptr) {
    enactment.case_span = tracer_->begin(obs::SpanKind::Case, enactment.atn.process().name(),
                                         enactment.id, 0, now());
  }
  enactment.atn.trace_to(tracer_, enactment.id, enactment.case_span);
}

void CoordinationService::handle_enact(const AclMessage& message) {
  Enactment& enactment = open_enactment(message);
  try {
    wfl::ProcessDescription process = wfl::process_from_xml_string(message.content);
    if (message.has_param("case-xml"))
      enactment.case_description = wfl::case_from_xml_string(message.param("case-xml"));
    load_plan(enactment, std::move(process));
  } catch (const std::exception& error) {
    AclMessage reply = message.make_reply(Performative::Failure);
    reply.params["error"] = error.what();
    send(std::move(reply));
    enactments_.erase(enactment.id);
    return;
  }
  enactment.data = enactment.case_description.initial_data();
  open_case_span(enactment);
  IG_LOG_DEBUG("cs") << "enacting " << enactment.atn.process().name() << " as " << enactment.id;
  start_enactment(enactment);
}

void CoordinationService::handle_checkpoint(const AclMessage& message) {
  Enactment* enactment = find_enactment(message.param("case"));
  if (enactment == nullptr) {
    AclMessage reply = message.make_reply(Performative::Failure);
    reply.params["error"] = "unknown case '" + message.param("case") + "'";
    send(std::move(reply));
    return;
  }
  xml::Document document("checkpoint");
  xml::Element& root = document.root();
  root.set_attribute("case", enactment->id);
  const wfl::ProcessDescription& process = enactment->atn.process();
  root.add_child("process-xml").set_text(wfl::process_to_xml_string(process));
  root.add_child("case-xml")
      .set_text(wfl::case_to_xml_string(enactment->case_description));
  root.add_child("dataset-xml").set_text(wfl::dataset_to_xml_string(enactment->data));
  xml::Element& completions = root.add_child("completions");
  for (const auto& [activity_id, count] : enactment->atn.completions()) {
    const wfl::Activity* activity = process.find_activity(activity_id);
    // Only end-user completions are credited on restore; flow-control
    // token state is reconstructed by the replay walk itself.
    if (activity == nullptr || activity->kind != wfl::ActivityKind::EndUser) continue;
    if (count <= 0) continue;
    xml::Element& node = completions.add_child("completed");
    node.set_attribute("activity", activity_id);
    node.set_attribute("count", std::to_string(count));
  }
  root.set_attribute("replans", std::to_string(enactment->replans));
  root.set_attribute("activities-executed", std::to_string(enactment->activities_executed));

  AclMessage reply = message.make_reply(Performative::Inform);
  reply.params["case"] = enactment->id;
  reply.content = document.to_string();
  send(std::move(reply));
}

void CoordinationService::handle_restore(const AclMessage& message) {
  Enactment& enactment = open_enactment(message);
  try {
    const xml::Document document = xml::parse(message.content);
    const xml::Element& root = document.root();
    if (root.name() != "checkpoint") throw wfl::ProcessError("not a checkpoint document");
    wfl::ProcessDescription process = wfl::process_from_xml_string(root.child_text("process-xml"));
    enactment.case_description = wfl::case_from_xml_string(root.child_text("case-xml"));
    enactment.data = wfl::dataset_from_xml_string(root.child_text("dataset-xml"));
    const xml::Element* completions = root.find_child("completions");
    if (completions != nullptr) {
      for (const auto* node : completions->find_children("completed")) {
        const auto count = util::parse_int(node->attribute_or("count", "0"));
        if (!count.has_value())
          throw wfl::ProcessError("completed count '" + node->attribute_or("count", "") +
                                  "' is not an integer");
        enactment.replay_credits[node->attribute_or("activity", "")] = *count;
      }
    }
    const auto replans = util::parse_int(root.attribute_or("replans", "0"));
    if (!replans.has_value())
      throw wfl::ProcessError("replans attribute '" + root.attribute_or("replans", "") +
                              "' is not an integer");
    enactment.replans = *replans;
    // Retry hook for the enactment engine: a checkpoint captured after a
    // failure carries the spent re-planning budget; a supervised retry on a
    // fresh shard asks for the budget back.
    if (message.param_bool("reset-replans", false)) enactment.replans = 0;
    load_plan(enactment, std::move(process));
  } catch (const std::exception& error) {
    AclMessage reply = message.make_reply(Performative::Failure);
    reply.params["error"] = std::string("bad checkpoint: ") + error.what();
    send(std::move(reply));
    enactments_.erase(enactment.id);
    return;
  }
  open_case_span(enactment);
  if (tracer_ != nullptr) tracer_->tag(enactment.case_span, "restored", "true");
  IG_LOG_DEBUG("cs") << "restoring checkpointed case as " << enactment.id;
  start_enactment(enactment);
}

void CoordinationService::start_enactment(Enactment& enactment) {
  ++enactment.epoch;
  // Work of the superseded plan stops here; its spans close as such.
  close_activity_spans(enactment, "superseded");
  // Conversations of the superseded epoch must not retry or dead-letter.
  tracker_.abandon_prefix(enactment.id + "/");
  enactment.retries.clear();
  enactment.atn.start(enactment.data, now());
}

void CoordinationService::reach_end(Enactment& enactment) {
  // Reaching End only succeeds when the case's goals are met; otherwise
  // the coordinator escalates to re-planning (or fails once the budget is
  // exhausted) instead of reporting a hollow success.
  const double satisfaction = enactment.case_description.goal_satisfaction(enactment.data);
  if (satisfaction >= 1.0) return finish(enactment, true, "");
  if (enactment.replans < config_.max_replans) return request_replanning(enactment, "");
  finish(enactment, false, "plan completed without satisfying the case goals");
}

void CoordinationService::dispatch(Enactment& enactment, const wfl::Activity& activity) {
  // Restore replay: a credited activity already ran before the checkpoint;
  // its outputs are in the data snapshot, so it completes without dispatch.
  auto credit = enactment.replay_credits.find(activity.id);
  if (credit != enactment.replay_credits.end() && credit->second > 0) {
    --credit->second;
    ++enactment.activities_replayed;
    if (tracer_ != nullptr) {
      const obs::SpanId replay = tracer_->instant(
          obs::SpanKind::Activity, activity.name, enactment.id, enactment.case_span, now());
      tracer_->tag(replay, "status", "replayed");
    }
    return enactment.atn.complete(activity.id, enactment.data, now());
  }
  // One Activity span covers all container attempts of one dispatch: a
  // retry tags the open span instead of opening a second one.
  if (tracer_ != nullptr && enactment.activity_spans.count(activity.id) == 0) {
    const obs::SpanId span = tracer_->begin(obs::SpanKind::Activity, activity.name,
                                            enactment.id, enactment.case_span, now());
    tracer_->tag(span, "service", activity.service_name);
    enactment.activity_spans[activity.id] = span;
  }
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kMatchmaking;
  query.protocol = protocols::kFindContainer;
  query.conversation_id =
      enactment.id + "/match/" + activity.id + "/" + std::to_string(enactment.epoch);
  query.params["service"] = activity.service_name;
  query.params["strategy"] = config_.match_strategy;
  query.params["exclude"] =
      util::join(enactment.excluded_containers[activity.id], ",");
  tracker_.track(std::move(query), config_.match_policy);
}

void CoordinationService::handle_match_reply(const AclMessage& message) {
  // Late or duplicated replies (a retry raced the original, or the chaos
  // layer duplicated the message) must not drive the machine twice.
  if (!tracker_.settle(message.conversation_id)) return;
  const auto parts = split_conversation(message.conversation_id);
  Enactment* enactment = find_enactment(parts[0]);
  if (enactment == nullptr || enactment->finished) return;
  // Replies carrying a stale (or unparseable) epoch belong to a superseded
  // plan or a mangled conversation id: drop them.
  if (parts.size() > 3 && util::parse_int(parts[3]) != std::optional<int>(enactment->epoch))
    return;
  const std::string activity_id = parts.size() > 2 ? parts[2] : "";
  const wfl::Activity* activity = enactment->atn.process().find_activity(activity_id);
  if (activity == nullptr) return;

  if (message.performative != Performative::Inform) {
    // No container can host the service at all: go straight to re-planning.
    ++enactment->dispatch_failures;
    if (tracer_ != nullptr) {
      auto span = enactment->activity_spans.find(activity_id);
      if (span != enactment->activity_spans.end()) {
        tracer_->tag(span->second, "status", "failed");
        tracer_->tag(span->second, "fault", "no container offered");
        tracer_->end(span->second, now());
        enactment->activity_spans.erase(span);
      }
    }
    return request_replanning(*enactment, activity->service_name);
  }

  AclMessage execute;
  execute.performative = Performative::Request;
  execute.receiver = message.param("container");
  execute.protocol = protocols::kExecuteActivity;
  execute.conversation_id =
      enactment->id + "/exec/" + activity_id + "/" + std::to_string(enactment->epoch);
  execute.params["service"] = activity->service_name;
  execute.params["activity"] = activity_id;
  execute.params["outputs"] = util::join(activity->output_data, ",");
  // Ship a snapshot of the whole current data set; the container binds the
  // precondition and sizes the transfer from every item.
  execute.data = std::make_shared<const wfl::DataSet>(enactment->data);
  tracker_.track(std::move(execute), config_.exec_policy);
}

void CoordinationService::handle_execution_reply(const AclMessage& message) {
  if (!tracker_.settle(message.conversation_id)) return;
  const auto parts = split_conversation(message.conversation_id);
  Enactment* enactment = find_enactment(parts[0]);
  if (enactment == nullptr || enactment->finished) return;
  // Replies carrying a stale (or unparseable) epoch belong to a superseded
  // plan or a mangled conversation id: drop them.
  if (parts.size() > 3 && util::parse_int(parts[3]) != std::optional<int>(enactment->epoch))
    return;
  const std::string activity_id = parts.size() > 2 ? parts[2] : "";

  if (message.performative == Performative::Failure) {
    // Platform-level containment failures carry no 'container' param; the
    // sender is the container that blew up, so it still gets excluded.
    return handle_dispatch_failure(*enactment, activity_id,
                                   message.param("container", message.sender),
                                   message.param("error"));
  }
  if (message.performative != Performative::Inform) return;

  // Merge produced data into the case's world state.
  if (message.data == nullptr)
    return handle_dispatch_failure(*enactment, activity_id, message.param("container"),
                                   "bad result payload: no data set");
  for (const auto& item : message.data->items()) enactment->data.put(item);
  enactment->retries[activity_id] = 0;
  ++enactment->activities_executed;
  enactment->total_cost += message.param_double("cost", 0.0);
  if (tracer_ != nullptr) {
    auto span = enactment->activity_spans.find(activity_id);
    if (span != enactment->activity_spans.end()) {
      tracer_->tag(span->second, "status", "ok");
      tracer_->tag(span->second, "container", message.param("container", message.sender));
      tracer_->end(span->second, now());
      enactment->activity_spans.erase(span);
    }
  }
  enactment->atn.complete(activity_id, enactment->data, now());
}

void CoordinationService::handle_dispatch_failure(Enactment& enactment,
                                                  const std::string& activity_id,
                                                  const std::string& container,
                                                  const std::string& reason) {
  ++enactment.dispatch_failures;
  const wfl::Activity* activity = enactment.atn.process().find_activity(activity_id);
  if (activity == nullptr) return;
  IG_LOG_DEBUG("cs") << activity->name << " failed on " << container << ": " << reason;

  // A container that failed this activity is excluded from the retry
  // (Figure 3's excluded-runner discipline), unless the data itself was the
  // problem — then another container would fail identically.
  const bool data_problem = reason.find("precondition") != std::string::npos;
  if (!container.empty() && !data_problem)
    enactment.excluded_containers[activity_id].push_back(container);

  int& attempts = enactment.retries[activity_id];
  ++attempts;
  if (tracer_ != nullptr) {
    auto span = enactment.activity_spans.find(activity_id);
    if (span != enactment.activity_spans.end()) {
      tracer_->tag(span->second, "retry", std::to_string(attempts));
      tracer_->tag(span->second, "fault", reason);
    }
  }
  if (!data_problem && attempts <= config_.max_retries) {
    return dispatch(enactment, *activity);  // try the next-best container
  }
  if (tracer_ != nullptr) {
    auto span = enactment.activity_spans.find(activity_id);
    if (span != enactment.activity_spans.end()) {
      tracer_->tag(span->second, "status", "failed");
      tracer_->end(span->second, now());
      enactment.activity_spans.erase(span);
    }
  }
  request_replanning(enactment, activity->service_name);
}

void CoordinationService::request_replanning(Enactment& enactment,
                                             const std::string& failed_service) {
  if (enactment.awaiting_plan) return;
  if (enactment.replans >= config_.max_replans)
    return finish(enactment, false,
                  "re-planning budget exhausted after failure of '" + failed_service + "'");
  ++enactment.replans;
  ++replans_triggered_;
  enactment.awaiting_plan = true;
  if (tracer_ != nullptr) {
    tracer_->tag(enactment.case_span, "replan", std::to_string(enactment.replans));
    if (!failed_service.empty())
      tracer_->tag(enactment.case_span, "replan-cause", failed_service);
  }

  // Ship all available data: initial + everything created so far.
  wfl::CaseDescription current = enactment.case_description;
  current.initial_data() = enactment.data;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kPlanning;
  request.protocol = protocols::kReplanRequest;
  request.conversation_id = enactment.id + "/replan";
  request.params["failed-services"] = failed_service;
  request.params["probe"] = "true";
  request.content = wfl::case_to_xml_string(current);
  tracker_.track(std::move(request), config_.replan_policy);
}

void CoordinationService::handle_plan_reply(const AclMessage& message) {
  if (!tracker_.settle(message.conversation_id)) return;
  const auto parts = split_conversation(message.conversation_id);
  Enactment* enactment = find_enactment(parts[0]);
  if (enactment == nullptr || enactment->finished) return;
  enactment->awaiting_plan = false;

  if (message.performative != Performative::Inform) {
    return finish(*enactment, false, "re-planning failed: " + message.param("error"));
  }
  try {
    load_plan(*enactment, wfl::process_from_xml_string(message.content));
  } catch (const std::exception& error) {
    return finish(*enactment, false, std::string("bad re-plan payload: ") + error.what());
  }
  IG_LOG_DEBUG("cs") << enactment->id << " restarting on new plan '"
                     << enactment->atn.process().name() << "'";
  start_enactment(*enactment);
}

void CoordinationService::on_dead_letter(const DeadLetter& letter) {
  const auto parts = split_conversation(letter.conversation_id);
  Enactment* enactment = parts.empty() ? nullptr : find_enactment(parts[0]);
  if (enactment == nullptr || enactment->finished) return;
  const std::string kind = parts.size() > 1 ? parts[1] : "";
  const std::string activity_id = parts.size() > 2 ? parts[2] : "";
  if (parts.size() > 3 && util::parse_int(parts[3]) != std::optional<int>(enactment->epoch))
    return;

  if (kind == "exec") {
    // The container (or the path to it) is gone: exclude it and escalate
    // through the normal dispatch-failure ladder.
    return handle_dispatch_failure(*enactment, activity_id, letter.receiver, letter.reason);
  }
  if (kind == "match") {
    // The matchmaking service itself is unreachable; re-planning is the
    // only lever left.
    ++enactment->dispatch_failures;
    const wfl::Activity* activity = enactment->atn.process().find_activity(activity_id);
    return request_replanning(*enactment,
                              activity != nullptr ? activity->service_name : activity_id);
  }
  if (kind == "replan") {
    enactment->awaiting_plan = false;
    return finish(*enactment, false, "re-planning request timed out: " + letter.reason);
  }
}

void CoordinationService::close_activity_spans(Enactment& enactment, const std::string& status) {
  if (tracer_ == nullptr) return;
  for (const auto& [id, span] : enactment.activity_spans) {
    tracer_->tag(span, "status", status);
    tracer_->end(span, now());
  }
  enactment.activity_spans.clear();
}

void CoordinationService::finish(Enactment& enactment, bool success, const std::string& reason) {
  if (enactment.finished) return;
  enactment.finished = true;
  // Outstanding conversations of a finished case must not retry into the
  // void (or keep the calendar alive until their deadlines).
  tracker_.abandon_prefix(enactment.id + "/");
  close_activity_spans(enactment, success ? "ok" : "aborted");
  enactment.atn.stop(success ? "ok" : "aborted", now());
  if (tracer_ != nullptr && enactment.case_span != 0) {
    tracer_->tag(enactment.case_span, "success", success ? "true" : "false");
    tracer_->tag(enactment.case_span, "replans", std::to_string(enactment.replans));
    if (!reason.empty()) tracer_->tag(enactment.case_span, "error", reason);
    tracer_->end(enactment.case_span, now());
  }
  if (success) ++cases_completed_;
  else ++cases_failed_;

  AclMessage reply = enactment.original.make_reply(success ? Performative::Inform
                                                           : Performative::Failure);
  reply.protocol = protocols::kCaseCompleted;
  reply.params["case"] = enactment.id;
  reply.params["success"] = success ? "true" : "false";
  if (!reason.empty()) reply.params["error"] = reason;
  reply.params["makespan"] = util::format_number(now() - enactment.started, 6);
  reply.params["activities-executed"] = std::to_string(enactment.activities_executed);
  reply.params["activities-replayed"] = std::to_string(enactment.activities_replayed);
  reply.params["total-cost"] = util::format_number(enactment.total_cost, 6);
  reply.params["dispatch-failures"] = std::to_string(enactment.dispatch_failures);
  reply.params["replans"] = std::to_string(enactment.replans);
  // Goal check against the final state.
  reply.params["goal-satisfaction"] = util::format_number(
      enactment.case_description.goal_satisfaction(enactment.data), 4);
  // The final data set travels typed, as a shared snapshot (the enactment
  // itself may still be checkpointed before it is released).
  reply.data = std::make_shared<const wfl::DataSet>(enactment.data);
  send(std::move(reply));
}

}  // namespace ig::svc
