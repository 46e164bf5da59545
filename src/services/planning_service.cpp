#include "services/planning_service.hpp"

#include "planner/convert.hpp"
#include "services/protocol.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

void PlanningService::on_start() {
  register_with_information_service(*this, platform(), "planning");
  tracker_.bind(
      sim(), [this](AclMessage message) { send(std::move(message)); },
      [this](const DeadLetter& letter) { on_dead_letter(letter); });
}

void PlanningService::reset(std::uint64_t attempt_seed) {
  sessions_.clear();
  next_session_ = 1;
  tracker_.reset(util::derive_stream(attempt_seed, kTrackerStream));
  episode_seed_ = util::derive_stream(attempt_seed, kEpisodeStream, gp_config_.seed);
  episodes_ = 0;
}

std::string PlanningService::session_of(const std::string& conversation_id) {
  const auto slash = conversation_id.find('/');
  return slash == std::string::npos ? conversation_id : conversation_id.substr(0, slash);
}

void PlanningService::handle_message(const AclMessage& message) {
  if (message.protocol == protocols::kPlanRequest) return handle_plan_request(message);
  if (message.protocol == protocols::kReplanRequest) return handle_replan_request(message);
  // Replies to probe queries are routed on Failure as well as Inform: a
  // broken information service / brokerage / container must still decrement
  // the session's pending counters, or the re-planning session stalls
  // forever (it simply contributes no providers / no executable services).
  const bool probe_reply = message.performative == Performative::Inform ||
                           message.performative == Performative::Failure;
  if (message.protocol == protocols::kQueryService && probe_reply)
    return handle_information_reply(message);
  if (message.protocol == protocols::kQueryProviders && probe_reply)
    return handle_provider_reply(message);
  if (message.protocol == protocols::kQueryExecutable && probe_reply)
    return handle_probe_reply(message);
  if (!should_bounce_unknown(message)) return;
  send(make_not_understood(message, "unknown protocol '" + message.protocol + "'"));
}

void PlanningService::plan_and_reply(const AclMessage& request,
                                     const wfl::ServiceCatalogue& catalogue) {
  AclMessage reply = request.make_reply(Performative::Inform);
  try {
    const wfl::CaseDescription case_description = wfl::case_from_xml_string(request.content);
    planner::PlanningProblem problem =
        planner::PlanningProblem::from_case(case_description, catalogue);

    planner::GpConfig config = gp_config_;
    // Each planning episode explores from a different (still deterministic)
    // seed, so a re-planning retry does not just reproduce the failed plan.
    config.seed = episode_seed_.value_or(gp_config_.seed) + episodes_ * 7919;
    if (request.has_param("seed")) {
      const auto seed = request.param_uint("seed");
      if (!seed.has_value()) {
        send(make_not_understood(request, request.describe_bad_param("seed", "uint")));
        return;
      }
      config.seed = *seed;
    }

    // GP is stochastic: when a run falls short of full goal fitness, retry
    // with fresh seeds before settling for the best attempt.
    planner::GpResult result = planner::run_gp(problem, config);
    for (int attempt = 1; attempt < 3 && result.best_fitness.goal < 1.0; ++attempt) {
      config.seed = config.seed * 6364136223846793005ULL + 1442695040888963407ULL;
      planner::GpResult retry = planner::run_gp(problem, config);
      if (retry.best_fitness.overall > result.best_fitness.overall) result = std::move(retry);
      if (result.best_fitness.goal >= 1.0) break;
    }

    std::string plan_name = case_description.process_name();
    if (plan_name.empty()) plan_name = "plan-" + case_description.name();
    const wfl::ProcessDescription process = planner::to_process(result.best_plan, plan_name);

    ++plans_produced_;
    ++episodes_;
    reply.content = wfl::process_to_xml_string(process);
    reply.params["plan"] = plan_name;
    reply.params["fitness"] = util::format_number(result.best_fitness.overall, 4);
    reply.params["validity-fitness"] = util::format_number(result.best_fitness.validity, 4);
    reply.params["goal-fitness"] = util::format_number(result.best_fitness.goal, 4);
    reply.params["size"] = std::to_string(result.best_fitness.size);

    // Archive the process description in the system knowledge base.
    if (platform().has_agent(names::kPersistentStorage)) {
      AclMessage archive;
      archive.performative = Performative::Request;
      archive.receiver = names::kPersistentStorage;
      archive.protocol = protocols::kStorePut;
      archive.params["key"] = "process/" + plan_name;
      archive.content = reply.content;
      send(std::move(archive));
    }
  } catch (const std::exception& error) {
    reply.performative = Performative::Failure;
    reply.params["error"] = error.what();
  }
  // Charge the GP runtime to the virtual clock before replying.
  schedule(planning_latency_, [this, reply]() mutable { send(std::move(reply)); });
}

void PlanningService::handle_plan_request(const AclMessage& message) {
  IG_LOG_DEBUG("ps") << "planning request from " << message.sender;
  plan_and_reply(message, catalogue_);
}

void PlanningService::handle_replan_request(const AclMessage& message) {
  const std::string session_id = "replan-" + std::to_string(next_session_++);
  ReplanSession session;
  session.original = message;
  for (const auto& service : util::split_trimmed(message.param("failed-services"), ','))
    session.excluded.insert(service);

  if (!message.param_bool("probe", true)) {
    // Method 1: the knowledge is given directly by the coordination service.
    wfl::ServiceCatalogue reduced;
    for (const auto& service : catalogue_.services()) {
      if (session.excluded.count(service.name()) == 0) reduced.add(service);
    }
    plan_and_reply(message, reduced);
    return;
  }

  // Method 2, step 2: ask the information service for a brokerage service.
  sessions_[session_id] = std::move(session);
  AclMessage query;
  query.performative = Performative::QueryRef;
  query.receiver = names::kInformation;
  query.protocol = protocols::kQueryService;
  query.conversation_id = session_id + "/info";
  query.params["type"] = "brokerage";
  tracker_.track(std::move(query), probe_policy_);
}

void PlanningService::handle_information_reply(const AclMessage& message) {
  if (!tracker_.settle(message.conversation_id)) return;
  const std::string session_id = session_of(message.conversation_id);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;

  const auto providers = util::split_trimmed(message.param("providers"), ',');
  it->second.brokerage = providers.empty() ? names::kBrokerage : providers.front();
  query_providers(session_id);
}

void PlanningService::query_providers(const std::string& session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ReplanSession& session = it->second;

  // Step 4: ask the brokerage for containers, one query per service type.
  // Each query has its own conversation id so its deadline, retries, and
  // reply are accounted for independently.
  for (const auto& service : catalogue_.services()) {
    if (session.excluded.count(service.name()) > 0) continue;
    session.to_probe.push_back(service.name());
    ++session.pending_provider_queries;
    AclMessage query;
    query.performative = Performative::QueryRef;
    query.receiver = session.brokerage;
    query.protocol = protocols::kQueryProviders;
    query.conversation_id = session_id + "/prov/" + service.name();
    query.params["service"] = service.name();
    tracker_.track(std::move(query), probe_policy_);
  }
  if (session.pending_provider_queries == 0) finish_replan(session_id);
}

void PlanningService::handle_provider_reply(const AclMessage& message) {
  if (!tracker_.settle(message.conversation_id)) return;
  const std::string session_id = session_of(message.conversation_id);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ReplanSession& session = it->second;
  --session.pending_provider_queries;

  const std::string service = message.param("service");
  const auto containers = util::split_trimmed(message.param("containers"), ',');
  // Step 6: probe each advertised container for current executability.
  for (const auto& container : containers) {
    if (!platform().has_agent(container)) continue;
    ++session.pending_probes;
    AclMessage probe;
    probe.performative = Performative::QueryIf;
    probe.receiver = container;
    probe.protocol = protocols::kQueryExecutable;
    probe.conversation_id = session_id + "/probe/" + std::to_string(session.next_probe++);
    probe.params["service"] = service;
    tracker_.track(std::move(probe), probe_policy_);
  }
  if (session.pending_provider_queries == 0 && session.pending_probes == 0)
    finish_replan(session_id);
}

void PlanningService::handle_probe_reply(const AclMessage& message) {
  if (!tracker_.settle(message.conversation_id)) return;
  const std::string session_id = session_of(message.conversation_id);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ReplanSession& session = it->second;
  --session.pending_probes;
  if (message.param_bool("executable", false))
    session.executable.insert(message.param("service"));
  if (session.pending_provider_queries == 0 && session.pending_probes == 0)
    finish_replan(session_id);
}

void PlanningService::on_dead_letter(const DeadLetter& letter) {
  const std::string session_id = session_of(letter.conversation_id);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ReplanSession& session = it->second;
  const auto parts = util::split(letter.conversation_id, '/');
  const std::string kind = parts.size() > 1 ? parts[1] : "";

  if (kind == "info") {
    // The information service is unreachable; fall back to the well-known
    // brokerage name and press on.
    session.brokerage = names::kBrokerage;
    return query_providers(session_id);
  }
  // A lost provider list or a wedged container simply contributes no
  // executable services; the session still converges.
  session.degraded = true;
  if (kind == "prov" && session.pending_provider_queries > 0)
    --session.pending_provider_queries;
  if (kind == "probe" && session.pending_probes > 0) --session.pending_probes;
  if (session.pending_provider_queries == 0 && session.pending_probes == 0)
    finish_replan(session_id);
}

void PlanningService::finish_replan(const std::string& session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  ReplanSession session = std::move(it->second);
  sessions_.erase(it);

  // "The activity can be included in the new plan only if there is at least
  // one application container that can provide the execution."
  wfl::ServiceCatalogue reduced;
  for (const auto& service : catalogue_.services()) {
    if (session.excluded.count(service.name()) > 0) continue;
    if (session.executable.count(service.name()) == 0) continue;
    reduced.add(service);
  }
  if (reduced.size() == 0 && session.degraded) {
    // Probing was disrupted (dead letters), not answered: fall back to
    // Method 1 — plan over the static catalogue minus the known-bad
    // services — rather than declare everything non-executable.
    for (const auto& service : catalogue_.services()) {
      if (session.excluded.count(service.name()) == 0) reduced.add(service);
    }
  }
  IG_LOG_DEBUG("ps") << "replan over " << reduced.size() << "/" << catalogue_.size()
                     << " executable services";
  plan_and_reply(session.original, reduced);
}

}  // namespace ig::svc
