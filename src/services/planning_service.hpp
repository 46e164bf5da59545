// Planning service agent (Section 3.3, Figures 2 and 3).
//
// Accepts planning requests from the coordination service: the assignment
// carries 1) the initial data, 2) the goal, 3) other useful information —
// all inside a case-description XML payload. The service runs the
// genetic-based planner, converts the best plan tree into a process
// description, archives it with the persistent storage service, and replies.
//
// Re-planning (Figure 3) additionally interrogates the runtime environment
// so the new plan avoids activities that cannot currently execute:
//
//   1. CS -> PS   replanning request (+ optional failed-services list)
//   2. PS -> IS   "Brokerage Service?"
//   3. IS -> PS   brokerage found
//   4. PS -> BS   "Application Containers for the activity?"  (per service)
//   5. BS -> PS   a group of containers
//   6. PS -> AC   "Activities executable?"                    (per container)
//   7. AC -> PS   executable or not
//   8. PS -> CS   a new plan over the executable services only
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "planner/gp.hpp"
#include "services/request_tracker.hpp"
#include "wfl/service.hpp"

namespace ig::svc {

class PlanningService : public agent::Agent {
 public:
  /// The request tracker counts in `metrics` labelled {owner=planning}.
  PlanningService(std::string name, wfl::ServiceCatalogue catalogue,
                  planner::GpConfig gp_config = {}, const obs::Scope& metrics = {})
      : Agent(std::move(name)),
        catalogue_(std::move(catalogue)),
        gp_config_(gp_config),
        tracker_(metrics.with("owner", "planning")) {}

  void on_start() override;
  void handle_message(const agent::AclMessage& message) override;
  /// Drops every re-planning session, reseeds the request tracker, and
  /// restarts the planning episodes on a seed derived from (attempt seed,
  /// GP seed).
  void reset(std::uint64_t attempt_seed) override;

  /// Stream tags of the request tracker's jitter seed and (on reset) the
  /// planning episodes' seed.
  static constexpr std::uint64_t kTrackerStream = 0x7AC5ULL;
  static constexpr std::uint64_t kEpisodeStream = 0x6E9ULL;

  const planner::GpConfig& gp_config() const noexcept { return gp_config_; }
  void set_gp_config(planner::GpConfig config) { gp_config_ = config; }

  /// Virtual-time cost charged per planning episode (models GP runtime).
  void set_planning_latency(grid::SimTime latency) noexcept { planning_latency_ = latency; }

  std::size_t plans_produced() const noexcept { return plans_produced_; }

  /// Reliability of the Figure 3 environment probes: a dropped provider
  /// list or a wedged container no longer stalls the session — its queries
  /// time out and simply contribute no executable services.
  void set_probe_policy(const RetryPolicy& policy) noexcept { probe_policy_ = policy; }
  const RequestTracker& tracker() const noexcept { return tracker_; }
  void set_tracker_seed(std::uint64_t seed) noexcept { tracker_.set_seed(seed); }

 private:
  struct ReplanSession {
    agent::AclMessage original;           ///< request to answer in step 8
    std::set<std::string> excluded;       ///< services named non-executable up front
    std::vector<std::string> to_probe;    ///< services awaiting provider lists
    std::size_t pending_provider_queries = 0;
    std::size_t pending_probes = 0;
    std::size_t next_probe = 0;           ///< per-session probe conversation counter
    bool degraded = false;                ///< a probe query dead-lettered
    std::set<std::string> executable;     ///< services with >= 1 live container
    std::string brokerage;                ///< provider found in step 3
  };

  void handle_plan_request(const agent::AclMessage& message);
  void handle_replan_request(const agent::AclMessage& message);
  void handle_information_reply(const agent::AclMessage& message);
  void handle_provider_reply(const agent::AclMessage& message);
  void handle_probe_reply(const agent::AclMessage& message);
  /// Step 4: one provider query per candidate service, each tracked under
  /// its own conversation id ("<session>/prov/<service>").
  void query_providers(const std::string& session_id);
  void finish_replan(const std::string& session_id);
  void on_dead_letter(const DeadLetter& letter);
  /// Conversation ids look like "<session>/<kind>/...": returns the session.
  static std::string session_of(const std::string& conversation_id);

  /// Runs the GP over `catalogue` for the case in `request`'s content and
  /// replies with the process-description XML (after planning_latency_).
  void plan_and_reply(const agent::AclMessage& request, const wfl::ServiceCatalogue& catalogue);

  wfl::ServiceCatalogue catalogue_;
  planner::GpConfig gp_config_;
  grid::SimTime planning_latency_ = 0.5;
  std::size_t plans_produced_ = 0;
  /// Episode k plans from seed episode_seed_ + 7919 k. Until the first
  /// reset the base is the GP seed itself and k counts every plan produced.
  std::optional<std::uint64_t> episode_seed_;
  std::size_t episodes_ = 0;
  std::uint64_t next_session_ = 1;
  RequestTracker tracker_;
  RetryPolicy probe_policy_{10.0, 2, 0.25, 2.0};
  std::map<std::string, ReplanSession> sessions_;  ///< keyed by session id
};

}  // namespace ig::svc
