// Coordination service: the asynchronous driver of the ATN machine
// (Section 2).
//
// "A coordination service receives a case description and controls the
// enactment of the workflow." Each enactment owns one ATN core
// (wfl/atn.hpp), which holds the token marking, fires the flow-control
// activities, picks Choice transitions and applies the loop guardrail. This
// service is the message-passing shell around it: every end-user activity
// the core hands over is dispatched to an application container located
// through the matchmaking service, and the container's reply completes it
// in the core. At End the service checks the case goals. The core's only
// step limit (wfl::Atn::kMaxStepsPerCall) counts the firings of one
// message's worth of work, so however long a case runs it is not cut off.
//
// Failure handling implements Section 3.3's escalation: a failed dispatch is
// retried on other containers (the failed one excluded); when retries are
// exhausted the coordination service triggers re-planning, shipping "all
// available data, including the initial set of data and the data modified,
// or created during the execution" to the planning service, then enacts the
// new plan. Every process the service starts (submitted, restored or
// re-planned) is validated first.
//
// Checkpointing (Section 1: "some of the computational tasks are long
// lasting and require checkpointing"): `checkpoint-case` snapshots a running
// enactment — process, case, accumulated data, and the core's per-activity
// completion counts — as one XML document. `restore-case` replays it:
// completed end-user activities are credited and skipped (their outputs are
// already in the data snapshot), and execution resumes live from the first
// activity without credit. In-flight dispatches at snapshot time are the
// only lost work. A restore request may carry `reset-replans=true` to refund
// the re-planning budget — the enactment engine uses this when it re-admits
// a failed case's checkpoint to a healthy shard, where the old shard's
// failures should not count against the new attempt.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "obs/span.hpp"
#include "services/request_tracker.hpp"
#include "wfl/atn.hpp"
#include "wfl/case_description.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {

/// Tunables of the enactment machine.
struct CoordinationConfig {
  int max_retries = 2;          ///< container retries per activity dispatch
  int max_replans = 2;          ///< re-planning episodes per case
  int max_loop_iterations = 8;  ///< guardrail for trivially-true loop guards
  std::string match_strategy = "balanced";
  // Conversation-level reliability (see RequestTracker). Deadlines are
  // generous — on a healthy platform every reply lands well inside them and
  // the cancelled timers change nothing; under chaos they bound how long a
  // dropped message or wedged peer can stall an enactment.
  // The execution deadline must cover the slowest *legitimate* run —
  // staging over a throttled WAN can take many virtual minutes — so the
  // default is deliberately loose; chaos experiments tighten it to match
  // their synthetic workloads.
  RetryPolicy match_policy{30.0, 3, 0.25, 5.0};     ///< matchmaking queries
  RetryPolicy exec_policy{1800.0, 2, 0.5, 10.0};    ///< container dispatches
  RetryPolicy replan_policy{600.0, 2, 0.5, 10.0};   ///< planning requests
};

class CoordinationService : public agent::Agent {
 public:
  /// The request tracker counts in `metrics` labelled {owner=coordination}.
  explicit CoordinationService(std::string name = "cs", CoordinationConfig config = {},
                               const obs::Scope& metrics = {})
      : Agent(std::move(name)),
        config_(config),
        tracker_(metrics.with("owner", "coordination")) {}

  void on_start() override;
  void handle_message(const agent::AclMessage& message) override;
  /// Drops every enactment, running or finished, restarts local case ids
  /// at case-1 and reseeds the request tracker.
  void reset(std::uint64_t attempt_seed) override;

  /// Stream tag of the request tracker's jitter seed (derived from the
  /// environment seed, and from the attempt seed on reset).
  static constexpr std::uint64_t kTrackerStream = 0x7AC4ULL;

  const CoordinationConfig& config() const noexcept { return config_; }

  std::size_t cases_completed() const noexcept { return cases_completed_; }
  std::size_t cases_failed() const noexcept { return cases_failed_; }
  std::size_t replans_triggered() const noexcept { return replans_triggered_; }

  /// Enactments held, running or finished. A finished enactment stays
  /// until release_finished() (or a reset), so `checkpoint-case` can still
  /// snapshot it post mortem.
  std::size_t enactment_count() const noexcept { return enactments_.size(); }
  std::size_t finished_enactment_count() const;
  /// Erases every finished enactment and returns how many; running ones
  /// stay. Late replies to a released enactment are dropped, exactly as
  /// for a finished one, and a later `checkpoint-case` for it fails as
  /// for an unknown case. Callers own the timing: the enactment engine
  /// calls it once any checkpoint it needs has been taken.
  std::size_t release_finished();

  /// The conversation reliability layer (retry/timeout/dead-letter counts).
  const RequestTracker& tracker() const noexcept { return tracker_; }
  /// Seed for retry jitter; engines derive a per-shard stream.
  void set_tracker_seed(std::uint64_t seed) noexcept { tracker_.set_seed(seed); }

  /// Installs an enactment tracer (nullptr disables). Enactments then emit
  /// virtual-clock spans: one Case span per enactment and one Activity span
  /// per dispatch (tagged with retries and fault reasons) from this
  /// service, and the ATN core's Barrier, Choice and Iteration spans. Not
  /// owned; must outlive the service.
  void set_tracer(obs::SpanTracer* tracer) noexcept { tracer_ = tracer; }

 private:
  struct Enactment {
    Enactment(CoordinationService& service, std::string enactment_id);

    std::string id;
    agent::AclMessage original;  ///< the enact-case request to answer
    wfl::CaseDescription case_description;
    wfl::DataSet data;  ///< current world data, merged as activities finish
    grid::SimTime started = 0.0;
    /// The plan and its token marking; hands end-user activities to
    /// dispatch() and the arrival at End to reach_end().
    wfl::Atn atn;

    std::map<std::string, std::vector<std::string>> excluded_containers;
    std::map<std::string, int> retries;
    /// Restore-time credits: an end-user activity with credit completes
    /// immediately (its outputs are already in `data`).
    std::map<std::string, int> replay_credits;

    /// Incremented on every (re)start; conversation ids carry it so replies
    /// belonging to a superseded plan are recognized and dropped.
    int epoch = 0;

    int activities_replayed = 0;
    int activities_executed = 0;
    int dispatch_failures = 0;
    double total_cost = 0.0;  ///< spot-market charges accumulated so far
    int replans = 0;
    bool awaiting_plan = false;
    bool finished = false;

    // Open-span bookkeeping (all 0 / empty when tracing is off).
    obs::SpanId case_span = 0;
    std::map<std::string, obs::SpanId> activity_spans;  ///< activity id -> open span
  };

  void handle_enact(const agent::AclMessage& message);
  void handle_checkpoint(const agent::AclMessage& message);
  void handle_restore(const agent::AclMessage& message);
  void handle_match_reply(const agent::AclMessage& message);
  void handle_execution_reply(const agent::AclMessage& message);
  void handle_plan_reply(const agent::AclMessage& message);

  /// Registers a new enactment answering `message`.
  Enactment& open_enactment(const agent::AclMessage& message);
  /// Makes `process` the enactment's plan; throws ProcessError when invalid.
  static void load_plan(Enactment& enactment, wfl::ProcessDescription process);
  void open_case_span(Enactment& enactment);
  void start_enactment(Enactment& enactment);
  void dispatch(Enactment& enactment, const wfl::Activity& activity);
  /// The core's token reached End: succeed, re-plan, or fail on the goals.
  void reach_end(Enactment& enactment);
  void handle_dispatch_failure(Enactment& enactment, const std::string& activity_id,
                               const std::string& container, const std::string& reason);
  void request_replanning(Enactment& enactment, const std::string& failed_service);
  void finish(Enactment& enactment, bool success, const std::string& reason);
  /// Closes every open Activity span with `status`.
  void close_activity_spans(Enactment& enactment, const std::string& status);
  /// Escalation when a tracked conversation exhausted its retries.
  void on_dead_letter(const DeadLetter& letter);

  Enactment* find_enactment(const std::string& id);
  /// Conversation ids look like "<enactment>/<kind>/<activity>".
  static std::vector<std::string> split_conversation(const std::string& conversation_id);

  CoordinationConfig config_;
  RequestTracker tracker_;
  obs::SpanTracer* tracer_ = nullptr;  ///< not owned; nullptr = tracing off
  std::map<std::string, Enactment> enactments_;
  std::uint64_t next_enactment_ = 1;
  std::size_t cases_completed_ = 0;
  std::size_t cases_failed_ = 0;
  std::size_t replans_triggered_ = 0;
};

}  // namespace ig::svc
