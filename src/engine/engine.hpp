// Sharded multi-case enactment engine — the grid front door.
//
// The coordination service enacts one case at a time on one agent platform;
// the engine turns that single-case machine into a throughput machine. It
// owns N *shards*, each a private `svc::Environment` (simulation + agent
// platform + the full Figure 1 service stack), built once and reset to its
// pristine state before every attempt. Shards no longer own
// threads: each shard is an affinity-pinned *job stream* on the shared
// work-stealing `sched::JobSystem` — a chain of pump jobs where each job
// advances the shard's enactment by one slice of simulation events and
// reposts itself. At most one pump job per shard is ever in flight, so the
// virtual-clock substrate stays single-threaded per shard and none of the
// existing services need locks; but because the slices are ordinary jobs,
// an idle shard's worker steals another shard's case steps instead of
// sleeping next to a backlog. Cases flow through a bounded admission queue
// with round-robin per-tenant fairness; a full queue rejects new
// submissions (backpressure) instead of buffering without bound.
//
// Lifecycle: `submit` admits a case as Queued (a full queue yields Rejected
// without creating one). Its only live edges, each taken through
// `transition_locked` (which counts any other in
// `engine_illegal_transitions_total`), are
//   Queued  -> Running | Cancelled
//   Running -> Queued (retry or shutdown) | Completed | Failed | Cancelled
// and nothing leaves a terminal state; journal replay restores states
// without taking edges. A terminal case keeps only its outcome, and only the
// newest `retained_outcomes` outcomes are kept; older ids report Evicted. A
// failed case is retried up to `max_case_retries` times: the engine
// snapshots the failed enactment through the coordination service's
// `checkpoint-case` protocol and re-admits the snapshot (via
// `restore-case`, with the re-planning budget refunded) excluding the shard
// that failed it, so end-user activities that completed before the failure
// replay from the checkpoint instead of re-executing.
//
// Per-shard fault injection (`EngineConfig::shard_failure_floor`) arms the
// shard's `grid::FailureInjector` floor, which is how the bench and tests
// demonstrate that a fleet with one bad shard still completes every case.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sched/job_system.hpp"
#include "services/environment.hpp"
#include "store/storage_engine.hpp"
#include "wfl/case_description.hpp"
#include "wfl/process.hpp"

namespace ig::engine {

/// Case lifecycle states. Rejected is terminal and only ever reported for
/// submissions bounced by a full admission queue (no CaseId is allocated).
/// Evicted is reported for a case that did finish but whose outcome fell
/// past the `retained_outcomes` horizon.
enum class CaseState { Queued, Running, Completed, Failed, Cancelled, Rejected, Evicted };

std::string_view to_string(CaseState state) noexcept;

inline bool is_terminal(CaseState state) noexcept {
  return state != CaseState::Queued && state != CaseState::Running;
}

/// Engine-wide case handle. 0 (`kInvalidCase`) means the submission was
/// rejected by backpressure.
using CaseId = std::uint64_t;
inline constexpr CaseId kInvalidCase = 0;

struct EngineConfig {
  std::size_t shards = 2;          ///< shards, each a private environment
  /// Job-system workers shared by every shard's pump stream. 0 = one per
  /// shard (the old thread-per-shard concurrency). Fewer workers than
  /// shards time-slices the shard streams over the pool via stealing; more
  /// buys nothing (a shard's stream is serialized on itself).
  std::size_t workers = 0;
  std::size_t queue_capacity = 64; ///< admission bound across all tenants
  int max_case_retries = 1;        ///< checkpoint/restore re-admissions per case
  std::uint64_t seed = 42;         ///< root of every shard's derived seed
  /// Template for each shard's stack (topology, catalogue, coordination
  /// tunables). Every shard builds the same stack once, seeded from `seed`;
  /// monitoring is disabled. `environment.chaos` is also a template: every
  /// shard gets the same rules, and each attempt draws its faults from a
  /// stream derived from (template chaos seed, attempt seed), so a case
  /// meets the same faults on any shard and the whole fleet stays
  /// reproducible.
  svc::EnvironmentOptions environment;
  /// Per-shard dispatch-failure floor (index i applies to shard i; missing
  /// entries mean 0 = healthy). See grid::FailureInjector::set_failure_floor.
  std::vector<double> shard_failure_floor;
  /// Simulation events run between engine control checks (cancel, shutdown).
  std::size_t events_per_slice = 2048;
  /// Terminal outcomes kept for result()/status(); past this many the
  /// oldest (by completion order) are evicted and report Evicted. The
  /// default matches the latency histogram's sample ring. Durable mode
  /// applies the same horizon at recovery, so snapshots stay bounded.
  std::size_t retained_outcomes = 65536;
  /// Optional hook run once per shard after its stack is built and before
  /// its worker starts (shard index is the second argument). Tests use it to
  /// inject faulty agents into a specific shard's platform. Its effects are
  /// part of the shard's pristine state: the reset before every attempt
  /// keeps them, and the hook never runs again.
  std::function<void(svc::Environment&, std::size_t)> shard_setup;
  /// Durable journal options. `storage.data_dir` empty (the default) keeps
  /// the engine fully in-memory. Non-empty arms durable mode: every case
  /// lifecycle transition (admit, retry, cancel, terminal) is WAL-journaled
  /// under the directory, and a cold start replays the journal and
  /// re-admits every case that was Queued or Running. In both modes each
  /// attempt starts by resetting its shard's stack to the pristine state,
  /// reseeded from (engine seed, case id, retries), so an attempt's outcome
  /// is independent of which shard hosts it and of what ran there before,
  /// and an attempt interrupted by a crash re-executes bit-identically
  /// after the restart.
  store::Options storage;
};

/// Terminal report for one case.
struct CaseOutcome {
  CaseState state = CaseState::Failed;
  std::string error;
  double makespan = 0.0;  ///< virtual seconds inside the final attempt
  int activities_executed = 0;
  int activities_replayed = 0;  ///< replayed from a retry checkpoint
  int dispatch_failures = 0;
  int replans = 0;
  int engine_retries = 0;  ///< re-admissions the engine performed
  double goal_satisfaction = 0.0;
  double total_cost = 0.0;
  double latency_seconds = 0.0;  ///< wall clock, submit -> terminal
  std::size_t shard = 0;         ///< shard of the final attempt
  std::size_t completion_index = 0;  ///< 1-based order of reaching a terminal state
};

struct ShardMetrics {
  std::size_t cases_run = 0;  ///< attempts started (retries count again)
  std::size_t cases_completed = 0;
  std::size_t cases_failed = 0;
  std::size_t handler_failures = 0;  ///< agent exceptions contained by the platform
  std::size_t faults_injected = 0;   ///< chaos events (drops, delays, dups, ...)
  std::size_t request_retries = 0;   ///< tracked requests re-sent after a timeout
  std::size_t dead_letters = 0;      ///< tracked requests abandoned after max attempts
  std::size_t containers_recovered = 0;  ///< Dead containers readmitted by the breaker
  std::size_t trace_dropped = 0;  ///< message-trace ring evictions on the shard
  /// Replies the shard's engine client still held for abandoned
  /// conversations when its last attempt ended (dropped by the reset when
  /// the next attempt begins, so this never accumulates).
  std::size_t stale_replies = 0;
  double busy_seconds = 0.0;  ///< wall clock spent enacting
  double utilization = 0.0;   ///< busy_seconds / engine uptime
};

/// One consistent snapshot of the engine counters.
struct EngineMetrics {
  std::size_t submitted = 0;  ///< admitted submissions (excludes rejected)
  std::size_t rejected = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t retried = 0;  ///< re-admissions after a failed attempt
  std::size_t recovered = 0;  ///< cases re-admitted by cold-start journal replay
  std::size_t store_io_errors = 0;  ///< journal writes/barriers that failed
  /// True once a journal write failed: running cases finish in memory, new
  /// durable admissions are rejected with a reason (graceful degradation).
  bool degraded = false;
  std::size_t handler_failures = 0;  ///< contained agent exceptions, all shards
  std::size_t faults_injected = 0;   ///< chaos events injected, all shards
  std::size_t request_retries = 0;   ///< request-layer re-sends, all shards
  std::size_t dead_letters = 0;      ///< abandoned requests, all shards
  std::size_t containers_recovered = 0;  ///< circuit-breaker readmissions, all shards
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  std::size_t cases_retained = 0;  ///< terminal outcomes still answerable
  std::size_t cases_evicted = 0;   ///< outcomes dropped past retained_outcomes
  // -- shared job-system view (see sched::JobStats for semantics) --
  std::size_t jobs_executed = 0;   ///< pump jobs run across all shards
  std::size_t jobs_stolen = 0;     ///< pump jobs that migrated off their home worker
  std::size_t steal_attempts = 0;
  double steal_rate = 0.0;         ///< stolen / executed
  double latency_p50 = 0.0;  ///< seconds, over terminal cases
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
  double uptime_seconds = 0.0;
  double completed_per_second = 0.0;
  std::vector<ShardMetrics> shards;
};

class EnactmentEngine {
 public:
  explicit EnactmentEngine(EngineConfig config = {});
  ~EnactmentEngine();  ///< implies shutdown()

  EnactmentEngine(const EnactmentEngine&) = delete;
  EnactmentEngine& operator=(const EnactmentEngine&) = delete;

  const EngineConfig& config() const noexcept { return config_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t worker_count() const noexcept { return jobs_->size(); }

  /// True when the engine journals to disk (config.storage.data_dir set).
  bool durable() const noexcept { return journal_ != nullptr; }
  /// The journal backing durable mode (null in in-memory mode). Exposed for
  /// inspection (CLI `store` subcommand, recovery tests); callers must not
  /// append engine-stream events themselves.
  store::StorageEngine* journal() noexcept { return journal_.get(); }
  const store::StorageEngine* journal() const noexcept { return journal_.get(); }

  /// Queues a case for enactment. Returns kInvalidCase (and counts a
  /// rejection) when the admission queue is full or the engine is shutting
  /// down. Thread-safe; callable from any thread.
  CaseId submit(const wfl::ProcessDescription& process,
                const wfl::CaseDescription& case_description,
                const std::string& tenant = "default");

  /// Same, with pre-serialized XML payloads (what the wire protocol carries).
  CaseId submit_xml(std::string process_xml, std::string case_xml,
                    const std::string& tenant = "default");

  /// Current lifecycle state; Evicted for a finished case past the
  /// retention horizon, Rejected for ids never acked (incl. kInvalidCase).
  CaseState status(CaseId id) const;

  /// The terminal report, or nullopt while the case is still queued/running
  /// (or once its outcome was evicted).
  std::optional<CaseOutcome> result(CaseId id) const;

  /// Cancels a case. Queued cases terminate immediately; running cases are
  /// abandoned at the next slice boundary. Returns false when the case is
  /// unknown, evicted or already terminal.
  bool cancel(CaseId id);

  /// Blocks until the case reaches a terminal state (or the engine stops).
  /// Returns nullopt at once for an unknown or evicted id, and nullopt when
  /// the outcome is evicted before the waiter wakes.
  std::optional<CaseOutcome> wait(CaseId id);

  /// Blocks until every admitted case is terminal.
  void drain();

  /// Stops the shard pump streams and drains their in-flight jobs (the
  /// worker pool itself survives until destruction, so racing submits stay
  /// safe). Queued cases stay Queued; running attempts are abandoned and
  /// their cases return to Queued, which is where a durable restart resumes
  /// them. Idempotent.
  void shutdown();

  EngineMetrics metrics() const;

  /// The engine's metrics registry, the one store of every count in the
  /// engine: its case tallies (`engine_case*_total`, `store_io_errors_total`,
  /// the `engine_cases_retained` gauge, the `engine_case_latency_seconds`
  /// histogram), each shard stack's counters (labelled {shard=i}), the
  /// scheduler's `sched_*` and the journal's `store_*` counters (labelled
  /// {component=engine-journal}). Every owner bumps its counters here in
  /// place, so a scrape sees them current at any time, with or without a
  /// metrics() call. metrics() only sets the gauges that snapshot state:
  /// queue depths, running cases, uptime, throughput, degraded, and the
  /// journal's segments, records, keys, snapshot LSN and recovery time.
  /// EngineMetrics reads the same instruments, so both views agree on the
  /// same run.
  obs::MetricsRegistry& registry() noexcept { return metrics_.registry(); }
  const obs::MetricsRegistry& registry() const noexcept { return metrics_.registry(); }

  /// Retained enactment spans of one shard (empty when the shard template
  /// did not enable span_tracing, or the index is out of range). Snapshot;
  /// safe while the shard runs.
  std::vector<obs::Span> shard_spans(std::size_t shard_index) const;

 private:
  /// What an attempt enacts. Immutable and shared, so handing a record to a
  /// shard is a refcount bump, and a terminal case drops it.
  struct CaseInputs {
    std::string process_xml;
    std::string case_xml;
    std::string checkpoint_xml;  ///< non-empty after a checkpointed failure
  };

  struct CaseRecord {
    CaseId id = kInvalidCase;
    std::string tenant;
    std::shared_ptr<const CaseInputs> inputs;  ///< null once terminal
    CaseState state = CaseState::Queued;  ///< set by transition_locked and replay only
    bool cancel_requested = false;
    int retries_used = 0;
    std::set<std::size_t> excluded_shards;
    std::chrono::steady_clock::time_point submitted_at;
    CaseOutcome outcome;  ///< its `state` is unused: report() takes the record's

    CaseOutcome report() const { CaseOutcome out = outcome; out.state = state; return out; }
  };

  struct Shard;  // private environment + pump state machine (engine.cpp)

  struct AttemptResult;  // what one enactment attempt produced (engine.cpp)

  /// One link of a shard's job stream: advances the shard's state machine by
  /// one step and reposts itself while there is work. At most one pump job
  /// per shard is in flight (guarded by Shard::pump_scheduled).
  void pump(Shard& shard);
  bool step(Shard& shard);  ///< returns false when the stream goes idle
  void begin_enact(Shard& shard);
  bool complete_attempt(Shard& shard);
  void post_pump(Shard& shard);
  /// Marks every shard without an in-flight pump as scheduled and returns
  /// them; the caller posts the jobs after releasing the mutex.
  std::vector<Shard*> claim_idle_pumps_locked();
  void admit_locked(const CaseRecord& record);  ///< appends a Queued record
  CaseRecord* pop_for_shard_locked(std::size_t shard_index);
  /// False when the record is in no queue (a durable admit still committing).
  bool unqueue_locked(const CaseRecord& record);
  /// Takes one legal lifecycle edge. An illegal one is logged, counted and
  /// refused; never thrown, as a throw inside a pump job wedges its shard.
  bool transition_locked(CaseRecord& record, CaseState to);
  /// The one terminal path: edge, outcome (from `reply`, empty if the case
  /// never ran; `error` overrides the reply's), counters, Terminal event,
  /// retirement and wake-up. `shard` is null for a case cancelled unrun.
  void finalize_locked(CaseRecord& record, Shard* shard, CaseState state,
                       const agent::AclMessage& reply, std::string error = {});
  /// Bookkeeping of a record that just became terminal: drops its inputs,
  /// files it in completion order and evicts past the retention horizon.
  /// Invalidates references to the evicted records (never to `record`).
  void retire_locked(CaseRecord& record);
  /// Evicts the oldest terminal outcomes until at most retained_outcomes
  /// remain.
  void evict_locked();
  bool evicted_locked(CaseId id) const;

  // -- durable mode ------------------------------------------------------------
  /// Disk-failure containment (durable mode). A store::Error from the
  /// journal never propagates out of the engine after construction:
  /// degrade_locked counts it, flips degraded_ and records the reason;
  /// from then on new durable admissions are rejected while running and
  /// queued cases finish on their in-memory state (DESIGN.md §13).
  void degrade_locked(const std::string& reason);
  /// append_event wrapped in the degradation policy; mutex_ held.
  /// `lsn`, when given, receives the appended record's LSN.
  bool journal_append_locked(std::string_view payload, store::Lsn* lsn = nullptr);
  /// Journal durability barrier wrapped in the degradation policy; called
  /// WITHOUT mutex_ (the msync must not serialize the engine).
  /// With `upto`, the barrier covers only the records through that LSN.
  bool journal_commit(std::optional<store::Lsn> upto = std::nullopt);

  /// Opens the journal and rebuilds records_/queues/counters from the
  /// newest snapshot plus the WAL tail. Constructor-only (no locking).
  void recover_from_journal();
  /// Applies one replayed journal event; idempotent by case id, so events
  /// that are both inside the snapshot blob and in the WAL tail are safe.
  void apply_journal_event(std::string_view payload);
  /// Serializes records_ (+ id/completion counters) as the "engine" stream
  /// snapshot blob. Takes the engine mutex; runs on the snapshotting thread.
  std::string encode_engine_state() const;
  bool decode_engine_state(std::string_view blob);

  EngineConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable case_terminal_;
  bool stopping_ = false;

  std::map<CaseId, CaseRecord> records_;
  /// Retained terminal cases, oldest completion first.
  std::deque<CaseId> terminal_order_;
  /// Evicted ids as disjoint [first, last) ranges keyed by first. Ids that
  /// were never acked (rejected, or burnt by a failed durable admit) are
  /// never in it, so status() tells Evicted from Rejected.
  std::map<CaseId, CaseId> evicted_ranges_;
  /// Terminal states and retries of the evicted cases, so the counters a
  /// cold start rebuilds from the journal still cover them.
  struct EvictedTally {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t retries = 0;
    std::uint64_t cases() const noexcept { return completed + failed + cancelled; }
  };
  EvictedTally evicted_tally_;
  std::map<std::string, std::deque<CaseId>> tenant_queues_;
  std::vector<std::string> tenant_order_;  ///< round-robin ring of active tenants
  std::size_t rr_cursor_ = 0;
  CaseId next_case_id_ = 1;

  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  bool degraded_ = false;
  std::string degraded_reason_;
  std::size_t completion_sequence_ = 0;
  /// The engine's registry (internally synchronized); the shard stacks, the
  /// job system and the journal count in labelled copies of this scope.
  obs::Scope metrics_;
  // The engine's own instruments, resolved once in the constructor. The
  // case counters are bumped under mutex_, so metrics() reads them as one
  // consistent set.
  obs::Histogram* latency_hist_ = nullptr;
  obs::Counter* submitted_ = nullptr;   ///< durable: counted once the admit commits
  obs::Counter* rejected_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* retried_ = nullptr;
  obs::Counter* recovered_ = nullptr;
  obs::Counter* io_errors_ = nullptr;
  obs::Counter* evicted_ = nullptr;
  obs::Counter* illegal_ = nullptr;  ///< refused lifecycle edges (0 on a sound engine)
  obs::Gauge* retained_ = nullptr;
  std::chrono::steady_clock::time_point started_at_;

  /// Durable-mode journal; null in in-memory mode. Declared before shards_
  /// so in-flight pump jobs (which append to it) die first.
  std::unique_ptr<store::StorageEngine> journal_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Shared worker pool under every shard's pump stream. Declared after
  /// shards_ so in-flight pump jobs never outlive the shards they
  /// reference, and kept alive through shutdown() (which only drains it):
  /// a submit() racing shutdown may post a pump after the drain, and that
  /// post needs a live JobSystem — the pump then sees stopping_ and no-ops.
  std::unique_ptr<sched::JobSystem> jobs_;
};

}  // namespace ig::engine
