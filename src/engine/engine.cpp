#include "engine/engine.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "services/protocol.hpp"
#include "store/codec.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "wfl/xml_io.hpp"

namespace ig::engine {

using agent::AclMessage;
using agent::Performative;

std::string_view to_string(CaseState state) noexcept {
  switch (state) {
    case CaseState::Queued: return "Queued";
    case CaseState::Running: return "Running";
    case CaseState::Completed: return "Completed";
    case CaseState::Failed: return "Failed";
    case CaseState::Cancelled: return "Cancelled";
    case CaseState::Rejected: return "Rejected";
    case CaseState::Evicted: return "Evicted";
  }
  return "?";
}

namespace {

/// Runaway guard: a single attempt phase aborts after this many slices of
/// `events_per_slice` simulation events.
constexpr std::size_t kMaxSlicesPerCase = 1 << 14;

/// The engine's in-platform proxy: the agent that submits enact / restore /
/// checkpoint requests on a shard and collects the replies. Only the
/// shard's worker thread ever touches it (it runs the simulation), so it
/// needs no locking. Replies to conversations the shard abandoned
/// (cancelled, stalled or shut-down attempts, late checkpoints) are never
/// taken; the reset before the next attempt drops them.
class EngineClient final : public agent::Agent {
 public:
  using Agent::Agent;

  void handle_message(const AclMessage& message) override {
    replies_[message.conversation_id] = message;
  }
  void reset(std::uint64_t) override { replies_.clear(); }

  void post(AclMessage message) { send(std::move(message)); }

  std::optional<AclMessage> take(const std::string& conversation_id) {
    auto it = replies_.find(conversation_id);
    if (it == replies_.end()) return std::nullopt;
    AclMessage message = std::move(it->second);
    replies_.erase(it);
    return message;
  }

  std::size_t held() const noexcept { return replies_.size(); }

 private:
  std::map<std::string, AclMessage> replies_;
};

// The live lifecycle: every state change outside journal replay is one of
// these edges (transition_locked). Nothing leaves a terminal state.
constexpr std::pair<CaseState, CaseState> kLegalEdges[] = {
    {CaseState::Queued, CaseState::Running},   {CaseState::Queued, CaseState::Cancelled},
    {CaseState::Running, CaseState::Queued},   {CaseState::Running, CaseState::Completed},
    {CaseState::Running, CaseState::Failed},   {CaseState::Running, CaseState::Cancelled},
};

// -- journal event encoding ----------------------------------------------------
//
// One WAL event per lifecycle transition on stream "engine". Retry and
// Terminal carry the case's *resulting* state (absolute, not a delta), so
// replaying an event twice — which happens when it is both inside a
// snapshot blob and still in the WAL tail — converges instead of drifting.
constexpr std::uint8_t kEventAdmit = 1;
constexpr std::uint8_t kEventRetry = 2;
constexpr std::uint8_t kEventCancel = 3;
constexpr std::uint8_t kEventTerminal = 4;
// Version 2 appends the evicted tallies and id ranges; version 1 blobs
// (no eviction) still decode.
constexpr std::uint32_t kStateBlobVersion = 2;

std::uint64_t double_bits(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_to_double(std::uint64_t bits) noexcept {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void write_outcome(store::Writer& w, CaseState state, const CaseOutcome& outcome) {
  w.u8(static_cast<std::uint8_t>(state));
  w.str(outcome.error);
  w.u64(double_bits(outcome.makespan));
  w.u32(static_cast<std::uint32_t>(outcome.activities_executed));
  w.u32(static_cast<std::uint32_t>(outcome.activities_replayed));
  w.u32(static_cast<std::uint32_t>(outcome.dispatch_failures));
  w.u32(static_cast<std::uint32_t>(outcome.replans));
  w.u32(static_cast<std::uint32_t>(outcome.engine_retries));
  w.u64(double_bits(outcome.goal_satisfaction));
  w.u64(double_bits(outcome.total_cost));
  w.u64(double_bits(outcome.latency_seconds));
  w.u64(outcome.shard);
  w.u64(outcome.completion_index);
}

CaseOutcome read_outcome(store::Reader& r) {
  CaseOutcome outcome;
  outcome.state = static_cast<CaseState>(r.u8());
  outcome.error = std::string(r.str());
  outcome.makespan = bits_to_double(r.u64());
  outcome.activities_executed = static_cast<int>(r.u32());
  outcome.activities_replayed = static_cast<int>(r.u32());
  outcome.dispatch_failures = static_cast<int>(r.u32());
  outcome.replans = static_cast<int>(r.u32());
  outcome.engine_retries = static_cast<int>(r.u32());
  outcome.goal_satisfaction = bits_to_double(r.u64());
  outcome.total_cost = bits_to_double(r.u64());
  outcome.latency_seconds = bits_to_double(r.u64());
  outcome.shard = static_cast<std::size_t>(r.u64());
  outcome.completion_index = static_cast<std::size_t>(r.u64());
  return outcome;
}

}  // namespace

struct EnactmentEngine::AttemptResult {
  enum class Kind { Success, Failure, Cancelled } kind = Kind::Failure;
  AclMessage reply;             ///< the case-completed (or failure) reply
  std::string checkpoint_xml;  ///< snapshot captured after a failure
};

/// One shard: a private environment built once and reset before every
/// attempt, its proxy agent, and the state machine that a chain of pump
/// jobs advances one simulation slice at a time. The
/// attempt state is touched only by the shard's single in-flight pump job
/// (the job chain serializes through the job system's deques), so it needs
/// no lock even though successive slices may run on different workers.
/// Stats and `pump_scheduled` are guarded by the engine mutex.
struct EnactmentEngine::Shard {
  std::size_t index = 0;
  std::unique_ptr<svc::Environment> environment;
  EngineClient* client = nullptr;

  // -- attempt state machine, owned by the in-flight pump job --
  /// Idle: no case. Enact: slicing the simulation until the completion
  /// reply. Checkpoint: snapshotting a failed enactment for a cross-shard
  /// retry.
  enum class Phase { Idle, Enact, Checkpoint };
  Phase phase = Phase::Idle;
  CaseRecord snapshot;        ///< the current attempt's record (inputs shared)
  std::string conversation;   ///< engine/<case>/<retry>
  std::size_t slices = 0;     ///< slices consumed in the current phase
  AttemptResult attempt;      ///< result under construction

  // -- stats, under the engine mutex --
  bool pump_scheduled = false;  ///< a pump job for this shard is in flight
  std::size_t cases_run = 0;
  std::size_t cases_completed = 0;
  std::size_t cases_failed = 0;
  std::size_t stale_replies = 0;  ///< client replies left after the last attempt
  double busy_seconds = 0.0;
};

EnactmentEngine::EnactmentEngine(EngineConfig config) : config_(std::move(config)) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.events_per_slice = std::max<std::size_t>(1, config_.events_per_slice);
  // The newest outcome is always retained: finalizing a case never evicts
  // the record being finalized.
  config_.retained_outcomes = std::max<std::size_t>(1, config_.retained_outcomes);
  started_at_ = std::chrono::steady_clock::now();
  // Ring capacity well above any bench's case count, so registry-derived
  // percentiles stay exact (see obs/metrics.hpp).
  latency_hist_ = &metrics_.registry().histogram("engine_case_latency_seconds",
                                                 obs::default_latency_buckets(), {}, 65536);
  submitted_ = &metrics_.counter("engine_cases_submitted_total");
  rejected_ = &metrics_.counter("engine_cases_rejected_total");
  completed_ = &metrics_.counter("engine_cases_completed_total");
  failed_ = &metrics_.counter("engine_cases_failed_total");
  cancelled_ = &metrics_.counter("engine_cases_cancelled_total");
  retried_ = &metrics_.counter("engine_case_retries_total");
  recovered_ = &metrics_.counter("engine_cases_recovered_total");
  io_errors_ = &metrics_.counter("store_io_errors_total");
  evicted_ = &metrics_.counter("engine_cases_evicted_total");
  illegal_ = &metrics_.counter("engine_illegal_transitions_total");
  retained_ = &metrics_.gauge("engine_cases_retained");

  // Durable mode: open the journal and rebuild the case table before any
  // shard exists, so recovered cases are queued by the time pumps start.
  if (!config_.storage.data_dir.empty()) {
    // Several shards journaling through one store turn sequential per-case
    // commits into one barrier per window instead of one fsync each; a
    // single shard gains nothing and would only add latency.
    if (config_.storage.group_window_us == 0 && config_.shards > 1)
      config_.storage.group_window_us = 200;
    recover_from_journal();
  }

  // Build every shard stack once, on the caller's thread (no construction
  // races), then start the workers. The shard index is pinned to 0 in the
  // seed derivation, so every shard's pristine stack is the same and an
  // attempt's outcome cannot depend on the shard that runs it.
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    const double floor =
        i < config_.shard_failure_floor.size() ? config_.shard_failure_floor[i] : 0.0;
    shard->environment = svc::make_shard_stack(config_.environment, config_.seed, 0, floor,
                                               metrics_.with("shard", std::to_string(i)));
    shard->client = &shard->environment->platform().spawn<EngineClient>("engine-client");
    if (config_.shard_setup) config_.shard_setup(*shard->environment, i);
    shard->environment->save_pristine();
    shards_.push_back(std::move(shard));
  }
  // One shared work-stealing pool under every shard's pump stream. The
  // default (workers = shards) keeps the old thread-per-shard concurrency;
  // fewer workers time-slice the streams, and either way an idle worker
  // steals a busy shard's next slice instead of sleeping.
  const std::size_t workers = config_.workers == 0 ? config_.shards : config_.workers;
  jobs_ = std::make_unique<sched::JobSystem>(workers, metrics_);
  // Cold-start resume: cases the journal recovered into the queues have no
  // submit() call coming to kick the pumps — kick them here.
  if (queued_ > 0) {
    for (Shard* shard : claim_idle_pumps_locked()) post_pump(*shard);
  }
}

EnactmentEngine::~EnactmentEngine() { shutdown(); }

void EnactmentEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  case_terminal_.notify_all();
  // Drain the in-flight pump jobs: each sees stopping_, returns its running
  // attempt's case to the queue, and does not repost. The counters survive
  // for metrics(). The job system itself is NOT torn down here: submit() is
  // thread-safe and may race this drain, posting a pump just after
  // wait_idle() returns — that post needs a live JobSystem to land on (the
  // pump then sees stopping_ and no-ops). jobs_ dies with the engine, whose
  // destructor drains again.
  jobs_->wait_idle();
  // Abandoned attempts journal nothing (the whole point: a restart resumes
  // them), but everything journaled so far becomes durable on this clean
  // path.
  if (journal_) journal_commit();
}

CaseId EnactmentEngine::submit(const wfl::ProcessDescription& process,
                               const wfl::CaseDescription& case_description,
                               const std::string& tenant) {
  return submit_xml(wfl::process_to_xml_string(process),
                    wfl::case_to_xml_string(case_description), tenant);
}

CaseId EnactmentEngine::submit_xml(std::string process_xml, std::string case_xml,
                                   const std::string& tenant) {
  std::vector<Shard*> to_pump;
  CaseId id = kInvalidCase;
  bool durable = false;
  bool journal_failed = false;
  bool cancelled = false;
  store::Lsn admit_lsn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || queued_ >= config_.queue_capacity) {
      rejected_->inc();
      return kInvalidCase;
    }
    if (journal_ && degraded_) {
      // Graceful degradation: an engine whose journal failed cannot promise
      // durability, so it stops accepting durable work instead of lying.
      rejected_->inc();
      IG_LOG_WARN("engine") << "rejecting submission: journal degraded ("
                            << degraded_reason_ << ")";
      return kInvalidCase;
    }
    id = next_case_id_++;
    CaseRecord& record = records_[id];
    record.id = id;
    record.tenant = tenant.empty() ? "default" : tenant;
    record.inputs = std::make_shared<const CaseInputs>(
        CaseInputs{std::move(process_xml), std::move(case_xml), {}});
    record.submitted_at = std::chrono::steady_clock::now();
    durable = journal_ != nullptr;
    if (durable) {
      std::string payload;
      store::Writer w(payload);
      w.u8(kEventAdmit);
      w.u64(record.id);
      w.str(record.tenant);
      w.str(record.inputs->process_xml);
      w.str(record.inputs->case_xml);
      // The record deliberately stays out of the tenant queues here: a
      // durable submission is admitted (and its id acked) only after the
      // admit event is on disk, so an acked id can never be lost to a
      // crash — the invariant the crash-point matrix test holds us to.
      journal_failed = !journal_append_locked(payload, &admit_lsn);
    } else {
      submitted_->inc();
      admit_locked(record);
      to_pump = claim_idle_pumps_locked();
    }
  }
  if (durable) {
    // The msync runs outside the engine mutex (group commit absorbs
    // concurrent submits).
    // Commit through the admit record only: a barrier that already made it
    // durable acks it, even when a later record's barrier fails. Committing
    // everything appended so far would then reject a case whose admit is
    // on disk, and a restart would recover a case nobody was told about.
    if (!journal_failed) journal_failed = !journal_commit(admit_lsn);
    std::lock_guard<std::mutex> lock(mutex_);
    CaseRecord& record = records_.at(id);
    if (journal_failed) {
      // Never acked, so it must leave no trace, even when a cancel raced
      // the commit: the caller sees a rejection with a reason (degraded_),
      // not a case that silently evaporates.
      records_.erase(id);
      rejected_->inc();
      if (next_case_id_ == id + 1) next_case_id_ = id;
      id = kInvalidCase;
    } else if (record.cancel_requested) {
      // A cancel that raced the commit only flagged the record (cancel());
      // the case is acked now, so it ends Cancelled.
      submitted_->inc();
      finalize_locked(record, nullptr, CaseState::Cancelled, {}, "cancelled while queued");
      cancelled = true;
    } else {
      submitted_->inc();
      admit_locked(record);
      to_pump = claim_idle_pumps_locked();
    }
  }
  if (cancelled) journal_commit();  // its Terminal event, as cancel() commits its own
  // Posting outside the engine mutex: a pump job can start (and take the
  // mutex) before we would have released it. A shutdown() racing these
  // posts is safe — jobs_ stays alive until the engine is destroyed, and
  // the pumps themselves observe stopping_ and no-op.
  for (Shard* shard : to_pump) post_pump(*shard);
  return id;
}

std::vector<EnactmentEngine::Shard*> EnactmentEngine::claim_idle_pumps_locked() {
  std::vector<Shard*> claimed;
  for (auto& shard : shards_) {
    if (shard->pump_scheduled) continue;
    shard->pump_scheduled = true;
    claimed.push_back(shard.get());
  }
  return claimed;
}

void EnactmentEngine::post_pump(Shard& shard) {
  // Affinity pins the stream to one home worker (cache-warm environment);
  // the job stays stealable when that worker is mid-slice on another shard.
  jobs_->post([this, &shard] { pump(shard); }, shard.index);
}

void EnactmentEngine::admit_locked(const CaseRecord& record) {
  auto& queue = tenant_queues_[record.tenant];
  if (queue.empty() &&
      std::find(tenant_order_.begin(), tenant_order_.end(), record.tenant) ==
          tenant_order_.end()) {
    tenant_order_.push_back(record.tenant);
  }
  queue.push_back(record.id);
  ++queued_;
}

EnactmentEngine::CaseRecord* EnactmentEngine::pop_for_shard_locked(std::size_t shard_index) {
  for (std::size_t k = 0; k < tenant_order_.size(); ++k) {
    const std::size_t slot = (rr_cursor_ + k) % tenant_order_.size();
    for (const CaseId id : tenant_queues_.at(tenant_order_[slot])) {
      CaseRecord& record = records_.at(id);
      if (record.excluded_shards.count(shard_index) > 0) continue;
      rr_cursor_ = slot + 1;  // the next pop starts at the following tenant
      unqueue_locked(record);
      return &record;
    }
  }
  return nullptr;
}

bool EnactmentEngine::unqueue_locked(const CaseRecord& record) {
  auto queue = tenant_queues_.find(record.tenant);
  if (queue == tenant_queues_.end()) return false;
  auto pos = std::find(queue->second.begin(), queue->second.end(), record.id);
  if (pos == queue->second.end()) return false;
  queue->second.erase(pos);
  --queued_;
  if (queue->second.empty()) {
    tenant_queues_.erase(queue);
    const auto slot = std::find(tenant_order_.begin(), tenant_order_.end(), record.tenant);
    if (rr_cursor_ > static_cast<std::size_t>(slot - tenant_order_.begin())) --rr_cursor_;
    tenant_order_.erase(slot);  // the cursor above keeps pointing at the same tenant
  }
  rr_cursor_ = tenant_order_.empty() ? 0 : rr_cursor_ % tenant_order_.size();
  return true;
}

CaseState EnactmentEngine::status(CaseId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  if (it != records_.end()) return it->second.state;
  return evicted_locked(id) ? CaseState::Evicted : CaseState::Rejected;
}

std::optional<CaseOutcome> EnactmentEngine::result(CaseId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(id);
  if (it == records_.end() || !is_terminal(it->second.state)) return std::nullopt;
  return it->second.report();
}

bool EnactmentEngine::cancel(CaseId id) {
  bool journaled = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(id);
    if (it == records_.end() || is_terminal(it->second.state)) return false;
    CaseRecord& record = it->second;
    record.cancel_requested = true;
    if (journal_) {
      std::string payload;
      store::Writer w(payload);
      w.u8(kEventCancel);
      w.u64(id);
      journaled = journal_append_locked(payload);
    }
    // A queued case terminates now; a running one is abandoned by its shard
    // at the next slice boundary. A durable admit still committing is in no
    // queue: submit_xml settles it, so a never-acked case leaves no outcome.
    if (record.state == CaseState::Queued && unqueue_locked(record))
      finalize_locked(record, nullptr, CaseState::Cancelled, {}, "cancelled while queued");
  }
  if (journaled) journal_commit();
  return true;
}

std::optional<CaseOutcome> EnactmentEngine::wait(CaseId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Looked up afresh on every wake-up: the record may be evicted (erased)
  // between its terminal notification and this waiter running.
  auto it = records_.end();
  case_terminal_.wait(lock, [&] {
    it = records_.find(id);
    return stopping_ || it == records_.end() || is_terminal(it->second.state);
  });
  if (it == records_.end() || !is_terminal(it->second.state)) return std::nullopt;
  return it->second.report();
}

void EnactmentEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  case_terminal_.wait(lock, [&] { return stopping_ || (queued_ == 0 && running_ == 0); });
}

EngineMetrics EnactmentEngine::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineMetrics snapshot;
  snapshot.submitted = submitted_->value();
  snapshot.rejected = rejected_->value();
  snapshot.completed = completed_->value();
  snapshot.failed = failed_->value();
  snapshot.cancelled = cancelled_->value();
  snapshot.retried = retried_->value();
  snapshot.recovered = recovered_->value();
  snapshot.store_io_errors = io_errors_->value();
  snapshot.degraded = degraded_;
  snapshot.queue_depth = queued_;
  snapshot.running = running_;
  snapshot.cases_retained = terminal_order_.size();
  snapshot.cases_evicted = evicted_->value();
  const sched::JobStats job_stats = jobs_->stats();
  snapshot.jobs_executed = job_stats.executed;
  snapshot.jobs_stolen = job_stats.stolen;
  snapshot.steal_attempts = job_stats.steal_attempts;
  snapshot.steal_rate = job_stats.steal_rate();
  const obs::HistogramSnapshot hist = latency_hist_->snapshot();
  if (hist.count > 0) {
    const std::vector<double> qs = hist.quantiles({50.0, 90.0, 99.0});
    snapshot.latency_p50 = qs[0];
    snapshot.latency_p90 = qs[1];
    snapshot.latency_p99 = qs[2];
  }
  snapshot.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started_at_).count();
  if (snapshot.uptime_seconds > 0.0)
    snapshot.completed_per_second =
        static_cast<double>(snapshot.completed) / snapshot.uptime_seconds;
  snapshot.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardMetrics sm;
    sm.cases_run = shard->cases_run;
    sm.cases_completed = shard->cases_completed;
    sm.cases_failed = shard->cases_failed;
    sm.stale_replies = shard->stale_replies;
    // These are the shard stack's registry counters (relaxed atomics), so
    // reading them here while the shard's worker is mid-enactment is safe.
    // The stack lives as long as the shard and a reset never zeroes them.
    svc::Environment& environment = *shard->environment;
    sm.handler_failures = environment.platform().handler_failures_total();
    sm.faults_injected = environment.platform().chaos_stats().total_injected();
    sm.request_retries = environment.coordination().tracker().retries_total() +
                         environment.planning().tracker().retries_total();
    sm.dead_letters = environment.coordination().tracker().dead_letters_total() +
                      environment.planning().tracker().dead_letters_total();
    sm.containers_recovered = environment.monitoring().containers_recovered();
    sm.trace_dropped = environment.platform().trace_dropped();
    snapshot.handler_failures += sm.handler_failures;
    snapshot.faults_injected += sm.faults_injected;
    snapshot.request_retries += sm.request_retries;
    snapshot.dead_letters += sm.dead_letters;
    snapshot.containers_recovered += sm.containers_recovered;
    sm.busy_seconds = shard->busy_seconds;
    sm.utilization =
        snapshot.uptime_seconds > 0.0 ? shard->busy_seconds / snapshot.uptime_seconds : 0.0;
    snapshot.shards.push_back(sm);
  }
  // Only state gauges are set here; every counter is already current.
  metrics_.gauge("engine_queue_depth").set(static_cast<double>(snapshot.queue_depth));
  metrics_.gauge("engine_cases_running").set(static_cast<double>(snapshot.running));
  metrics_.gauge("engine_uptime_seconds").set(snapshot.uptime_seconds);
  metrics_.gauge("engine_completed_per_second").set(snapshot.completed_per_second);
  metrics_.gauge("engine_degraded").set(snapshot.degraded ? 1.0 : 0.0);
  const std::vector<std::size_t> depths = jobs_->queue_depths();
  for (std::size_t i = 0; i < depths.size(); ++i)
    metrics_.with("worker", std::to_string(i))
        .gauge("sched_queue_depth")
        .set(static_cast<double>(depths[i]));
  if (journal_) {
    const store::StoreStats store = journal_->stats();
    const obs::Scope journal = metrics_.with("component", "engine-journal");
    journal.gauge("store_poisoned").set(store.wal.poisoned ? 1.0 : 0.0);
    journal.gauge("store_segments").set(static_cast<double>(store.segments));
    journal.gauge("store_wal_records").set(static_cast<double>(store.wal.records));
    journal.gauge("store_last_snapshot_lsn").set(static_cast<double>(store.snapshot_lsn));
    journal.gauge("store_recovery_ms").set(store.recovery_ms);
  }
  return snapshot;
}

std::vector<obs::Span> EnactmentEngine::shard_spans(std::size_t shard_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shard_index >= shards_.size()) return {};
  return shards_[shard_index]->environment->tracer().spans();
}

void EnactmentEngine::pump(Shard& shard) {
  util::Stopwatch slice_clock;
  const bool again = step(shard);
  const double busy = slice_clock.elapsed_seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shard.busy_seconds += busy;
  }
  // Repost while the stream has work. The repost happens *after* the step,
  // so at most one pump job per shard is ever queued or running; when the
  // stream goes idle, step() already cleared pump_scheduled under the mutex.
  if (again) post_pump(shard);
}

bool EnactmentEngine::step(Shard& shard) {
  bool stopping = false;
  bool cancelled = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping = stopping_;
    if (stopping && shard.phase == Shard::Phase::Idle) shard.pump_scheduled = false;
    auto it = records_.find(shard.snapshot.id);
    cancelled = it == records_.end() || it->second.cancel_requested;
  }
  // Shutdown abandons the attempt in flight: complete_attempt (its kind is
  // still Failure) returns the case to the queue and stops the stream.
  if (stopping) return shard.phase != Shard::Phase::Idle && complete_attempt(shard);

  svc::Environment& environment = *shard.environment;
  grid::Simulation& sim = environment.sim();

  switch (shard.phase) {
    case Shard::Phase::Idle: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        // Popping the queue and clearing pump_scheduled happen in the same
        // critical section, so a submit either sees the flag and skips the
        // post, or sees it cleared and reschedules — never a lost wakeup.
        CaseRecord* record = pop_for_shard_locked(shard.index);
        if (record == nullptr) {
          shard.pump_scheduled = false;
          return false;
        }
        if (!transition_locked(*record, CaseState::Running)) return true;  // counted; skipped
        record->outcome.shard = shard.index;
        ++running_;
        ++shard.cases_run;
        shard.snapshot = *record;  // the inputs are shared: a refcount bump, no copy
        shard.conversation = "engine/" + std::to_string(record->id) + "/" +
                             std::to_string(record->retries_used);
        shard.attempt = AttemptResult{};
      }
      // Outside the engine mutex: the stack returns to its pristine state,
      // reseeded purely from (engine seed, case id, retries). Whatever the
      // previous attempt left (an abandoned or stalled enactment, messages
      // in flight, late replies) is gone, so the attempt re-executes
      // bit-identically on any shard, after any history, and after a
      // crash-restart.
      const auto retries = static_cast<std::uint64_t>(shard.snapshot.retries_used);
      environment.reset(util::derive_stream(config_.seed, shard.snapshot.id, retries));
      begin_enact(shard);
      return true;
    }

    case Shard::Phase::Enact: {
      if (cancelled) {
        shard.attempt.kind = AttemptResult::Kind::Cancelled;
        return complete_attempt(shard);
      }
      const std::size_t executed = sim.run(config_.events_per_slice);
      std::optional<AclMessage> reply = shard.client->take(shard.conversation);
      if (!reply.has_value()) {
        if (executed == 0 || ++shard.slices >= kMaxSlicesPerCase) {
          // Calendar drained (or budget blown) without an answer: stalled.
          shard.attempt.kind = AttemptResult::Kind::Failure;
          shard.attempt.reply.params["error"] = "enactment stalled (no completion reply)";
          return complete_attempt(shard);
        }
        return true;
      }
      shard.attempt.reply = *reply;
      const bool success = reply->performative == Performative::Inform &&
                           reply->param_bool("success", true);
      if (success) {
        shard.attempt.kind = AttemptResult::Kind::Success;
        return complete_attempt(shard);
      }
      shard.attempt.kind = AttemptResult::Kind::Failure;
      // Snapshot the failed enactment so a retry on another shard replays
      // the work that did complete. The reply names the coordinator's local
      // case id; submissions rejected before an enactment existed (e.g.
      // invalid XML) carry none, and then the retry resubmits from scratch.
      const std::string local_case = reply->param("case");
      if (local_case.empty() || shard.snapshot.retries_used >= config_.max_case_retries)
        return complete_attempt(shard);
      AclMessage checkpoint;
      checkpoint.performative = Performative::Request;
      checkpoint.receiver = svc::names::kCoordination;
      checkpoint.protocol = svc::protocols::kCheckpointCase;
      checkpoint.conversation_id = shard.conversation + "/checkpoint";
      checkpoint.params["case"] = local_case;
      shard.client->post(std::move(checkpoint));
      shard.phase = Shard::Phase::Checkpoint;
      shard.slices = 0;
      return true;
    }

    case Shard::Phase::Checkpoint: {
      const std::size_t executed = sim.run(config_.events_per_slice);
      auto snapshot_reply = shard.client->take(shard.conversation + "/checkpoint");
      if (snapshot_reply.has_value()) {
        if (snapshot_reply->performative == Performative::Inform)
          shard.attempt.checkpoint_xml = snapshot_reply->content;
        return complete_attempt(shard);
      }
      if (executed == 0 || ++shard.slices >= kMaxSlicesPerCase)
        return complete_attempt(shard);
      return true;
    }
  }
  return false;  // unreachable
}

void EnactmentEngine::begin_enact(Shard& shard) {
  const CaseInputs& inputs = *shard.snapshot.inputs;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = svc::names::kCoordination;
  request.conversation_id = shard.conversation;
  if (inputs.checkpoint_xml.empty()) {
    request.protocol = svc::protocols::kEnactCase;
    request.content = inputs.process_xml;
    request.params["case-xml"] = inputs.case_xml;
  } else {
    // Retry from the failed attempt's snapshot: completed activities replay,
    // and the new shard gets a full re-planning budget again.
    request.protocol = svc::protocols::kRestoreCase;
    request.content = inputs.checkpoint_xml;
    request.params["reset-replans"] = "true";
  }
  shard.client->post(std::move(request));
  shard.phase = Shard::Phase::Enact;
  shard.slices = 0;
}

bool EnactmentEngine::complete_attempt(Shard& shard) {
  AttemptResult attempt = std::move(shard.attempt);
  shard.attempt = AttemptResult{};
  shard.phase = Shard::Phase::Idle;
  // Any checkpoint this attempt needed is taken: the coordinator may drop
  // the finished enactment. Done before running_ falls, so a drain()ed
  // engine's coordinators are quiescent.
  shard.environment->coordination().release_finished();
  // This attempt's own reply is taken; anything the client still holds
  // belongs to a conversation the shard abandoned.
  const std::size_t stale_replies = shard.client->held();

  std::vector<Shard*> to_pump;
  bool again = true;
  bool journaled = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --running_;
    shard.stale_replies = stale_replies;
    auto it = records_.find(shard.snapshot.id);
    if (it != records_.end()) {
      CaseRecord& record = it->second;
      journaled = journal_ != nullptr;
      if (stopping_ && attempt.kind != AttemptResult::Kind::Success) {
        // Abandoned by shutdown: back to the queue, unjournaled, where the
        // journal has it, so a snapshot now records what a restart resumes.
        transition_locked(record, CaseState::Queued);
        admit_locked(record);
        journaled = false;
      } else {
        switch (attempt.kind) {
          case AttemptResult::Kind::Cancelled:
            finalize_locked(record, &shard, CaseState::Cancelled, attempt.reply,
                            "cancelled while running");
            break;
          case AttemptResult::Kind::Success:
            finalize_locked(record, &shard, CaseState::Completed, attempt.reply);
            break;
          case AttemptResult::Kind::Failure:
            if (record.retries_used < config_.max_case_retries && !record.cancel_requested) {
              ++record.retries_used;
              retried_->inc();
              if (!attempt.checkpoint_xml.empty()) {
                record.inputs = std::make_shared<const CaseInputs>(
                    CaseInputs{record.inputs->process_xml, record.inputs->case_xml,
                               std::move(attempt.checkpoint_xml)});
              }
              if (shards_.size() > 1) {
                // Never retry on the shard that just failed the case, and
                // never strand it: once every shard has failed it, the
                // exclusions start over from this one. Every shard runs
                // the same pristine stack, so what sets a shard apart is
                // its own fault (a floor, a broken agent), not its luck.
                record.excluded_shards.insert(shard.index);
                if (record.excluded_shards.size() >= shards_.size())
                  record.excluded_shards = {shard.index};
              }
              if (journal_) {
                // The event carries the resulting retry state (absolute),
                // so replay converges even when it overlaps a snapshot.
                std::string payload;
                store::Writer w(payload);
                w.u8(kEventRetry);
                w.u64(record.id);
                w.u32(static_cast<std::uint32_t>(record.retries_used));
                w.str(record.inputs->checkpoint_xml);
                w.u64(record.excluded_shards.size());
                for (std::size_t excluded : record.excluded_shards) w.u64(excluded);
                journal_append_locked(payload);
              }
              transition_locked(record, CaseState::Queued);
              admit_locked(record);
              // The readmitted case excludes this shard, so another shard's
              // stream must pick it up; this shard keeps pumping via its own
              // repost (its pump_scheduled is still set, so it is skipped).
              to_pump = claim_idle_pumps_locked();
            } else {
              finalize_locked(record, &shard, CaseState::Failed, attempt.reply);
            }
            break;
        }
      }
    }
    if (stopping_) {
      shard.pump_scheduled = false;
      again = false;
    }
    shard.snapshot.inputs.reset();  // a retry's inputs live on in its record
  }
  if (journaled) {
    // Group-commit barrier off the engine mutex, then a snapshot if the
    // journal accumulated enough records since the last one (the provider
    // re-takes the engine mutex, so this must run here, unlocked).
    if (journal_commit()) journal_->maybe_snapshot();
  }
  for (Shard* other : to_pump) post_pump(*other);
  return again;
}

bool EnactmentEngine::transition_locked(CaseRecord& record, CaseState to) {
  if (std::find(std::begin(kLegalEdges), std::end(kLegalEdges), std::pair(record.state, to)) ==
      std::end(kLegalEdges)) {
    illegal_->inc();
    IG_LOG_WARN("engine") << "illegal lifecycle edge for case " << record.id << ": "
                          << to_string(record.state) << " -> " << to_string(to);
    return false;
  }
  record.state = to;
  return true;
}

void EnactmentEngine::finalize_locked(CaseRecord& record, Shard* shard, CaseState state,
                                      const AclMessage& reply, std::string error) {
  if (!transition_locked(record, state)) return;
  CaseOutcome& outcome = record.outcome;
  outcome.error = error.empty() ? reply.param("error") : std::move(error);
  outcome.makespan = reply.param_double("makespan", 0.0);
  outcome.activities_executed = reply.param_int("activities-executed", 0);
  outcome.activities_replayed = reply.param_int("activities-replayed", 0);
  outcome.dispatch_failures = reply.param_int("dispatch-failures", 0);
  outcome.replans = reply.param_int("replans", 0);
  outcome.goal_satisfaction = reply.param_double("goal-satisfaction", 0.0);
  outcome.total_cost = reply.param_double("total-cost", 0.0);
  outcome.engine_retries = record.retries_used;
  outcome.completion_index = ++completion_sequence_;
  outcome.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - record.submitted_at)
          .count();
  latency_hist_->observe(outcome.latency_seconds);
  switch (state) {
    case CaseState::Completed:
      completed_->inc();
      if (shard != nullptr) ++shard->cases_completed;
      break;
    case CaseState::Cancelled:
      cancelled_->inc();
      break;
    default:
      failed_->inc();
      if (shard != nullptr) ++shard->cases_failed;
      break;
  }
  if (journal_) {
    std::string payload;
    store::Writer w(payload);
    w.u8(kEventTerminal);
    w.u64(record.id);
    write_outcome(w, state, outcome);
    journal_append_locked(payload);
  }
  IG_LOG_DEBUG("engine") << "case " << record.id << " -> " << to_string(state)
                         << " on shard " << outcome.shard;
  retire_locked(record);
  case_terminal_.notify_all();
}

void EnactmentEngine::retire_locked(CaseRecord& record) {
  record.inputs.reset();
  terminal_order_.push_back(record.id);
  evict_locked();
}

void EnactmentEngine::evict_locked() {
  while (terminal_order_.size() > config_.retained_outcomes) {
    const CaseId id = terminal_order_.front();
    terminal_order_.pop_front();
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    switch (it->second.state) {
      case CaseState::Completed: ++evicted_tally_.completed; break;
      case CaseState::Cancelled: ++evicted_tally_.cancelled; break;
      default: ++evicted_tally_.failed; break;
    }
    evicted_tally_.retries += static_cast<std::uint64_t>(it->second.retries_used);
    records_.erase(it);
    evicted_->inc();
    // Insert [id, id + 1), merging with the neighbouring ranges. Cases
    // finish roughly in id order, so the ranges stay few.
    CaseId first = id;
    CaseId last = id + 1;
    auto next = evicted_ranges_.lower_bound(id);
    if (next != evicted_ranges_.begin()) {
      auto prev = std::prev(next);
      if (prev->second == id) {
        first = prev->first;
        evicted_ranges_.erase(prev);
      }
    }
    if (next != evicted_ranges_.end() && next->first == last) {
      last = next->second;
      evicted_ranges_.erase(next);
    }
    evicted_ranges_.emplace(first, last);
  }
  retained_->set(static_cast<double>(terminal_order_.size()));
}

bool EnactmentEngine::evicted_locked(CaseId id) const {
  auto it = evicted_ranges_.upper_bound(id);
  if (it == evicted_ranges_.begin()) return false;
  return id < std::prev(it)->second;
}

void EnactmentEngine::degrade_locked(const std::string& reason) {
  io_errors_->inc();
  if (degraded_) return;
  degraded_ = true;
  degraded_reason_ = reason;
  IG_LOG_WARN("engine") << "journal failure — degrading: running cases finish "
                           "in memory, new durable admissions are rejected ("
                        << reason << ")";
}

bool EnactmentEngine::journal_append_locked(std::string_view payload, store::Lsn* lsn) {
  try {
    const store::Lsn appended = journal_->append_event("engine", payload);
    if (lsn != nullptr) *lsn = appended;
    return true;
  } catch (const store::Error& e) {
    degrade_locked(e.what());
    return false;
  }
}

bool EnactmentEngine::journal_commit(std::optional<store::Lsn> upto) {
  try {
    if (upto.has_value()) journal_->commit(*upto);
    else journal_->commit();
    return true;
  } catch (const store::Error& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    degrade_locked(e.what());
    return false;
  }
}

// -- durable mode ----------------------------------------------------------------

void EnactmentEngine::recover_from_journal() {
  // The storage engine replays during construction; buffer the events and
  // apply them after the snapshot blob, which they must land on top of.
  std::vector<std::string> replayed;
  journal_ = std::make_unique<store::StorageEngine>(
      config_.storage,
      [&replayed](std::string_view stream, std::string_view payload) {
        if (stream == "engine") replayed.emplace_back(payload);
      },
      metrics_.with("component", "engine-journal"));
  const std::string blob = journal_->recovered_state("engine");
  if (!blob.empty() && !decode_engine_state(blob)) {
    IG_LOG_DEBUG("engine") << "discarding undecodable engine snapshot blob ("
                           << blob.size() << " bytes); rebuilding from the WAL alone";
    records_.clear();
  }
  for (const std::string& payload : replayed) apply_journal_event(payload);

  // The retention horizon applies to recovered outcomes too, so a journal
  // of N finished cases comes back holding at most retained_outcomes of
  // them, and the next snapshot compacts the rest away for good.
  std::vector<std::pair<std::size_t, CaseId>> terminal;
  for (const auto& [id, record] : records_) {
    if (is_terminal(record.state)) terminal.emplace_back(record.outcome.completion_index, id);
  }
  std::sort(terminal.begin(), terminal.end());
  for (const auto& entry : terminal) terminal_order_.push_back(entry.second);
  const std::uint64_t evicted_before = evicted_tally_.cases();
  evict_locked();
  evicted_->inc(evicted_before);

  // Rebuild the queues and aggregate counters the replay implies. Cases
  // that were Queued *or Running* when the process died are re-admitted:
  // a running attempt left no durable partial state, and because its
  // random streams derive only from (case id, retries) it re-executes
  // identically on whatever shard picks it up after the restart.
  submitted_->inc(records_.size() + evicted_tally_.cases());
  completed_->inc(evicted_tally_.completed);
  failed_->inc(evicted_tally_.failed);
  cancelled_->inc(evicted_tally_.cancelled);
  retried_->inc(evicted_tally_.retries);
  for (const auto& [first, last] : evicted_ranges_)
    next_case_id_ = std::max(next_case_id_, last);
  for (auto& [id, record] : records_) {
    next_case_id_ = std::max(next_case_id_, id + 1);
    retried_->inc(static_cast<std::uint64_t>(record.retries_used));
    completion_sequence_ = std::max(completion_sequence_, record.outcome.completion_index);
    switch (record.state) {
      case CaseState::Completed: completed_->inc(); break;
      case CaseState::Cancelled: cancelled_->inc(); break;
      case CaseState::Failed: failed_->inc(); break;
      default: {
        // A restart may run fewer shards than the run that journaled the
        // exclusions; never let a stale set cover the whole fleet.
        if (record.excluded_shards.size() >= config_.shards) record.excluded_shards.clear();
        record.state = CaseState::Queued;  // replay restores; it makes no transition
        record.submitted_at = std::chrono::steady_clock::now();
        admit_locked(record);
        recovered_->inc();
        break;
      }
    }
  }
  if (recovered_->value() > 0) {
    IG_LOG_DEBUG("engine") << "cold start recovered " << records_.size() << " cases, "
                           << recovered_->value() << " resumed";
  }
  journal_->set_state_provider("engine", [this] { return encode_engine_state(); });
}

void EnactmentEngine::apply_journal_event(std::string_view payload) {
  store::Reader r(payload);
  const std::uint8_t type = r.u8();
  const CaseId id = r.u64();
  // An evicted case stays evicted: the WAL tail may still hold its events
  // when they overlap the snapshot that recorded the eviction.
  if (evicted_locked(id)) return;
  switch (type) {
    case kEventAdmit: {
      const std::string tenant(r.str());
      std::string process_xml(r.str());
      std::string case_xml(r.str());
      if (!r.ok() || id == kInvalidCase) return;
      CaseRecord& record = records_[id];
      if (record.id != kInvalidCase) return;  // already known via the snapshot blob
      record.id = id;
      record.tenant = tenant;
      record.inputs = std::make_shared<const CaseInputs>(
          CaseInputs{std::move(process_xml), std::move(case_xml), {}});
      record.state = CaseState::Queued;
      return;
    }
    case kEventRetry: {
      const std::uint32_t retries = r.u32();
      std::string checkpoint_xml(r.str());
      const std::uint64_t excluded_count = r.u64();
      std::set<std::size_t> excluded;
      for (std::uint64_t i = 0; i < excluded_count && r.ok(); ++i)
        excluded.insert(static_cast<std::size_t>(r.u64()));
      auto it = records_.find(id);
      if (!r.ok() || it == records_.end()) return;
      CaseRecord& record = it->second;
      if (is_terminal(record.state)) return;  // stale overlap of a finished case
      record.retries_used = static_cast<int>(retries);
      record.inputs = std::make_shared<const CaseInputs>(CaseInputs{
          record.inputs->process_xml, record.inputs->case_xml, std::move(checkpoint_xml)});
      record.excluded_shards = std::move(excluded);
      record.state = CaseState::Queued;
      return;
    }
    case kEventCancel: {
      auto it = records_.find(id);
      if (!r.ok() || it == records_.end()) return;
      it->second.cancel_requested = true;
      return;
    }
    case kEventTerminal: {
      const CaseOutcome outcome = read_outcome(r);
      auto it = records_.find(id);
      if (!r.ok() || it == records_.end()) return;
      if (!is_terminal(outcome.state)) return;  // corrupt state byte
      it->second.state = outcome.state;
      it->second.outcome = outcome;
      it->second.inputs.reset();
      return;
    }
    default:
      IG_LOG_DEBUG("engine") << "skipping unknown journal event type "
                             << static_cast<int>(type);
      return;
  }
}

std::string EnactmentEngine::encode_engine_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  store::Writer w(out);
  w.u32(kStateBlobVersion);
  w.u64(next_case_id_);
  w.u64(completion_sequence_);
  w.u64(records_.size());
  for (const auto& [id, record] : records_) {
    // A terminal record has no inputs left and writes them empty.
    static const CaseInputs kNoInputs;
    const CaseInputs& inputs = record.inputs ? *record.inputs : kNoInputs;
    w.u64(id);
    w.str(record.tenant);
    w.str(inputs.process_xml);
    w.str(inputs.case_xml);
    w.str(inputs.checkpoint_xml);
    w.u8(static_cast<std::uint8_t>(record.state));
    w.u8(record.cancel_requested ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(record.retries_used));
    w.u64(record.excluded_shards.size());
    for (std::size_t excluded : record.excluded_shards) w.u64(excluded);
    write_outcome(w, record.state, record.outcome);
  }
  w.u64(evicted_tally_.completed);
  w.u64(evicted_tally_.failed);
  w.u64(evicted_tally_.cancelled);
  w.u64(evicted_tally_.retries);
  w.u64(evicted_ranges_.size());
  for (const auto& [first, last] : evicted_ranges_) {
    w.u64(first);
    w.u64(last);
  }
  return out;
}

bool EnactmentEngine::decode_engine_state(std::string_view blob) {
  store::Reader r(blob);
  const std::uint32_t version = r.u32();
  if (version != 1 && version != kStateBlobVersion) return false;
  const std::uint64_t next_id = r.u64();
  const std::uint64_t completion_sequence = r.u64();
  const std::uint64_t count = r.u64();
  std::map<CaseId, CaseRecord> records;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    CaseRecord record;
    record.id = r.u64();
    record.tenant = std::string(r.str());
    CaseInputs inputs;
    inputs.process_xml = std::string(r.str());
    inputs.case_xml = std::string(r.str());
    inputs.checkpoint_xml = std::string(r.str());
    const std::uint8_t state = r.u8();
    record.cancel_requested = r.u8() != 0;
    record.retries_used = static_cast<int>(r.u32());
    const std::uint64_t excluded_count = r.u64();
    for (std::uint64_t k = 0; k < excluded_count && r.ok(); ++k)
      record.excluded_shards.insert(static_cast<std::size_t>(r.u64()));
    record.outcome = read_outcome(r);
    if (!r.ok() || record.id == kInvalidCase ||
        state > static_cast<std::uint8_t>(CaseState::Rejected)) {
      return false;
    }
    record.state = static_cast<CaseState>(state);
    if (!is_terminal(record.state))  // a terminal record keeps only its outcome
      record.inputs = std::make_shared<const CaseInputs>(std::move(inputs));
    const CaseId record_id = record.id;
    records.emplace(record_id, std::move(record));
  }
  EvictedTally tally;
  std::map<CaseId, CaseId> ranges;
  if (version >= 2) {
    tally.completed = r.u64();
    tally.failed = r.u64();
    tally.cancelled = r.u64();
    tally.retries = r.u64();
    const std::uint64_t range_count = r.u64();
    for (std::uint64_t i = 0; i < range_count && r.ok(); ++i) {
      const CaseId first = r.u64();
      const CaseId last = r.u64();
      if (first >= last) return false;
      ranges.emplace(first, last);
    }
  }
  if (!r.ok() || !r.done()) return false;
  records_ = std::move(records);
  evicted_tally_ = tally;
  evicted_ranges_ = std::move(ranges);
  next_case_id_ = std::max<CaseId>(1, next_id);
  completion_sequence_ = static_cast<std::size_t>(completion_sequence);
  return true;
}

}  // namespace ig::engine
