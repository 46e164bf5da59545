// Request reliability: deadlines, bounded retries, dead letters.
//
// The services converse over an unreliable transport (see agent/chaos.hpp):
// a request may be dropped, its reply may be dropped, or the peer may be
// wedged. A RequestTracker gives every outstanding conversation a
// simulation-time deadline; on expiry it resends the original message after
// an exponential backoff with decorrelated jitter, and after a bounded
// number of attempts it gives up and records a dead letter so the owner can
// escalate (exclude the container, re-plan, fail the case) instead of
// hanging forever.
//
// Discipline for owners: call `settle` for *every* reply — including
// Failure bounces — before acting on it. The first settle wins; a false
// return means the reply is late or duplicated (a retry raced the original,
// or the chaos layer duplicated it) and must be dropped, or duplicate
// replies would corrupt enactment state.
//
// All jitter is drawn from util::derive_stream(seed, request-sequence), so
// a chaotic run retries at bitwise-reproducible times.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "agent/message.hpp"
#include "grid/sim.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ig::svc {

/// Per-conversation reliability knobs. Defaults are generous: on a healthy
/// platform every reply lands long before its deadline and the cancelled
/// timers cost nothing, so enabling the tracker does not change clean runs.
struct RetryPolicy {
  grid::SimTime timeout = 30.0;      ///< per-attempt reply deadline (virtual s)
  int max_attempts = 3;              ///< total sends (1 = never retry)
  grid::SimTime backoff_base = 0.25; ///< jitter lower bound before a resend
  grid::SimTime backoff_cap = 5.0;   ///< jitter upper clamp
};

/// A conversation the tracker gave up on.
struct DeadLetter {
  std::string conversation_id;
  std::string receiver;
  std::string protocol;
  int attempts = 0;
  grid::SimTime first_sent = 0.0;
  grid::SimTime abandoned_at = 0.0;
  std::string reason;
};

class RequestTracker {
 public:
  using SendFn = std::function<void(agent::AclMessage)>;
  using DeadLetterFn = std::function<void(const DeadLetter&)>;

  /// The retry, timeout and dead-letter counters live in `metrics` (the
  /// services pass their stack's scope labelled {owner=...}; the default is
  /// a private registry).
  explicit RequestTracker(obs::Scope metrics = {});
  ~RequestTracker();

  RequestTracker(const RequestTracker&) = delete;
  RequestTracker& operator=(const RequestTracker&) = delete;

  /// Must be called before `track` (agents bind in on_start, when the
  /// platform is available). `on_dead_letter` may be null.
  void bind(grid::Simulation& sim, SendFn send, DeadLetterFn on_dead_letter = nullptr);

  /// Seed for the backoff jitter streams (derive per-shard for engines).
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

  /// Attempt model: forgets every outstanding conversation and restarts the
  /// jitter streams from `seed`. Their deadline timers are not cancelled:
  /// the owner resets the calendar first, which already dropped them. The
  /// retry, timeout and dead-letter counts and the dead-letter ring stay.
  void reset(std::uint64_t seed) {
    pending_.clear();
    seed_ = seed;
    next_sequence_ = 0;
  }

  /// Sends `message` (attempt 1 of `policy.max_attempts`) and arms its
  /// deadline. Re-tracking a conversation id replaces the previous entry.
  void track(agent::AclMessage message, const RetryPolicy& policy);

  /// A reply arrived. True: first reply, caller should process it (the
  /// deadline timer is cancelled). False: late, duplicated, or never
  /// tracked — the caller must drop the message.
  bool settle(const std::string& conversation_id);

  /// Cancels one conversation without a reply and without a dead letter.
  bool abandon(const std::string& conversation_id);

  /// Cancels every outstanding conversation whose id starts with `prefix`
  /// (enactments abandon "<case>/" when they finish or re-plan). Returns
  /// how many were cancelled.
  std::size_t abandon_prefix(const std::string& prefix);

  bool outstanding(const std::string& conversation_id) const {
    return pending_.count(conversation_id) > 0;
  }
  std::size_t outstanding_count() const noexcept { return pending_.size(); }

  /// Dead letters observed so far (most recent last; ring-capped). Same
  /// thread as the simulation only.
  const std::vector<DeadLetter>& dead_letters() const noexcept { return dead_letters_; }
  void set_max_dead_letters(std::size_t limit) noexcept { max_dead_letters_ = limit; }

  // Registry counters, so an engine metrics snapshot may read them from
  // another thread while the shard runs.
  std::size_t retries_total() const noexcept { return retries_total_.value(); }
  std::size_t timeouts_total() const noexcept { return timeouts_total_.value(); }
  std::size_t dead_letters_total() const noexcept { return dead_letters_total_.value(); }

 private:
  struct Pending {
    agent::AclMessage message;  ///< kept verbatim for resends
    RetryPolicy policy;
    int attempts = 1;
    grid::SimTime first_sent = 0.0;
    grid::SimTime prev_sleep = 0.0;  ///< decorrelated-jitter state
    util::Rng rng{0};
    grid::EventId timer = 0;
  };

  void on_deadline(const std::string& conversation_id);
  void resend(const std::string& conversation_id);

  obs::Scope metrics_;
  obs::Counter& retries_total_;
  obs::Counter& timeouts_total_;
  obs::Counter& dead_letters_total_;
  grid::Simulation* sim_ = nullptr;
  SendFn send_;
  DeadLetterFn on_dead_letter_;
  std::uint64_t seed_ = 0x7E57;
  std::uint64_t next_sequence_ = 0;
  std::map<std::string, Pending> pending_;
  std::vector<DeadLetter> dead_letters_;
  std::size_t max_dead_letters_ = 256;
};

}  // namespace ig::svc
