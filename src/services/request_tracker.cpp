#include "services/request_tracker.hpp"

#include <algorithm>
#include <stdexcept>

namespace ig::svc {

RequestTracker::RequestTracker(obs::Scope metrics)
    : metrics_(std::move(metrics)),
      retries_total_(metrics_.counter("tracker_retries_total")),
      timeouts_total_(metrics_.counter("tracker_timeouts_total")),
      dead_letters_total_(metrics_.counter("tracker_dead_letters_total")) {}

RequestTracker::~RequestTracker() {
  // Deadline timers capture `this`; cancel them so a tracker destroyed
  // before the calendar drains leaves no dangling callbacks behind.
  if (sim_ == nullptr) return;
  for (auto& [conversation_id, pending] : pending_) {
    if (pending.timer != 0) sim_->cancel(pending.timer);
  }
}

void RequestTracker::bind(grid::Simulation& sim, SendFn send, DeadLetterFn on_dead_letter) {
  sim_ = &sim;
  send_ = std::move(send);
  on_dead_letter_ = std::move(on_dead_letter);
}

void RequestTracker::track(agent::AclMessage message, const RetryPolicy& policy) {
  if (sim_ == nullptr || !send_)
    throw std::logic_error("RequestTracker::track before bind()");
  if (message.conversation_id.empty())
    throw std::invalid_argument("RequestTracker: message has no conversation id");

  abandon(message.conversation_id);  // re-tracking replaces the old entry

  const std::string conversation_id = message.conversation_id;
  Pending pending;
  pending.message = message;
  pending.policy = policy;
  pending.first_sent = sim_->now();
  pending.rng = util::Rng(util::derive_stream(seed_, next_sequence_++));
  pending.timer = sim_->schedule(
      std::max<grid::SimTime>(policy.timeout, 0.001),
      [this, conversation_id]() { on_deadline(conversation_id); });
  pending_.emplace(conversation_id, std::move(pending));
  send_(std::move(message));
}

bool RequestTracker::settle(const std::string& conversation_id) {
  auto it = pending_.find(conversation_id);
  if (it == pending_.end()) return false;
  if (it->second.timer != 0) sim_->cancel(it->second.timer);
  pending_.erase(it);
  return true;
}

bool RequestTracker::abandon(const std::string& conversation_id) {
  return settle(conversation_id);
}

std::size_t RequestTracker::abandon_prefix(const std::string& prefix) {
  std::size_t cancelled = 0;
  for (auto it = pending_.lower_bound(prefix); it != pending_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (it->second.timer != 0) sim_->cancel(it->second.timer);
    it = pending_.erase(it);
    ++cancelled;
  }
  return cancelled;
}

void RequestTracker::on_deadline(const std::string& conversation_id) {
  auto it = pending_.find(conversation_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.timer = 0;
  timeouts_total_.inc();

  if (pending.attempts >= pending.policy.max_attempts) {
    DeadLetter letter;
    letter.conversation_id = conversation_id;
    letter.receiver = pending.message.receiver;
    letter.protocol = pending.message.protocol;
    letter.attempts = pending.attempts;
    letter.first_sent = pending.first_sent;
    letter.abandoned_at = sim_->now();
    letter.reason = "no reply after " + std::to_string(pending.attempts) + " attempt(s)";
    pending_.erase(it);
    dead_letters_total_.inc();
    dead_letters_.push_back(letter);
    if (max_dead_letters_ > 0 && dead_letters_.size() > max_dead_letters_)
      dead_letters_.erase(dead_letters_.begin());
    if (on_dead_letter_) on_dead_letter_(letter);
    return;
  }

  ++pending.attempts;
  retries_total_.inc();
  // Decorrelated jitter: sleep ~ U(base, 3 * previous sleep), clamped. The
  // spread keeps a herd of timed-out requests from resending in lockstep.
  const grid::SimTime previous =
      pending.prev_sleep > 0.0 ? pending.prev_sleep : pending.policy.backoff_base;
  const grid::SimTime sleep =
      std::min(pending.policy.backoff_cap,
               pending.rng.next_double(pending.policy.backoff_base, previous * 3.0));
  pending.prev_sleep = sleep;
  pending.timer =
      sim_->schedule(sleep, [this, conversation_id]() { resend(conversation_id); });
}

void RequestTracker::resend(const std::string& conversation_id) {
  auto it = pending_.find(conversation_id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.timer =
      sim_->schedule(std::max<grid::SimTime>(pending.policy.timeout, 0.001),
                     [this, conversation_id]() { on_deadline(conversation_id); });
  send_(pending.message);
}

}  // namespace ig::svc
