// Discrete-event simulation kernel.
//
// The paper's environment is a campus grid; experiments here run against a
// simulated one. All services, agents, message deliveries and activity
// executions advance on this virtual clock, which makes every experiment
// deterministic and independent of wall-clock speed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ig::grid {

/// Virtual time in seconds.
using SimTime = double;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

/// A single-threaded event calendar with a virtual clock.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which keeps agent message interleavings deterministic.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const noexcept { return calendar_.now; }

  /// Schedules `action` to run `delay` seconds from now (delay >= 0).
  EventId schedule(SimTime delay, std::function<void()> action);

  /// Schedules `action` at absolute virtual time `at` (clamped to now).
  EventId schedule_at(SimTime at, std::function<void()> action);

  /// Schedules a *daemon* event: background upkeep (heartbeats, utilization
  /// sampling) that must never keep the calendar alive on its own. `run`
  /// executes daemons that precede real work but stops — and reports the
  /// calendar as drained — once only daemons remain; they stay queued and
  /// resume when real work is scheduled again. `run_until` executes them
  /// unconditionally (it is time-bounded). Mirrors daemon threads.
  EventId schedule_daemon(SimTime delay, std::function<void()> action);

  /// Cancels a pending event; returns false if already fired or unknown.
  bool cancel(EventId id);

  /// Runs the next event; returns false when the calendar is empty.
  bool step();

  /// Runs events until the calendar drains or `max_events` fire.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with time <= `until`; the clock ends at `until` even if
  /// fewer events existed.
  std::size_t run_until(SimTime until);

  /// Records the clock and the whole calendar (pending events, sequence
  /// and id counters) as the state `reset` returns to. A long-lived shard
  /// stack saves it once, after its bootstrap flush, when only daemon
  /// events (heartbeats) are pending.
  void save_pristine() { pristine_ = calendar_; }

  /// Discards every pending event and restores the saved clock and
  /// calendar; with nothing saved, an empty calendar at time 0.
  /// `executed_events` keeps counting across resets.
  void reset() { calendar_ = pristine_; }

  std::size_t pending_events() const noexcept {
    return calendar_.queue.size() - calendar_.cancelled.size();
  }
  /// Pending non-daemon events: the "real work" that keeps `run` going.
  std::size_t real_pending() const noexcept { return calendar_.real_pending; }
  std::size_t executed_events() const noexcept { return executed_; }

 private:
  bool step_one(bool daemons_alone);

  struct Event {
    SimTime time;
    std::uint64_t sequence;
    EventId id;
    // Ordering for the min-heap: earliest time first, FIFO within a time.
    bool operator>(const Event& other) const noexcept {
      if (time != other.time) return time > other.time;
      return sequence > other.sequence;
    }
  };

  struct Action {
    std::function<void()> callback;
    bool daemon = false;
  };

  EventId enqueue(SimTime at, std::function<void()> action, bool daemon);

  /// Everything a reset restores: the clock and the pending events.
  struct Calendar {
    SimTime now = 0.0;
    std::uint64_t next_sequence = 0;
    EventId next_id = 1;
    std::size_t real_pending = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_set<EventId> cancelled;
    // Actions are stored out-of-band so Event stays trivially copyable.
    std::unordered_map<EventId, Action> actions;
  };

  Calendar calendar_;
  Calendar pristine_;
  std::size_t executed_ = 0;
};

}  // namespace ig::grid
