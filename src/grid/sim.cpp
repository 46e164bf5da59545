#include "grid/sim.hpp"

namespace ig::grid {

EventId Simulation::schedule(SimTime delay, std::function<void()> action) {
  return schedule_at(calendar_.now + (delay > 0 ? delay : 0), std::move(action));
}

EventId Simulation::schedule_at(SimTime at, std::function<void()> action) {
  return enqueue(at, std::move(action), /*daemon=*/false);
}

EventId Simulation::schedule_daemon(SimTime delay, std::function<void()> action) {
  return enqueue(calendar_.now + (delay > 0 ? delay : 0), std::move(action), /*daemon=*/true);
}

EventId Simulation::enqueue(SimTime at, std::function<void()> action, bool daemon) {
  Calendar& c = calendar_;
  if (at < c.now) at = c.now;
  const EventId id = c.next_id++;
  c.queue.push(Event{at, c.next_sequence++, id});
  c.actions.emplace(id, Action{std::move(action), daemon});
  if (!daemon) ++c.real_pending;
  return id;
}

bool Simulation::cancel(EventId id) {
  Calendar& c = calendar_;
  auto it = c.actions.find(id);
  if (it == c.actions.end()) return false;
  if (!it->second.daemon) --c.real_pending;
  c.cancelled.insert(id);
  c.actions.erase(it);
  return true;
}

bool Simulation::step_one(bool daemons_alone) {
  Calendar& c = calendar_;
  // Without real work pending, daemons alone must not advance the clock:
  // the calendar counts as drained (unless the caller is time-bounded).
  if (!daemons_alone && c.real_pending == 0) return false;
  while (!c.queue.empty()) {
    const Event event = c.queue.top();
    c.queue.pop();
    auto cancelled = c.cancelled.find(event.id);
    if (cancelled != c.cancelled.end()) {
      c.cancelled.erase(cancelled);
      continue;
    }
    auto action = c.actions.find(event.id);
    if (action == c.actions.end()) continue;  // defensive; should not happen
    std::function<void()> callback = std::move(action->second.callback);
    if (!action->second.daemon) --c.real_pending;
    c.actions.erase(action);
    c.now = event.time;
    ++executed_;
    callback();
    return true;
  }
  return false;
}

bool Simulation::step() { return step_one(/*daemons_alone=*/false); }

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

std::size_t Simulation::run_until(SimTime until) {
  Calendar& c = calendar_;
  std::size_t count = 0;
  while (!c.queue.empty()) {
    // Peek through cancellations.
    while (!c.queue.empty() && c.cancelled.count(c.queue.top().id) > 0) {
      c.cancelled.erase(c.queue.top().id);
      c.queue.pop();
    }
    if (c.queue.empty() || c.queue.top().time > until) break;
    if (step_one(/*daemons_alone=*/true)) ++count;
  }
  if (c.now < until) c.now = until;
  return count;
}

}  // namespace ig::grid
