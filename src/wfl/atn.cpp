#include "wfl/atn.hpp"

#include "wfl/validate.hpp"

namespace ig::wfl {

std::string Atn::load(ProcessDescription process) {
  const auto errors = validate(process);
  if (!errors.empty()) return "invalid process description: " + errors.front().message;
  process_ = std::move(process);
  back_edges_ = process_.back_edges();
  return {};
}

void Atn::trace_to(obs::SpanTracer* tracer, std::string case_id, obs::SpanId parent) {
  tracer_ = tracer;
  case_id_ = std::move(case_id);
  parent_span_ = parent;
}

void Atn::start(const DataSet& state, double clock) {
  state_ = &state;
  clock_ = clock;
  close_spans("superseded");
  completions_.clear();
  join_arrivals_.clear();
  pending_.clear();
  stopped_ = false;
  fire(process_.begin_activity());
  drain();
}

void Atn::complete(const std::string& activity_id, const DataSet& state, double clock) {
  if (stopped_) return;
  state_ = &state;
  clock_ = clock;
  const Activity* activity = process_.find_activity(activity_id);
  if (activity == nullptr) return fail("activity vanished");
  fire(*activity);
  drain();
}

void Atn::stop(const std::string& status, double clock) {
  stopped_ = true;
  pending_.clear();
  clock_ = clock;
  close_spans(status);
}

void Atn::fail(const std::string& error) {
  stopped_ = true;
  pending_.clear();
  hooks_.fail(error);
}

void Atn::fire(const Activity& activity) {
  if (stopped_) return;
  ++completions_[activity.id];
  if (activity.kind != ActivityKind::EndUser && hooks_.fired) hooks_.fired(activity);
  if (activity.kind == ActivityKind::End) return hooks_.end();
  if (activity.kind == ActivityKind::Choice) return choose(activity);

  // Begin, EndUser, Fork, Join, Merge: every outgoing transition (Fork has
  // several; the others exactly one).
  const auto outgoing = process_.outgoing(activity.id);
  if (tracer_ != nullptr && activity.kind == ActivityKind::Fork) {
    const obs::SpanId fork =
        tracer_->instant(obs::SpanKind::Barrier, activity.name, case_id_, parent_span_, clock_);
    tracer_->tag(fork, "type", "fork");
    tracer_->tag(fork, "fanout", std::to_string(outgoing.size()));
  }
  // Pushed in reverse, so the first transition's token is followed first.
  for (auto it = outgoing.rbegin(); it != outgoing.rend(); ++it)
    pending_.push_back({(*it)->destination, activity.id});
}

void Atn::drain() {
  // A driver completing an activity from inside Hooks::ready pushes its
  // successors on top of the stack; the outer drain follows them next.
  if (draining_) return;
  draining_ = true;
  int steps = 0;
  while (!pending_.empty() && !stopped_) {
    if (++steps > kMaxStepsPerCall) {
      fail("step budget exhausted (malformed or runaway graph)");
      break;
    }
    const Token token = std::move(pending_.back());
    pending_.pop_back();
    arrive(token);
  }
  draining_ = false;
}

void Atn::arrive(const Token& token) {
  const Activity& activity = *process_.find_activity(token.activity_id);
  if (activity.kind == ActivityKind::EndUser) return hooks_.ready(activity);
  if (activity.kind == ActivityKind::Join) {
    // "A Join activity can be triggered only after all of its predecessor
    // activities are completed."
    auto& arrivals = join_arrivals_[activity.id];
    if (tracer_ != nullptr && arrivals.empty() && join_spans_.count(activity.id) == 0) {
      // The wait starts at the first arrival and ends when the join fires.
      const obs::SpanId wait =
          tracer_->begin(obs::SpanKind::Barrier, activity.name, case_id_, parent_span_, clock_);
      tracer_->tag(wait, "type", "join");
      join_spans_[activity.id] = wait;
    }
    arrivals.insert(token.from);
    if (arrivals.size() < process_.predecessors(activity.id).size()) return;
    auto wait = join_spans_.find(activity.id);
    if (wait != join_spans_.end()) {
      tracer_->tag(wait->second, "arrivals", std::to_string(arrivals.size()));
      tracer_->end(wait->second, clock_);
      join_spans_.erase(wait);
    }
    arrivals.clear();  // reset for the next loop pass, if any
  }
  // Fork, Choice, End, a fired Join, and Merge ("triggered after the
  // completion of any activity in its predecessor set").
  fire(activity);
}

void Atn::choose(const Activity& choice) {
  const int visits = completions_[choice.id];
  const auto outgoing = process_.outgoing(choice.id);
  // First satisfied guard in transition order; once the loop has run its
  // allotted passes, a satisfied back edge is passed over.
  const Transition* chosen = nullptr;
  const Transition* passed_over = nullptr;
  for (const Transition* transition : outgoing) {
    if (!evaluate_against_state(transition->guard, *state_)) continue;
    if (is_back_edge(*transition) && visits >= max_loop_iterations_) {
      passed_over = transition;
      continue;
    }
    chosen = transition;
    break;
  }
  if (chosen == nullptr) {
    // No followable guard holds: the first forward edge, then a back edge.
    for (const Transition* transition : outgoing) {
      if (!is_back_edge(*transition)) {
        chosen = transition;
        break;
      }
    }
    if (chosen == nullptr) chosen = passed_over;
  }
  if (chosen == nullptr) return fail("Choice '" + choice.name + "' has no viable transition");
  if (tracer_ != nullptr) {
    const obs::SpanId decision =
        tracer_->instant(obs::SpanKind::Choice, choice.name, case_id_, parent_span_, clock_);
    tracer_->tag(decision, "chosen", chosen->destination);
    tracer_->tag(decision, "visit", std::to_string(visits));
    // A back edge opens the next loop pass; any edge closes the open one.
    auto open = iteration_spans_.find(choice.id);
    if (open != iteration_spans_.end()) {
      tracer_->end(open->second, clock_);
      iteration_spans_.erase(open);
    }
    if (is_back_edge(*chosen)) {
      const obs::SpanId pass = tracer_->begin(obs::SpanKind::Iteration, choice.name, case_id_,
                                              parent_span_, clock_);
      tracer_->tag(pass, "pass", std::to_string(visits));
      iteration_spans_[choice.id] = pass;
    }
  }
  pending_.push_back({chosen->destination, choice.id});
}

void Atn::close_spans(const std::string& status) {
  if (tracer_ == nullptr) return;
  for (auto* open : {&join_spans_, &iteration_spans_}) {
    for (const auto& [id, span] : *open) {
      tracer_->tag(span, "status", status);
      tracer_->end(span, clock_);
    }
    open->clear();
  }
}

}  // namespace ig::wfl
