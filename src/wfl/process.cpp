#include "wfl/process.hpp"

#include <algorithm>
#include <set>

namespace ig::wfl {

std::string_view to_string(ActivityKind kind) noexcept {
  switch (kind) {
    case ActivityKind::Begin: return "Begin";
    case ActivityKind::End: return "End";
    case ActivityKind::EndUser: return "End-user";
    case ActivityKind::Fork: return "Fork";
    case ActivityKind::Join: return "Join";
    case ActivityKind::Choice: return "Choice";
    case ActivityKind::Merge: return "Merge";
  }
  return "?";
}

bool is_flow_control(ActivityKind kind) noexcept { return kind != ActivityKind::EndUser; }

Activity& ProcessDescription::add_activity(Activity activity) {
  if (activity.id.empty())
    activity.id = "A" + std::to_string(next_activity_number_);
  if (find_activity(activity.id) != nullptr)
    throw ProcessError("duplicate activity id '" + activity.id + "'");
  ++next_activity_number_;
  activities_.push_back(std::move(activity));
  return activities_.back();
}

Activity& ProcessDescription::add_end_user(std::string id, std::string name,
                                           std::string service_name) {
  Activity activity;
  activity.id = std::move(id);
  activity.name = std::move(name);
  activity.kind = ActivityKind::EndUser;
  activity.service_name = std::move(service_name);
  return add_activity(std::move(activity));
}

Activity& ProcessDescription::add_flow_control(std::string id, ActivityKind kind) {
  if (!is_flow_control(kind)) throw ProcessError("add_flow_control: kind is End-user");
  Activity activity;
  activity.id = std::move(id);
  activity.name = std::string(to_string(kind));
  // Flow-control display names follow the paper's upper-case convention.
  std::transform(activity.name.begin(), activity.name.end(), activity.name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  activity.kind = kind;
  return add_activity(std::move(activity));
}

Transition& ProcessDescription::add_transition(std::string source, std::string destination,
                                               Condition guard, std::string id) {
  if (find_activity(source) == nullptr)
    throw ProcessError("transition source '" + source + "' does not exist");
  if (find_activity(destination) == nullptr)
    throw ProcessError("transition destination '" + destination + "' does not exist");
  if (id.empty()) id = "TR" + std::to_string(next_transition_number_);
  if (find_transition(id) != nullptr) throw ProcessError("duplicate transition id '" + id + "'");
  ++next_transition_number_;
  Transition transition;
  transition.id = std::move(id);
  transition.source = std::move(source);
  transition.destination = std::move(destination);
  transition.guard = std::move(guard);
  transitions_.push_back(std::move(transition));
  return transitions_.back();
}

const Activity* ProcessDescription::find_activity(std::string_view id) const noexcept {
  for (const auto& activity : activities_) {
    if (activity.id == id) return &activity;
  }
  return nullptr;
}

Activity* ProcessDescription::find_activity_mutable(std::string_view id) noexcept {
  for (auto& activity : activities_) {
    if (activity.id == id) return &activity;
  }
  return nullptr;
}

const Activity* ProcessDescription::find_activity_by_name(std::string_view name) const noexcept {
  for (const auto& activity : activities_) {
    if (activity.name == name) return &activity;
  }
  return nullptr;
}

const Transition* ProcessDescription::find_transition(std::string_view id) const noexcept {
  for (const auto& transition : transitions_) {
    if (transition.id == id) return &transition;
  }
  return nullptr;
}

const Activity& ProcessDescription::begin_activity() const {
  const Activity* found = nullptr;
  for (const auto& activity : activities_) {
    if (activity.kind == ActivityKind::Begin) {
      if (found != nullptr) throw ProcessError("multiple Begin activities");
      found = &activity;
    }
  }
  if (found == nullptr) throw ProcessError("no Begin activity");
  return *found;
}

const Activity& ProcessDescription::end_activity() const {
  const Activity* found = nullptr;
  for (const auto& activity : activities_) {
    if (activity.kind == ActivityKind::End) {
      if (found != nullptr) throw ProcessError("multiple End activities");
      found = &activity;
    }
  }
  if (found == nullptr) throw ProcessError("no End activity");
  return *found;
}

std::vector<std::string> ProcessDescription::predecessors(std::string_view activity_id) const {
  std::vector<std::string> out;
  for (const auto& transition : transitions_) {
    if (transition.destination == activity_id) out.push_back(transition.source);
  }
  return out;
}

std::vector<std::string> ProcessDescription::successors(std::string_view activity_id) const {
  std::vector<std::string> out;
  for (const auto& transition : transitions_) {
    if (transition.source == activity_id) out.push_back(transition.destination);
  }
  return out;
}

std::vector<bool> ProcessDescription::back_edges() const {
  std::vector<bool> back(transitions_.size(), false);
  std::set<std::string_view> on_stack;
  std::set<std::string_view> seen;
  struct Frame {
    std::string_view id;
    std::vector<const Transition*> outgoing;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  const auto visit = [&](std::string_view id) {
    seen.insert(id);
    on_stack.insert(id);
    stack.push_back({id, outgoing(id)});
  };
  visit(begin_activity().id);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next == frame.outgoing.size()) {
      on_stack.erase(frame.id);
      stack.pop_back();
      continue;
    }
    const Transition& transition = *frame.outgoing[frame.next++];
    if (on_stack.count(transition.destination) > 0)
      back[static_cast<std::size_t>(&transition - transitions_.data())] = true;
    else if (seen.count(transition.destination) == 0)
      visit(transition.destination);
  }
  return back;
}

std::vector<const Transition*> ProcessDescription::outgoing(std::string_view activity_id) const {
  std::vector<const Transition*> out;
  for (const auto& transition : transitions_) {
    if (transition.source == activity_id) out.push_back(&transition);
  }
  return out;
}

std::vector<const Transition*> ProcessDescription::incoming(std::string_view activity_id) const {
  std::vector<const Transition*> out;
  for (const auto& transition : transitions_) {
    if (transition.destination == activity_id) out.push_back(&transition);
  }
  return out;
}

std::size_t ProcessDescription::end_user_activity_count() const noexcept {
  std::size_t count = 0;
  for (const auto& activity : activities_) {
    if (activity.kind == ActivityKind::EndUser) ++count;
  }
  return count;
}

std::size_t ProcessDescription::flow_control_activity_count() const noexcept {
  return activities_.size() - end_user_activity_count();
}

std::string ProcessDescription::to_display_string() const {
  std::string out = "Process Description: " + name_ + "\n";
  out += "Activities (" + std::to_string(activities_.size()) + "):\n";
  for (const auto& activity : activities_) {
    out += "  " + activity.id + "  " + activity.name + "  [" +
           std::string(to_string(activity.kind)) + "]";
    if (!activity.service_name.empty()) out += "  service=" + activity.service_name;
    if (!activity.constraint.empty()) out += "  constraint=" + activity.constraint;
    out += "\n";
  }
  out += "Transitions (" + std::to_string(transitions_.size()) + "):\n";
  for (const auto& transition : transitions_) {
    const Activity* source = find_activity(transition.source);
    const Activity* destination = find_activity(transition.destination);
    out += "  " + transition.id + "  " + (source ? source->name : transition.source) + " -> " +
           (destination ? destination->name : transition.destination);
    if (!transition.guard.is_trivially_true()) out += "  when " + transition.guard.to_string();
    out += "\n";
  }
  return out;
}

}  // namespace ig::wfl
