// Process descriptions: the activity/transition graph of Section 2.
//
// A process description is "a formal description of the complex problem the
// user wishes to solve" — a directed graph whose nodes are activities
// (end-user activities plus the six flow-control activities Begin, End,
// Choice, Fork, Join, Merge) and whose edges are transitions. The
// coordination service enacts it as an abstract ATN machine; the planning
// service generates it.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "wfl/condition.hpp"
#include "wfl/data.hpp"

namespace ig::wfl {

class ProcessError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The paper's activity taxonomy: one computational kind + six flow controls.
enum class ActivityKind { Begin, End, EndUser, Fork, Join, Choice, Merge };

std::string_view to_string(ActivityKind kind) noexcept;
bool is_flow_control(ActivityKind kind) noexcept;

/// One node of a process description (the Activity frame of Figure 12).
struct Activity {
  std::string id;          ///< unique within the process description (e.g. "A2")
  std::string name;        ///< display name (e.g. "POD", "P3DR1", "FORK")
  ActivityKind kind = ActivityKind::EndUser;
  std::string service_name;              ///< end-user activities: the service type invoked
  std::vector<std::string> input_data;   ///< names of data consumed
  std::vector<std::string> output_data;  ///< names of data produced
  std::string constraint;                ///< named constraint (e.g. "Cons1") or empty
};

/// One edge (the Transition frame of Figure 12). Transitions leaving a
/// Choice activity carry a guard; all other guards are trivially true.
struct Transition {
  std::string id;  ///< unique within the process description (e.g. "TR7")
  std::string source;
  std::string destination;
  Condition guard;  ///< default-constructed == always true
};

/// A process description: named activity/transition graph with lookups.
class ProcessDescription {
 public:
  explicit ProcessDescription(std::string name = "process") : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // -- construction ----------------------------------------------------------
  /// Adds an activity; throws ProcessError on duplicate id. If `id` is
  /// empty an id of the form "A<n>" is generated.
  Activity& add_activity(Activity activity);
  /// Convenience: adds an end-user activity invoking `service_name`.
  Activity& add_end_user(std::string id, std::string name, std::string service_name);
  /// Convenience: adds a flow-control activity named after its kind.
  Activity& add_flow_control(std::string id, ActivityKind kind);

  /// Adds a transition; endpoints must exist. Generated id "TR<n>" if empty.
  Transition& add_transition(std::string source, std::string destination,
                             Condition guard = Condition(), std::string id = {});

  // -- lookups ----------------------------------------------------------------
  const Activity* find_activity(std::string_view id) const noexcept;
  Activity* find_activity_mutable(std::string_view id) noexcept;
  /// Finds by display name (names are unique in the paper's examples).
  const Activity* find_activity_by_name(std::string_view name) const noexcept;
  const Transition* find_transition(std::string_view id) const noexcept;

  const std::vector<Activity>& activities() const noexcept { return activities_; }
  const std::vector<Transition>& transitions() const noexcept { return transitions_; }

  /// Requires exactly one Begin / End activity (throws otherwise).
  const Activity& begin_activity() const;
  const Activity& end_activity() const;

  /// Direct predecessor / successor activity ids (graph adjacency).
  std::vector<std::string> predecessors(std::string_view activity_id) const;
  std::vector<std::string> successors(std::string_view activity_id) const;
  /// Transitions leaving / entering an activity.
  std::vector<const Transition*> outgoing(std::string_view activity_id) const;
  std::vector<const Transition*> incoming(std::string_view activity_id) const;
  /// Flags the back edges, indexed like transitions(): the transitions into
  /// an activity still on the stack of a depth-first search from Begin that
  /// follows transitions in declaration order. Requires exactly one Begin.
  std::vector<bool> back_edges() const;

  std::size_t activity_count() const noexcept { return activities_.size(); }
  std::size_t transition_count() const noexcept { return transitions_.size(); }
  std::size_t end_user_activity_count() const noexcept;
  std::size_t flow_control_activity_count() const noexcept;

  /// Multi-line listing in the style of Figure 10 (activities, then
  /// transitions with their endpoints).
  std::string to_display_string() const;

 private:
  std::string name_;
  std::vector<Activity> activities_;
  std::vector<Transition> transitions_;
  int next_activity_number_ = 1;
  int next_transition_number_ = 1;
};

}  // namespace ig::wfl
