// The abstract ATN machine: the one token-marking core of both enactors.
//
// "The coordination service implements an abstract ATN machine" whose
// configurations are token markings over the process description. This
// core owns that marking (per-activity completion counts and Join
// arrivals) and fires the flow-control activities: Begin seeds one token,
// Fork duplicates it, Join waits for a token from every predecessor, Merge
// passes any token through, and Choice routes its token along the first
// transition whose guard holds in the current world state.
//
// Firing is depth-first in transition order. A token reaching an end-user
// activity is handed to the driver (Hooks::ready); the driver runs it
// however it likes and reports its completion (complete()), which fires
// what follows. A token reaching End is handed over too (Hooks::end): the
// goal check belongs to the driver. The core knows nothing about agents,
// executors or goals. Two drivers use it: wfl::enact (synchronous) and the
// coordination service (asynchronous, across container agents).
//
// Loops. Back edges are found once per process from the graph (an edge
// into an activity still on the stack of a depth-first search from Begin),
// never from run history. A Choice that has been visited
// `max_loop_iterations` times passes over its satisfied back edges; when
// no guard it may follow holds, it takes its first forward edge, and only
// then a passed-over back edge.
//
// Spans (when a tracer is set): instant Barrier spans for Fork fan-out,
// Barrier spans for Join waits (first arrival to firing), instant Choice
// spans per decision and Iteration spans per loop pass, all stamped with
// the clock value the driver passes in.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "wfl/data.hpp"
#include "wfl/process.hpp"

namespace ig::wfl {

class Atn {
 public:
  /// What the machine hands its driver. `fired` may be empty.
  struct Hooks {
    std::function<void(const Activity&)> ready;  ///< an end-user activity holds a token
    std::function<void()> end;                   ///< a token reached End
    std::function<void(const std::string&)> fail;  ///< the machine cannot go on
    std::function<void(const Activity&)> fired = nullptr;  ///< a flow-control activity fired
  };

  /// Firings one start() or complete() may take before the machine fails
  /// as a runaway. It counts per call, so it only catches a graph that
  /// spins without handing a token to the driver; a long enactment is never
  /// cut off by it (a driver that wants a total budget counts itself).
  static constexpr int kMaxStepsPerCall = 100000;

  Atn(Hooks hooks, int max_loop_iterations)
      : hooks_(std::move(hooks)), max_loop_iterations_(max_loop_iterations) {}

  Atn(const Atn&) = delete;
  Atn& operator=(const Atn&) = delete;

  /// Validates `process` and makes it the plan the next start() enacts.
  /// Returns "invalid process description: <first violation>" and keeps the
  /// current plan when the process is malformed, "" otherwise.
  std::string load(ProcessDescription process);

  /// Spans go to `tracer` (nullptr = off) under `parent`, grouped by `case_id`.
  void trace_to(obs::SpanTracer* tracer, std::string case_id, obs::SpanId parent);

  /// (Re)starts the loaded plan: closes the previous start's open spans as
  /// "superseded", clears the marking and fires Begin.
  void start(const DataSet& state, double clock);

  /// Marks end-user activity `activity_id` complete and fires what follows.
  /// Drivers may call it from inside Hooks::ready.
  void complete(const std::string& activity_id, const DataSet& state, double clock);

  /// Stops firing until the next start() and closes the open Join and
  /// Iteration spans with `status`.
  void stop(const std::string& status, double clock);

  const ProcessDescription& process() const noexcept { return process_; }
  /// Activity id -> completions since the last start().
  const std::map<std::string, int>& completions() const noexcept { return completions_; }

 private:
  struct Token {
    std::string activity_id;
    std::string from;
  };

  void fire(const Activity& activity);
  void arrive(const Token& token);
  void choose(const Activity& choice);
  void drain();
  void fail(const std::string& error);
  void close_spans(const std::string& status);
  bool is_back_edge(const Transition& transition) const {
    return back_edges_[static_cast<std::size_t>(&transition - process_.transitions().data())];
  }

  Hooks hooks_;
  int max_loop_iterations_;
  ProcessDescription process_{"empty"};
  std::vector<bool> back_edges_;  ///< indexed like process_.transitions()

  // The marking.
  std::map<std::string, int> completions_;
  std::map<std::string, std::set<std::string>> join_arrivals_;  ///< join -> sources seen
  std::vector<Token> pending_;  ///< tokens in flight; the top is followed first
  bool stopped_ = true;
  bool draining_ = false;
  const DataSet* state_ = nullptr;  ///< the driver's world state, during a call
  double clock_ = 0.0;

  obs::SpanTracer* tracer_ = nullptr;
  std::string case_id_;
  obs::SpanId parent_span_ = 0;
  std::map<std::string, obs::SpanId> join_spans_;       ///< join id -> open wait span
  std::map<std::string, obs::SpanId> iteration_spans_;  ///< choice id -> open pass span
};

}  // namespace ig::wfl
