// The abstract ATN machine, synchronous driver.
//
// wfl::enact drives the ATN core (wfl/atn.hpp) without agents: the core
// fires the flow-control activities, and each end-user activity it hands
// over joins a FIFO that this driver runs through an executor, one at a
// time. An activity runs on the world state as it stood when its token
// arrived, so sibling FORK branches do not see each other's outputs, as on
// the grid. The driver counts executions, records the EnactmentStep trace
// and fails when the case goals are unmet at End. The simulation service
// and the test suite use it ("simulate an experiment before actually
// conducting it"); the coordination service drives the same core
// asynchronously across container agents.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "wfl/atn.hpp"
#include "wfl/case_description.hpp"
#include "wfl/process.hpp"
#include "wfl/service.hpp"

namespace ig::wfl {

/// Executes one end-user activity: receives the activity and the current
/// world state, returns the produced data items, or nullopt on failure.
using ActivityExecutor =
    std::function<std::optional<std::vector<DataSpec>>(const Activity&, const DataSet&)>;

/// A declarative executor backed by a service catalogue: binds the
/// activity's service preconditions against the state and produces the
/// postcondition-implied outputs (named after the activity's output set
/// when given). Fails when the precondition cannot be met.
ActivityExecutor make_catalogue_executor(const ServiceCatalogue& catalogue);

struct EnactmentOptions {
  /// Guardrail for loops whose continue-guard never falsifies.
  int max_loop_iterations = 8;
  /// Upper bound on the run's steps: the core's firings plus the tokens it
  /// hands over (malformed graphs cannot spin forever).
  int max_steps = 100000;
  /// Optional span tracer (not owned; nullptr = tracing off). The driver
  /// emits one Case span and one Activity span per end-user execution; the
  /// core adds Fork/Join Barrier spans, Choice decisions and loop Iteration
  /// spans. Timestamps count executions: this driver has no virtual clock,
  /// and an execution costs one unit.
  obs::SpanTracer* tracer = nullptr;
  /// Case id the spans are grouped under; the process name when empty.
  std::string trace_case_id;
};

/// One executed (or attempted) activity, for the trace.
struct EnactmentStep {
  std::string activity_id;
  std::string activity_name;
  bool executed = false;  ///< true for end-user activities; false for flow control
  bool failed = false;
};

struct EnactmentResult {
  bool success = false;
  std::string error;
  DataSet final_data;
  int activities_executed = 0;
  double goal_satisfaction = 0.0;
  std::vector<EnactmentStep> trace;
};

/// Synchronously enacts `process` for `case_description`. The executor runs
/// each end-user activity; an executor failure fails the whole enactment
/// (the coordination service adds retry and re-planning on top).
EnactmentResult enact(const ProcessDescription& process,
                      const CaseDescription& case_description,
                      const ActivityExecutor& executor, const EnactmentOptions& options = {});

}  // namespace ig::wfl
