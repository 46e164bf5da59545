#include "wfl/enact.hpp"

#include <deque>
#include <memory>

namespace ig::wfl {

ActivityExecutor make_catalogue_executor(const ServiceCatalogue& catalogue) {
  // The shared counter gives produced items unique names across the run.
  auto counter = std::make_shared<std::size_t>(0);
  return [&catalogue, counter](const Activity& activity,
                               const DataSet& state) -> std::optional<std::vector<DataSpec>> {
    const ServiceType* service = catalogue.find(activity.service_name);
    if (service == nullptr) return std::nullopt;
    if (!service->bind_inputs(state).has_value()) return std::nullopt;
    std::vector<DataSpec> outputs =
        service->produce_outputs(activity.service_name + "#" + std::to_string(++*counter) + ":");
    // Stable names from the activity's declared output set (D8, D9, ...).
    for (std::size_t i = 0; i < outputs.size() && i < activity.output_data.size(); ++i)
      outputs[i].set_name(activity.output_data[i]);
    return outputs;
  };
}

EnactmentResult enact(const ProcessDescription& process,
                      const CaseDescription& case_description,
                      const ActivityExecutor& executor, const EnactmentOptions& options) {
  EnactmentResult result;
  obs::SpanTracer* tracer = options.tracer;
  const std::string case_id =
      options.trace_case_id.empty() ? process.name() : options.trace_case_id;
  double clock = 0.0;  ///< executions so far; span timestamps
  const obs::SpanId case_span =
      tracer != nullptr ? tracer->begin(obs::SpanKind::Case, process.name(), case_id, 0, clock)
                        : 0;

  DataSet data = case_description.initial_data();
  struct Ready {
    const Activity* activity;
    /// The data when its token arrived; null for the head of the queue,
    /// which runs before anything can change the data.
    std::shared_ptr<const DataSet> state;
  };
  std::deque<Ready> ready;
  std::shared_ptr<const DataSet> snapshot;  ///< shared until the data next changes
  bool reached_end = false;
  int steps = 0;
  Atn atn({.ready =
               [&](const Activity& activity) {
                 ++steps;
                 if (ready.empty()) return ready.push_back({&activity, nullptr});
                 if (snapshot == nullptr) snapshot = std::make_shared<const DataSet>(data);
                 ready.push_back({&activity, snapshot});
               },
           .end = [&] { reached_end = true; },
           .fail = [&](const std::string& error) { result.error = error; },
           .fired =
               [&](const Activity& activity) {
                 ++steps;
                 result.trace.push_back({activity.id, activity.name, false, false});
               }},
          options.max_loop_iterations);
  result.error = atn.load(process);
  if (result.error.empty()) {
    atn.trace_to(tracer, case_id, case_span);
    atn.start(data, clock);
  }

  while (result.error.empty() && !reached_end && !ready.empty()) {
    if (steps > options.max_steps) {
      result.error = "step budget exhausted (malformed or runaway graph)";
      break;
    }
    const Ready next = std::move(ready.front());
    ready.pop_front();
    const Activity& activity = *next.activity;
    obs::SpanId span = 0;
    if (tracer != nullptr) {
      span = tracer->begin(obs::SpanKind::Activity, activity.name, case_id, case_span, clock);
      tracer->tag(span, "service", activity.service_name);
    }
    auto produced = executor(activity, next.state != nullptr ? *next.state : data);
    clock += 1.0;
    result.trace.push_back({activity.id, activity.name, true, !produced.has_value()});
    if (span != 0) {
      tracer->tag(span, "status", produced.has_value() ? "ok" : "failed");
      tracer->end(span, clock);
    }
    if (!produced.has_value()) {
      result.error = "activity '" + activity.name + "' failed";
      break;
    }
    ++result.activities_executed;
    for (auto& item : *produced) data.put(std::move(item));
    snapshot.reset();
    atn.complete(activity.id, data, clock);
  }

  if (result.error.empty() && !reached_end)
    result.error = "control flow stalled before reaching End (Join never satisfied?)";
  if (result.error.empty()) {
    result.goal_satisfaction = case_description.goal_satisfaction(data);
    result.success = result.goal_satisfaction >= 1.0;
    if (!result.success) result.error = "plan completed without satisfying the case goals";
  }
  result.final_data = std::move(data);
  atn.stop(result.success ? "ok" : "aborted", clock);
  if (case_span != 0) {
    tracer->tag(case_span, "success", result.success ? "true" : "false");
    if (!result.error.empty()) tracer->tag(case_span, "error", result.error);
    tracer->end(case_span, clock);
  }
  return result;
}

}  // namespace ig::wfl
