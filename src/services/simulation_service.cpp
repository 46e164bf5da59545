#include "services/simulation_service.hpp"

#include <memory>

#include "planner/convert.hpp"
#include "services/protocol.hpp"
#include "util/strings.hpp"
#include "wfl/enact.hpp"
#include "wfl/xml_io.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

void SimulationService::on_start() {
  register_with_information_service(*this, platform(), "simulation");
}

void SimulationService::handle_message(const AclMessage& message) {
  if (message.protocol != protocols::kSimulateCase &&
      message.protocol != protocols::kSimulatePlan) {
    if (!should_bounce_unknown(message)) return;
    send(make_not_understood(message, "unknown protocol '" + message.protocol + "'"));
    return;
  }

  AclMessage reply = message.make_reply(Performative::Inform);
  try {
    const wfl::ProcessDescription process = wfl::process_from_xml_string(message.content);
    wfl::CaseDescription case_description;
    if (message.has_param("case-xml"))
      case_description = wfl::case_from_xml_string(message.param("case-xml"));

    if (message.protocol == protocols::kSimulateCase) {
      // Full dry-run: walk the abstract ATN machine with the declarative
      // (catalogue-backed) executor — no grid resources consumed.
      wfl::EnactmentResult result =
          wfl::enact(process, case_description, wfl::make_catalogue_executor(catalogue_));
      ++simulations_;
      reply.params["success"] = result.success ? "true" : "false";
      if (!result.error.empty()) reply.params["error"] = result.error;
      reply.params["activities-executed"] = std::to_string(result.activities_executed);
      reply.params["goal-satisfaction"] =
          util::format_number(result.goal_satisfaction, 4);
      reply.data = std::make_shared<const wfl::DataSet>(std::move(result.final_data));
      send(std::move(reply));
      return;
    }

    // simulate-plan: fitness evaluation through the planner's flow model.
    const planner::PlanNode plan = planner::from_process(process);
    planner::PlanningProblem problem =
        planner::PlanningProblem::from_case(case_description, catalogue_);
    planner::PlanEvaluator evaluator(problem, config_);
    const planner::Fitness fitness = evaluator.evaluate(plan);
    ++simulations_;
    reply.params["fitness"] = util::format_number(fitness.overall, 4);
    reply.params["validity-fitness"] = util::format_number(fitness.validity, 4);
    reply.params["goal-fitness"] = util::format_number(fitness.goal, 4);
    reply.params["size"] = std::to_string(fitness.size);
    reply.params["flows"] = std::to_string(fitness.flows);
  } catch (const std::exception& error) {
    reply.performative = Performative::Failure;
    reply.params["error"] = error.what();
  }
  send(std::move(reply));
}

}  // namespace ig::svc
