#include "grid/node.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace ig::grid {

SimTime GridNode::enqueue_work(SimTime now, double work) {
  const SimTime start = std::max(now, runtime_.next_free);
  const SimTime duration = execution_time(work);
  runtime_.next_free = start + duration;
  runtime_.busy_time += duration;
  ++runtime_.completed_tasks;
  return runtime_.next_free;
}

std::string GridNode::to_display_string() const {
  std::string out = id_ + " '" + name_ + "' @" + domain_;
  out += " [" + hardware_.to_display_string() + "]";
  out += " nodes=" + std::to_string(node_count_);
  out += " rel=" + util::format_number(reliability_);
  out += is_up() ? " UP" : " DOWN";
  return out;
}

}  // namespace ig::grid
