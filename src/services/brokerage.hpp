// Brokerage service: classes of offered services + performance history.
//
// "Brokerage services maintain information about classes of services offered
// by the environment, as well as past performance data bases. Though the
// brokerage services make a best effort to maintain accurate information
// regarding the state of resources, such information may be obsolete."
// Containers advertise their hosted service types; dispatchers report
// execution outcomes, building the per-container history that matchmaking
// and soft-deadline reasoning consume. Providers with similar offerings are
// grouped into equivalence classes keyed by their sorted service set.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "agent/agent.hpp"

namespace ig::svc {

/// Past execution record of one container.
struct PerformanceHistory {
  std::size_t successes = 0;
  std::size_t failures = 0;
  double total_duration = 0.0;  ///< virtual seconds across successes

  double success_rate() const noexcept {
    const std::size_t total = successes + failures;
    return total > 0 ? static_cast<double>(successes) / static_cast<double>(total) : 1.0;
  }
  double mean_duration() const noexcept {
    return successes > 0 ? total_duration / static_cast<double>(successes) : 0.0;
  }
};

class BrokerageService : public agent::Agent {
 public:
  explicit BrokerageService(std::string name = "bs") : Agent(std::move(name)) {}

  void on_start() override;
  void handle_message(const agent::AclMessage& message) override;
  /// The performance history (offers and advertisements are long-lived).
  void save_pristine() override { pristine_history_ = history_; }
  void reset(std::uint64_t) override { history_ = pristine_history_; }

  // Direct lookups for tests and harnesses.
  std::vector<std::string> providers_of(const std::string& service_type) const;
  const PerformanceHistory* history_of(const std::string& container_id) const;
  /// Equivalence classes: sorted-service-set key -> container ids.
  std::map<std::string, std::vector<std::string>> equivalence_classes() const;

 private:
  void handle_advertise(const agent::AclMessage& message);
  void handle_query_providers(const agent::AclMessage& message);
  void handle_report(const agent::AclMessage& message);
  void handle_query_history(const agent::AclMessage& message);

  /// service type -> advertising containers.
  std::map<std::string, std::vector<std::string>> offers_;
  /// container id -> its advertised services (for equivalence classes).
  std::map<std::string, std::vector<std::string>> advertised_;
  /// container id -> performance history.
  std::map<std::string, PerformanceHistory> history_;
  std::map<std::string, PerformanceHistory> pristine_history_;
};

}  // namespace ig::svc
