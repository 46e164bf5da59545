// Persistent storage service.
//
// "Persistent storage services provide access to the data needed for the
// execution of user tasks." It also backs the "system knowledge base" where
// process descriptions are archived (Section 3). A keyed document store with
// optional namespaces is sufficient for both roles; the documents live in
// an ordered map, so a prefix listing is one range scan. What must survive
// a restart is the enactment engine's case journal (store/), not this map.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent.hpp"

namespace ig::svc {

class PersistentStorageService : public agent::Agent {
 public:
  explicit PersistentStorageService(std::string name = "pss") : Agent(std::move(name)) {}

  void on_start() override;
  void handle_message(const agent::AclMessage& message) override;

  // Direct access for tests and harnesses.
  void put(const std::string& key, std::string value);
  /// A copy of the document (nullopt when the key is absent), so a later
  /// put of the same key cannot invalidate it.
  std::optional<std::string> get(const std::string& key) const;
  std::vector<std::string> keys_with_prefix(const std::string& prefix) const;
  std::size_t size() const noexcept { return documents_.size(); }

 private:
  std::map<std::string, std::string> documents_;
};

}  // namespace ig::svc
