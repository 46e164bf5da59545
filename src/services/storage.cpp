#include "services/storage.hpp"

#include "services/protocol.hpp"
#include "util/strings.hpp"

namespace ig::svc {

using agent::AclMessage;
using agent::Performative;

void PersistentStorageService::put(const std::string& key, std::string value) {
  documents_.insert_or_assign(key, std::move(value));
}

std::optional<std::string> PersistentStorageService::get(const std::string& key) const {
  const auto it = documents_.find(key);
  if (it == documents_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> PersistentStorageService::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> keys;
  for (auto it = documents_.lower_bound(prefix); it != documents_.end(); ++it) {
    if (!util::starts_with(it->first, prefix)) break;
    keys.push_back(it->first);
  }
  return keys;
}

void PersistentStorageService::on_start() {
  register_with_information_service(*this, platform(), "persistent-storage");
}

void PersistentStorageService::handle_message(const AclMessage& message) {
  if (message.protocol == protocols::kStorePut) {
    put(message.param("key"), message.content);
    AclMessage reply = message.make_reply(Performative::Agree);
    reply.params["key"] = message.param("key");
    send(std::move(reply));
    return;
  }
  if (message.protocol == protocols::kStoreGet) {
    const std::string key = message.param("key");
    const std::optional<std::string> value = get(key);
    AclMessage reply =
        message.make_reply(value.has_value() ? Performative::Inform : Performative::Failure);
    reply.params["key"] = key;
    if (value.has_value()) reply.content = *value;
    else reply.params["error"] = "no document under key '" + key + "'";
    send(std::move(reply));
    return;
  }
  if (message.protocol == protocols::kStoreList) {
    AclMessage reply = message.make_reply(Performative::Inform);
    reply.params["keys"] = util::join(keys_with_prefix(message.param("prefix")), ",");
    send(std::move(reply));
    return;
  }
  if (!should_bounce_unknown(message)) return;
  send(make_not_understood(message, "unknown protocol '" + message.protocol + "'"));
}

}  // namespace ig::svc
