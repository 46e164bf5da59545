#include "wire/acl_xml.hpp"

#include <cstdio>
#include <stdexcept>

#include "xml/xml.hpp"

namespace ig::wire {

namespace {

/// The writer-side guard of the control-character bugfix: xml::escape also
/// rejects these bytes now, but checking here names the field instead of a
/// byte offset deep inside a serialized document.
void require_representable(std::string_view field, std::string_view value) {
  for (std::size_t i = 0; i < value.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(value[i]);
    if (c < 0x20 && c != '\t' && c != '\n' && c != '\r') {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "0x%02X", c);
      throw std::invalid_argument("acl_to_xml: " + std::string(field) + " contains byte " +
                                  buffer + " at offset " + std::to_string(i) +
                                  ", which XML 1.0 cannot represent; use the binary codec");
    }
  }
}

}  // namespace

std::string acl_to_xml(const agent::AclMessage& message) {
  // The XML form has no element for the typed payload; dropping it would
  // deliver an execute request with no data, so refuse instead.
  if (message.data != nullptr)
    throw std::invalid_argument(
        "acl_to_xml: data carries a typed DataSet payload, which the XML form cannot "
        "represent; use the binary codec");
  require_representable("sender", message.sender);
  require_representable("receiver", message.receiver);
  require_representable("conversation-id", message.conversation_id);
  require_representable("protocol", message.protocol);
  require_representable("ontology", message.ontology);
  require_representable("content", message.content);
  for (const auto& [name, value] : message.params) {
    require_representable("param name '" + name + "'", name);
    require_representable("param '" + name + "'", value);
  }

  xml::Document document("acl");
  xml::Element& root = document.root();
  root.set_attribute("performative", agent::to_string(message.performative));
  root.set_attribute("sender", message.sender);
  root.set_attribute("receiver", message.receiver);
  root.set_attribute("conversation-id", message.conversation_id);
  root.set_attribute("protocol", message.protocol);
  root.set_attribute("ontology", message.ontology);
  root.set_attribute("content", message.content);
  for (const auto& [name, value] : message.params) {
    xml::Element& param = root.add_child("param");
    param.set_attribute("name", name);
    param.set_attribute("value", value);
  }
  return document.to_string(-1);  // compact: the wire form has no pretty print
}

agent::AclMessage acl_from_xml(std::string_view text) {
  const xml::Document document = xml::parse(text);
  const xml::Element& root = document.root();
  if (root.name() != "acl") throw xml::ParseError("expected <acl> root element", 0);
  agent::AclMessage message;
  const std::string performative = root.attribute_or("performative", "");
  const auto parsed = agent::performative_from_string(performative);
  if (!parsed.has_value())
    throw xml::ParseError("unknown performative '" + performative + "'", 0);
  message.performative = *parsed;
  message.sender = root.attribute_or("sender", "");
  message.receiver = root.attribute_or("receiver", "");
  message.conversation_id = root.attribute_or("conversation-id", "");
  message.protocol = root.attribute_or("protocol", "");
  message.ontology = root.attribute_or("ontology", "");
  message.content = root.attribute_or("content", "");
  for (const auto& child : root.children()) {
    if (child->name() != "param") continue;
    message.params[child->attribute_or("name", "")] = child->attribute_or("value", "");
  }
  return message;
}

}  // namespace ig::wire
