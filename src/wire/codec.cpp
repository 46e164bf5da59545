#include "wire/codec.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "store/crc32c.hpp"

namespace ig::wire {

namespace {

/// Decode-error exit: records `reason` when the caller asked for one.
bool fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return false;
}

/// Lists nested inside `value`, counting `value` itself (0 for a scalar).
int list_depth(const meta::Value& value) {
  if (value.type() != meta::ValueType::List) return 0;
  int deepest = 0;
  for (const auto& item : value.as_list()) deepest = std::max(deepest, list_depth(item));
  return deepest + 1;
}

/// Throws before a frame is started, so a refused message leaves the
/// intern table exactly as the decoder will know it.
void require_encodable(const wfl::DataSet& data) {
  for (const auto& item : data.items())
    for (const auto& [name, value] : item.properties())
      if (list_depth(value) > kMaxListDepth)
        throw std::invalid_argument("wire encode: data item '" + item.name() + "' property '" +
                                    name + "' nests lists deeper than " +
                                    std::to_string(kMaxListDepth));
}

/// One type-tagged data-set value (see the frame layout in codec.hpp).
void put_value(const meta::Value& value, std::string& payload) {
  store::Writer writer(payload);
  writer.u8(static_cast<std::uint8_t>(value.type()));
  switch (value.type()) {
    case meta::ValueType::None: return;
    case meta::ValueType::String: return writer.str(value.as_string());
    case meta::ValueType::Number:
      return writer.u64(std::bit_cast<std::uint64_t>(value.as_number()));
    case meta::ValueType::Boolean: return writer.u8(value.as_boolean() ? 1 : 0);
    case meta::ValueType::List:
      put_varint(payload, value.as_list().size());
      for (const auto& item : value.as_list()) put_value(item, payload);
      return;
  }
}

/// Reads one value written by put_value, nested `depth` lists below a
/// property; false with a reason on malformed input.
bool read_value(store::Reader& reader, int depth, meta::Value& value, std::string* error) {
  const std::uint8_t tag = reader.u8();
  if (!reader.ok()) return fail(error, "truncated value type tag");
  if (tag > static_cast<std::uint8_t>(meta::ValueType::List))
    return fail(error, "unknown value type tag " + std::to_string(tag));
  switch (static_cast<meta::ValueType>(tag)) {
    case meta::ValueType::None:
      value = meta::Value();
      return true;
    case meta::ValueType::String: {
      const std::string_view text = reader.str();
      if (!reader.ok()) return fail(error, "truncated string value");
      value = meta::Value(std::string(text));
      return true;
    }
    case meta::ValueType::Number: {
      const std::uint64_t bits = reader.u64();
      if (!reader.ok()) return fail(error, "truncated number value");
      value = meta::Value(std::bit_cast<double>(bits));
      return true;
    }
    case meta::ValueType::Boolean: {
      const std::uint8_t flag = reader.u8();
      if (!reader.ok() || flag > 1) return fail(error, "malformed boolean value");
      value = meta::Value(flag == 1);
      return true;
    }
    case meta::ValueType::List: {
      if (depth >= kMaxListDepth)
        return fail(error, "list nesting exceeds the depth cap of " +
                               std::to_string(kMaxListDepth));
      const auto count = read_varint(reader);
      // Every value takes at least its tag byte.
      if (!count.has_value() || *count > reader.remaining())
        return fail(error, "malformed list count");
      std::vector<meta::Value> items;
      for (std::uint64_t i = 0; i < *count; ++i) {
        meta::Value item;
        if (!read_value(reader, depth + 1, item, error)) return false;
        items.push_back(std::move(item));
      }
      value = meta::Value(std::move(items));
      return true;
    }
  }
  return true;
}

}  // namespace

// -- varint ---------------------------------------------------------------------

void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

std::optional<std::uint64_t> read_varint(store::Reader& reader) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = reader.u8();
    if (!reader.ok()) return std::nullopt;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only contribute the top bit of a 64-bit value.
      if (shift == 63 && byte > 1) return std::nullopt;
      return value;
    }
  }
  return std::nullopt;  // continuation bit still set after 64 bits
}

// -- encoder --------------------------------------------------------------------

void Encoder::intern_field(std::string_view value, std::string& payload) {
  auto it = table_.find(value);
  if (it != table_.end()) {
    ++stats_.intern_hits;
    put_varint(payload, it->second);
    return;
  }
  ++stats_.intern_misses;
  const std::uint32_t id = next_id_++;
  table_.emplace(std::string(value), id);
  put_varint(payload, 0);  // definition marker
  put_varint(payload, id);
  store::Writer writer(payload);
  writer.str(value);
}

void Encoder::encode_data(const wfl::DataSet& data, std::string& payload) {
  put_varint(payload, data.size());
  for (const auto& item : data.items()) {
    store::Writer(payload).str(item.name());
    put_varint(payload, item.properties().size());
    for (const auto& [name, value] : item.properties()) {
      intern_field(name, payload);
      put_value(value, payload);
    }
  }
}

void Encoder::encode(const agent::AclMessage& message, std::string& out) {
  if (message.data != nullptr) require_encodable(*message.data);
  std::string payload;
  store::Writer writer(payload);
  writer.u8(kWireVersion);
  intern_field(agent::to_string(message.performative), payload);
  writer.str(message.sender);
  writer.str(message.receiver);
  writer.str(message.conversation_id);
  intern_field(message.protocol, payload);
  intern_field(message.ontology, payload);
  writer.str(message.content);
  put_varint(payload, message.params.size());
  for (const auto& [name, value] : message.params) {
    intern_field(name, payload);
    store::Writer param_writer(payload);
    param_writer.str(value);
  }
  writer.u8(message.data != nullptr ? 1 : 0);
  if (message.data != nullptr) encode_data(*message.data, payload);

  std::string header;
  store::Writer header_writer(header);
  header_writer.u32(static_cast<std::uint32_t>(payload.size()));
  header_writer.u32(store::crc32c(payload));
  out += header;
  out += payload;

  ++stats_.frames;
  stats_.payload_bytes += payload.size();
  stats_.frame_bytes += kFrameHeaderBytes + payload.size();
}

std::string Encoder::encode(const agent::AclMessage& message) {
  std::string out;
  encode(message, out);
  return out;
}

// -- decoder --------------------------------------------------------------------

agent::AclMessage WireMessageView::materialize() const {
  agent::AclMessage message;
  message.performative = performative;
  message.sender = std::string(sender);
  message.receiver = std::string(receiver);
  message.conversation_id = std::string(conversation_id);
  message.protocol = std::string(protocol);
  message.ontology = std::string(ontology);
  message.content = std::string(content);
  for (const auto& [name, value] : params) message.params.emplace(name, value);
  message.data = data;
  return message;
}

FrameStatus peek_frame(std::string_view buffer, std::string_view& payload,
                       std::size_t& frame_size, std::string* error) {
  if (buffer.size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  store::Reader reader(buffer);
  const std::uint32_t length = reader.u32();
  const std::uint32_t checksum = reader.u32();
  if (length > kMaxFramePayload) {
    if (error != nullptr)
      *error = "oversized frame: length prefix " + std::to_string(length) + " exceeds " +
               std::to_string(kMaxFramePayload);
    return FrameStatus::kBad;
  }
  if (buffer.size() - kFrameHeaderBytes < length) return FrameStatus::kNeedMore;
  payload = buffer.substr(kFrameHeaderBytes, length);
  if (store::crc32c(payload) != checksum) {
    if (error != nullptr) *error = "frame checksum mismatch";
    payload = {};
    return FrameStatus::kBad;
  }
  frame_size = kFrameHeaderBytes + length;
  return FrameStatus::kFrame;
}

bool Decoder::intern_field(store::Reader& reader, std::string_view& value, std::string* error) {
  const auto tag = read_varint(reader);
  if (!tag.has_value()) return fail(error, "truncated intern tag");
  if (*tag != 0) {
    // Reference to an already-defined vocabulary entry.
    if (*tag > table_.size())
      return fail(error, "unknown intern id " + std::to_string(*tag) + " (table holds " +
                             std::to_string(table_.size()) + ")");
    value = table_[static_cast<std::size_t>(*tag) - 1];
    return true;
  }
  const auto id = read_varint(reader);
  if (!id.has_value() || *id == 0) return fail(error, "malformed intern definition id");
  const std::string_view literal = reader.str();
  if (!reader.ok()) return fail(error, "truncated intern literal");
  if (*id <= table_.size()) {
    // Idempotent redefinition (a duplicated frame); the literal must match.
    const std::string& existing = table_[static_cast<std::size_t>(*id) - 1];
    if (existing != literal)
      return fail(error,
                  "intern id " + std::to_string(*id) + " redefined with different literal");
    value = existing;
    return true;
  }
  // A gap means the defining frame was lost; indexing past it would lie.
  if (*id != table_.size() + 1)
    return fail(error, "intern definition out of order: id " + std::to_string(*id) +
                           " after table of " + std::to_string(table_.size()));
  table_.emplace_back(literal);
  value = table_.back();
  return true;
}

bool Decoder::decode_payload(std::string_view payload, WireMessageView& view,
                             std::string* error) {
  view = WireMessageView{};
  store::Reader reader(payload);
  const std::uint8_t version = reader.u8();
  if (!reader.ok() || version != kWireVersion)
    return fail(error, "unsupported wire version " + std::to_string(version));
  std::string_view performative;
  if (!intern_field(reader, performative, error)) return false;
  const auto parsed = agent::performative_from_string(performative);
  if (!parsed.has_value())
    return fail(error, "unknown performative '" + std::string(performative) + "'");
  view.performative = *parsed;
  view.sender = reader.str();
  view.receiver = reader.str();
  view.conversation_id = reader.str();
  if (!reader.ok()) return fail(error, "truncated addressing fields");
  if (!intern_field(reader, view.protocol, error)) return false;
  if (!intern_field(reader, view.ontology, error)) return false;
  view.content = reader.str();
  if (!reader.ok()) return fail(error, "truncated content");
  const auto count = read_varint(reader);
  // A param needs at least one byte each; a count beyond the bytes left is
  // corrupt and must not drive a giant reserve().
  if (!count.has_value() || *count > reader.remaining())
    return fail(error, "malformed param count");
  view.params.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    std::string_view name;
    if (!intern_field(reader, name, error)) return false;
    const std::string_view value = reader.str();
    if (!reader.ok()) return fail(error, "truncated param value");
    view.params.emplace_back(name, value);
  }
  if (!decode_data(reader, view, error)) return false;
  if (!reader.done()) return fail(error, "trailing bytes after message");
  return true;
}

bool Decoder::decode_data(store::Reader& reader, WireMessageView& view, std::string* error) {
  const std::uint8_t presence = reader.u8();
  if (!reader.ok() || presence > 1) return fail(error, "malformed data presence byte");
  if (presence == 0) return true;
  const auto item_count = read_varint(reader);
  // An item takes at least its name's length prefix and a property count.
  if (!item_count.has_value() || *item_count > reader.remaining())
    return fail(error, "malformed data item count");
  auto data = std::make_shared<wfl::DataSet>();
  for (std::uint64_t i = 0; i < *item_count; ++i) {
    wfl::DataSpec item{std::string(reader.str())};
    const auto property_count = read_varint(reader);
    if (!reader.ok() || !property_count.has_value() || *property_count > reader.remaining())
      return fail(error, "malformed data item '" + item.name() + "'");
    for (std::uint64_t j = 0; j < *property_count; ++j) {
      std::string_view name;
      if (!intern_field(reader, name, error)) return false;
      meta::Value value;
      if (!read_value(reader, 0, value, error)) return false;
      item.set(name, std::move(value));
    }
    data->put(std::move(item));
  }
  view.data = std::move(data);
  return true;
}

}  // namespace ig::wire
