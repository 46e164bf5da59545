// Binary ACL wire codec: length-prefixed frames with per-connection interning.
//
// The paper's services speak FIPA ACL over Jade; inside one process our
// AclMessage is a plain struct, but the federated multi-process tier needs
// it on a byte stream, and at production-chain volumes (McRunjob-style
// workloads) serialization is the hot path. XML pays to re-spell the
// protocol vocabulary in every message; this codec sends each vocabulary
// string — the performative, protocol, ontology, param names, and the
// property names of a data-set payload — in full exactly once per
// connection and as a one- or two-byte varint id afterwards.
//
// Frame layout (everything little-endian, reusing store's codec and CRC):
//
//   [u32 payload length][u32 crc32c(payload)][payload]
//
// and inside the payload:
//
//   u8  version (kWireVersion)
//   interned performative        -- FIPA string form, e.g. "REQUEST"
//   str sender / receiver / conversation-id
//   interned protocol / ontology
//   str content
//   varint param count, then per param: interned name, str value
//   u8  data presence (0: no `data` payload, 1: a DataSet follows)
//   varint item count, then per item:
//     str name, varint property count, then per property:
//       interned property name, value
//
// and a value is a u8 type tag (meta::ValueType: 0 none, 1 string,
// 2 number, 3 boolean, 4 list) followed by nothing (none), a str (string),
// the u64 IEEE-754 bits of the double (number: exact, NaN payloads and -0.0
// included), a u8 0/1 (boolean), or a varint count and that many values
// (list, nested at most kMaxListDepth deep).
//
// `str` is store::Writer's u32-length-prefixed bytes (arbitrary binary
// content round-trips exactly — no XML character-set caveats) and an
// *interned* field is either `varint id` (id >= 1, previously defined) or
// `varint 0, varint id, str literal` (definition). Definitions carry their
// id explicitly and are idempotent, so a duplicated frame replays cleanly;
// a reference to an id the decoder never learned (a dropped or reordered
// definition frame) is a decode error, never an out-of-bounds read. Every
// count is checked against the bytes left in the payload before it sizes
// anything.
//
// Decoding is zero-copy for the message fields: a frame parses into a
// WireMessageView of string_views over the receive buffer (raw fields) and
// the decoder's intern table (vocabulary fields). The view is valid until
// the receive buffer is mutated or the decoder destroyed; `materialize()`
// copies it into an owning AclMessage. The data-set payload decodes into
// an owned, shared DataSet that the materialized message keeps. Decode
// never throws: malformed input yields `false` plus a reason, mirroring
// store's never-throwing Reader.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agent/message.hpp"
#include "store/codec.hpp"

namespace ig::wire {

inline constexpr std::uint8_t kWireVersion = 2;
/// Deepest list nesting a data-set value may have on the wire (a list of
/// strings is depth 1). The encoder refuses deeper values before it writes
/// anything; the decoder rejects them.
inline constexpr int kMaxListDepth = 16;
/// Frame header: u32 payload length + u32 crc32c of the payload.
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Upper bound a length prefix may claim; anything larger is rejected
/// before any allocation or read happens (fuzz: oversized prefixes).
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 24;  // 16 MiB

// -- varint ---------------------------------------------------------------------

/// LEB128 unsigned varint append (1 byte for values < 128 — the common case
/// for intern ids and param counts).
void put_varint(std::string& out, std::uint64_t value);

/// Reads a varint through store's never-throwing Reader. nullopt on
/// truncation or a value wider than 64 bits (the reader's ok() also flips
/// on truncation, but not on overlong encodings — check the return).
std::optional<std::uint64_t> read_varint(store::Reader& reader);

// -- encoder --------------------------------------------------------------------

struct EncoderStats {
  std::uint64_t frames = 0;         ///< frames encoded
  std::uint64_t frame_bytes = 0;    ///< bytes including frame headers
  std::uint64_t payload_bytes = 0;  ///< bytes excluding frame headers
  std::uint64_t intern_hits = 0;    ///< vocabulary fields sent as an id
  std::uint64_t intern_misses = 0;  ///< vocabulary fields sent in full (definitions)
};

/// Per-connection encoder. Stateful: the intern table is the connection's
/// shared vocabulary, so frames from one encoder must reach the matching
/// decoder in encode order (run it above an ordered byte stream, as
/// FramedChannel does). Not thread-safe.
class Encoder {
 public:
  /// Appends one complete frame (header + payload) for `message` to `out`.
  /// Throws std::invalid_argument, before touching `out` or the intern
  /// table, when the data payload nests lists deeper than kMaxListDepth.
  void encode(const agent::AclMessage& message, std::string& out);

  /// Convenience: one frame as its own string.
  std::string encode(const agent::AclMessage& message);

  const EncoderStats& stats() const noexcept { return stats_; }
  std::size_t intern_size() const noexcept { return table_.size(); }

 private:
  /// Transparent hashing: the hot path looks vocabulary strings up by
  /// string_view without materializing a std::string per field.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  void intern_field(std::string_view value, std::string& payload);
  void encode_data(const wfl::DataSet& data, std::string& payload);

  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>> table_;
  std::uint32_t next_id_ = 1;
  EncoderStats stats_;
};

// -- decoder --------------------------------------------------------------------

/// A decoded frame borrowing its bytes: raw fields view the frame payload,
/// vocabulary fields view the decoder's intern table. Valid until the
/// receive buffer is mutated/freed or the decoder destroyed.
struct WireMessageView {
  agent::Performative performative = agent::Performative::Inform;
  std::string_view sender;
  std::string_view receiver;
  std::string_view conversation_id;
  std::string_view protocol;
  std::string_view ontology;
  std::string_view content;
  std::vector<std::pair<std::string_view, std::string_view>> params;
  /// The decoded data-set payload: owned, not a view; null when absent.
  std::shared_ptr<const wfl::DataSet> data;

  /// Copies the view into an owning AclMessage (sharing `data`).
  agent::AclMessage materialize() const;
};

/// Result of looking for a frame at the head of a receive buffer.
enum class FrameStatus {
  kFrame,     ///< a complete, checksum-valid frame was found
  kNeedMore,  ///< the buffer holds a partial frame; read more bytes
  kBad,       ///< corrupt (oversized length or checksum mismatch)
};

/// Inspects `buffer` for one frame. On kFrame, `payload` views the frame's
/// payload inside `buffer` and `frame_size` is the total bytes to consume.
/// On kBad, `error` (when non-null) says why. Never throws, never reads
/// outside `buffer`.
FrameStatus peek_frame(std::string_view buffer, std::string_view& payload,
                       std::size_t& frame_size, std::string* error = nullptr);

/// Per-connection decoder: the receive half of Encoder's intern table.
/// Not thread-safe.
class Decoder {
 public:
  /// Decodes one frame *payload* (header already validated by peek_frame)
  /// into `view`. False on malformed input with a reason in `error`; the
  /// intern table keeps any definitions consumed before the error, matching
  /// what a stream peer would have observed.
  bool decode_payload(std::string_view payload, WireMessageView& view,
                      std::string* error = nullptr);

  std::size_t intern_size() const noexcept { return table_.size(); }

 private:
  bool intern_field(store::Reader& reader, std::string_view& value, std::string* error);
  bool decode_data(store::Reader& reader, WireMessageView& view, std::string* error);

  /// id-1 indexes the deque; deque so growth never moves the strings a
  /// live WireMessageView points into.
  std::deque<std::string> table_;
};

}  // namespace ig::wire
