// Tiny binary codec for durable record payloads, and the CRC frame that
// carries them.
//
// Every payload the storage engine persists (journal events, snapshot
// state blobs) is built from four primitives:
// u8, u32, u64 and a length-prefixed byte string, all little-endian and
// fixed-width so the encoding is identical across platforms and trivially
// inspectable in a hex dump. The reader is never-throwing: any truncated
// or malformed field flips `ok()` and subsequent reads return zero values,
// so replay code can decode untrusted bytes and check once at the end —
// the same discipline the protocol layer uses for untrusted ACL params.
//
// WAL segments and snapshot files store payloads in one frame layout,
// `[u32 len][u32 crc32c(payload)][payload]`, written by `frame_header` /
// `write_frame` and read back by `FrameReader`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "store/crc32c.hpp"

namespace ig::store {

/// Appends fixed-width little-endian fields to a byte string.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void u8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }

  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }

  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }

  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    out_.append(value.data(), value.size());
  }

 private:
  std::string& out_;
};

/// Reads the writer's encoding back; tolerates arbitrary (corrupt) input.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }
  /// Bytes not yet read: the bound a decoder checks a count prefix against
  /// before it trusts the count.
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::uint8_t u8() noexcept {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_ - 1]);
  }

  std::uint32_t u32() noexcept {
    if (!take(4)) return 0;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
      value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ - 4 + i]))
               << (8 * i);
    return value;
  }

  std::uint64_t u64() noexcept {
    if (!take(8)) return 0;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ - 8 + i]))
               << (8 * i);
    return value;
  }

  std::string_view str() noexcept {
    const std::uint32_t size = u32();
    if (!take(size)) return {};
    return bytes_.substr(pos_ - size, size);
  }

 private:
  bool take(std::size_t n) noexcept {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Bytes a frame adds in front of its payload: u32 length + u32 CRC32C.
constexpr std::size_t kFrameOverhead = 8;

/// The header of the frame holding `payload` (short enough for the small
/// string buffer, so building it allocates nothing).
inline std::string frame_header(std::string_view payload) {
  std::string header;
  Writer writer(header);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.u32(crc32c(payload));
  return header;
}

/// Appends one frame holding `payload` to `out`.
inline void write_frame(std::string& out, std::string_view payload) {
  out += frame_header(payload);
  out.append(payload.data(), payload.size());
}

/// Walks a run of frames. `next` yields each intact payload in order and
/// stops at the first frame it cannot trust: a zero length or fewer than
/// kFrameOverhead bytes left is a clean end (never-written space); a
/// length past the end of the bytes or a CRC mismatch is a torn frame.
class FrameReader {
 public:
  explicit FrameReader(std::string_view bytes) : bytes_(bytes) {}

  bool next(std::string_view& payload) noexcept {
    if (bytes_.size() - offset_ < kFrameOverhead) return stop(false);
    Reader header(bytes_.substr(offset_, kFrameOverhead));
    const std::uint32_t length = header.u32();
    const std::uint32_t stored_crc = header.u32();
    if (length == 0) return stop(false);
    if (length > bytes_.size() - offset_ - kFrameOverhead) return stop(true);
    payload = bytes_.substr(offset_ + kFrameOverhead, length);
    if (crc32c(payload) != stored_crc) return stop(true);
    offset_ += kFrameOverhead + length;
    return true;
  }

  /// Bytes covered by the intact frames read so far.
  std::size_t offset() const noexcept { return offset_; }
  /// True when the walk ended at a torn frame rather than a clean end.
  bool torn() const noexcept { return torn_; }

 private:
  bool stop(bool torn) noexcept {
    torn_ = torn;
    return false;
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
  bool torn_ = false;
};

}  // namespace ig::store
