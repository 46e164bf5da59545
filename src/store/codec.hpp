// Tiny binary codec for durable record payloads.
//
// Every payload the storage engine persists (key/value mutations, engine
// journal events, snapshot state blobs) is built from four primitives:
// u8, u32, u64 and a length-prefixed byte string, all little-endian and
// fixed-width so the encoding is identical across platforms and trivially
// inspectable in a hex dump. The reader is never-throwing: any truncated
// or malformed field flips `ok()` and subsequent reads return zero values,
// so replay code can decode untrusted bytes and check once at the end —
// the same discipline the protocol layer uses for untrusted ACL params.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

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

}  // namespace ig::store
