// Memory-mapped append-only segment files.
//
// A segment is one fixed-capacity file holding a run of length-prefixed,
// CRC32C-framed records:
//
//   [ header 40B ][ u32 len | u32 crc32c | payload ] ... [ zeros ... ]
//
// The file is pre-sized at creation and memory-mapped, so an append is a
// memcpy and a durability point is one msync — no write(2) syscalls on the
// hot path. Unwritten capacity is zero-filled, which is what makes the end
// of the record run self-describing: a frame whose length field is zero is
// the clean end of the log, and a frame whose length is implausible or
// whose CRC does not match its payload is a *torn tail* — a record that a
// crash cut mid-write. `open` drops the torn record, zeroes everything
// after the last intact frame (so a later crash cannot resurrect stale
// bytes as a plausible frame), and resumes appending from there. Records
// never span segments; the write-ahead log (wal.hpp) rolls to a new
// segment when a record does not fit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/codec.hpp"
#include "store/file_ops.hpp"

namespace ig::store {

/// Log sequence number: 1-based, monotonically increasing record index
/// across the whole log. 0 means "nothing".
using Lsn = std::uint64_t;

class Segment {
 public:
  static constexpr std::size_t kHeaderSize = 40;

  /// Creates a pre-sized file at `path` and maps it. `capacity` includes
  /// the header. All I/O goes through `fops`, which must outlive the
  /// segment. Returns nullptr on any filesystem error, with errno holding
  /// the failing operation's error.
  static std::unique_ptr<Segment> create(FileOps& fops, const std::string& path,
                                         std::size_t capacity, std::uint64_t sequence,
                                         Lsn first_lsn);

  /// Maps an existing segment, scans its records and repairs the tail.
  /// Returns nullptr when the file is missing or its header is not a valid
  /// segment header (such a file holds no trustworthy records at all).
  static std::unique_ptr<Segment> open(FileOps& fops, const std::string& path);

  ~Segment();

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  const std::string& path() const noexcept { return path_; }
  std::uint64_t sequence() const noexcept { return sequence_; }
  Lsn first_lsn() const noexcept { return first_lsn_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t tail() const noexcept { return tail_; }
  bool torn_tail_repaired() const noexcept { return torn_; }

  /// Intact records, in append order, as views into the mapping (valid for
  /// the segment's lifetime).
  const std::vector<std::string_view>& records() const noexcept { return records_; }
  Lsn last_lsn() const noexcept {
    return records_.empty() ? first_lsn_ - 1 : first_lsn_ + records_.size() - 1;
  }

  bool fits(std::size_t payload_size) const noexcept {
    return payload_size + kFrameOverhead <= capacity_ - tail_;
  }

  /// Appends one framed record; the caller must have checked fits() and
  /// payload must be non-empty (a zero length marks the end of the run).
  void append(std::string_view payload);

  /// Flushes the mapping to stable storage (msync MS_SYNC). False on
  /// failure, with errno set — the WAL treats that as fail-stop.
  bool sync();

 private:
  Segment() = default;

  FileOps* fops_ = nullptr;
  std::string path_;
  unsigned char* map_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t tail_ = kHeaderSize;
  std::uint64_t sequence_ = 0;
  Lsn first_lsn_ = 1;
  bool torn_ = false;
  std::vector<std::string_view> records_;
};

}  // namespace ig::store
