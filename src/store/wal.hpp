// Write-ahead log over mmap-backed segments, with group commit.
//
// The WAL is a directory of segment files (`wal-<seq>.seg`) forming one
// logical record sequence numbered by LSN. Appends go to the newest
// ("active") segment and roll to a fresh one when a record does not fit;
// a record larger than the standard segment gets a dedicated segment sized
// to hold it, so callers never need to split payloads.
//
// Durability points are explicit: `commit(lsn)` returns once every record
// up to `lsn` is on stable storage. Under concurrency it group-commits —
// one thread performs the msync while the others wait on the same barrier
// and are covered by it, so N concurrent committers cost one fsync, not N.
// Sealing a full segment syncs it, and creating or compacting segments
// syncs the directory, so a barrier on the active segment covers the whole
// log.
//
// Recovery (`open`): segments are scanned in sequence order; the first
// torn tail or LSN discontinuity ends the trustworthy prefix, later
// segments are deleted (their records depended on the lost ones), and the
// log resumes appending after the last intact record.
//
// Failure semantics (DESIGN.md §13): an fsync/msync failure is *fail-stop*
// — the log poisons itself, the failed barrier and every later append or
// commit throw Error(kPoisoned), and no retry is ever attempted (a failed
// fsync leaves the dirty-page state unknowable; retrying and succeeding
// would ack data that may not be on disk — the "fsyncgate" lesson). An
// ENOSPC creating a segment is *not* fail-stop: the append throws
// Error(kNoSpace), the log stays intact, and a later append may succeed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "store/error.hpp"
#include "store/file_ops.hpp"
#include "store/segment.hpp"

namespace ig::store {

struct WalOptions {
  std::string dir;                     ///< created if missing
  std::size_t segment_size = 1 << 20;  ///< standard segment capacity, bytes
  /// > 0: a commit() leader lingers this long (releasing the commit lock)
  /// before its msync so commits arriving meanwhile — e.g. from other
  /// engine shards finishing cases back to back — are covered by the same
  /// barrier. Trades up to this much commit latency for fewer fsyncs under
  /// sustained load. 0 (default): sync immediately.
  std::uint32_t group_window_us = 0;
  /// All file I/O goes through this seam (nullptr = the real POSIX ops).
  /// Must outlive the log; tests point it at a store::FaultFs.
  FileOps* file_ops = nullptr;
};

struct WalStats {
  std::uint64_t appends = 0;        ///< records appended this process
  std::uint64_t fsyncs = 0;         ///< msync/fsync barriers performed
  std::uint64_t group_commits = 0;  ///< commit() calls satisfied by another thread's fsync
  std::uint64_t segments_created = 0;
  std::uint64_t segments_removed = 0;  ///< compaction + recovery deletions
  std::uint64_t records = 0;           ///< live records across all segments
  std::uint64_t bytes = 0;             ///< live payload bytes across all segments
  std::uint64_t recovered_records = 0; ///< records found intact at open
  std::uint64_t fsync_failures = 0;    ///< failed durability barriers (each poisons)
  bool torn_tail_repaired = false;     ///< open() dropped a torn record
  bool poisoned = false;               ///< fail-stop after an fsync failure
};

class WriteAheadLog {
 public:
  /// Opens (creating the directory if needed) and recovers the log.
  /// Throws store::Error when the directory cannot be created or a
  /// segment cannot be mapped. Appends, fsyncs, group commits and fsync
  /// failures are counted as `store_*` counters in `metrics` (default: a
  /// private registry).
  explicit WriteAheadLog(WalOptions options, obs::Scope metrics = {});
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Replays every intact record with lsn > `after`, in LSN order. Not
  /// thread-safe against append; callers replay before going concurrent.
  void replay(Lsn after, const std::function<void(Lsn, std::string_view)>& fn) const;

  /// Appends one record and returns its LSN; it is durable once a commit()
  /// covers it. Thread-safe. Throws store::Error: kPoisoned when the log
  /// is fail-stop, kNoSpace/kIo when a segment roll fails (the log stays
  /// intact — nothing was appended).
  Lsn append(std::string_view payload);

  /// Durability barrier: returns once every record with lsn <= `upto` is
  /// synced. Thread-safe; concurrent callers share one fsync. A failed
  /// barrier poisons the log and throws store::Error(kPoisoned) — in this
  /// and in every waiting committer — and durable_lsn() never advances past
  /// data a barrier did not cover.
  void commit(Lsn upto);

  /// True once an fsync failure made the log fail-stop.
  bool poisoned() const noexcept { return poisoned_.load(std::memory_order_acquire); }

  Lsn last_lsn() const;
  Lsn durable_lsn() const;

  /// Fast-forwards the log past `lsn` when recovery found it behind a
  /// snapshot (possible when the snapshot survived a crash that the WAL
  /// tail did not, e.g. segment files lost or cut short). Every current
  /// segment is covered by that snapshot, so they are deleted and a fresh
  /// segment starts at lsn + 1 — without this, new appends would reuse
  /// LSNs the snapshot already claims and be skipped by the next replay.
  void skip_to(Lsn lsn);

  /// Deletes every non-active segment whose records all have lsn <= `lsn`
  /// (they are covered by a snapshot). Returns segments removed.
  std::size_t remove_segments_below(Lsn lsn);

  std::size_t segment_count() const;
  WalStats stats() const;

  /// Test/CLI hooks into the active segment's framing.
  std::string active_segment_path() const;
  std::size_t active_tail() const;

 private:
  Segment& active_locked() { return *segments_.back(); }
  void roll_locked(std::size_t payload_size);
  void sync_dir();
  /// Marks the log fail-stop; requires mutex_ (all sync sites hold it).
  void poison_locked(std::string reason);

  WalOptions options_;
  FileOps* fops_ = nullptr;
  mutable std::mutex mutex_;  ///< guards segments_ and the append path
  std::vector<std::unique_ptr<Segment>> segments_;
  Lsn last_lsn_ = 0;
  std::uint64_t next_sequence_ = 1;

  // Group-commit state (separate mutex so appends continue during a sync).
  mutable std::mutex commit_mutex_;
  std::condition_variable commit_cv_;
  bool sync_in_flight_ = false;
  Lsn durable_lsn_ = 0;

  // Fail-stop state: the reason is written once under mutex_, then
  // published by the release store; readers acquire-load the flag first.
  std::atomic<bool> poisoned_{false};
  std::string poison_reason_;

  // Registry counters (relaxed atomics, bumped under mutex_ or, for group
  // commits, commit_mutex_), then plain stats under mutex_.
  obs::Scope metrics_;
  obs::Counter& appends_;
  obs::Counter& fsyncs_;
  obs::Counter& fsync_failures_;
  obs::Counter& group_commits_;
  std::uint64_t segments_created_ = 0;
  std::uint64_t segments_removed_ = 0;
  std::uint64_t recovered_records_ = 0;
  bool torn_tail_repaired_ = false;
};

}  // namespace ig::store
