// Durable event journal over one write-ahead log.
//
// Subsystems append opaque *events* tagged with a stream name (the
// enactment engine journals case lifecycle events on stream "engine") and
// get them back at open, in LSN order. Every instance lives in a data
// directory; there is no in-memory mode — a component that needs no
// durability keeps its state in memory itself.
//
// Periodic snapshots bound recovery time and enable compaction: a snapshot
// file captures one state blob per registered stream (the stream's own
// serialization of "everything my events up to this LSN amount to"); WAL
// segments entirely at or below the snapshot LSN are then deleted. Because
// the snapshot LSN is read *before* the state is collected, an event may be
// both inside a blob and replayed after it — stream consumers must keep
// their replay idempotent (the engine keys everything by case id, so
// re-applying is harmless).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "store/wal.hpp"

namespace ig::store {

struct Options {
  std::string data_dir;                ///< required: an empty one is refused
  std::size_t segment_size = 1 << 20;  ///< standard WAL segment capacity
  /// Commit-leader linger window forwarded to WalOptions::group_window_us
  /// (0 = sync immediately). The enactment engine enables a small window
  /// when several durable shards share this store.
  std::uint32_t group_window_us = 0;
  /// WAL records between automatic snapshots (checked by maybe_snapshot);
  /// 0 disables automatic snapshotting.
  std::size_t snapshot_interval = 4096;
  bool auto_compact = true;  ///< compact the WAL after every snapshot
  /// All file I/O (WAL segments *and* snapshot files) goes through this
  /// seam (nullptr = the real POSIX ops). Must outlive the engine; tests
  /// point it at a store::FaultFs.
  FileOps* file_ops = nullptr;
};

struct StoreStats {
  std::uint64_t segments = 0;  ///< live WAL segment files
  Lsn last_lsn = 0;
  Lsn snapshot_lsn = 0;  ///< LSN covered by the newest snapshot (0 = none)
  std::uint64_t snapshots_written = 0;
  std::uint64_t segments_compacted = 0;
  std::uint64_t replayed_records = 0;  ///< WAL records re-applied at open
  double recovery_ms = 0.0;            ///< wall time of open (snapshot + replay)
  WalStats wal;
};

class StorageEngine {
 public:
  /// stream name + event payload, in LSN order.
  using EventReplayFn = std::function<void(std::string_view, std::string_view)>;

  /// Opens (or creates) the store under options.data_dir. When recovering,
  /// every journal event is forwarded to `event_replay` before the
  /// constructor returns — single-threaded, so the consumer needs no
  /// locking while it rebuilds. The store and its WAL count as `store_*`
  /// counters in `metrics` (the engine passes its registry labelled
  /// {component=engine-journal}; the default is a private one). Throws
  /// std::invalid_argument for an empty data_dir and store::Error when the
  /// directory or a segment cannot be opened.
  explicit StorageEngine(Options options, EventReplayFn event_replay = nullptr,
                         obs::Scope metrics = {});
  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  const Options& options() const noexcept { return options_; }

  // -- event journal -----------------------------------------------------------
  /// Appends one event; NOT yet durable — call commit() (or batch several
  /// appends under one commit, the group-commit sweet spot). Returns the
  /// record's LSN. append_event and commit throw store::Error when the disk
  /// fails: kNoSpace/kIo mean this write did not happen (the store is
  /// otherwise intact), kPoisoned means a durability barrier failed earlier
  /// and the WAL is fail-stop (see wal.hpp).
  Lsn append_event(std::string_view stream, std::string_view payload);

  /// Durability barrier over everything appended so far.
  void commit();
  /// Durability barrier over the records up to `upto` only: it returns at
  /// once when an earlier barrier (another thread's commit, a segment seal)
  /// already covered them, even if later appends are not yet durable.
  void commit(Lsn upto);

  // -- snapshots & compaction --------------------------------------------------
  /// Registers the provider whose blob represents `stream`'s state in
  /// future snapshots. Providers run on the snapshotting thread and must
  /// not call back into this engine.
  void set_state_provider(const std::string& stream, std::function<std::string()> provider);

  /// The blob the newest snapshot stored for `stream` (empty when none) —
  /// read once after construction, before replayed events are applied on
  /// top of it.
  std::string recovered_state(const std::string& stream) const;

  /// Writes a snapshot now (tmp file + fsync + atomic rename), then
  /// compacts when options.auto_compact. False on a filesystem error (the
  /// previous snapshot survives).
  bool snapshot();

  /// snapshot() iff snapshot_interval records accumulated since the last.
  bool maybe_snapshot();

  /// Deletes WAL segments and older snapshots fully covered by the newest
  /// snapshot. Returns segments removed.
  std::size_t compact();

  StoreStats stats() const;

 private:
  void load_snapshot();  ///< newest intact snapshot -> recovered_
  void remove_stale_snapshot_tmps();  ///< crash-mid-snapshot leftovers
  bool write_snapshot_file(Lsn lsn,
                           const std::vector<std::pair<std::string, std::string>>& blobs);

  Options options_;
  FileOps* fops_ = nullptr;
  obs::Scope metrics_;
  obs::Counter& snapshots_written_;
  obs::Counter& segments_compacted_;
  obs::Counter& replayed_records_;
  mutable std::mutex mutex_;  ///< guards recovered_, providers_, snapshot bookkeeping
  std::map<std::string, std::string> recovered_;  ///< stream -> blob from snapshot
  std::map<std::string, std::function<std::string()>> providers_;
  std::unique_ptr<WriteAheadLog> wal_;

  Lsn snapshot_lsn_ = 0;
  double recovery_ms_ = 0.0;
  bool snapshot_in_progress_ = false;
};

}  // namespace ig::store
