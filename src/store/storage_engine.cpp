#include "store/storage_engine.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "store/codec.hpp"
#include "util/log.hpp"

namespace ig::store {
namespace {

// WAL record payload type. Types 1 and 2 and snapshot frame type 11 held
// key/value entries in older data directories; they are never reused.
constexpr std::uint8_t kEventRecord = 3;

// Snapshot frame payload types.
constexpr std::uint8_t kSnapMeta = 10;
constexpr std::uint8_t kSnapState = 12;
constexpr std::uint8_t kSnapEnd = 13;
constexpr std::uint32_t kSnapVersion = 1;

std::string snapshot_path(const std::string& dir, Lsn lsn) {
  char name[40];
  std::snprintf(name, sizeof name, "snap-%016llu.snap",
                static_cast<unsigned long long>(lsn));
  return dir + "/" + name;
}

std::vector<std::string> list_with_suffix(const std::string& dir, const std::string& suffix) {
  std::vector<std::string> paths;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind("snap-", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
        paths.push_back(dir + "/" + name);
    }
    ::closedir(d);
  }
  std::sort(paths.begin(), paths.end());  // zero-padded LSN => lexicographic = numeric
  return paths;
}

std::vector<std::string> list_snapshots(const std::string& dir) {
  return list_with_suffix(dir, ".snap");
}

}  // namespace

StorageEngine::StorageEngine(Options options, EventReplayFn event_replay, obs::Scope metrics)
    : options_(std::move(options)),
      fops_(options_.file_ops != nullptr ? options_.file_ops : &posix_file_ops()),
      metrics_(std::move(metrics)),
      snapshots_written_(metrics_.counter("store_snapshots_total")),
      segments_compacted_(metrics_.counter("store_segments_compacted_total")),
      replayed_records_(metrics_.counter("store_wal_records_replayed_total")) {
  if (options_.data_dir.empty())
    throw std::invalid_argument("store::Options::data_dir must name a directory");
  const auto started = std::chrono::steady_clock::now();
  WalOptions wal_options;
  wal_options.dir = options_.data_dir;
  wal_options.segment_size = options_.segment_size;
  wal_options.group_window_us = options_.group_window_us;
  wal_options.file_ops = options_.file_ops;
  wal_ = std::make_unique<WriteAheadLog>(std::move(wal_options), metrics_);
  remove_stale_snapshot_tmps();
  load_snapshot();
  wal_->skip_to(snapshot_lsn_);  // no-op unless the log fell behind the snapshot
  wal_->replay(snapshot_lsn_, [&](Lsn, std::string_view payload) {
    Reader reader(payload);
    if (reader.u8() == kEventRecord) {
      const std::string_view stream = reader.str();
      const std::string_view event = reader.str();
      if (reader.ok() && event_replay) event_replay(stream, event);
    } else {
      IG_LOG_WARN("store") << "skipping WAL record of unknown type";
    }
    replayed_records_.inc();
  });
  recovery_ms_ =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count();
}

StorageEngine::~StorageEngine() = default;

Lsn StorageEngine::append_event(std::string_view stream, std::string_view payload) {
  std::string record;
  Writer writer(record);
  writer.u8(kEventRecord);
  writer.str(stream);
  writer.str(payload);
  return wal_->append(record);
}

void StorageEngine::commit() { wal_->commit(wal_->last_lsn()); }

void StorageEngine::commit(Lsn upto) { wal_->commit(upto); }

void StorageEngine::set_state_provider(const std::string& stream,
                                       std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  providers_[stream] = std::move(provider);
}

std::string StorageEngine::recovered_state(const std::string& stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = recovered_.find(stream);
  return it == recovered_.end() ? std::string() : it->second;
}

bool StorageEngine::snapshot() {
  Lsn lsn = 0;
  std::map<std::string, std::function<std::string()>> providers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshot_in_progress_) return false;
    snapshot_in_progress_ = true;
    // Read the LSN *before* collecting state: anything a provider bakes in
    // past this point is also replayed after recovery, which is safe
    // because stream replay is idempotent.
    lsn = wal_->last_lsn();
    providers = providers_;
  }
  // Providers run outside the store mutex: they lock their own subsystem
  // (e.g. the enactment engine's mutex) and must not call back into us.
  std::vector<std::pair<std::string, std::string>> blobs;
  blobs.reserve(providers.size());
  for (const auto& [stream, provider] : providers) blobs.emplace_back(stream, provider());
  // The WAL prefix the snapshot claims to cover must be durable first —
  // otherwise a crash could leave a snapshot referencing records the log
  // never persisted. A poisoned log cannot make that promise, so snapshot
  // failure (like every other disk failure here) reports as `false` and
  // the previous snapshot stays authoritative.
  bool ok = false;
  try {
    wal_->commit(lsn);
    ok = write_snapshot_file(lsn, blobs);
  } catch (const Error&) {
    ok = false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot_in_progress_ = false;
    if (ok) {
      snapshot_lsn_ = lsn;
      snapshots_written_.inc();
    }
  }
  if (ok && options_.auto_compact) compact();
  return ok;
}

bool StorageEngine::maybe_snapshot() {
  if (options_.snapshot_interval == 0) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshot_in_progress_ ||
        wal_->last_lsn() - snapshot_lsn_ < options_.snapshot_interval)
      return false;
  }
  return snapshot();
}

std::size_t StorageEngine::compact() {
  Lsn lsn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lsn = snapshot_lsn_;
  }
  if (lsn == 0) return 0;
  const std::size_t removed = wal_->remove_segments_below(lsn);
  // Older snapshots are strictly dominated by the newest one.
  const std::string keep = snapshot_path(options_.data_dir, lsn);
  for (const std::string& path : list_snapshots(options_.data_dir))
    if (path < keep) fops_->unlink(path);
  segments_compacted_.inc(removed);
  return removed;
}

StoreStats StorageEngine::stats() const {
  StoreStats stats;
  stats.wal = wal_->stats();
  stats.segments = wal_->segment_count();
  stats.last_lsn = wal_->last_lsn();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.snapshot_lsn = snapshot_lsn_;
  stats.snapshots_written = snapshots_written_.value();
  stats.segments_compacted = segments_compacted_.value();
  stats.replayed_records = replayed_records_.value();
  stats.recovery_ms = recovery_ms_;
  return stats;
}

void StorageEngine::remove_stale_snapshot_tmps() {
  // A crash mid-snapshot leaves `snap-*.snap.tmp` behind: never renamed,
  // so never authoritative, and without this sweep it would sit there
  // forever (or worse, confuse a human into trusting it). The previous
  // good snapshot — the one the rename never replaced — stays in charge.
  for (const std::string& path : list_with_suffix(options_.data_dir, ".snap.tmp")) {
    IG_LOG_WARN("store") << "removing stale snapshot tmp " << path;
    fops_->unlink(path);
  }
}

void StorageEngine::load_snapshot() {
  std::vector<std::string> paths = list_snapshots(options_.data_dir);
  // Newest first; fall back through older snapshots on corruption.
  std::reverse(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    const int fd = fops_->open(path, O_RDONLY, 0);
    if (fd < 0) continue;
    std::string bytes;
    bool read_ok = true;
    const off_t file_size = fops_->size(fd);
    if (file_size < 0) read_ok = false;
    if (read_ok) {
      bytes.resize(static_cast<std::size_t>(file_size));
      std::size_t got = 0;
      while (got < bytes.size()) {
        const ssize_t n =
            fops_->pread(fd, bytes.data() + got, bytes.size() - got, static_cast<off_t>(got));
        if (n <= 0) {
          read_ok = false;
          break;
        }
        got += static_cast<std::size_t>(n);
      }
    }
    fops_->close(fd);
    if (!read_ok) {
      // Unreadable is indistinguishable from corrupt for our purposes:
      // fall through to the deletion below and try the next-older one.
      IG_LOG_WARN("store") << "dropping unreadable snapshot " << path;
      fops_->unlink(path);
      continue;
    }

    // The frames must cover the whole file: a clean end before it (a
    // zeroed or short frame header) is as untrustworthy as a torn frame.
    std::vector<std::string_view> frames;
    FrameReader frame_reader(bytes);
    for (std::string_view frame; frame_reader.next(frame);) frames.push_back(frame);
    std::map<std::string, std::string> recovered;
    Lsn lsn = 0;
    bool complete = false;
    bool valid = frame_reader.offset() == bytes.size() && frames.size() >= 2;
    if (valid) {
      Reader meta(frames.front());
      valid = meta.u8() == kSnapMeta && meta.u32() == kSnapVersion;
      lsn = meta.u64();
      valid = valid && meta.ok();
    }
    if (valid) {
      for (std::size_t i = 1; valid && i < frames.size(); ++i) {
        Reader reader(frames[i]);
        switch (reader.u8()) {
          case kSnapState: {
            const std::string_view stream = reader.str();
            const std::string_view blob = reader.str();
            valid = reader.ok();
            if (valid) recovered[std::string(stream)] = std::string(blob);
            break;
          }
          case kSnapEnd:
            complete = reader.u64() == frames.size() - 2 && reader.ok() &&
                       i == frames.size() - 1;
            valid = complete;
            break;
          default:
            valid = false;
            break;
        }
      }
    }
    if (valid && complete) {
      recovered_ = std::move(recovered);
      snapshot_lsn_ = lsn;
      return;
    }
    // A corrupt snapshot buys nothing at the next open either.
    IG_LOG_WARN("store") << "dropping corrupt snapshot " << path;
    fops_->unlink(path);
  }
}

bool StorageEngine::write_snapshot_file(
    Lsn lsn, const std::vector<std::pair<std::string, std::string>>& blobs) {
  std::string buffer;
  {
    std::string payload;
    Writer writer(payload);
    writer.u8(kSnapMeta);
    writer.u32(kSnapVersion);
    writer.u64(lsn);
    write_frame(buffer, payload);
  }
  for (const auto& [stream, blob] : blobs) {
    std::string payload;
    Writer writer(payload);
    writer.u8(kSnapState);
    writer.str(stream);
    writer.str(blob);
    write_frame(buffer, payload);
  }
  {
    std::string payload;
    Writer writer(payload);
    writer.u8(kSnapEnd);
    writer.u64(blobs.size());
    write_frame(buffer, payload);
  }

  // tmp + fsync + rename: the snapshot either exists completely under its
  // final name or not at all. On *any* failure the tmp is unlinked (best
  // effort) and the previous snapshot stays authoritative — snapshot
  // failure degrades recovery time, never correctness.
  const std::string final_path = snapshot_path(options_.data_dir, lsn);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = fops_->open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < buffer.size()) {
    const ssize_t n = fops_->pwrite(fd, buffer.data() + written, buffer.size() - written,
                                    static_cast<off_t>(written));
    if (n <= 0) {
      fops_->close(fd);
      fops_->unlink(tmp_path);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  if (fops_->fsync(fd) != 0) {
    // An unsynced snapshot must never be renamed into authority: a crash
    // could then leave a *newest* snapshot with silently missing pages.
    fops_->close(fd);
    fops_->unlink(tmp_path);
    return false;
  }
  fops_->close(fd);
  if (fops_->rename(tmp_path, final_path) != 0) {
    fops_->unlink(tmp_path);
    return false;
  }
  const int dir_fd = fops_->open(options_.data_dir, O_RDONLY | O_DIRECTORY, 0);
  if (dir_fd >= 0) {
    fops_->fsync(dir_fd);
    fops_->close(dir_fd);
  }
  return true;
}

}  // namespace ig::store
