#include "store/wal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/log.hpp"

namespace ig::store {
namespace {

constexpr const char* kSegmentPrefix = "wal-";
constexpr const char* kSegmentSuffix = ".seg";

void make_dirs(FileOps& fops, const std::string& dir) {
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    partial = dir.substr(0, i == dir.size() ? i : i + 1);
    if (partial.empty() || partial == "/") continue;
    if (fops.mkdir(partial, 0755) != 0 && errno != EEXIST)
      throw Error(errno_to_kind(errno), "mkdir", partial, std::strerror(errno));
  }
}

std::string segment_path(const std::string& dir, std::uint64_t sequence) {
  char name[32];
  std::snprintf(name, sizeof name, "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(sequence), kSegmentSuffix);
  return dir + "/" + name;
}

}  // namespace

WriteAheadLog::WriteAheadLog(WalOptions options, obs::Scope metrics)
    : options_(std::move(options)),
      fops_(options_.file_ops != nullptr ? options_.file_ops : &posix_file_ops()),
      metrics_(std::move(metrics)),
      appends_(metrics_.counter("store_wal_appends_total")),
      fsyncs_(metrics_.counter("store_fsyncs_total")),
      fsync_failures_(metrics_.counter("store_fsync_failures_total")),
      group_commits_(metrics_.counter("store_group_commits_total")) {
  make_dirs(*fops_, options_.dir);

  // Collect and sort existing segments by their header sequence number.
  std::vector<std::string> names;
  if (DIR* dir = ::opendir(options_.dir.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.rfind(kSegmentPrefix, 0) == 0 &&
          name.size() > std::string(kSegmentSuffix).size() &&
          name.compare(name.size() - 4, 4, kSegmentSuffix) == 0)
        names.push_back(options_.dir + "/" + name);
    }
    ::closedir(dir);
  }
  std::vector<std::unique_ptr<Segment>> found;
  for (const std::string& path : names) {
    if (auto segment = Segment::open(*fops_, path)) found.push_back(std::move(segment));
    else {
      // Unreadable header: nothing in the file is trustworthy. Remove it so
      // it cannot shadow a future segment with the same name.
      IG_LOG_WARN("store") << "dropping unreadable segment " << path;
      fops_->unlink(path);
      ++segments_removed_;
    }
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return a->sequence() < b->sequence();
  });

  // Keep the longest intact prefix: a torn tail or an LSN discontinuity
  // invalidates everything after it (those records were appended after the
  // lost ones and may depend on them).
  for (auto& segment : found) {
    const bool continuous =
        segments_.empty() ? true : segment->first_lsn() == last_lsn_ + 1;
    if (!continuous || (!segments_.empty() && segments_.back()->torn_tail_repaired())) {
      IG_LOG_WARN("store") << "dropping segment " << segment->path()
                           << " past the recovered prefix";
      const std::string path = segment->path();
      segment.reset();  // unmap before unlink
      fops_->unlink(path);
      ++segments_removed_;
      continue;
    }
    last_lsn_ = segment->last_lsn();
    recovered_records_ += segment->records().size();
    torn_tail_repaired_ = torn_tail_repaired_ || segment->torn_tail_repaired();
    next_sequence_ = segment->sequence() + 1;
    segments_.push_back(std::move(segment));
  }

  if (segments_.empty()) {
    auto segment = Segment::create(*fops_, segment_path(options_.dir, next_sequence_),
                                   options_.segment_size, next_sequence_, 1);
    if (!segment)
      throw Error(errno_to_kind(errno), "create-segment", options_.dir, std::strerror(errno));
    ++next_sequence_;
    ++segments_created_;
    segments_.push_back(std::move(segment));
    sync_dir();
  }
  durable_lsn_ = last_lsn_;  // everything recovered is already on disk
}

WriteAheadLog::~WriteAheadLog() {
  // Best-effort flush of appends no commit covered, so a clean shutdown
  // persists them. A poisoned log stays hands-off: its last barrier already
  // failed and a lucky flush now would make the on-disk state lie about
  // what was acked.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!segments_.empty() && !poisoned_.load(std::memory_order_acquire))
    segments_.back()->sync();
}

void WriteAheadLog::poison_locked(std::string reason) {
  if (poisoned_.load(std::memory_order_relaxed)) return;
  poison_reason_ = std::move(reason);
  poisoned_.store(true, std::memory_order_release);
  IG_LOG_WARN("store") << "WAL poisoned (fail-stop): " << poison_reason_;
}

void WriteAheadLog::replay(Lsn after,
                           const std::function<void(Lsn, std::string_view)>& fn) const {
  for (const auto& segment : segments_) {
    Lsn lsn = segment->first_lsn();
    for (const std::string_view record : segment->records()) {
      if (lsn > after) fn(lsn, record);
      ++lsn;
    }
  }
}

Lsn WriteAheadLog::append(std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (poisoned_.load(std::memory_order_acquire))
    throw Error(ErrorKind::kPoisoned, "append", options_.dir, poison_reason_);
  if (!active_locked().fits(payload.size())) roll_locked(payload.size());
  active_locked().append(payload);
  appends_.inc();
  return ++last_lsn_;
}

void WriteAheadLog::commit(Lsn upto) {
  std::unique_lock<std::mutex> lock(commit_mutex_);
  while (durable_lsn_ < upto && sync_in_flight_) commit_cv_.wait(lock);
  if (durable_lsn_ >= upto) {
    // Another thread's barrier already covered our records: group commit.
    group_commits_.inc();
    return;
  }
  // Fail-stop: once a barrier failed, no later barrier may ack anything.
  // Checked *after* the durable fast path — records a successful barrier
  // already covered stay honestly acked.
  if (poisoned_.load(std::memory_order_acquire))
    throw Error(ErrorKind::kPoisoned, "commit", options_.dir, poison_reason_);
  sync_in_flight_ = true;
  if (options_.group_window_us > 0) {
    // Leader linger: hold the leadership but release the lock for a short
    // window so commits arriving meanwhile register as followers. The
    // msync target is read *after* the window, so every one of them is
    // covered by this single barrier.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.group_window_us);
    commit_cv_.wait_until(lock, deadline, [] { return false; });
  }
  lock.unlock();
  Lsn target = 0;
  bool ok = true;
  int err = 0;
  {
    // The msync runs under the append mutex so the segment cannot roll or
    // be compacted away mid-sync; sealed segments were synced at roll time,
    // so syncing the active one covers everything up to last_lsn_.
    std::lock_guard<std::mutex> append_lock(mutex_);
    target = last_lsn_;
    ok = active_locked().sync();
    if (ok) {
      fsyncs_.inc();
    } else {
      err = errno;
      fsync_failures_.inc();
      poison_locked(std::string("commit fsync failed: ") + std::strerror(err));
    }
  }
  lock.lock();
  sync_in_flight_ = false;
  // durable_lsn_ only ever advances over a barrier that *succeeded*; a
  // failed one wakes every waiter into the poisoned check below.
  if (ok && durable_lsn_ < target) durable_lsn_ = target;
  commit_cv_.notify_all();
  if (!ok) throw Error(ErrorKind::kPoisoned, "commit", options_.dir, poison_reason_);
}

Lsn WriteAheadLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_lsn_;
}

Lsn WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  return durable_lsn_;
}

void WriteAheadLog::skip_to(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (last_lsn_ >= lsn) return;
  for (auto& segment : segments_) {
    const std::string path = segment->path();
    segment.reset();  // unmap before unlink
    fops_->unlink(path);
    ++segments_removed_;
  }
  segments_.clear();
  last_lsn_ = lsn;
  auto segment = Segment::create(*fops_, segment_path(options_.dir, next_sequence_),
                                 options_.segment_size, next_sequence_, lsn + 1);
  if (!segment)
    throw Error(errno_to_kind(errno), "create-segment", options_.dir, std::strerror(errno));
  ++next_sequence_;
  ++segments_created_;
  segments_.push_back(std::move(segment));
  sync_dir();
}

std::size_t WriteAheadLog::remove_segments_below(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t removed = 0;
  while (segments_.size() > 1 && segments_.front()->last_lsn() <= lsn) {
    const std::string path = segments_.front()->path();
    segments_.erase(segments_.begin());  // unmap before unlink
    fops_->unlink(path);
    ++removed;
  }
  segments_removed_ += removed;
  if (removed > 0) sync_dir();
  return removed;
}

std::size_t WriteAheadLog::segment_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

WalStats WriteAheadLog::stats() const {
  WalStats stats;
  stats.group_commits = group_commits_.value();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.appends = appends_.value();
  stats.fsyncs = fsyncs_.value();
  stats.fsync_failures = fsync_failures_.value();
  stats.segments_created = segments_created_;
  stats.segments_removed = segments_removed_;
  stats.recovered_records = recovered_records_;
  stats.torn_tail_repaired = torn_tail_repaired_;
  stats.poisoned = poisoned_.load(std::memory_order_acquire);
  for (const auto& segment : segments_) {
    const std::size_t records = segment->records().size();
    stats.records += records;
    stats.bytes += segment->tail() - Segment::kHeaderSize -
                   kFrameOverhead * records;
  }
  return stats;
}

std::string WriteAheadLog::active_segment_path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.back()->path();
}

std::size_t WriteAheadLog::active_tail() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.back()->tail();
}

void WriteAheadLog::roll_locked(std::size_t payload_size) {
  const std::size_t needed =
      Segment::kHeaderSize + kFrameOverhead + payload_size;
  // Seal-time sync: commit() only ever syncs the active segment, so a
  // sealed segment must already be durable when it stops being active.
  if (!active_locked().sync()) {
    const int err = errno;
    fsync_failures_.inc();
    poison_locked(std::string("seal fsync failed: ") + std::strerror(err));
    throw Error(ErrorKind::kPoisoned, "append", options_.dir, poison_reason_);
  }
  fsyncs_.inc();
  {
    // Every earlier segment was sealed the same way, so the whole log is
    // now durable: a commit waiting on these records must not sync again
    // (and fail, on a dying disk) for records already on it.
    std::lock_guard<std::mutex> commit_lock(commit_mutex_);
    if (durable_lsn_ < last_lsn_) durable_lsn_ = last_lsn_;
  }
  // A failed create is *not* fail-stop: the active segment is sealed and
  // intact, last_lsn_ is unchanged, and nothing was appended — the caller
  // sees a clean kNoSpace/kIo and may retry once space frees up.
  auto segment = Segment::create(*fops_, segment_path(options_.dir, next_sequence_),
                                 std::max(options_.segment_size, needed), next_sequence_,
                                 last_lsn_ + 1);
  if (!segment)
    throw Error(errno_to_kind(errno), "create-segment", options_.dir, std::strerror(errno));
  ++next_sequence_;
  ++segments_created_;
  segments_.push_back(std::move(segment));
  sync_dir();
}

void WriteAheadLog::sync_dir() {
  const int fd = fops_->open(options_.dir, O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) return;
  fops_->fsync(fd);
  fops_->close(fd);
}

}  // namespace ig::store
