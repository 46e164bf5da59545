// Durable storage subsystem: CRC framing, mmap segments, WAL recovery
// (including a torn tail at *every* byte offset of the last frame),
// snapshots, compaction, the StorageEngine journal semantics, and a pin of
// the on-disk format.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "store/codec.hpp"
#include "store/crc32c.hpp"
#include "store/error.hpp"
#include "store/fault_fs.hpp"
#include "store/segment.hpp"
#include "store/storage_engine.hpp"
#include "store/wal.hpp"

namespace ig::store {
namespace {

namespace fs = std::filesystem;

/// A unique empty directory under the test temp root, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    path_ = fs::path(::testing::TempDir()) /
            ("igrid-store-" + tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

// -- crc32c --------------------------------------------------------------------

TEST(Crc32c, MatchesTheCastagnoliCheckValue) {
  // The standard CRC-32C check vector.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
}

TEST(Crc32c, ComposesAcrossChunks) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = crc32c(data.data(), split);
    const std::uint32_t chunked = crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chunked, whole) << "split at " << split;
  }
}

// -- codec ---------------------------------------------------------------------

TEST(Codec, RoundTripsEveryPrimitive) {
  std::string bytes;
  Writer w(bytes);
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.str(std::string_view("payload with \0 byte inside", 26));
  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str().size(), 26u);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
}

TEST(Codec, TruncatedInputFlipsOkInsteadOfThrowing) {
  std::string bytes;
  Writer w(bytes);
  w.u64(42);
  w.str("hello");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Reader r(std::string_view(bytes).substr(0, cut));
    r.u64();
    r.str();
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

// -- segment -------------------------------------------------------------------

TEST(Segment, AppendsAndReopensIntact) {
  TempDir dir("segment");
  const std::string path = (dir.path() / "seg-1.seg").string();
  {
    auto segment = Segment::create(posix_file_ops(), path, 4096, 1, 10);
    ASSERT_NE(segment, nullptr);
    for (int i = 0; i < 3; ++i) segment->append("record-" + std::to_string(i));
    segment->sync();
    EXPECT_EQ(segment->last_lsn(), 12u);
  }
  auto reopened = Segment::open(posix_file_ops(), path);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->sequence(), 1u);
  EXPECT_EQ(reopened->first_lsn(), 10u);
  ASSERT_EQ(reopened->records().size(), 3u);
  EXPECT_EQ(reopened->records()[2], "record-2");
  EXPECT_FALSE(reopened->torn_tail_repaired());
  // Appending continues after the recovered tail.
  reopened->append("record-3");
  EXPECT_EQ(reopened->last_lsn(), 13u);
}

TEST(Segment, RejectsAlienFiles) {
  TempDir dir("alien");
  const std::string path = (dir.path() / "not-a-segment.seg").string();
  std::ofstream(path) << "this is not a segment header at all";
  EXPECT_EQ(Segment::open(posix_file_ops(), path), nullptr);
  EXPECT_EQ(Segment::open(posix_file_ops(), (dir.path() / "missing.seg").string()), nullptr);
}

// -- WAL recovery --------------------------------------------------------------

std::vector<std::string> replay_all(const WriteAheadLog& wal) {
  std::vector<std::string> records;
  wal.replay(0, [&](Lsn, std::string_view payload) { records.emplace_back(payload); });
  return records;
}

/// Writes `count` records (record i = "payload-i" padded to a known size)
/// and returns the active segment's tail offsets after count-1 and count
/// records, so the caller knows the last frame's byte range.
struct LastFrame {
  std::string file;
  std::size_t begin = 0;  ///< file offset of the last frame's first byte
  std::size_t end = 0;    ///< file offset one past the last frame
};

LastFrame write_wal_with_known_tail(const std::string& dir, std::size_t count) {
  WalOptions options;
  options.dir = dir;
  WriteAheadLog wal(options);
  LastFrame frame;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + 1 == count) frame.begin = wal.active_tail();
    wal.append("payload-" + std::to_string(i));
  }
  wal.commit(wal.last_lsn());
  frame.end = wal.active_tail();
  frame.file = wal.active_segment_path();
  return frame;
}

// The acceptance-criteria harness: a crash that truncates the log at every
// byte offset of the last frame must always recover the first N-1 records,
// never crash, and keep the log appendable.
TEST(WalRecovery, TruncationAtEveryByteOffsetOfTheLastFrameDropsOnlyIt) {
  const std::size_t kRecords = 5;
  for (std::size_t offset_from_frame = 0;; ++offset_from_frame) {
    TempDir dir("truncate");
    const LastFrame frame = write_wal_with_known_tail(dir.str(), kRecords);
    const std::size_t cut = frame.begin + offset_from_frame;
    if (cut >= frame.end) break;  // past the last frame: nothing left to cut
    fs::resize_file(frame.file, cut);

    WalOptions options;
    options.dir = dir.str();
    WriteAheadLog recovered(options);
    const std::vector<std::string> records = replay_all(recovered);
    ASSERT_EQ(records.size(), kRecords - 1) << "cut at offset " << cut;
    EXPECT_EQ(records.back(), "payload-3");
    EXPECT_EQ(recovered.last_lsn(), kRecords - 1);
    // The log must stay appendable, and the new record takes the LSN the
    // torn record never durably owned.
    const Lsn lsn = recovered.append("replacement");
    EXPECT_EQ(lsn, kRecords);
    recovered.commit(lsn);
    EXPECT_EQ(replay_all(recovered).back(), "replacement");
  }
}

// Same sweep with corruption instead of truncation: every single-bit flip
// inside the last frame must invalidate exactly that record.
TEST(WalRecovery, CorruptionAtEveryByteOffsetOfTheLastFrameDropsOnlyIt) {
  const std::size_t kRecords = 5;
  for (std::size_t offset_from_frame = 0;; ++offset_from_frame) {
    TempDir dir("corrupt");
    const LastFrame frame = write_wal_with_known_tail(dir.str(), kRecords);
    const std::size_t target = frame.begin + offset_from_frame;
    if (target >= frame.end) break;
    {
      std::fstream file(frame.file, std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(static_cast<std::streamoff>(target));
      char byte = 0;
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x01);
      file.seekp(static_cast<std::streamoff>(target));
      file.write(&byte, 1);
    }

    WalOptions options;
    options.dir = dir.str();
    WriteAheadLog recovered(options);
    const std::vector<std::string> records = replay_all(recovered);
    ASSERT_EQ(records.size(), kRecords - 1) << "flip at offset " << target;
    EXPECT_TRUE(recovered.stats().torn_tail_repaired);
  }
}

TEST(WalRecovery, RollsToNewSegmentsAndReplaysAcrossThem) {
  TempDir dir("roll");
  WalOptions options;
  options.dir = dir.str();
  options.segment_size = 256;  // tiny: forces several rolls
  std::vector<std::string> written;
  {
    WriteAheadLog wal(options);
    for (int i = 0; i < 40; ++i) {
      written.push_back("record-" + std::to_string(i) + std::string(16, 'x'));
      wal.append(written.back());
    }
    wal.commit(wal.last_lsn());
    EXPECT_GT(wal.segment_count(), 1u);
  }
  WriteAheadLog recovered(options);
  EXPECT_EQ(replay_all(recovered), written);
  EXPECT_EQ(recovered.last_lsn(), 40u);
}

TEST(WalRecovery, OversizedRecordGetsItsOwnSegment) {
  TempDir dir("oversize");
  WalOptions options;
  options.dir = dir.str();
  options.segment_size = 256;
  const std::string big(4096, 'B');
  {
    WriteAheadLog wal(options);
    wal.append("small");
    wal.append(big);
    wal.append("after");
    wal.commit(wal.last_lsn());
  }
  WriteAheadLog recovered(options);
  const std::vector<std::string> records = replay_all(recovered);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1], big);
}

TEST(WalRecovery, MissingMiddleSegmentCutsTheLogAtTheGap) {
  TempDir dir("gap");
  WalOptions options;
  options.dir = dir.str();
  options.segment_size = 256;
  {
    WriteAheadLog wal(options);
    for (int i = 0; i < 40; ++i) wal.append("record-" + std::to_string(i) + std::string(16, 'y'));
    wal.commit(wal.last_lsn());
    ASSERT_GE(wal.segment_count(), 3u);
  }
  // Delete the second segment file: everything after the gap is untrustworthy.
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir.path())) segments.push_back(entry.path());
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 3u);
  fs::remove(segments[1]);

  WriteAheadLog recovered(options);
  const std::vector<std::string> records = replay_all(recovered);
  ASSERT_FALSE(records.empty());
  EXPECT_LT(records.size(), 40u);
  EXPECT_EQ(records.front(), "record-0" + std::string(16, 'y'));
  // The prefix is contiguous: record k is always "record-k".
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i], "record-" + std::to_string(i) + std::string(16, 'y'));
}

TEST(Wal, GroupCommitBatchesFsyncs) {
  TempDir dir("sync");
  WalOptions options;
  options.dir = dir.str();
  WriteAheadLog wal(options);
  for (int i = 0; i < 100; ++i) wal.append("r" + std::to_string(i));
  wal.commit(wal.last_lsn());
  wal.commit(wal.last_lsn());  // already durable: no second fsync
  const WalStats stats = wal.stats();
  EXPECT_EQ(stats.appends, 100u);
  EXPECT_LT(stats.fsyncs, 5u);
  EXPECT_EQ(wal.durable_lsn(), 100u);
}

TEST(Wal, GroupWindowBatchesSequentialCommittersAcrossThreads) {
  // Models durable engine shards finishing cases back to back: each thread
  // appends then commits, round after round, so commits overlap only
  // briefly. With a leader-linger window the first committer of a round
  // waits for the stragglers and one msync covers them all; the fsync
  // count must fall well below one-per-commit.
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  TempDir dir("window");
  WalOptions options;
  options.dir = dir.str();
  options.group_window_us = 20'000;  // generous: robust on a loaded 1-core CI box
  WriteAheadLog wal(options);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, t] {
      for (int round = 0; round < kRounds; ++round) {
        const Lsn lsn = wal.append("t" + std::to_string(t) + "-r" + std::to_string(round));
        wal.commit(lsn);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const WalStats stats = wal.stats();
  EXPECT_EQ(stats.appends, static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(wal.durable_lsn(), static_cast<Lsn>(kThreads * kRounds));
  // One-per-commit would be kThreads * kRounds fsyncs; the window must at
  // least halve that, and some commit must have ridden another's barrier.
  EXPECT_LE(stats.fsyncs * 2, static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_GT(stats.group_commits, 0u);
}

// -- storage engine ------------------------------------------------------------

/// Appends one event on stream "engine" and commits through its LSN: the
/// engine's admit path, durable once this returns.
void append_committed(StorageEngine& engine, std::string_view payload) {
  engine.commit(engine.append_event("engine", payload));
}

/// Reopens `options` and returns every replayed event payload, in order.
std::vector<std::string> replayed_payloads(const Options& options) {
  std::vector<std::string> payloads;
  StorageEngine reopened(options, [&](std::string_view, std::string_view payload) {
    payloads.emplace_back(payload);
  });
  return payloads;
}

TEST(StorageEngine, EmptyDataDirIsRefused) {
  EXPECT_THROW(StorageEngine engine(Options{}), std::invalid_argument);
}

TEST(StorageEngine, EventsReplayInLsnOrderAcrossStreams) {
  TempDir dir("events");
  Options options;
  options.data_dir = dir.str();
  {
    StorageEngine engine(options);
    engine.append_event("alpha", "a1");
    engine.append_event("beta", "b1");
    engine.append_event("alpha", "a2");
    engine.commit();
  }
  std::vector<std::string> seen;
  StorageEngine reopened(options, [&](std::string_view stream, std::string_view payload) {
    seen.push_back(std::string(stream) + ":" + std::string(payload));
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha:a1", "beta:b1", "alpha:a2"}));
  EXPECT_EQ(reopened.stats().replayed_records, 3u);
  EXPECT_GE(reopened.stats().recovery_ms, 0.0);
}

TEST(StorageEngine, SnapshotCompactsTheWalAndBoundsReplay) {
  TempDir dir("snapshot");
  Options options;
  options.data_dir = dir.str();
  options.segment_size = 512;     // many small segments
  options.snapshot_interval = 0;  // manual snapshots only
  {
    StorageEngine engine(options);
    int applied = 0;
    engine.set_state_provider("engine", [&applied] { return std::to_string(applied); });
    for (; applied < 50; ++applied)
      append_committed(engine, "event-" + std::to_string(applied) + std::string(24, 'v'));
    ASSERT_GT(engine.stats().segments, 1u);
    EXPECT_TRUE(engine.snapshot());
    const StoreStats stats = engine.stats();
    EXPECT_EQ(stats.snapshots_written, 1u);
    EXPECT_GT(stats.segments_compacted, 0u);
    EXPECT_EQ(stats.snapshot_lsn, 50u);
    // Post-snapshot writes land in the surviving WAL tail.
    append_committed(engine, "after-snapshot");
  }
  EXPECT_EQ(replayed_payloads(options), std::vector<std::string>{"after-snapshot"});
  StorageEngine reopened(options);
  EXPECT_EQ(reopened.recovered_state("engine"), "50");
  // Only the tail replays; the bulk comes from the snapshot.
  EXPECT_LE(reopened.stats().replayed_records, 2u);
}

TEST(StorageEngine, StateProviderBlobRoundTripsThroughSnapshot) {
  TempDir dir("blob");
  Options options;
  options.data_dir = dir.str();
  options.snapshot_interval = 0;
  {
    StorageEngine engine(options);
    engine.set_state_provider("engine", [] { return std::string("STATE-BLOB-1"); });
    engine.append_event("engine", "before-snapshot");
    EXPECT_TRUE(engine.snapshot());
    engine.append_event("engine", "after-snapshot");
    engine.commit();
  }
  std::vector<std::string> replayed;
  StorageEngine reopened(options, [&](std::string_view stream, std::string_view payload) {
    if (stream == "engine") replayed.emplace_back(payload);
  });
  EXPECT_EQ(reopened.recovered_state("engine"), "STATE-BLOB-1");
  // The pre-snapshot event is inside the blob, not the replayed tail.
  EXPECT_EQ(replayed, std::vector<std::string>{"after-snapshot"});
}

TEST(StorageEngine, CorruptSnapshotFallsBackToTheWal) {
  TempDir dir("badsnap");
  Options options;
  options.data_dir = dir.str();
  options.snapshot_interval = 0;
  options.auto_compact = false;  // keep the WAL so the fallback has data
  {
    StorageEngine engine(options);
    engine.set_state_provider("engine", [] { return std::string("STATE-BLOB-1"); });
    append_committed(engine, "e1");
    EXPECT_TRUE(engine.snapshot());
    append_committed(engine, "e2");
  }
  // Flip a byte inside the snapshot's state blob; its CRC framing must
  // reject it.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().extension() != ".snap") continue;
    std::fstream file(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(48);
    file.write("\xFF", 1);
  }
  std::vector<std::string> replayed;
  StorageEngine reopened(options, [&](std::string_view, std::string_view payload) {
    replayed.emplace_back(payload);
  });
  EXPECT_EQ(reopened.recovered_state("engine"), "");
  EXPECT_EQ(replayed, (std::vector<std::string>{"e1", "e2"}));
}

TEST(StorageEngine, AutoSnapshotTriggersOnInterval) {
  TempDir dir("auto");
  Options options;
  options.data_dir = dir.str();
  options.snapshot_interval = 10;
  StorageEngine engine(options);
  for (int i = 0; i < 25; ++i) {
    append_committed(engine, "event-" + std::to_string(i));
    engine.maybe_snapshot();
  }
  EXPECT_GE(engine.stats().snapshots_written, 2u);
}

// TSan coverage: concurrent writers on the committed and batched journal
// paths, with group commits racing appends, then a clean reopen.
TEST(StorageEngine, ConcurrentWritersRecoverCompletely) {
  TempDir dir("threads");
  Options options;
  options.data_dir = dir.str();
  options.segment_size = 4096;  // force rolls under contention
  const int kThreads = 4;
  const int kOps = 50;
  const auto expected_stream = [](int t) {
    std::vector<std::string> events;
    for (int i = 0; i < kOps; ++i) {
      const std::string suffix = std::to_string(t) + "-" + std::to_string(i);
      events.push_back("committed-" + suffix);
      events.push_back("batched-" + suffix);
    }
    return events;
  };
  {
    StorageEngine engine(options);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&engine, t] {
        const std::string stream = "stream-" + std::to_string(t);
        for (int i = 0; i < kOps; ++i) {
          const std::string suffix = std::to_string(t) + "-" + std::to_string(i);
          engine.commit(engine.append_event(stream, "committed-" + suffix));
          engine.append_event(stream, "batched-" + suffix);
          if (i % 8 == 0) engine.commit();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    engine.commit();
    EXPECT_EQ(engine.stats().last_lsn, static_cast<Lsn>(2 * kThreads * kOps));
  }
  std::map<std::string, std::vector<std::string>> streams;
  StorageEngine reopened(options, [&](std::string_view stream, std::string_view payload) {
    streams[std::string(stream)].emplace_back(payload);
  });
  ASSERT_EQ(streams.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(streams["stream-" + std::to_string(t)], expected_stream(t)) << "thread " << t;
}

// -- on-disk format ------------------------------------------------------------

// The used prefix of a WAL segment (capacity 4096) and a snapshot file, as
// written by the sequence in `write_pinned_store`: two "engine" events, a
// snapshot at LSN 2 whose one state blob reads "engine-state-v1", then two
// more events.
constexpr unsigned char kPinnedSegment[] = {
    0x49, 0x47, 0x53, 0x45, 0x47, 0x30, 0x30, 0x31, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x24, 0x79, 0xe9, 0x79,
    0x03, 0x06, 0x00, 0x00, 0x00, 0x65, 0x6e, 0x67, 0x69, 0x6e, 0x65, 0x07,
    0x00, 0x00, 0x00, 0x61, 0x64, 0x6d, 0x69, 0x74, 0x20, 0x31, 0x16, 0x00,
    0x00, 0x00, 0xd0, 0x8a, 0xb9, 0x6a, 0x03, 0x06, 0x00, 0x00, 0x00, 0x65,
    0x6e, 0x67, 0x69, 0x6e, 0x65, 0x07, 0x00, 0x00, 0x00, 0x61, 0x64, 0x6d,
    0x69, 0x74, 0x20, 0x32, 0x19, 0x00, 0x00, 0x00, 0xc3, 0xa0, 0x32, 0xf7,
    0x03, 0x06, 0x00, 0x00, 0x00, 0x65, 0x6e, 0x67, 0x69, 0x6e, 0x65, 0x0a,
    0x00, 0x00, 0x00, 0x74, 0x65, 0x72, 0x6d, 0x69, 0x6e, 0x61, 0x6c, 0x20,
    0x31, 0x19, 0x00, 0x00, 0x00, 0x37, 0x53, 0x62, 0xe4, 0x03, 0x06, 0x00,
    0x00, 0x00, 0x65, 0x6e, 0x67, 0x69, 0x6e, 0x65, 0x0a, 0x00, 0x00, 0x00,
    0x74, 0x65, 0x72, 0x6d, 0x69, 0x6e, 0x61, 0x6c, 0x20, 0x32,
};
constexpr unsigned char kPinnedSnapshot[] = {
    0x0d, 0x00, 0x00, 0x00, 0x89, 0x4e, 0x8b, 0xfd, 0x0a, 0x01, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1e, 0x00, 0x00,
    0x00, 0x4c, 0x8e, 0x39, 0x5e, 0x0c, 0x06, 0x00, 0x00, 0x00, 0x65, 0x6e,
    0x67, 0x69, 0x6e, 0x65, 0x0f, 0x00, 0x00, 0x00, 0x65, 0x6e, 0x67, 0x69,
    0x6e, 0x65, 0x2d, 0x73, 0x74, 0x61, 0x74, 0x65, 0x2d, 0x76, 0x31, 0x09,
    0x00, 0x00, 0x00, 0x68, 0xf3, 0x5b, 0x60, 0x0d, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00,
};
constexpr const char* kPinnedSegmentName = "wal-00000001.seg";
constexpr const char* kPinnedSnapshotName = "snap-0000000000000002.snap";

Options pinned_options(const std::string& dir) {
  Options options;
  options.data_dir = dir;
  options.segment_size = 4096;
  options.snapshot_interval = 0;
  options.auto_compact = false;
  return options;
}

void write_pinned_store(const std::string& dir) {
  StorageEngine engine(pinned_options(dir));
  engine.set_state_provider("engine", [] { return std::string("engine-state-v1"); });
  engine.append_event("engine", "admit 1");
  engine.append_event("engine", "admit 2");
  engine.commit();
  ASSERT_TRUE(engine.snapshot());
  engine.append_event("engine", "terminal 1");
  engine.append_event("engine", "terminal 2");
  engine.commit();
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

template <std::size_t N>
std::string as_string(const unsigned char (&bytes)[N]) {
  return std::string(reinterpret_cast<const char*>(bytes), N);
}

TEST(StoreFormat, PinnedBytesReopenToTheSameBlobAndEvents) {
  TempDir dir("pinned");
  {
    // Only the used prefix: opening re-extends the segment to its capacity.
    std::ofstream(dir.path() / kPinnedSegmentName, std::ios::binary)
        << as_string(kPinnedSegment);
    std::ofstream(dir.path() / kPinnedSnapshotName, std::ios::binary)
        << as_string(kPinnedSnapshot);
  }
  std::vector<std::string> replayed;
  StorageEngine reopened(pinned_options(dir.str()),
                         [&](std::string_view stream, std::string_view payload) {
                           replayed.push_back(std::string(stream) + ":" + std::string(payload));
                         });
  EXPECT_EQ(reopened.recovered_state("engine"), "engine-state-v1");
  EXPECT_EQ(replayed, (std::vector<std::string>{"engine:terminal 1", "engine:terminal 2"}));
  const StoreStats stats = reopened.stats();
  EXPECT_EQ(stats.snapshot_lsn, 2u);
  EXPECT_EQ(stats.last_lsn, 4u);
  EXPECT_FALSE(stats.wal.torn_tail_repaired);
  EXPECT_EQ(fs::file_size(dir.path() / kPinnedSegmentName), 4096u);
}

TEST(StoreFormat, TheSameWritesProduceThePinnedBytes) {
  TempDir dir("pin-write");
  write_pinned_store(dir.str());
  const std::string segment = read_bytes(dir.path() / kPinnedSegmentName);
  ASSERT_EQ(segment.size(), 4096u);
  EXPECT_EQ(segment.substr(0, sizeof kPinnedSegment), as_string(kPinnedSegment));
  EXPECT_EQ(segment.find_first_not_of('\0', sizeof kPinnedSegment), std::string::npos);
  EXPECT_EQ(read_bytes(dir.path() / kPinnedSnapshotName), as_string(kPinnedSnapshot));
}

// -- deterministic disk-fault injection ----------------------------------------

TEST(FaultFs, SameSeedInjectsTheSameFaultsTwice) {
  // Two identical runs over the same op sequence must agree on every
  // injection decision — the property every sweep below leans on.
  FaultFsOptions options;
  options.seed = 42;
  options.rules.push_back({FaultMatch{}, /*io_error=*/0.2, /*no_space=*/0.1,
                           /*short_write=*/0.1, /*fsync_error=*/0.1});
  std::vector<FaultFsStats> runs;
  for (int run = 0; run < 2; ++run) {
    TempDir dir("det-" + std::to_string(run));
    FaultFs faults(options);
    for (int i = 0; i < 200; ++i) {
      const std::string path = (dir.path() / ("f" + std::to_string(i))).string();
      const int fd = faults.open(path, O_CREAT | O_RDWR, 0644);
      if (fd < 0) continue;
      char byte = 'x';
      faults.pwrite(fd, &byte, 1, 0);
      faults.fsync(fd);
      faults.close(fd);
    }
    runs.push_back(faults.stats());
  }
  EXPECT_EQ(runs[0].ops, runs[1].ops);
  EXPECT_EQ(runs[0].io_errors, runs[1].io_errors);
  EXPECT_EQ(runs[0].no_space, runs[1].no_space);
  EXPECT_EQ(runs[0].short_writes, runs[1].short_writes);
  EXPECT_EQ(runs[0].fsync_failures, runs[1].fsync_failures);
  EXPECT_GT(runs[0].total_injected(), 0u);
}

/// Record i of the canonical three-segment workload.
std::string workload_event(int i) { return "key-" + std::to_string(i) + std::string(24, 'v'); }

/// The canonical three-segment workload: 30 committed events through a
/// tiny segment size.
void three_segment_workload(StorageEngine& engine) {
  for (int i = 0; i < 30; ++i) append_committed(engine, workload_event(i));
}

Options three_segment_options(const std::string& dir, FileOps* fops) {
  Options options;
  options.data_dir = dir;
  options.segment_size = 512;
  options.snapshot_interval = 0;
  options.file_ops = fops;
  return options;
}

// The ISSUE acceptance sweep: ENOSPC injected at every single I/O operation
// of the three-segment workload. Whatever happens — a clean kNoSpace the
// caller can retry, or a poisoned WAL if the fault landed on a durability
// barrier — an acked event must survive reopen, and a poisoned store must
// stay fail-stop for the rest of the run.
TEST(FaultFs, EnospcAtEveryOpOfAThreeSegmentWorkload) {
  std::uint64_t total_ops = 0;
  {
    TempDir dir("enospc-baseline");
    FaultFs faults(FaultFsOptions{});  // pass-through: just counts ops
    {
      StorageEngine engine(three_segment_options(dir.str(), &faults));
      three_segment_workload(engine);
      ASSERT_GE(engine.stats().segments, 3u) << "workload must span >= 3 segments";
    }
    total_ops = faults.ops();
    ASSERT_GT(total_ops, 10u);
    EXPECT_EQ(faults.stats().total_injected(), 0u);
  }

  bool saw_clean_nospace = false;
  bool saw_poisoned = false;
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    TempDir dir("enospc-" + std::to_string(k));
    FaultFsOptions fault_options;
    fault_options.one_shots.push_back({k, FaultAction::kNoSpace});
    FaultFs faults(fault_options);
    std::vector<std::string> acked;
    bool poisoned = false;
    {
      std::unique_ptr<StorageEngine> engine;
      try {
        engine = std::make_unique<StorageEngine>(three_segment_options(dir.str(), &faults));
      } catch (const Error&) {
        // The fault landed inside open/recovery; nothing was acked.
      }
      if (engine) {
        for (int i = 0; i < 30; ++i) {
          try {
            append_committed(*engine, workload_event(i));
            ASSERT_FALSE(poisoned) << "op " << k << ": a poisoned store acked an event";
            acked.push_back(workload_event(i));
          } catch (const Error& e) {
            if (e.kind() == ErrorKind::kPoisoned) poisoned = true;
            else
              EXPECT_TRUE(e.kind() == ErrorKind::kNoSpace || e.kind() == ErrorKind::kIo)
                  << "op " << k << ": unexpected kind " << to_string(e.kind());
          }
        }
        if (!poisoned && acked.size() < 30u) saw_clean_nospace = true;
        if (poisoned) saw_poisoned = true;
      }
    }
    // Reopen with the real filesystem: every acked event must be there.
    const std::vector<std::string> replayed =
        replayed_payloads(three_segment_options(dir.str(), nullptr));
    const std::set<std::string> retained(replayed.begin(), replayed.end());
    for (const std::string& event : acked)
      EXPECT_EQ(retained.count(event), 1u) << "op " << k << ": acked event lost";
  }
  // The sweep must have exercised both rungs of the degradation ladder.
  EXPECT_TRUE(saw_clean_nospace) << "no op produced a clean retryable ENOSPC";
  EXPECT_TRUE(saw_poisoned) << "no op produced a poisoned durability barrier";
}

// fsyncgate semantics: one failed durability barrier poisons the WAL for
// good. No retry ever reaches the disk, and everything after the failure
// fails fast with kPoisoned.
TEST(FaultFs, FsyncFailureOnCommitIsFailStop) {
  TempDir dir("fsyncgate");
  FaultFsOptions fault_options;
  fault_options.rules.push_back({FaultMatch{"", FileOp::kMsync},
                                 /*io_error=*/0.0, /*no_space=*/0.0,
                                 /*short_write=*/0.0, /*fsync_error=*/1.0});
  FaultFs faults(fault_options);
  WalOptions options;
  options.dir = dir.str();
  options.file_ops = &faults;
  WriteAheadLog wal(options);
  const Lsn lsn = wal.append("doomed");
  EXPECT_THROW(wal.commit(lsn), Error);
  EXPECT_TRUE(wal.stats().poisoned);
  EXPECT_EQ(wal.stats().fsync_failures, 1u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  const std::uint64_t injected_after_first = faults.stats().fsync_failures;
  EXPECT_EQ(injected_after_first, 1u);

  // Fail-stop means fail-stop: another commit and another append both throw
  // kPoisoned without the WAL ever touching the disk again.
  try {
    wal.commit(lsn);
    FAIL() << "poisoned commit did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kPoisoned);
  }
  try {
    wal.append("after-poison");
    FAIL() << "poisoned append did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kPoisoned);
  }
  EXPECT_EQ(faults.stats().fsync_failures, injected_after_first)
      << "the WAL retried a failed durability barrier";
}

// A torn flush: a deterministic prefix of the segment reaches the disk, the
// barrier reports failure. Reopen must recover a clean prefix of the
// appended records — possibly empty, never garbage, always appendable.
TEST(FaultFs, ShortWriteTailRecoversACleanPrefixOnReopen) {
  const std::size_t kRecords = 5;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TempDir dir("tear-" + std::to_string(seed));
    {
      FaultFsOptions fault_options;
      fault_options.seed = seed;
      fault_options.rules.push_back({FaultMatch{"", FileOp::kMsync},
                                     /*io_error=*/0.0, /*no_space=*/0.0,
                                     /*short_write=*/1.0, /*fsync_error=*/0.0});
      FaultFs faults(fault_options);
      WalOptions options;
      options.dir = dir.str();
      options.file_ops = &faults;
      WriteAheadLog wal(options);
      for (std::size_t i = 0; i < kRecords; ++i) wal.append("payload-" + std::to_string(i));
      EXPECT_THROW(wal.commit(wal.last_lsn()), Error);
      EXPECT_TRUE(wal.stats().poisoned);
    }
    // Reopen on the real filesystem: whatever prefix the tear persisted
    // must parse as records 0..m-1, and the log must keep working.
    WalOptions reopen_options;
    reopen_options.dir = dir.str();
    WriteAheadLog recovered(reopen_options);
    const std::vector<std::string> records = replay_all(recovered);
    ASSERT_LE(records.size(), kRecords) << "seed " << seed;
    for (std::size_t i = 0; i < records.size(); ++i)
      EXPECT_EQ(records[i], "payload-" + std::to_string(i)) << "seed " << seed;
    const Lsn lsn = recovered.append("after-recovery");
    recovered.commit(lsn);
    EXPECT_EQ(replay_all(recovered).back(), "after-recovery");
  }
}

TEST(FaultFs, PowerCutFreezesTheDiskForever) {
  TempDir dir("cut");
  FaultFsOptions fault_options;
  fault_options.power_cut_after = 12;
  FaultFs faults(fault_options);
  Options options;
  options.data_dir = dir.str();
  options.file_ops = &faults;
  std::vector<std::string> acked;
  try {
    StorageEngine engine(options);
    for (int i = 0; i < 50; ++i) {
      append_committed(engine, "event-" + std::to_string(i));
      acked.push_back("event-" + std::to_string(i));
    }
    FAIL() << "the power cut never fired";
  } catch (const Error&) {
    // Expected: either the open or some commit hit the cut.
  }
  EXPECT_GT(faults.stats().power_cut_failures, 0u);
  // Everything acked before the cut survives a posix reopen, in order.
  Options reopen_options;
  reopen_options.data_dir = dir.str();
  const std::vector<std::string> replayed = replayed_payloads(reopen_options);
  ASSERT_GE(replayed.size(), acked.size());
  for (std::size_t i = 0; i < acked.size(); ++i) EXPECT_EQ(replayed[i], acked[i]);
}

// A record a segment seal made durable stays acked: committing through its
// LSN must not sync again, so a dying disk that fails the next barrier
// cannot turn a record already on it into a rejected one. The enactment
// engine acks a submission by committing through its Admit record's LSN.
TEST(FaultFs, ARecordASealMadeDurableCommitsAfterTheDiskDies) {
  // Two records too large to share a 512-byte segment: appending the second
  // seals (and syncs) the first one's segment.
  const auto append_both = [](FaultFs& faults, const std::string& dir, Lsn& first,
                              Lsn& second) {
    Options options;
    options.data_dir = dir;
    options.segment_size = 512;
    options.file_ops = &faults;
    auto engine = std::make_unique<StorageEngine>(options);
    first = engine->append_event("engine", std::string(300, 'a'));
    second = engine->append_event("engine", std::string(300, 'b'));
    return engine;
  };
  std::uint64_t ops_through_seal = 0;
  {
    TempDir dir("seal-count");
    FaultFs pass_through{FaultFsOptions{}};
    Lsn first = 0, second = 0;
    auto engine = append_both(pass_through, dir.str(), first, second);
    ops_through_seal = pass_through.ops();
  }

  TempDir dir("seal-cut");
  FaultFsOptions fault_options;
  fault_options.power_cut_after = ops_through_seal;  // every later op fails
  FaultFs faults(fault_options);
  Lsn first = 0, second = 0;
  auto engine = append_both(faults, dir.str(), first, second);
  EXPECT_NO_THROW(engine->commit(first));  // the seal already synced it
  EXPECT_EQ(faults.stats().power_cut_failures, 0u);
  EXPECT_THROW(engine->commit(second), Error);  // this one needs the dead disk
  EXPECT_GT(faults.stats().power_cut_failures, 0u);
  engine.reset();

  Options reopen_options;
  reopen_options.data_dir = dir.str();
  std::vector<std::string> replayed;
  StorageEngine reopened(reopen_options, [&](std::string_view, std::string_view payload) {
    replayed.emplace_back(payload);
  });
  ASSERT_FALSE(replayed.empty());
  EXPECT_EQ(replayed.front(), std::string(300, 'a'));
}

// A failed snapshot rename must leave the previous snapshot authoritative
// and never leave a half-written .tmp behind to confuse a later open.
TEST(StorageEngine, SnapshotRenameFailureKeepsThePreviousSnapshotAuthoritative) {
  TempDir dir("snaprename");
  Options posix_options;
  posix_options.data_dir = dir.str();
  posix_options.snapshot_interval = 0;
  posix_options.auto_compact = false;
  {
    StorageEngine engine(posix_options);
    engine.set_state_provider("engine", [] { return std::string("v1"); });
    append_committed(engine, "e1");
    ASSERT_TRUE(engine.snapshot());
  }
  {
    FaultFsOptions fault_options;
    fault_options.rules.push_back({FaultMatch{"", FileOp::kRename},
                                   /*io_error=*/1.0, /*no_space=*/0.0,
                                   /*short_write=*/0.0, /*fsync_error=*/0.0});
    FaultFs faults(fault_options);
    Options faulty_options = posix_options;
    faulty_options.file_ops = &faults;
    StorageEngine engine(faulty_options);
    engine.set_state_provider("engine", [] { return std::string("v2"); });
    append_committed(engine, "e2");
    EXPECT_FALSE(engine.snapshot()) << "snapshot survived a failed rename";
    EXPECT_EQ(engine.stats().snapshots_written, 0u);
  }
  // No .tmp remains, the old snapshot still loads, the WAL carries e2.
  for (const auto& entry : fs::directory_iterator(dir.path()))
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  std::vector<std::string> replayed;
  StorageEngine reopened(posix_options, [&](std::string_view, std::string_view payload) {
    replayed.emplace_back(payload);
  });
  EXPECT_EQ(reopened.recovered_state("engine"), "v1") << "previous snapshot was lost";
  EXPECT_EQ(reopened.stats().snapshot_lsn, 1u);
  EXPECT_EQ(replayed, std::vector<std::string>{"e2"});
}

}  // namespace
}  // namespace ig::store
