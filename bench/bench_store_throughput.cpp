// Durable store throughput and recovery cost (DESIGN.md §11, EXPERIMENTS A19).
//
// Two sweeps over the mmap-backed WAL:
//   * append throughput with the whole batch under one commit() (the
//     group-commit sweet spot) and with a commit() per record (worst case);
//   * cold-start recovery time as the journal grows, with and without a
//     snapshot bounding the replay.
//
// Appends one JSON Lines record per point to BENCH_store.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "store/codec.hpp"
#include "store/error.hpp"
#include "store/fault_fs.hpp"
#include "store/storage_engine.hpp"
#include "util/stopwatch.hpp"

using namespace ig;

namespace {

constexpr const char* kJsonPath = "BENCH_store.json";
constexpr std::size_t kPayloadBytes = 128;

std::string bench_dir(const char* tag) {
  static std::uint64_t counter = 0;
  return "bench_store_data/" + std::string(tag) + "-" + std::to_string(counter++);
}

void wipe(const std::string& dir) { std::system(("rm -rf '" + dir + "'").c_str()); }

std::string make_payload(std::mt19937_64& rng) {
  std::string payload(kPayloadBytes, '\0');
  for (char& c : payload) c = static_cast<char>('a' + rng() % 26);
  return payload;
}

struct AppendPoint {
  const char* label;
  bool commit_each;
};

void run_append_sweep(std::size_t records) {
  std::printf("append throughput (%zu records x %zu B payload)\n", records, kPayloadBytes);
  std::printf("  %-18s %12s %12s %10s\n", "mode", "appends/s", "MB/s", "fsyncs");
  const AppendPoint points[] = {
      {"commit-batched", false},
      {"commit-each", true},
  };
  for (const AppendPoint& point : points) {
    const std::string dir = bench_dir(point.label);
    wipe(dir);
    store::Options options;
    options.data_dir = dir;
    options.snapshot_interval = 0;  // measure the raw WAL, not snapshotting
    std::mt19937_64 rng(2004);
    util::Stopwatch watch;
    {
      store::StorageEngine engine(options);
      for (std::size_t i = 0; i < records; ++i) {
        engine.append_event("bench", make_payload(rng));
        if (point.commit_each) engine.commit();
      }
      engine.commit();
      const double seconds = watch.elapsed_seconds();
      const store::StoreStats stats = engine.stats();
      const double per_second = static_cast<double>(records) / seconds;
      const double mb_per_second =
          static_cast<double>(stats.wal.bytes) / seconds / (1024.0 * 1024.0);
      std::printf("  %-18s %12.0f %12.2f %10llu\n", point.label, per_second, mb_per_second,
                  static_cast<unsigned long long>(stats.wal.fsyncs));
      bench::JsonRecord record("bench_store_throughput");
      record.add("sweep", std::string("append"));
      record.add("mode", std::string(point.label));
      record.add("records", records);
      record.add("payload_bytes", kPayloadBytes);
      record.add("appends_per_second", per_second);
      record.add("mb_per_second", mb_per_second);
      record.add("fsyncs", static_cast<std::size_t>(stats.wal.fsyncs));
      record.add("group_commits", static_cast<std::size_t>(stats.wal.group_commits));
      record.append_to(kJsonPath);
    }
    wipe(dir);
  }
}

void run_group_window_sweep(std::size_t records) {
  // Satellite measurement: sequential per-thread commits (the durable
  // engine's shard pattern) with and without the commit-leader linger
  // window. The interesting column is commits/fsync — the window turns
  // one-barrier-per-commit into one barrier per window.
  constexpr std::size_t kThreads = 4;
  std::printf("\ngroup-commit window (%zu threads, commit per record)\n", kThreads);
  std::printf("  %-12s %12s %10s %14s %14s\n", "window_us", "appends/s", "fsyncs",
              "group_commits", "commits/fsync");
  for (const std::uint32_t window_us : {0u, 200u, 2000u}) {
    const std::string dir = bench_dir("window");
    wipe(dir);
    store::Options options;
    options.data_dir = dir;
    options.snapshot_interval = 0;
    options.group_window_us = window_us;
    util::Stopwatch watch;
    std::uint64_t fsyncs = 0;
    std::uint64_t group_commits = 0;
    double seconds = 0.0;
    {
      store::StorageEngine engine(options);
      std::vector<std::thread> threads;
      const std::size_t per_thread = records / kThreads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&engine, per_thread, t] {
          std::mt19937_64 rng(2004 + t);
          for (std::size_t i = 0; i < per_thread; ++i) {
            engine.append_event("bench", make_payload(rng));
            engine.commit();
          }
        });
      }
      for (auto& thread : threads) thread.join();
      seconds = watch.elapsed_seconds();
      const store::StoreStats stats = engine.stats();
      fsyncs = stats.wal.fsyncs;
      group_commits = stats.wal.group_commits;
    }
    const std::size_t commits = records / kThreads * kThreads;
    const double per_second = static_cast<double>(commits) / seconds;
    const double commits_per_fsync =
        fsyncs == 0 ? 0.0 : static_cast<double>(commits) / static_cast<double>(fsyncs);
    std::printf("  %-12u %12.0f %10llu %14llu %14.1f\n", window_us, per_second,
                static_cast<unsigned long long>(fsyncs),
                static_cast<unsigned long long>(group_commits), commits_per_fsync);
    bench::JsonRecord record("bench_store_throughput");
    record.add("sweep", std::string("group_window"));
    record.add("window_us", static_cast<std::size_t>(window_us));
    record.add("threads", kThreads);
    record.add("commits", commits);
    record.add("appends_per_second", per_second);
    record.add("fsyncs", static_cast<std::size_t>(fsyncs));
    record.add("group_commits", static_cast<std::size_t>(group_commits));
    record.add("commits_per_fsync", commits_per_fsync);
    record.append_to(kJsonPath);
    wipe(dir);
  }
}

void run_seam_overhead(std::size_t records) {
  // The acceptance point for the FileOps seam: the same commit-batched
  // append workload through the raw POSIX ops and through a pass-through
  // FaultFs (zero fault rates, so every op takes the judge + emulated-mmap
  // path). The overhead of having the fault layer in place must stay small.
  std::printf("\nfault-injection seam overhead (%zu records, commit-batched)\n", records);
  std::printf("  %-14s %12s\n", "ops", "appends/s");
  double rates[2] = {0.0, 0.0};
  store::FaultFs pass_through{store::FaultFsOptions{}};
  for (const int with_faultfs : {0, 1}) {
    const std::string dir = bench_dir(with_faultfs ? "seam-faultfs" : "seam-posix");
    wipe(dir);
    store::Options options;
    options.data_dir = dir;
    options.snapshot_interval = 0;
    options.file_ops = with_faultfs ? &pass_through : nullptr;
    std::mt19937_64 rng(2004);
    util::Stopwatch watch;
    {
      store::StorageEngine engine(options);
      for (std::size_t i = 0; i < records; ++i) engine.append_event("bench", make_payload(rng));
      engine.commit();
      rates[with_faultfs] = static_cast<double>(records) / watch.elapsed_seconds();
    }
    std::printf("  %-14s %12.0f\n", with_faultfs ? "faultfs" : "posix", rates[with_faultfs]);
    wipe(dir);
  }
  const double overhead_percent = (rates[0] / rates[1] - 1.0) * 100.0;
  std::printf("  pass-through overhead: %.2f%%\n", overhead_percent);
  bench::JsonRecord record("bench_store_throughput");
  record.add("sweep", std::string("fault_seam_overhead"));
  record.add("records", records);
  record.add("posix_appends_per_second", rates[0]);
  record.add("faultfs_appends_per_second", rates[1]);
  record.add("overhead_percent", overhead_percent);
  record.append_to(kJsonPath);
}

void run_fault_sweep(std::size_t records) {
  // --faults: seeded fault rates against the commit path. For each rate the
  // workload appends until the store fails (or finishes), then reopens on
  // the real filesystem and measures what recovery gets back and how fast.
  // The acked count is the zero-loss floor: every record covered by a
  // successful commit must still be there.
  std::printf("\nfault sweep (%zu records, commit every 16)\n", records);
  std::printf("  %-8s %10s %10s %10s %10s %12s\n", "rate", "injected", "acked",
              "retained", "poisoned", "recovery_ms");
  for (const double rate : {0.0, 0.005, 0.02, 0.05}) {
    const std::string dir = bench_dir("faults");
    wipe(dir);
    store::FaultFsOptions fault_options;
    fault_options.seed = 2004;
    fault_options.rules.push_back({store::FaultMatch{}, /*io_error=*/rate / 2.0,
                                   /*no_space=*/rate / 2.0, /*short_write=*/rate / 2.0,
                                   /*fsync_error=*/rate / 2.0});
    store::FaultFs faults(fault_options);
    store::Options options;
    options.data_dir = dir;
    options.segment_size = 64 * 1024;
    options.snapshot_interval = 0;
    options.file_ops = &faults;
    std::mt19937_64 rng(2004);
    std::size_t acked = 0;
    std::size_t appended = 0;
    bool poisoned = false;
    try {
      store::StorageEngine engine(options);
      for (std::size_t i = 0; i < records; ++i) {
        engine.append_event("bench", make_payload(rng));
        ++appended;
        if (appended % 16 == 0) {
          engine.commit();
          acked = appended;
        }
      }
      engine.commit();
      acked = appended;
    } catch (const store::Error& e) {
      poisoned = e.kind() == store::ErrorKind::kPoisoned;
    }
    std::size_t retained = 0;
    util::Stopwatch watch;
    double recovery_ms = 0.0;
    {
      store::Options reopen_options = options;
      reopen_options.file_ops = nullptr;
      store::StorageEngine reopened(reopen_options,
                                    [&](std::string_view, std::string_view) { ++retained; });
      recovery_ms = watch.elapsed_ms();
    }
    if (retained < acked)
      std::fprintf(stderr, "ACKED-LOSS at rate %.3f: %zu acked, %zu retained\n", rate,
                   acked, retained);
    const store::FaultFsStats stats = faults.stats();
    std::printf("  %-8.3f %10llu %10zu %10zu %10s %12.2f\n", rate,
                static_cast<unsigned long long>(stats.total_injected()), acked, retained,
                poisoned ? "yes" : "no", recovery_ms);
    bench::JsonRecord record("bench_store_throughput");
    record.add("sweep", std::string("faults"));
    record.add("rate", rate);
    record.add("records", records);
    record.add("injected", static_cast<std::size_t>(stats.total_injected()));
    record.add("acked_records", acked);
    record.add("retained_records", retained);
    record.add("poisoned", std::size_t{poisoned ? 1u : 0u});
    record.add("recovery_ms", recovery_ms);
    record.append_to(kJsonPath);
    wipe(dir);
  }
}

void run_recovery_sweep(std::size_t max_records) {
  // The journal shape of the durable engine: events on one stream plus a
  // state provider whose blob holds the latest payload per key (half as
  // many keys as events), so a snapshot stands in for most of the replay.
  std::printf("\ncold-start recovery (events + one state blob)\n");
  std::printf("  %-10s %-10s %12s %14s\n", "records", "snapshot", "recovery_ms",
              "replayed");
  for (std::size_t records = 1000; records <= max_records; records *= 4) {
    for (const bool snapshotted : {false, true}) {
      const std::string dir = bench_dir(snapshotted ? "recover-snap" : "recover-wal");
      wipe(dir);
      store::Options options;
      options.data_dir = dir;
      options.snapshot_interval = 0;
      std::mt19937_64 rng(records);
      {
        std::map<std::size_t, std::string> state;
        store::StorageEngine seed(options);
        seed.set_state_provider("bench", [&state] {
          std::string blob;
          store::Writer writer(blob);
          for (const auto& [key, payload] : state) {
            writer.u64(key);
            writer.str(payload);
          }
          return blob;
        });
        for (std::size_t i = 0; i < records; ++i) {
          std::string payload = make_payload(rng);
          seed.append_event("bench", payload);
          state[i % (records / 2 + 1)] = std::move(payload);
        }
        seed.commit();
        if (snapshotted) seed.snapshot();
      }
      util::Stopwatch watch;
      store::StorageEngine reopened(options);
      const double recovery_ms = watch.elapsed_ms();
      const store::StoreStats stats = reopened.stats();
      std::printf("  %-10zu %-10s %12.2f %14llu\n", records, snapshotted ? "yes" : "no",
                  recovery_ms, static_cast<unsigned long long>(stats.replayed_records));
      bench::JsonRecord record("bench_store_throughput");
      record.add("sweep", std::string("recovery"));
      record.add("records", records);
      record.add("snapshotted", std::size_t{snapshotted ? 1u : 0u});
      record.add("recovery_ms", recovery_ms);
      record.add("replayed_records", static_cast<std::size_t>(stats.replayed_records));
      record.add("blob_bytes", reopened.recovered_state("bench").size());
      record.append_to(kJsonPath);
      wipe(dir);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Default sizes finish in seconds on CI; pass a scale factor for real
  // runs. --faults adds the seeded fault-rate sweep (recovery time and data
  // retained vs fault rate).
  std::size_t scale = 1;
  bool faults = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--faults") {
      faults = true;
      continue;
    }
    const std::size_t value = static_cast<std::size_t>(std::strtoull(arg.c_str(), nullptr, 10));
    if (value > 0) scale = value;
  }
  run_append_sweep(20000 * scale);
  run_group_window_sweep(2000 * scale);
  run_seam_overhead(20000 * scale);
  run_recovery_sweep(16000 * scale);
  if (faults) run_fault_sweep(2000 * scale);
  wipe("bench_store_data");
  return 0;
}
