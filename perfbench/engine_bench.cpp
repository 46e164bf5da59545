// Engine benchmark harness.
//
// Drives engine::EnactmentEngine through its public API on one workload per
// process and prints one JSON result line (the last line of stdout):
//
//   engine_bench --workload enact|durable_wire|replan --seed N --seconds S
//                --trace 0|1 [--work-dir DIR]
//   engine_bench --selftest [--seed N]
//
// The engine runs with 1 shard, 1 job-system worker and no kernel latency,
// so it measures CPU work rather than overlapping sleeps. One submitter
// thread keeps a fixed number of cases outstanding (a closed loop). Inputs
// are Figure 10 cases whose resolution target is drawn from the seed; the
// engine receives only their XML. README.md says why each workload exists.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same engine
// phase (alternating blocks without and with client-side spans) plus direct
// probes of each layer outside the engine, and prints the per-layer
// metrics. Spans are kept in memory and written to the work directory at
// the end as a Chrome trace.
#include <sched.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "planner/gp.hpp"
#include "planner/problem.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "store/file_ops.hpp"
#include "store/storage_engine.hpp"
#include "util/rng.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/kernels.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace ig;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Cases per window of the tail percentile: a p95 over 1000 cases has 50
/// beyond it.
constexpr std::size_t kTailWindow = 1000;

/// The 95th percentile of each window of kTailWindow consecutive cases
/// (fewer cases: one window), and the median over the windows. A host stall
/// that slows a burst of cases moves one window's p95, not the result.
double windowed_p95(const std::vector<double>& latencies) {
  const std::size_t windows = std::max<std::size_t>(1, latencies.size() / kTailWindow);
  std::vector<double> p95s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = latencies.begin() + static_cast<std::ptrdiff_t>(
                                               w * latencies.size() / windows);
    const auto end = latencies.begin() + static_cast<std::ptrdiff_t>(
                                             (w + 1) * latencies.size() / windows);
    p95s.push_back(quantile(std::vector<double>(begin, end), 0.95));
  }
  return quantile(p95s, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// CPU time of every thread of this process. Hypervisor steal is not
/// charged to it, unlike wall time.
double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host-wide (steal, total) jiffies from /proc/stat; zeros when unavailable.
std::pair<double, double> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 10; ++field) {
    double value = 0.0;
    if (!(in >> value)) break;
    if (field < 8) total += value;  // guest time is already inside user/nice
    if (field == 7) steal = value;
  }
  return {steal, total};
}

/// kB field of /proc/self/status ("VmHWM", "VmRSS"); 0 when unavailable.
double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::atof(line.c_str() + prefix.size());
  }
  return 0.0;
}

// -- workloads -----------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t outstanding;     ///< closed-loop window, capped at nproc
  double nominal_cases_per_s;  ///< --seconds times this is the measured case count
  std::size_t min_cases;       ///< floor on that count (a tail window is 1000)
  std::size_t warmup_cases;    ///< part of every set-up
  std::size_t setups;          ///< set-up repetitions; setup_s is their median
  std::size_t probe_cases;     ///< direct layer probes in the traced run
  bool durable;                ///< journal under the work directory
  bool wire;                   ///< every message crosses the binary codec
  bool unhost_por;             ///< Figure 3: no container offers POR
};

// The case count is a function of --seconds alone, never of measured speed,
// so RSS and percentile sample counts do not move when the program does.
constexpr Workload kWorkloads[] = {
    {"enact", 4, 230.0, 1000, 50, 15, 64, false, false, false},
    {"durable_wire", 4, 200.0, 1000, 50, 15, 64, true, true, false},
    {"replan", 1, 0.5, 5, 1, 3, 1000, false, false, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// -- inputs --------------------------------------------------------------------

/// Resolution targets are multiples of 0.01 Å in [5.60, 8.00]. The kernels
/// floor at 5.5 Å, so every target converges, and no target equals a
/// resolution the kernels can report (18 * 0.65^k), so the predicted
/// activity count is never a rounding tie.
constexpr int kTargetSteps = 241;

double target_of(int step) { return 5.60 + 0.01 * step; }

/// Activities a Figure 10 case executes: POD and P3DR1 once, then one
/// refinement pass (POR, three P3DR, PSF) per loop iteration; Cons1 loops
/// while the reported resolution is still above the target.
int predicted_activities(double target, const virolab::KernelParams& kernels) {
  int passes = 0;
  double resolution = kernels.initial_resolution;
  do {
    ++passes;
    resolution = std::max(kernels.resolution_floor,
                          kernels.initial_resolution *
                              std::pow(kernels.refinement_factor, static_cast<double>(passes)));
  } while (resolution > target);
  return 2 + 5 * passes;
}

struct CaseInput {
  double target = 0.0;
  std::string process_xml;
  std::string case_xml;
  int expected_activities = 0;
};

/// One XML pair per distinct target, shared by every case that draws it, so
/// the harness's own inputs stay small next to what the engine retains.
class Inputs {
 public:
  Inputs(std::uint64_t seed, std::size_t count) {
    table_.resize(kTargetSteps);
    std::mt19937_64 rng(seed);
    order_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const int step = static_cast<int>(rng() % kTargetSteps);
      order_.push_back(step);
      CaseInput& input = table_[static_cast<std::size_t>(step)];
      if (!input.process_xml.empty()) continue;
      input.target = target_of(step);
      input.process_xml = wfl::process_to_xml_string(virolab::make_fig10_process(input.target));
      input.case_xml = wfl::case_to_xml_string(virolab::make_case_description(input.target));
      input.expected_activities = predicted_activities(input.target, virolab::KernelParams{});
    }
  }

  std::size_t size() const noexcept { return order_.size(); }
  const CaseInput& operator[](std::size_t i) const {
    return table_[static_cast<std::size_t>(order_[i])];
  }

 private:
  std::vector<CaseInput> table_;
  std::vector<int> order_;
};

// -- tracing -------------------------------------------------------------------

/// Spans recorded by this harness around its calls into each layer's public
/// functions. Kept in memory; written out once at the end.
struct Span {
  std::string name;
  std::uint64_t case_id = 0;
  int parent = -1;
  double start = 0.0;  ///< seconds since the tracer started
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  int begin(const char* name, std::uint64_t case_id, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, case_id, parent, seconds_between(origin_, Clock::now()), 0.0});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int span) {
    if (span < 0) return;
    spans_[static_cast<std::size_t>(span)].end = seconds_between(origin_, Clock::now());
  }

  /// Per span name: the mean self time (duration minus the part of it that
  /// child spans cover) and the number of spans.
  std::map<std::string, std::pair<double, std::size_t>> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const Span& span : spans_)
      if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
    std::map<std::string, std::pair<double, std::size_t>> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& entry = totals[spans_[i].name];
      entry.first += self[i];
      ++entry.second;
    }
    for (auto& [name, entry] : totals) entry.first /= static_cast<double>(entry.second);
    return totals;
  }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto). Each
  /// case id is its own track; the parent index is kept in args.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), static_cast<unsigned long long>(s.case_id),
                   s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::uint64_t case_id, int parent = -1)
      : tracer_(tracer), span_(tracer.begin(name, case_id, parent)) {}
  ~Scoped() { tracer_.end(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const noexcept { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

// -- environment plumbing --------------------------------------------------------

/// Store I/O that forwards to the real POSIX calls except the durability
/// barriers, which return at once as they do on tmpfs: the durable workload
/// then measures the program's journaling CPU, not the device the checkout
/// happens to sit on. Each WAL barrier names the segment prefix it covers,
/// so the growth of that prefix counts the WAL bytes written.
class TmpfsBarriers final : public store::FileOps {
 public:
  int open(const std::string& path, int flags, int mode) override {
    return posix().open(path, flags, mode);
  }
  int close(int fd) override { return posix().close(fd); }
  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override {
    return posix().pread(fd, buf, count, offset);
  }
  ssize_t pwrite(int fd, const void* buf, std::size_t count, off_t offset) override {
    return posix().pwrite(fd, buf, count, offset);
  }
  int fsync(int) override { return 0; }
  int ftruncate(int fd, off_t length) override { return posix().ftruncate(fd, length); }
  off_t size(int fd) override { return posix().size(fd); }
  void* mmap(int fd, std::size_t length) override { return posix().mmap(fd, length); }
  int msync(void* addr, std::size_t length, bool) override {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t& covered = covered_[addr];
    if (length > covered) {
      wal_bytes_ += length - covered;
      covered = length;
    }
    return 0;
  }
  int munmap(void* addr, std::size_t length) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      covered_.erase(addr);
    }
    return posix().munmap(addr, length);
  }
  int rename(const std::string& from, const std::string& to) override {
    return posix().rename(from, to);
  }
  int unlink(const std::string& path) override { return posix().unlink(path); }
  int mkdir(const std::string& path, int mode) override { return posix().mkdir(path, mode); }

  std::uint64_t wal_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return wal_bytes_;
  }

 private:
  static store::FileOps& posix() { return store::posix_file_ops(); }

  mutable std::mutex mutex_;
  std::map<void*, std::size_t> covered_;  ///< mapped segment -> bytes synced
  std::uint64_t wal_bytes_ = 0;
};

/// Healthy grid: every node is fully reliable, so GP runs only where a
/// workload asks for it. The replan workload also withdraws POR from every
/// container, as bench_fig3_replanning_flow does.
void install_grid(svc::Environment& environment, bool unhost_por) {
  for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
  if (!unhost_por) return;
  for (const auto* container : environment.grid().containers_advertising("POR"))
    environment.grid().find_container(container->id())->unhost_service("POR");
}

/// Exact work counts of one environment.
struct LayerCounts {
  std::uint64_t messages = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;

  LayerCounts& operator+=(const LayerCounts& o) {
    messages += o.messages;
    sim_events += o.sim_events;
    wire_frames += o.wire_frames;
    wire_bytes += o.wire_bytes;
    intern_hits += o.intern_hits;
    intern_misses += o.intern_misses;
    return *this;
  }
  bool operator==(const LayerCounts&) const = default;
  LayerCounts operator-(const LayerCounts& o) const {
    return {messages - o.messages,       sim_events - o.sim_events,
            wire_frames - o.wire_frames, wire_bytes - o.wire_bytes,
            intern_hits - o.intern_hits, intern_misses - o.intern_misses};
  }
};

LayerCounts read_counts(svc::Environment& environment) {
  LayerCounts counts;
  counts.messages = environment.platform().messages_delivered();
  counts.sim_events = environment.sim().executed_events();
  if (const wire::WireLink* link = environment.wire_link()) {
    const wire::LinkStats stats = link->stats();
    counts.wire_frames = stats.frames;
    counts.wire_bytes = stats.bytes;
    counts.intern_hits = stats.intern_hits;
    counts.intern_misses = stats.intern_misses;
  }
  return counts;
}

/// Follows the single shard's environment. Durable mode rebuilds it for
/// every attempt; shard_setup sees each new stack while the previous one is
/// still alive, so its counts are folded in before it retires. All calls
/// come from the one pump worker or from the submitter after a wait(), so
/// the engine mutex orders them.
class ShardCounter {
 public:
  void adopt(svc::Environment& environment) {
    if (live_ != nullptr) retired_ += read_counts(*live_);
    live_ = &environment;
  }
  LayerCounts total() const {
    LayerCounts counts = retired_;
    if (live_ != nullptr) counts += read_counts(*live_);
    return counts;
  }

 private:
  svc::Environment* live_ = nullptr;
  LayerCounts retired_;
};

svc::EnvironmentOptions environment_options(bool wire) {
  svc::EnvironmentOptions options;
  options.kernels.execution_latency_seconds = 0.0;
  options.wire_transport = wire;
  return options;
}

engine::EngineConfig engine_config(const Workload& workload, const std::string& data_dir,
                                   store::FileOps* file_ops, ShardCounter& counter) {
  engine::EngineConfig config;
  config.shards = 1;
  config.workers = 1;
  config.environment = environment_options(workload.wire);
  if (workload.durable) {
    config.storage.data_dir = data_dir;
    config.storage.file_ops = file_ops;
  }
  const bool unhost_por = workload.unhost_por;
  config.shard_setup = [&counter, unhost_por](svc::Environment& environment, std::size_t) {
    install_grid(environment, unhost_por);
    counter.adopt(environment);
  };
  return config;
}

/// The output check of one finished case; empty when it passes.
std::string check_outcome(const Workload& workload, const CaseInput& input,
                          const engine::CaseOutcome& outcome) {
  if (outcome.state != engine::CaseState::Completed)
    return std::string("state ") + std::string(engine::to_string(outcome.state)) + ": " +
           outcome.error;
  if (workload.unhost_por) {
    if (outcome.replans != 1) return "replans " + std::to_string(outcome.replans) + " != 1";
    if (outcome.goal_satisfaction != 1.0)
      return "goal satisfaction " + std::to_string(outcome.goal_satisfaction) + " != 1";
    return {};
  }
  if (outcome.replans != 0) return "replans " + std::to_string(outcome.replans) + " != 0";
  if (outcome.activities_executed != input.expected_activities)
    return "activities " + std::to_string(outcome.activities_executed) + " != predicted " +
           std::to_string(input.expected_activities) + " for target " +
           std::to_string(input.target);
  return {};
}

// -- engine phase --------------------------------------------------------------

struct CaseRun {
  std::size_t input = 0;
  engine::CaseId id = engine::kInvalidCase;
  double latency = 0.0;  ///< client view: submit call -> wait() returns
  engine::CaseOutcome outcome;
  bool ok = false;
};

struct PhaseResult {
  std::vector<CaseRun> cases;
  double wall = 0.0;
  std::size_t failed = 0;
};

/// Closed loop from one submitter thread: keeps `outstanding` cases in the
/// engine, submitting the next only when the oldest finishes. The single
/// shard finishes cases in submission order, so waiting on the oldest is
/// waiting on the next to finish.
PhaseResult run_closed_loop(engine::EnactmentEngine& engine, const Workload& workload,
                            const Inputs& inputs, std::size_t begin, std::size_t end,
                            std::size_t outstanding, Tracer* tracer) {
  PhaseResult phase;
  phase.cases.reserve(end - begin);
  struct InFlight {
    std::size_t slot;
    Clock::time_point submitted;
    int span;
  };
  std::deque<InFlight> window;
  auto finish = [&] {
    InFlight flight = window.front();
    window.pop_front();
    CaseRun& run = phase.cases[flight.slot];
    std::optional<engine::CaseOutcome> outcome = engine.wait(run.id);
    run.latency = seconds_between(flight.submitted, Clock::now());
    if (tracer != nullptr) tracer->end(flight.span);
    if (!outcome.has_value()) {
      run.outcome.error = "engine stopped before the case finished";
    } else {
      run.outcome = *outcome;
    }
    const std::string problem =
        outcome.has_value() ? check_outcome(workload, inputs[run.input], run.outcome)
                            : run.outcome.error;
    run.ok = problem.empty();
    if (!run.ok) {
      if (phase.failed < 5)
        std::fprintf(stderr, "engine_bench: case %llu failed its check: %s\n",
                     static_cast<unsigned long long>(run.id), problem.c_str());
      ++phase.failed;
    }
  };

  const Clock::time_point started = Clock::now();
  for (std::size_t i = begin; i < end; ++i) {
    while (window.size() >= outstanding) finish();
    const CaseInput& input = inputs[i];
    CaseRun run;
    run.input = i;
    InFlight flight{phase.cases.size(), Clock::now(), -1};
    if (tracer != nullptr) {
      flight.span = tracer->begin("engine.case", i);
      Scoped submit(*tracer, "engine.submit", i, flight.span);
      run.id = engine.submit_xml(input.process_xml, input.case_xml);
    } else {
      run.id = engine.submit_xml(input.process_xml, input.case_xml);
    }
    phase.cases.push_back(std::move(run));
    if (phase.cases.back().id == engine::kInvalidCase) {
      std::fprintf(stderr, "engine_bench: submission %zu rejected\n", i);
      ++phase.failed;
      if (tracer != nullptr) tracer->end(flight.span);
      continue;
    }
    window.push_back(flight);
  }
  while (!window.empty()) finish();
  phase.wall = seconds_between(started, Clock::now());
  return phase;
}

/// Reopens the journal of a finished durable run and checks that every
/// acked case comes back Completed with the outcome the client saw.
/// Returns the number of mismatches; `recovery_s` gets the journal's open
/// time.
std::size_t check_durable_reopen(const Workload& workload, const std::string& data_dir,
                                 TmpfsBarriers& file_ops,
                                 const std::vector<const PhaseResult*>& phases,
                                 double& recovery_s) {
  ShardCounter counter;
  engine::EnactmentEngine reopened(engine_config(workload, data_dir, &file_ops, counter));
  recovery_s = reopened.journal() != nullptr ? reopened.journal()->stats().recovery_ms / 1e3 : 0.0;
  std::size_t mismatches = 0;
  for (const PhaseResult* phase : phases) {
    for (const CaseRun& run : phase->cases) {
      if (run.id == engine::kInvalidCase) continue;
      const std::optional<engine::CaseOutcome> back = reopened.result(run.id);
      const bool same = back.has_value() && back->state == run.outcome.state &&
                        back->activities_executed == run.outcome.activities_executed &&
                        back->replans == run.outcome.replans &&
                        back->makespan == run.outcome.makespan &&
                        back->goal_satisfaction == run.outcome.goal_satisfaction &&
                        back->total_cost == run.outcome.total_cost &&
                        back->completion_index == run.outcome.completion_index;
      if (!same) {
        if (mismatches < 5)
          std::fprintf(stderr, "engine_bench: case %llu did not come back from the journal\n",
                       static_cast<unsigned long long>(run.id));
        ++mismatches;
      }
    }
  }
  if (reopened.metrics().recovered != 0) {
    std::fprintf(stderr, "engine_bench: reopen re-admitted %zu finished cases\n",
                 reopened.metrics().recovered);
    ++mismatches;
  }
  return mismatches;
}

// -- direct layer probes (traced run) ---------------------------------------------

/// Sends one enact-case request the way the engine's client does and keeps
/// the reply.
class ProbeClient final : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const agent::AclMessage& message) override { reply = message; }
  void post(agent::AclMessage message) { send(std::move(message)); }
  std::optional<agent::AclMessage> reply;
};

struct ProbeStats {
  std::size_t failed = 0;
  std::uint64_t gp_evaluations = 0;
  std::uint64_t gp_memo_hits = 0;
  std::size_t gp_runs = 0;
  std::size_t gp_goal_reached = 0;
  double gp_seconds = 0.0;
};

/// A shard stack of the workload's kind with a client that talks to it.
struct ProbeStack {
  std::unique_ptr<svc::Environment> environment;
  ProbeClient* client = nullptr;
};

ProbeStack build_probe_stack(const Workload& workload, bool wire, std::uint64_t seed) {
  ProbeStack stack;
  svc::EnvironmentOptions options = environment_options(wire);
  // The replan probe reads the planning request back from the trace.
  options.tracing = workload.unhost_por;
  stack.environment = svc::make_shard_stack(options, seed, 0);
  install_grid(*stack.environment, workload.unhost_por);
  stack.client = &stack.environment->platform().spawn<ProbeClient>("probe-client");
  return stack;
}

/// One case enacted outside the engine, as a shard runs it: fresh kernel
/// state, the enact-case request, then the calendar drained.
bool probe_enact(const Workload& workload, ProbeStack& stack, const CaseInput& input,
                 std::uint64_t case_id, Tracer& tracer, int parent, const char* span) {
  stack.environment->kernels().reset();
  stack.client->reply.reset();
  agent::AclMessage request;
  request.performative = agent::Performative::Request;
  request.receiver = svc::names::kCoordination;
  request.protocol = svc::protocols::kEnactCase;
  request.conversation_id = "probe/" + std::to_string(case_id);
  request.content = input.process_xml;
  request.params["case-xml"] = input.case_xml;
  {
    Scoped run(tracer, span, case_id, parent);
    stack.client->post(std::move(request));
    stack.environment->run();
  }
  const std::optional<agent::AclMessage>& reply = stack.client->reply;
  if (!reply.has_value()) return false;
  engine::CaseOutcome outcome;
  outcome.state = reply->performative == agent::Performative::Inform &&
                          reply->param_bool("success", true)
                      ? engine::CaseState::Completed
                      : engine::CaseState::Failed;
  outcome.error = reply->param("error");
  outcome.activities_executed = reply->param_int("activities-executed", 0);
  outcome.replans = reply->param_int("replans", 0);
  outcome.goal_satisfaction = reply->param_double("goal-satisfaction", 0.0);
  const std::string problem = check_outcome(workload, input, outcome);
  if (!problem.empty())
    std::fprintf(stderr, "engine_bench: probe case failed its check: %s\n", problem.c_str());
  return problem.empty();
}

/// Probes the first `probe_cases` inputs the measured engine ran, warm-up
/// first, in its order, on stacks seeded as its single shard seeds its own.
/// Replaying the same sequence lines the planning service's episode seeds
/// up with the engine's, so each probed replan repeats its GP run.
ProbeStats run_probes(const Workload& workload, const Inputs& inputs,
                      std::uint64_t engine_seed, const std::string& work_dir, Tracer& tracer) {
  ProbeStats stats;
  const std::size_t count = std::min(workload.probe_cases, inputs.size());
  TmpfsBarriers file_ops;
  std::unique_ptr<store::StorageEngine> scratch_store;
  const std::string store_dir = work_dir + "/probe-store-" + std::to_string(::getpid());
  if (workload.durable) {
    std::filesystem::remove_all(store_dir);
    store::Options options;
    options.data_dir = store_dir;
    options.file_ops = &file_ops;
    scratch_store = std::make_unique<store::StorageEngine>(options);
  }
  const wfl::ServiceCatalogue catalogue = virolab::make_catalogue();
  wfl::ServiceCatalogue replan_catalogue;
  for (const auto& service : catalogue.services())
    if (service.name() != "POR") replan_catalogue.add(service);

  ProbeStack warm_stack;
  ProbeStack warm_alt_stack;
  std::vector<std::pair<std::string, planner::GpConfig>> replan;  ///< case XML, GP settings
  if (!workload.durable) {
    warm_stack = build_probe_stack(workload, workload.wire, engine_seed);
    if (workload.wire) warm_alt_stack = build_probe_stack(workload, false, engine_seed);
  }
  for (std::size_t index = 0; index < count; ++index) {
    // A durable shard seeds each attempt's stack from (engine seed, case
    // id, retries); engine case ids count from 1 across warm-up and run.
    const std::uint64_t seed =
        workload.durable ? util::derive_stream(engine_seed, index + 1, 0) : engine_seed;
    const CaseInput& input = inputs[index];
    const std::uint64_t case_id = 1'000'000 + index;
    Scoped root(tracer, "probe.case", case_id);
    {
      Scoped parse(tracer, "wfl.parse", case_id, root.id());
      const wfl::ProcessDescription process = wfl::process_from_xml_string(input.process_xml);
      const wfl::CaseDescription description = wfl::case_from_xml_string(input.case_xml);
      if (process.activities().empty() || description.goals().empty()) ++stats.failed;
    }
    // The workload's own enactment, and on a wire workload the same case
    // with the codec off; alternating their order cancels slow drift. A
    // durable shard rebuilds its stack for every attempt, an in-memory one
    // keeps it warm, and the probe does the same.
    const bool wire_first = index % 2 == 0;
    for (int leg = 0; leg < (workload.wire ? 2 : 1); ++leg) {
      const bool with_wire = workload.wire && (leg == 0) == wire_first;
      ProbeStack& warm = with_wire == workload.wire ? warm_stack : warm_alt_stack;
      ProbeStack fresh;
      if (with_wire == workload.wire) {
        Scoped build(tracer, "services.build_env", case_id, root.id());
        fresh = build_probe_stack(workload, with_wire, seed);
      } else if (workload.durable) {
        fresh = build_probe_stack(workload, with_wire, seed);
      }
      ProbeStack& stack = workload.durable ? fresh : warm;
      const std::size_t plans_before = stack.environment->planning().plans_produced();
      const bool ok = probe_enact(workload, stack, input, case_id, tracer, root.id(),
                                  with_wire == workload.wire ? "services.enact"
                                                             : "services.enact.wire_off");
      if (!ok) ++stats.failed;
      if (workload.unhost_por) {
        // The replanning request carries the case as it stood when POR
        // could not be placed; plan it again the way the planning service
        // did: its catalogue, its settings, its episode seed.
        planner::GpConfig config = stack.environment->planning().gp_config();
        config.seed += plans_before * 7919;
        for (const agent::TraceRecord& record : stack.environment->platform().trace()) {
          if (record.message.protocol == svc::protocols::kReplanRequest &&
              record.message.receiver == svc::names::kPlanning)
            replan.push_back({record.message.content, config});
        }
        stack.environment->platform().clear_trace();
      }
    }
    if (scratch_store) {
      // The engine's journal traffic for one case: an admit event carrying
      // both XML documents and a terminal event, each made durable.
      const std::string admit(input.process_xml.size() + input.case_xml.size() + 32, 'a');
      const std::string terminal(96, 't');
      {
        Scoped commit(tracer, "store.commit_admit", case_id, root.id());
        scratch_store->append_event("engine", admit);
        scratch_store->commit();
      }
      {
        Scoped commit(tracer, "store.commit_terminal", case_id, root.id());
        scratch_store->append_event("engine", terminal);
        scratch_store->commit();
      }
    }
    for (const auto& [case_xml, config] : replan) {
      const planner::PlanningProblem problem = planner::PlanningProblem::from_case(
          wfl::case_from_xml_string(case_xml), replan_catalogue);
      const Clock::time_point gp_start = Clock::now();
      planner::GpResult result;
      {
        Scoped gp(tracer, "planner.gp", case_id, root.id());
        result = planner::run_gp(problem, config);
      }
      stats.gp_seconds += seconds_between(gp_start, Clock::now());
      stats.gp_evaluations += result.evaluations;
      stats.gp_memo_hits += result.memo_hits;
      ++stats.gp_runs;
      if (result.best_fitness.goal >= 1.0) ++stats.gp_goal_reached;
    }
    replan.clear();
  }
  scratch_store.reset();
  if (workload.durable) std::filesystem::remove_all(store_dir);
  return stats;
}

// -- host diagnostic -----------------------------------------------------------

volatile std::uint64_t calibration_sink = 0;

/// Median time of a fixed single-thread integer loop. Recorded next to the
/// metrics to explain their spread; never used to adjust one.
double calibrate_host() {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    calibration_sink = x;
    times.push_back(seconds_between(start, Clock::now()));
  }
  return quantile(times, 0.5);
}

// -- CPU placement -------------------------------------------------------------

/// A move leaves the private caches behind, so it should be rare next to a
/// case (milliseconds); every CPU is still visited a few times a second.
constexpr std::chrono::milliseconds kRotationPeriod{100};

/// Keeps every thread of the process on one CPU at a time and moves them all
/// to the next allowed CPU every kRotationPeriod, round robin. On one CPU
/// the submitter and the engine's single worker hand cases over without a
/// cross-CPU wake-up, whose delay on a virtual machine is the hypervisor's.
/// Moving on spreads each run evenly over every CPU: how fast one virtual
/// CPU runs this code depends on what shares its physical core, which
/// changes over seconds and differs between CPUs, so a run held on one CPU
/// measures that CPU's neighbours.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.empty()) return;
    pin_all(cpus_.front());
    if (cpus_.size() < 2) return;
    mover_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::size_t next = 1;
           !wake_.wait_for(lock, kRotationPeriod, [this] { return stop_; });
           ++next)
        pin_all(cpus_[next % cpus_.size()]);
    });
  }

  ~CpuRotation() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (mover_.joinable()) mover_.join();
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  /// Every thread of the process, the engine's own included; a thread
  /// started between two moves inherits its creator's CPU.
  static void pin_all(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    std::error_code error;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", error)) {
      const pid_t tid = static_cast<pid_t>(std::atol(task.path().filename().c_str()));
      ::sched_setaffinity(tid, sizeof(set), &set);
    }
  }

  std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread mover_;
};

std::string host_name() {
  char name[256] = {0};
  if (::gethostname(name, sizeof(name) - 1) != 0) return "unknown";
  return name;
}

// -- one workload run ------------------------------------------------------------

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

std::size_t outstanding_for(const Workload& workload) {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(workload.outstanding, cpus);
}

std::size_t measured_cases(const Workload& workload, double seconds) {
  const double nominal = std::ceil(seconds * workload.nominal_cases_per_s);
  return std::max(workload.min_cases, static_cast<std::size_t>(nominal));
}

/// Exact counts of one engine run; the determinism self-check compares two.
struct Counts {
  std::map<int, std::size_t> activity_histogram;
  std::size_t replans = 0;
  LayerCounts layers;
  std::uint64_t store_appends = 0;
  std::uint64_t store_fsyncs = 0;
  std::uint64_t store_commits = 0;  ///< fsyncs plus commits another's fsync covered
  std::uint64_t wal_bytes = 0;

  bool operator==(const Counts&) const = default;
};

struct StoreSample {
  std::uint64_t appends = 0, fsyncs = 0, commits = 0, wal_bytes = 0;
};

StoreSample sample_store(engine::EnactmentEngine& engine, const TmpfsBarriers& file_ops) {
  StoreSample sample;
  if (engine.journal() == nullptr) return sample;
  const store::StoreStats stats = engine.journal()->stats();
  sample.appends = stats.wal.appends;
  sample.fsyncs = stats.wal.fsyncs;
  sample.commits = stats.wal.fsyncs + stats.wal.group_commits;
  sample.wal_bytes = file_ops.wal_bytes();
  return sample;
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  double calib_s = 0.0;     ///< host diagnostic: fixed CPU loop time
  double steal_frac = 0.0;  ///< host steal share over the measured phase
  Counts counts;

  void add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }
};

RunResult run_workload(const RunOptions& options, bool print_table) {
  const Workload& workload = *options.workload;
  const std::size_t outstanding = outstanding_for(workload);
  const std::size_t cases = measured_cases(workload, options.seconds);
  const std::size_t warmup = workload.warmup_cases;
  const Inputs inputs(options.seed, warmup + cases);
  std::filesystem::create_directories(options.work_dir);

  RunResult result;
  result.calib_s = calibrate_host();
  TmpfsBarriers file_ops;
  ShardCounter counter;
  std::unique_ptr<engine::EnactmentEngine> engine;
  std::string data_dir;
  std::vector<double> setup_times;
  std::size_t warmup_failed = 0;
  StoreSample store_before;
  LayerCounts counts_before;
  PhaseResult warm;  ///< the measured engine's own warm-up

  // Set-up, repeated: construction (shard stack, journal open) plus the
  // warm-up cases. The last engine stays up for the measured phase.
  for (std::size_t k = 0; k < workload.setups; ++k) {
    engine.reset();
    if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
    data_dir = options.work_dir + "/" + workload.name + "-" + std::to_string(::getpid()) + "-" +
               std::to_string(k);
    std::filesystem::remove_all(data_dir);
    counter = ShardCounter{};
    const Clock::time_point start = Clock::now();
    engine = std::make_unique<engine::EnactmentEngine>(
        engine_config(workload, data_dir, &file_ops, counter));
    store_before = sample_store(*engine, file_ops);
    counts_before = counter.total();
    warm = run_closed_loop(*engine, workload, inputs, 0, warmup, outstanding, nullptr);
    setup_times.push_back(seconds_between(start, Clock::now()));
    warmup_failed += warm.failed;
  }

  const double rss_before_kb = proc_status_kb("VmRSS");
  const double cpu_before = process_cpu_seconds();
  const std::pair<double, double> steal_before = host_steal_jiffies();

  // Measured phase. A traced run alternates blocks of cases without and
  // with client-side spans; comparing the two gives the tracing overhead
  // with slow drift cancelled.
  Tracer tracer(options.trace);
  std::vector<PhaseResult> phases;
  const std::size_t block = options.trace ? std::max<std::size_t>(1, cases / 20) : cases;
  for (std::size_t begin = warmup, k = 0; begin < warmup + cases; begin += block, ++k) {
    const std::size_t end = std::min(begin + block, warmup + cases);
    phases.push_back(run_closed_loop(*engine, workload, inputs, begin, end, outstanding,
                                     k % 2 == 1 ? &tracer : nullptr));
  }

  const double cpu_seconds = process_cpu_seconds() - cpu_before;
  const std::pair<double, double> steal_after = host_steal_jiffies();
  const double ticks = steal_after.second - steal_before.second;
  result.steal_frac = ticks > 0.0 ? (steal_after.first - steal_before.first) / ticks : 0.0;
  const double rss_after_kb = proc_status_kb("VmRSS");
  const double rss_peak_kb = proc_status_kb("VmHWM");

  // Engine, layer and journal counts cover the measured engine's whole
  // life, warm-up included, read after shutdown: a case's last pump slice
  // (its busy time, its terminal commit) finishes after its waiter wakes,
  // so only a stopped engine has settled counters.
  engine->shutdown();
  const engine::EngineMetrics metrics = engine->metrics();
  const LayerCounts layer = counter.total() - counts_before;
  const StoreSample store_after = sample_store(*engine, file_ops);
  engine.reset();

  std::vector<double> latencies;
  double wall = 0.0;
  std::size_t ok = 0;
  for (const PhaseResult& phase : phases) {
    wall += phase.wall;
    result.failed += phase.failed;
    for (const CaseRun& run : phase.cases) {
      latencies.push_back(run.latency);
      if (run.ok) ++ok;
      ++result.counts.activity_histogram[run.outcome.activities_executed];
      result.counts.replans += static_cast<std::size_t>(run.outcome.replans);
    }
  }
  result.attempted = cases;
  result.counts.layers = layer;

  result.counts.store_appends = store_after.appends - store_before.appends;
  result.counts.store_fsyncs = store_after.fsyncs - store_before.fsyncs;
  result.counts.store_commits = store_after.commits - store_before.commits;
  result.counts.wal_bytes = store_after.wal_bytes - store_before.wal_bytes;

  const double n = static_cast<double>(cases);
  const double life = static_cast<double>(warmup + cases);
  const std::size_t attempts = metrics.shards.at(0).cases_run;
  const double service =
      attempts > 0 ? metrics.shards.at(0).busy_seconds / static_cast<double>(attempts) : 0.0;
  double recovery_s = 0.0;
  if (workload.durable) {
    std::vector<const PhaseResult*> checked;
    for (const PhaseResult& phase : phases) checked.push_back(&phase);
    const std::size_t lost = check_durable_reopen(workload, data_dir, file_ops, checked,
                                                  recovery_s);
    if (lost > 0) result.correct = false;
  }
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  if (warmup_failed > 0) {
    std::fprintf(stderr, "engine_bench: %zu warm-up cases failed their checks\n", warmup_failed);
    result.correct = false;
  }
  if (result.failed > 0) result.correct = false;

  if (!options.trace) {
    result.add("cases_per_s", wall > 0.0 ? static_cast<double>(ok) / wall : 0.0, "1/s");
    result.add("case_latency_p50_s", quantile(latencies, 0.50), "s");
    result.add("case_latency_p95_s", windowed_p95(latencies), "s");
    result.add("case_ok_frac", static_cast<double>(ok) / n, "frac");
    result.add("setup_s", quantile(setup_times, 0.5), "s");
    result.add("rss_peak_mb", rss_peak_kb / 1024.0, "MB");
    return result;
  }

  // -- traced run: per-layer metrics ----------------------------------------
  const ProbeStats probe =
      run_probes(workload, inputs, engine::EngineConfig{}.seed, options.work_dir, tracer);
  if (probe.failed > 0) result.correct = false;
  result.failed += probe.failed;

  double wall_by_mode[2] = {0.0, 0.0};
  std::size_t cases_by_mode[2] = {0, 0};
  for (std::size_t k = 0; k < phases.size(); ++k) {
    wall_by_mode[k % 2] += phases[k].wall;
    cases_by_mode[k % 2] += phases[k].cases.size();
  }
  const double untraced_per_case =
      cases_by_mode[0] > 0 ? wall_by_mode[0] / static_cast<double>(cases_by_mode[0]) : 0.0;
  const double traced_per_case =
      cases_by_mode[1] > 0 ? wall_by_mode[1] / static_cast<double>(cases_by_mode[1]) : 0.0;
  const auto self = tracer.self_times();
  auto self_of = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.first;
  };
  const double parse = self_of("wfl.parse");
  const double enact = self_of("services.enact");
  const double build_env = self_of("services.build_env");
  const double wire_cost = workload.wire ? enact - self_of("services.enact.wire_off") : 0.0;
  const double commit_admit = self_of("store.commit_admit");
  const double commit_terminal = self_of("store.commit_terminal");
  const double gp_run = probe.gp_runs > 0 ? probe.gp_seconds / static_cast<double>(probe.gp_runs)
                                          : 0.0;
  const double replans_per_case = static_cast<double>(result.counts.replans) / n;
  // Inside the engine's service time: the per-attempt stack rebuild and the
  // terminal commit on a durable shard, and the direct enactment, which
  // itself contains the XML parse, the wire codec and any GP replan.
  const double enact_self = enact - parse - wire_cost - replans_per_case * gp_run;
  const double attributed = enact + (workload.durable ? build_env + commit_terminal : 0.0);
  const double unattributed = service > 0.0 ? (service - attributed) / service : 0.0;
  // Over the engine's whole life, like the service time it is set against.
  std::vector<double> life_latencies = latencies;
  for (const CaseRun& run : warm.cases) life_latencies.push_back(run.latency);
  const double mean_latency = mean(life_latencies);
  const double frames = static_cast<double>(layer.wire_frames);
  const double lookups = static_cast<double>(layer.intern_hits + layer.intern_misses);

  result.add("host.calib_s", result.calib_s, "s");
  result.add("host.steal_frac", result.steal_frac, "frac");
  result.add("engine.service_s_per_case", service, "s");
  result.add("engine.queue_wait_s_mean", mean_latency - service, "s");
  result.add("engine.utilization", metrics.shards.at(0).utilization, "frac");
  result.add("engine.jobs_per_case",
             static_cast<double>(metrics.jobs_executed) / life,
             "count");
  result.add("engine.retained_kb_per_case", (rss_after_kb - rss_before_kb) / n, "kB");
  result.add("engine.cpu_s_per_case", cpu_seconds / n, "s");
  result.add("engine.submit_s_per_case", self_of("engine.submit"), "s");
  result.add("engine.unattributed_frac", unattributed, "frac");
  result.add("trace.overhead_frac",
             untraced_per_case > 0.0 ? traced_per_case / untraced_per_case - 1.0 : 0.0, "frac");
  result.add("wfl.parse_s_per_case", parse, "s");
  {
    double bytes = 0.0;
    for (std::size_t i = warmup; i < warmup + cases; ++i)
      bytes += static_cast<double>(inputs[i].process_xml.size() + inputs[i].case_xml.size());
    result.add("xml.bytes_per_case", bytes / n, "B");
  }
  result.add("services.enact_s_per_case", enact, "s");
  result.add("services.enact_self_s_per_case", enact_self, "s");
  result.add("services.build_env_s", build_env, "s");
  result.add("services.activities_per_case",
             [&] {
               double total = 0.0;
               for (const auto& [activities, count] : result.counts.activity_histogram)
                 total += static_cast<double>(activities) * static_cast<double>(count);
               return total / n;
             }(),
             "count");
  result.add("services.replans_per_case", replans_per_case, "count");
  result.add("grid.sim_events_per_case", static_cast<double>(layer.sim_events) / life, "count");
  result.add("agent.messages_per_case", static_cast<double>(layer.messages) / life, "count");
  result.add("wire.round_trip_s_per_case", wire_cost, "s");
  result.add("wire.frames_per_case", frames / life, "count");
  result.add("wire.bytes_per_case", static_cast<double>(layer.wire_bytes) / life, "B");
  result.add("wire.intern_hit_frac",
             lookups > 0.0 ? static_cast<double>(layer.intern_hits) / lookups : 0.0, "frac");
  result.add("store.appends_per_case", static_cast<double>(result.counts.store_appends) / life,
             "count");
  result.add("store.fsyncs_per_case", static_cast<double>(result.counts.store_fsyncs) / life,
             "count");
  result.add("store.commits_per_case", static_cast<double>(result.counts.store_commits) / life,
             "count");
  result.add("store.wal_bytes_per_case", static_cast<double>(result.counts.wal_bytes) / life, "B");
  result.add("store.commit_s", commit_admit + commit_terminal, "s");
  result.add("store.recovery_s", recovery_s, "s");
  result.add("planner.gp_run_s", gp_run, "s");
  result.add("planner.evals_per_s",
             probe.gp_seconds > 0.0 ? static_cast<double>(probe.gp_evaluations) / probe.gp_seconds
                                    : 0.0,
             "1/s");
  result.add("planner.memo_hit_frac",
             probe.gp_evaluations > 0 ? static_cast<double>(probe.gp_memo_hits) /
                                            static_cast<double>(probe.gp_evaluations)
                                      : 0.0,
             "frac");
  result.add("planner.goal_reached_frac",
             probe.gp_runs > 0 ? static_cast<double>(probe.gp_goal_reached) /
                                     static_cast<double>(probe.gp_runs)
                               : 0.0,
             "frac");

  if (print_table) {
    std::printf("# self time per span (mean over spans, seconds)\n");
    for (const auto& [name, entry] : self)
      std::printf("#   %-26s %12.6f  x%zu\n", name.c_str(), entry.first, entry.second);
    std::printf("# engine service per case %.6f s; attributed to layers %.6f s; "
                "unattributed share %.3f\n",
                service, attributed, unattributed);
  }
  const std::string trace_path = options.work_dir + "/trace-" + workload.name + "-seed" +
                                 std::to_string(options.seed) + ".json";
  if (!tracer.write(trace_path))
    std::fprintf(stderr, "engine_bench: could not write %s\n", trace_path.c_str());
  else if (print_table)
    std::printf("# spans written to %s\n", trace_path.c_str());
  return result;
}

// -- output --------------------------------------------------------------------

void print_result(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string describe(const Counts& counts) {
  std::string text = "activities";
  for (const auto& [activities, count] : counts.activity_histogram)
    text += " " + std::to_string(activities) + "x" + std::to_string(count);
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"messages", counts.layers.messages},       {"events", counts.layers.sim_events},
      {"frames", counts.layers.wire_frames},      {"wire_bytes", counts.layers.wire_bytes},
      {"appends", counts.store_appends},          {"fsyncs", counts.store_fsyncs},
      {"commits", counts.store_commits},          {"wal_bytes", counts.wal_bytes},
      {"replans", counts.replans}};
  for (const auto& [name, value] : fields)
    text += std::string(" ") + name + " " + std::to_string(value);
  return text;
}

int selftest(std::uint64_t seed, const std::string& work_dir) {
  int failures = 0;
  for (const Workload& workload : kWorkloads) {
    // Small runs: the counts, not the timings, are under test.
    Workload small = workload;
    small.setups = 1;
    small.min_cases = workload.unhost_por ? 2 : 200;
    RunOptions options;
    options.workload = &small;
    options.seed = seed;
    options.seconds = 0.0;
    options.work_dir = work_dir;
    const RunResult first = run_workload(options, false);
    const RunResult second = run_workload(options, false);
    const bool same = first.counts == second.counts;
    const bool ok = same && first.correct && second.correct;
    std::printf("%-13s %s: %s\n", workload.name, describe(first.counts).c_str(),
                ok ? "same" : "DIFFERENT");
    if (!same) std::printf("%-13s %s\n", "  second run", describe(second.counts).c_str());
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: engine_bench --workload enact|durable_wire|replan --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       engine_bench --selftest [--seed N] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload_name;
  bool run_selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (run_selftest) return selftest(options.seed, options.work_dir);
    options.workload = find_workload(workload_name);
    if (options.workload == nullptr || options.seconds <= 0.0) return usage();

    RunResult result;
    {
      const CpuRotation rotation;
      result = run_workload(options, true);
    }
    // Host diagnostics, to explain the spread of the metrics; never used to
    // adjust one.
    std::printf("{\"diagnostic\": {\"workload\": \"%s\", \"seed\": %llu, \"cases\": %zu, "
                "\"warmup_cases\": %zu, \"outstanding\": %zu, \"host.calib_s\": %.6f, "
                "\"host.steal_frac\": %.4f, \"nproc\": %u, \"build_type\": \"%s\", "
                "\"host\": \"%s\"}}\n",
                options.workload->name, static_cast<unsigned long long>(options.seed),
                measured_cases(*options.workload, options.seconds),
                options.workload->warmup_cases, outstanding_for(*options.workload), result.calib_s,
                result.steal_frac, std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                host_name().c_str());
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "engine_bench: %s\n", error.what());
    return 1;
  }
}
