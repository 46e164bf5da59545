// Work-stealing job system — the one scheduler under the planner and the
// enactment engine:
//
//   * Every worker owns a deque guarded by its own mutex. Local submission
//     and local pop touch only that mutex, so the common case never
//     contends; there is no global queue.
//   * Workers pop their own deque LIFO (newest first — the job most likely
//     to be cache-warm) and steal from victims FIFO (oldest first — the job
//     least likely to be warm anywhere), taking *half* the victim's deque in
//     one probe so a load imbalance is repaired in O(log n) steals instead
//     of one job at a time.
//   * `post`/`submit` accept an affinity hint: the job is pushed onto that
//     worker's deque and the worker is woken first, so a case's messages or
//     a GP individual's evaluations stay warm on one worker — but the hint
//     is advisory, and a busy target's backlog is fair game for thieves.
//   * Idle workers park on their own condition variable (no spinning); a
//     post wakes the target, and when the target is already busy with a
//     deepening backlog one parked neighbour is poked to come steal.
//   * `parallel_for` submits *chunked* ranges — contiguous index blocks —
//     rather than handing out one index at a time, so data-parallel loops
//     over cheap items (re-scored elites and clones) pay for their scheduling.
//
// Determinism: the job system moves *where* work runs, never *what* it
// computes. Callers that key results by index and derive per-item RNG
// streams (util::derive_stream) get bitwise-identical results at any worker
// count; the planner and the engine both do.
//
// Observability: the scheduler counts (submitted, executed, stolen, steal
// probes, parks, swallowed post() exceptions) as `sched_*` counters in the
// obs::Scope it is given — the engine's registry, or a private one — and
// `stats()` reads those same counters. The workers share each counter (one
// relaxed increment per event), and each counter has a cache line of its
// own (obs::Counter is padded). `queue_depths()` is a snapshot the engine
// turns into per-worker `sched_queue_depth` gauges when asked for metrics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace ig::sched {

/// Aggregated scheduler counters, monotonic since construction.
struct JobStats {
  std::uint64_t submitted = 0;       ///< jobs accepted (post/submit/parallel_for chunks)
  std::uint64_t executed = 0;        ///< jobs run to completion
  std::uint64_t stolen = 0;          ///< jobs moved out of a victim's deque by steals
  std::uint64_t steal_attempts = 0;  ///< victim probes (locked a victim's deque)
  std::uint64_t steal_failures = 0;  ///< probes that found an empty deque
  std::uint64_t parks = 0;           ///< times a worker went to sleep
  std::uint64_t unparks = 0;         ///< times a sleeping worker was woken
  std::uint64_t swallowed = 0;       ///< post() jobs whose exception was swallowed

  /// Fraction of executed jobs that ran on a worker other than the one they
  /// were queued on. 0 when nothing executed.
  double steal_rate() const noexcept {
    return executed > 0 ? static_cast<double>(stolen) / static_cast<double>(executed) : 0.0;
  }
};

class JobSystem {
 public:
  /// Affinity value meaning "any worker".
  static constexpr std::size_t kAnyWorker = static_cast<std::size_t>(-1);

  /// Spawns `workers` worker threads (at least one), counting in `metrics`
  /// (default: a private registry).
  explicit JobSystem(std::size_t workers, obs::Scope metrics = {});

  /// Drains every queued job — including jobs posted by running jobs during
  /// the drain — then joins the workers.
  ~JobSystem();

  JobSystem(const JobSystem&) = delete;
  JobSystem& operator=(const JobSystem&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Number of hardware threads, never 0 (falls back to 1 when unknown).
  static std::size_t hardware_threads() noexcept;

  /// Worker id of the calling thread when it is one of *this* system's
  /// workers executing a job, else kAnyWorker.
  std::size_t current_worker() const noexcept;

  /// Enqueues a fire-and-forget job. With an affinity hint the job lands on
  /// that worker's deque (hint modulo size()) and the worker is woken first;
  /// an idle neighbour may still steal it when the target is busy. Jobs must
  /// not let exceptions escape (escaping exceptions are swallowed and
  /// counted; use `submit` for a future that propagates them).
  void post(std::function<void()> job, std::size_t affinity = kAnyWorker);

  /// Enqueues one job and returns a future for its result (exceptions
  /// propagate through the future).
  template <typename Fn>
  auto submit(Fn&& fn, std::size_t affinity = kAnyWorker)
      -> std::future<std::invoke_result_t<Fn&>> {
    using Result = std::invoke_result_t<Fn&>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    post([task] { (*task)(); }, affinity);
    return future;
  }

  /// Runs `fn(index, worker)` for every index in [0, count) and blocks until
  /// all complete. The range is split into contiguous chunks (several per
  /// worker, never smaller than `min_chunk`) distributed block-wise across
  /// the deques; idle workers steal chunks, so uneven per-item cost still
  /// balances without a per-index cursor. `worker` is the id of the
  /// executing worker, always < size(). The first exception thrown by any
  /// invocation is rethrown here after the loop drains. Safe to call from
  /// inside a job: a worker-context caller helps execute queued jobs
  /// instead of blocking.
  void parallel_for(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t min_chunk = 1);

  /// Blocks until every accepted job has finished and no job is running.
  void wait_idle();

  JobStats stats() const;

  /// Current depth of each worker's deque (snapshot; advisory).
  std::vector<std::size_t> queue_depths() const;

 private:
  using Job = std::function<void()>;

  /// One worker: a deque behind its own mutex (which doubles as the park
  /// lock).
  struct alignas(64) Worker {
    std::mutex mutex;
    std::deque<Job> deque;       ///< back = local LIFO end, front = steal end
    std::condition_variable cv;  ///< parked here when idle
    bool parked = false;         ///< under mutex
    bool poked = false;          ///< "wake up and steal", under mutex
    bool exited = false;         ///< thread returned during drain; under mutex
    std::thread thread;
  };

  void worker_loop(std::size_t id);
  bool try_pop_local(Worker& self, Job& job);
  bool try_steal(std::size_t thief, Job& job);
  void run_job(Job& job);
  void push_to(std::size_t target, Job job);
  void wake_one_thief(std::size_t except);

  obs::Scope metrics_;
  obs::Counter& submitted_;
  obs::Counter& executed_;
  obs::Counter& stolen_;
  obs::Counter& steal_attempts_;
  obs::Counter& steal_failures_;
  obs::Counter& parks_;
  obs::Counter& unparks_;
  obs::Counter& swallowed_;  ///< post() jobs whose exception escaped
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_worker_{0};  ///< round-robin for unhinted posts

  std::atomic<std::size_t> pending_{0};  ///< accepted jobs not yet finished
  mutable std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
};

}  // namespace ig::sched
