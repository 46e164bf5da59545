#include "sched/job_system.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "util/log.hpp"

namespace ig::sched {

namespace {

/// Identifies the calling thread as a worker of one JobSystem. A nested
/// system (a job that builds its own JobSystem) spawns fresh threads, so
/// one slot per thread is enough.
struct WorkerIdentity {
  const JobSystem* system = nullptr;
  std::size_t id = JobSystem::kAnyWorker;
};

thread_local WorkerIdentity tls_identity;

}  // namespace

JobSystem::JobSystem(std::size_t workers, obs::Scope metrics)
    : metrics_(std::move(metrics)),
      submitted_(metrics_.counter("sched_jobs_submitted_total")),
      executed_(metrics_.counter("sched_jobs_executed_total")),
      stolen_(metrics_.counter("sched_jobs_stolen_total")),
      steal_attempts_(metrics_.counter("sched_steal_attempts_total")),
      steal_failures_(metrics_.counter("sched_steal_failures_total")),
      parks_(metrics_.counter("sched_parks_total")),
      unparks_(metrics_.counter("sched_unparks_total")),
      swallowed_(metrics_.counter("sched_jobs_swallowed_total")) {
  if (workers == 0) workers = 1;
  metrics_.gauge("sched_workers").set(static_cast<double>(workers));
  workers_.reserve(workers);
  for (std::size_t id = 0; id < workers; ++id) workers_.push_back(std::make_unique<Worker>());
  for (std::size_t id = 0; id < workers; ++id)
    workers_[id]->thread = std::thread([this, id] { worker_loop(id); });
}

JobSystem::~JobSystem() {
  stopping_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

std::size_t JobSystem::hardware_threads() noexcept {
  const unsigned reported = std::thread::hardware_concurrency();
  return reported == 0 ? 1 : static_cast<std::size_t>(reported);
}

std::size_t JobSystem::current_worker() const noexcept {
  return tls_identity.system == this ? tls_identity.id : kAnyWorker;
}

void JobSystem::post(Job job, std::size_t affinity) {
  submitted_.inc();
  pending_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t target;
  if (affinity != kAnyWorker) {
    target = affinity % workers_.size();
  } else {
    const std::size_t self = current_worker();
    // A worker posting without a hint keeps the job local (it is the warmest
    // place); external threads round-robin across the deques.
    target = self != kAnyWorker
                 ? self
                 : next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  }
  push_to(target, std::move(job));
}

void JobSystem::push_to(std::size_t target, Job job) {
  const std::size_t n = workers_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t slot = (target + k) % n;
    Worker& worker = *workers_[slot];
    bool was_parked = false;
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      // During the destructor's drain a worker exits once its own deque is
      // empty; a job landing there afterwards would never run (stranding
      // pending_ above zero). The exited flag and the owner's final deque
      // check share this mutex, so a job either lands before the owner's
      // last look — and runs — or moves on to a still-live worker.
      if (worker.exited) continue;
      worker.deque.push_back(std::move(job));
      was_parked = worker.parked;
      depth = worker.deque.size();
      if (was_parked) worker.cv.notify_one();
    }
    // The target is busy and its backlog is growing: poke one parked
    // neighbour to come steal instead of letting it sleep through the load.
    if (!was_parked && depth > 1) wake_one_thief(slot);
    return;
  }
  // Every worker has already exited — only reachable when an external thread
  // posts while the destructor runs (a job posting from inside a worker
  // keeps that worker live). Run inline so the job is not dropped and
  // pending_ still reaches zero.
  run_job(job);
}

void JobSystem::wake_one_thief(std::size_t except) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i == except) continue;
    Worker& worker = *workers_[i];
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.parked && !worker.poked) {
      worker.poked = true;
      worker.cv.notify_one();
      return;
    }
  }
}

bool JobSystem::try_pop_local(Worker& self, Job& job) {
  std::lock_guard<std::mutex> lock(self.mutex);
  if (self.deque.empty()) return false;
  job = std::move(self.deque.back());  // LIFO: newest first, still cache-warm
  self.deque.pop_back();
  return true;
}

bool JobSystem::try_steal(std::size_t thief, Job& job) {
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& victim = *workers_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    steal_attempts_.inc();
    if (victim.deque.empty()) {
      steal_failures_.inc();
      continue;
    }
    job = std::move(victim.deque.front());  // FIFO: the oldest, coldest job
    victim.deque.pop_front();
    stolen_.inc();
    return true;
  }
  return false;
}

void JobSystem::run_job(Job& job) {
  try {
    job();
  } catch (...) {
    // post() jobs are fire-and-forget (parallel_for catches its own).
    // Swallow, count, and keep the worker.
    swallowed_.inc();
    IG_LOG_WARN("sched") << "job exception swallowed";
  }
  job = nullptr;  // release captures before signalling idle
  executed_.inc();
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void JobSystem::worker_loop(std::size_t id) {
  tls_identity = {this, id};
  Worker& self = *workers_[id];
  for (;;) {
    Job job;
    if (try_pop_local(self, job) || try_steal(id, job)) {
      run_job(job);
      continue;
    }
    std::unique_lock<std::mutex> lock(self.mutex);
    if (!self.deque.empty()) continue;  // arrived between the scan and the lock
    if (self.poked) {
      self.poked = false;  // a victim has work: rescan for it
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Own deque drained. Mark the exit under the same mutex push_to
      // locks, so late hinted posts from still-running jobs redirect to a
      // live worker instead of landing here unseen.
      self.exited = true;
      return;
    }
    self.parked = true;
    parks_.inc();
    self.cv.wait(lock, [&] {
      return !self.deque.empty() || self.poked ||
             stopping_.load(std::memory_order_acquire);
    });
    self.parked = false;
    self.poked = false;
    unparks_.inc();
  }
}

void JobSystem::parallel_for(std::size_t count,
                             const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;

  // The loop state the caller shares with its helpers. A helper may start
  // after the loop has returned; it then finds the cursor spent and exits
  // without touching `fn`, so only the state itself must outlive the call.
  struct Loop {
    std::atomic<std::size_t> cursor{0};  ///< next chunk to claim
    std::atomic<std::size_t> done{0};    ///< chunks finished
    std::mutex mutex;                    ///< guards `error` and `finished`
    std::condition_variable finished;
    std::exception_ptr error;
  };
  auto loop = std::make_shared<Loop>();
  const std::size_t n = workers_.size();
  const std::size_t chunk = std::max<std::size_t>(1, count / (4 * n));
  const std::size_t chunks = (count + chunk - 1) / chunk;

  // Claims chunks until the cursor runs out, running them as `worker`.
  const auto drain = [loop, &fn, count, chunk, chunks](std::size_t worker) {
    for (;;) {
      const std::size_t c = loop->cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t end = std::min(count, (c + 1) * chunk);
      try {
        for (std::size_t index = c * chunk; index < end; ++index) fn(index, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(loop->mutex);
        if (!loop->error) loop->error = std::current_exception();
      }
      if (loop->done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(loop->mutex);
        loop->finished.notify_all();
      }
    }
  };

  // One helper per other worker, each posted to its own target so the post
  // wakes that worker; an external caller runs no chunk, so every worker is
  // "other". No more helpers than there are chunks for them.
  const std::size_t self = current_worker();
  const bool external = self == kAnyWorker;
  const std::size_t helpers = std::min(n, chunks) - (external ? 0 : 1);
  for (std::size_t h = 0; h < helpers; ++h)
    post([this, drain] { drain(current_worker()); }, external ? h : (self + 1 + h) % n);

  // A worker-context caller claims chunks under its own id, then waits only
  // for chunks already running on other threads: that wait cannot deadlock,
  // even on one worker or when every other worker is busy.
  if (!external) drain(self);
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->finished.wait(lock, [&] { return loop->done.load(std::memory_order_acquire) == chunks; });
  if (loop->error) std::rethrow_exception(loop->error);
}

void JobSystem::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mutex_);
  idle_cv_.wait(lock,
                [&] { return pending_.load(std::memory_order_acquire) == 0; });
}

JobStats JobSystem::stats() const {
  JobStats stats;
  stats.submitted = submitted_.value();
  stats.executed = executed_.value();
  stats.stolen = stolen_.value();
  stats.steal_attempts = steal_attempts_.value();
  stats.steal_failures = steal_failures_.value();
  stats.parks = parks_.value();
  stats.unparks = unparks_.value();
  stats.swallowed = swallowed_.value();
  return stats;
}

std::vector<std::size_t> JobSystem::queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(workers_.size());
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    depths.push_back(worker->deque.size());
  }
  return depths;
}

}  // namespace ig::sched
