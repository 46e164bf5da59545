// Span-based enactment tracing.
//
// The paper's monitoring service "gathers information about the status of
// each activity"; this module is the per-case, per-activity record of what
// the ATN machine actually did and where (virtual) time went. A SpanTracer
// collects sim-time-stamped spans — case → activity → FORK/JOIN barrier →
// CHOICE decision → loop iteration — with parent/child links and status
// tags for retries, re-plans and chaos-induced faults. Both enactment
// machines emit into it: the synchronous wfl::enact (execution-count
// timestamps) and the asynchronous CoordinationService (virtual-clock
// timestamps), so a chaotic run's trace replays bitwise under the same
// seed. Exporters in obs/export.hpp render spans as Chrome trace_event
// JSON (chrome://tracing / Perfetto).
//
// Threading: span ids are handed out and spans mutated under one mutex —
// emission is per-activity, orders of magnitude rarer than the message hot
// path — so an engine thread may read spans() while a shard worker enacts.
// A disabled tracer returns id 0 from begin() after one relaxed atomic
// load, and every mutation on id 0 is a no-op.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ig::obs {

/// Creation-ordered span handle; 0 means "no span" (disabled tracer or no
/// parent) and is ignored by every mutator.
using SpanId = std::uint64_t;

enum class SpanKind {
  Case,       ///< one enactment, begin -> terminal reply
  Activity,   ///< one end-user activity, dispatch -> completion/failure
  Barrier,    ///< FORK fan-out (instant) or JOIN wait (first arrival -> fire)
  Choice,     ///< one CHOICE decision (instant)
  Iteration,  ///< one pass of a loop, back-edge -> next decision
};

const char* to_string(SpanKind kind) noexcept;

struct Span {
  SpanId id = 0;
  SpanId parent = 0;       ///< 0 = root
  SpanKind kind = SpanKind::Case;
  std::string name;        ///< activity / process name
  std::string case_id;     ///< grouping key ("case-1")
  double start = 0.0;      ///< sim seconds (or executions so far, wfl::enact)
  double end = 0.0;
  bool closed = false;
  Labels tags;             ///< status=ok/failed, retry=N, fault=..., ...

  /// First value recorded for `key`, or nullptr.
  const std::string* tag(const std::string& key) const noexcept;

  bool operator==(const Span&) const = default;
};

class SpanTracer {
 public:
  /// Counts dropped spans in `metrics` as `tracer_spans_dropped_total`
  /// (default: a private registry).
  explicit SpanTracer(Scope metrics = {})
      : metrics_(std::move(metrics)), dropped_(metrics_.counter("tracer_spans_dropped_total")) {}
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Retained-span cap: once exceeded, the oldest *closed* spans are
  /// dropped (open spans survive so their end() still lands). 0 keeps all.
  void set_limit(std::size_t limit);
  /// Spans dropped by the cap so far; clear() does not reset it.
  std::size_t dropped() const noexcept { return dropped_.value(); }

  /// Opens a span; returns 0 when disabled.
  SpanId begin(SpanKind kind, std::string name, std::string case_id, SpanId parent,
               double at);
  /// Adds a tag to an open or closed span. No-op for id 0 / unknown ids.
  void tag(SpanId id, std::string key, std::string value);
  /// Closes a span. No-op for id 0 / unknown ids; idempotent.
  void end(SpanId id, double at);
  /// begin + end at the same timestamp (decision points).
  SpanId instant(SpanKind kind, std::string name, std::string case_id, SpanId parent,
                 double at);

  std::size_t size() const;
  /// All retained spans in creation order.
  std::vector<Span> spans() const;
  /// Retained spans belonging to one case, creation order.
  std::vector<Span> case_spans(const std::string& case_id) const;
  void clear();

 private:
  void trim_locked();

  Scope metrics_;
  Counter& dropped_;
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::map<SpanId, Span> spans_;
  SpanId next_ = 1;
  std::size_t limit_ = 0;
};

}  // namespace ig::obs
