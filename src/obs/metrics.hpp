// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The registry is the one store of every count: each component resolves its
// instruments once, when it is constructed, and bumps them in place — there
// is no second, private copy to push into the registry later. A component
// learns where to count from an obs::Scope (a registry plus the labels that
// name the component in it); built on its own it counts in a private
// registry, and its accessors read the very instruments a scrape would.
//
// The hot path is lock-free: Counter::inc, Gauge::set/add and
// Histogram::observe are relaxed atomic operations on pre-registered
// instruments, so a shard worker can bump them inside the enactment loop
// without serializing against the metrics reader. Registration and
// snapshot() take the registry mutex — both are cold (registration happens
// once at startup, snapshots at reporting time) — and snapshot() yields one
// consistent view that the exporters in obs/export.hpp serialize as
// Prometheus text, Chrome trace JSON, or JSON Lines.
//
// Histograms keep two representations at once: fixed cumulative-style
// buckets (what Prometheus scrapes) and a lock-free ring of the most recent
// raw samples, from which quantiles are computed *exactly* — with the same
// linear interpolation as util::SampleSet — as long as the ring has not
// wrapped. Bench harnesses size the ring above their sample counts, so the
// registry-derived p50/p99 match the former SampleSet-derived values
// bitwise on the same run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ig::obs {

/// Metric labels, e.g. {{"shard", "0"}}. Order is preserved and significant
/// for identity (the registry keys instruments by name + rendered labels).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count, the only copy of it: its owner
/// bumps it in place and reads it back through its own accessors. Padded to
/// a cache line, so counters bumped by different threads (one per shard)
/// never share one.
class alignas(64) Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, utilization).
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One consistent histogram view. `samples` is the retained raw-sample
/// window, already sorted ascending; when `count <= samples.size()` it is
/// the complete population and quantiles are exact.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;           ///< bucket upper bounds; +Inf implicit last
  std::vector<std::uint64_t> buckets;   ///< per-bucket counts, bounds.size() + 1
  std::vector<double> samples;          ///< retained window, sorted ascending

  /// NaN when empty. Exact (SampleSet-compatible interpolation) over the
  /// retained window.
  double quantile(double q) const;
  /// Multi-quantile in one pass over the already-sorted window.
  std::vector<double> quantiles(const std::vector<double>& qs) const;
  double mean() const;  ///< sum / count; NaN when empty
};

/// Fixed-bucket histogram with a raw-sample ring for exact quantiles.
class Histogram {
 public:
  /// `bounds` are ascending bucket upper bounds (an overflow bucket is
  /// added); `sample_capacity` sizes the raw ring (oldest samples are
  /// overwritten once it wraps).
  explicit Histogram(std::vector<double> bounds, std::size_t sample_capacity = 8192);

  void observe(double value) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::size_t sample_capacity() const noexcept { return capacity_; }

  /// One consistent view. Safe to call while writers run: a snapshot taken
  /// mid-observe may miss the in-flight sample, never sees a torn one.
  HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::size_t capacity_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::unique_ptr<std::atomic<double>[]> ring_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Latency-shaped exponential bounds, 1 ms .. 60 s.
std::vector<double> default_latency_buckets();

enum class MetricKind { Counter, Gauge, Histogram };

const char* to_string(MetricKind kind) noexcept;

/// One metric in a registry snapshot.
struct MetricPoint {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;            ///< counter / gauge value
  HistogramSnapshot histogram;   ///< populated when kind == Histogram
};

struct RegistrySnapshot {
  std::vector<MetricPoint> points;  ///< sorted by (name, labels)

  const MetricPoint* find(const std::string& name, const Labels& labels = {}) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under (name, labels), creating it on
  /// first use. References stay valid for the registry's lifetime. Asking
  /// for an existing name with a different instrument kind throws.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {}, std::size_t sample_capacity = 8192);

  RegistrySnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_locked(const std::string& name, const Labels& labels, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< key = name + rendered labels
};

/// Where a component counts: a registry plus the labels that name the
/// component in it. A default-constructed scope owns a fresh private
/// registry, so a component built on its own still counts; the enactment
/// engine instead hands each shard stack, its job system and its journal a
/// labelled scope over the engine's registry, so one scrape sees every
/// count as it happens. Copies share the registry, which lives as long as
/// any of them.
class Scope {
 public:
  Scope() : registry_(std::make_shared<MetricsRegistry>()) {}

  /// The same registry, with `{key=value}` appended to the labels.
  Scope with(std::string key, std::string value) const;

  MetricsRegistry& registry() const noexcept { return *registry_; }
  Counter& counter(const std::string& name) const { return registry_->counter(name, labels_); }
  Gauge& gauge(const std::string& name) const { return registry_->gauge(name, labels_); }

 private:
  std::shared_ptr<MetricsRegistry> registry_;
  Labels labels_;
};

}  // namespace ig::obs
