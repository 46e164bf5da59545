#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/stats.hpp"

namespace ig::obs {

namespace {

/// Registry key: "name{k=v,k=v}" — labels are part of instrument identity.
std::string render_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (labels.empty()) return key;
  key += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += labels[i].first;
    key += '=';
    key += labels[i].second;
  }
  key += '}';
  return key;
}

}  // namespace

// -- Histogram ----------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds, std::size_t sample_capacity)
    : bounds_(std::move(bounds)), capacity_(std::max<std::size_t>(1, sample_capacity)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  ring_ = std::make_unique<std::atomic<double>[]>(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) ring_[i].store(0.0);
}

void Histogram::observe(double value) noexcept {
  const std::size_t bucket =
      static_cast<std::size_t>(std::upper_bound(bounds_.begin(), bounds_.end(), value) -
                               bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  const std::uint64_t sequence = count_.fetch_add(1, std::memory_order_acq_rel);
  ring_[sequence % capacity_].store(value, std::memory_order_release);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot view;
  // Read the count first: samples published before this load are visible in
  // the ring (release store above), so the view is at worst a few in-flight
  // observations behind, never torn.
  view.count = count_.load(std::memory_order_acquire);
  view.sum = sum_.load(std::memory_order_relaxed);
  view.bounds = bounds_;
  view.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    view.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  const std::size_t retained = static_cast<std::size_t>(
      std::min<std::uint64_t>(view.count, capacity_));
  view.samples.reserve(retained);
  for (std::size_t i = 0; i < retained; ++i)
    view.samples.push_back(ring_[i].load(std::memory_order_acquire));
  std::sort(view.samples.begin(), view.samples.end());
  return view;
}

double HistogramSnapshot::quantile(double q) const {
  return util::quantile_sorted(samples, q);
}

std::vector<double> HistogramSnapshot::quantiles(const std::vector<double>& qs) const {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const double q : qs) out.push_back(util::quantile_sorted(samples, q));
  return out;
}

double HistogramSnapshot::mean() const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(count);
}

std::vector<double> default_latency_buckets() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
          1.0,   2.5,    5.0,   10.0, 30.0,  60.0};
}

// -- registry -----------------------------------------------------------------

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Entry& MetricsRegistry::entry_locked(const std::string& name,
                                                      const Labels& labels,
                                                      MetricKind kind) {
  const std::string key = render_key(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind)
      throw std::invalid_argument("metric '" + key + "' already registered as " +
                                  to_string(it->second.kind));
    return it->second;
  }
  Entry& entry = entries_[key];
  entry.name = name;
  entry.labels = labels;
  entry.kind = kind;
  return entry;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_locked(name, labels, MetricKind::Counter);
  if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_locked(name, labels, MetricKind::Gauge);
  if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const Labels& labels, std::size_t sample_capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entry_locked(name, labels, MetricKind::Histogram);
  if (entry.histogram == nullptr)
    entry.histogram = std::make_unique<Histogram>(std::move(bounds), sample_capacity);
  return *entry.histogram;
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot view;
  view.points.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricPoint point;
    point.name = entry.name;
    point.labels = entry.labels;
    point.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::Counter:
        point.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::Gauge:
        point.value = entry.gauge->value();
        break;
      case MetricKind::Histogram:
        point.histogram = entry.histogram->snapshot();
        point.value = point.histogram.sum;
        break;
    }
    view.points.push_back(std::move(point));
  }
  return view;
}

const MetricPoint* RegistrySnapshot::find(const std::string& name, const Labels& labels) const {
  for (const auto& point : points) {
    if (point.name == name && point.labels == labels) return &point;
  }
  return nullptr;
}

Scope Scope::with(std::string key, std::string value) const {
  Scope scope = *this;
  scope.labels_.emplace_back(std::move(key), std::move(value));
  return scope;
}

}  // namespace ig::obs
