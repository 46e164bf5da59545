#include "obs/span.hpp"

namespace ig::obs {

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Case: return "case";
    case SpanKind::Activity: return "activity";
    case SpanKind::Barrier: return "barrier";
    case SpanKind::Choice: return "choice";
    case SpanKind::Iteration: return "iteration";
  }
  return "?";
}

const std::string* Span::tag(const std::string& key) const noexcept {
  for (const auto& [k, v] : tags) {
    if (k == key) return &v;
  }
  return nullptr;
}

void SpanTracer::set_limit(std::size_t limit) {
  std::lock_guard<std::mutex> lock(mutex_);
  limit_ = limit;
  trim_locked();
}

SpanId SpanTracer::begin(SpanKind kind, std::string name, std::string case_id, SpanId parent,
                         double at) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const SpanId id = next_++;
  Span& span = spans_[id];
  span.id = id;
  span.parent = parent;
  span.kind = kind;
  span.name = std::move(name);
  span.case_id = std::move(case_id);
  span.start = at;
  span.end = at;
  trim_locked();
  return id;
}

void SpanTracer::tag(SpanId id, std::string key, std::string value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(id);
  if (it == spans_.end()) return;
  it->second.tags.emplace_back(std::move(key), std::move(value));
}

void SpanTracer::end(SpanId id, double at) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(id);
  if (it == spans_.end() || it->second.closed) return;
  it->second.end = at;
  it->second.closed = true;
}

SpanId SpanTracer::instant(SpanKind kind, std::string name, std::string case_id, SpanId parent,
                           double at) {
  const SpanId id = begin(kind, std::move(name), std::move(case_id), parent, at);
  end(id, at);
  return id;
}

std::size_t SpanTracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Span> SpanTracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const auto& [id, span] : spans_) out.push_back(span);
  return out;
}

std::vector<Span> SpanTracer::case_spans(const std::string& case_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& [id, span] : spans_) {
    if (span.case_id == case_id) out.push_back(span);
  }
  return out;
}

void SpanTracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void SpanTracer::trim_locked() {
  if (limit_ == 0) return;
  auto it = spans_.begin();
  while (spans_.size() > limit_ && it != spans_.end()) {
    if (it->second.closed) {
      it = spans_.erase(it);
      dropped_.inc();
    } else {
      ++it;
    }
  }
}

}  // namespace ig::obs
