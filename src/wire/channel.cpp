#include "wire/channel.hpp"

namespace ig::wire {

// -- Stream ---------------------------------------------------------------------

void Stream::send(const agent::AclMessage& message) {
  compact();
  encoder_.encode(message, buffer_);
}

void Stream::feed_bytes(std::string_view bytes) {
  compact();
  buffer_.append(bytes.data(), bytes.size());
}

void Stream::compact() {
  // Drop the decoded prefix before appending so the buffer does not grow
  // without bound on a long-lived connection. Safe: views handed out by
  // receive() do not outlive the receive call.
  if (consumed_ == 0) return;
  buffer_.erase(0, consumed_);
  consumed_ = 0;
}

std::size_t Stream::receive(const std::function<void(const WireMessageView&)>& fn) {
  std::size_t delivered = 0;
  for (;;) {
    const std::string_view pending = std::string_view(buffer_).substr(consumed_);
    if (pending.empty()) break;
    std::string_view payload;
    std::size_t frame_size = 0;
    std::string error;
    const FrameStatus status = peek_frame(pending, payload, frame_size, &error);
    if (status == FrameStatus::kNeedMore) break;
    if (status == FrameStatus::kBad) {
      // A byte stream cannot resync past a corrupt length prefix or
      // checksum; poison the rest of the pending bytes.
      ++decode_errors_;
      last_error_ = error;
      consumed_ = buffer_.size();
      break;
    }
    WireMessageView view;
    if (decoder_.decode_payload(payload, view, &error)) {
      ++frames_delivered_;
      ++delivered;
      if (fn) fn(view);
    } else {
      ++decode_errors_;
      last_error_ = error;
    }
    consumed_ += frame_size;
  }
  return delivered;
}

// -- FramedChannel --------------------------------------------------------------

std::vector<agent::AclMessage> FramedChannel::Endpoint::drain() {
  std::vector<agent::AclMessage> messages;
  in_->receive([&](const WireMessageView& view) { messages.push_back(view.materialize()); });
  return messages;
}

// -- WireLink -------------------------------------------------------------------

WireLink::WireLink(obs::Scope metrics)
    : metrics_(std::move(metrics)),
      frames_(metrics_.counter("wire_frames_total")),
      bytes_(metrics_.counter("wire_bytes_total")),
      intern_hits_(metrics_.counter("wire_intern_hits_total")),
      intern_misses_(metrics_.counter("wire_intern_misses_total")),
      decode_errors_(metrics_.counter("wire_decode_errors_total")) {}

std::optional<agent::AclMessage> WireLink::round_trip(const agent::AclMessage& message,
                                                      std::string* error) {
  Stream& out = channel_.a().outgoing();
  const EncoderStats before = out.encoder_stats();
  channel_.a().send(message);
  const EncoderStats& after = out.encoder_stats();
  frames_.inc();
  bytes_.inc(after.frame_bytes - before.frame_bytes);
  intern_hits_.inc(after.intern_hits - before.intern_hits);
  intern_misses_.inc(after.intern_misses - before.intern_misses);

  std::optional<agent::AclMessage> decoded;
  channel_.b().receive(
      [&](const WireMessageView& view) { decoded = view.materialize(); });
  if (!decoded.has_value()) {
    decode_errors_.inc();
    // The loopback delivers synchronously, so the failure reason sits on
    // the stream endpoint b just received from.
    if (error != nullptr) {
      *error = channel_.b().incoming().last_error();
      if (error->empty()) *error = "wire decode failed";
    }
  }
  return decoded;
}

LinkStats WireLink::stats() const {
  LinkStats stats;
  stats.frames = frames_.value();
  stats.bytes = bytes_.value();
  stats.intern_hits = intern_hits_.value();
  stats.intern_misses = intern_misses_.value();
  stats.decode_errors = decode_errors_.value();
  return stats;
}

agent::TransportHook make_transport_hook(WireLink& link) {
  return [&link](const agent::AclMessage& message,
                 std::string* error) -> std::optional<agent::AclMessage> {
    return link.round_trip(message, error);
  };
}

}  // namespace ig::wire
