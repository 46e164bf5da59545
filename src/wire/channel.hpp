// Framed byte-stream channel and the platform transport hook.
//
// FramedChannel is the loopback stand-in for the socket transport of the
// federated tier (the follow-on PR): two endpoints joined by a pair of
// in-memory byte streams. Each direction owns an Encoder/Decoder pair, so
// the intern tables stay per-connection and per-direction exactly as they
// will over TCP, and frames arrive in encode order (interning assumes an
// ordered stream). Bytes — not messages — cross the channel: tests feed
// partial frames, flip bits, and replay stale streams against the real
// receive path.
//
// WireLink adapts the channel to AgentPlatform::set_transport_hook: every
// platform send() is encoded onto the channel, pulled off the other end,
// zero-copy decoded, and re-materialized before the chaos layer and the
// delivery calendar see it. The chaos policy therefore drops/delays/
// duplicates messages that really crossed the wire, and a decode failure
// (counted, traced) vanishes the message like a transport loss. Counters
// are registry instruments: an engine metrics snapshot reads them from
// another thread while the shard's sim is running.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "agent/platform.hpp"
#include "obs/metrics.hpp"
#include "wire/codec.hpp"

namespace ig::wire {

/// One direction of a connection: encoder -> byte buffer -> decoder.
class Stream {
 public:
  /// Encodes `message` as one frame appended to the pending bytes.
  void send(const agent::AclMessage& message);

  /// Appends raw bytes (tests, chaos harnesses, future socket feed).
  void feed_bytes(std::string_view bytes);

  /// Decodes every complete frame currently pending, invoking `fn` with a
  /// view that is only valid during the call. A corrupt frame or payload
  /// poisons the rest of the pending bytes (a byte stream cannot resync
  /// past a bad length prefix): they are discarded, the error is counted
  /// and kept in last_error(). Returns frames delivered.
  std::size_t receive(const std::function<void(const WireMessageView&)>& fn);

  /// Bytes pending but not yet decoded (partial frames linger here).
  std::size_t pending_bytes() const noexcept { return buffer_.size() - consumed_; }

  const EncoderStats& encoder_stats() const noexcept { return encoder_.stats(); }
  std::uint64_t frames_delivered() const noexcept { return frames_delivered_; }
  std::uint64_t decode_errors() const noexcept { return decode_errors_; }
  const std::string& last_error() const noexcept { return last_error_; }

 private:
  /// Drops the decoded prefix (called before appends; views never survive
  /// past the receive() call, so this invalidates nothing live).
  void compact();

  Encoder encoder_;
  Decoder decoder_;
  std::string buffer_;        ///< bytes in flight (append at end)
  std::size_t consumed_ = 0;  ///< prefix already decoded
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::string last_error_;
};

/// Two endpoints joined by two Streams (a->b and b->a). Endpoint `a()`
/// sends on the first and receives from the second; `b()` the reverse.
class FramedChannel {
 public:
  class Endpoint {
   public:
    Endpoint(Stream& out, Stream& in) : out_(&out), in_(&in) {}

    void send(const agent::AclMessage& message) { out_->send(message); }
    std::size_t receive(const std::function<void(const WireMessageView&)>& fn) {
      return in_->receive(fn);
    }
    /// Materializing convenience for tests and demos.
    std::vector<agent::AclMessage> drain();

    Stream& outgoing() noexcept { return *out_; }
    Stream& incoming() noexcept { return *in_; }

   private:
    Stream* out_;
    Stream* in_;
  };

  FramedChannel() : a_(a_to_b_, b_to_a_), b_(b_to_a_, a_to_b_) {}

  Endpoint& a() noexcept { return a_; }
  Endpoint& b() noexcept { return b_; }

 private:
  Stream a_to_b_;
  Stream b_to_a_;
  Endpoint a_;
  Endpoint b_;
};

/// Aggregated wire counters: a snapshot of the link's wire_frames_total /
/// wire_bytes_total / wire_intern_hits_total / wire_intern_misses_total /
/// wire_decode_errors_total registry counters.
struct LinkStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;  ///< frame bytes including headers
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
  std::uint64_t decode_errors = 0;
};

/// The platform's wire transport: one FramedChannel whose a-side is "this
/// process sending" and whose b-side is the receiving end of the loopback.
/// `round_trip` is the hook body; `make_transport_hook` packages it for
/// AgentPlatform::set_transport_hook. Single sim thread drives round_trip;
/// the counters are registry instruments, so metrics threads may read them
/// concurrently.
class WireLink {
 public:
  /// Counts in `metrics` (default: a private registry).
  explicit WireLink(obs::Scope metrics = {});

  /// Encode -> channel -> decode -> materialize. nullopt on decode failure
  /// (reason in `error`), after counting it.
  std::optional<agent::AclMessage> round_trip(const agent::AclMessage& message,
                                              std::string* error);

  LinkStats stats() const;

  FramedChannel& channel() noexcept { return channel_; }

 private:
  FramedChannel channel_;
  obs::Scope metrics_;
  obs::Counter& frames_;
  obs::Counter& bytes_;
  obs::Counter& intern_hits_;
  obs::Counter& intern_misses_;
  obs::Counter& decode_errors_;
};

/// Adapter: a transport hook closed over `link` (which must outlive the
/// platform it is installed on).
agent::TransportHook make_transport_hook(WireLink& link);

}  // namespace ig::wire
