// Binary wire codec throughput (DESIGN.md §12, EXPERIMENTS A20).
//
// Measures complete round trips — encode, frame/parse, decode, materialize
// into an owning AclMessage — over the real receive path (Stream:
// peek_frame + zero-copy decode), plus the bytes the codec puts on the
// wire. Before timing, one untimed pass checks that every message of the
// stream comes back with every field equal to what was sent; any mismatch
// fails the run (exit 1).
//
// Appends one JSON Lines record per run to BENCH_wire.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "agent/message.hpp"
#include "bench_json.hpp"
#include "util/stopwatch.hpp"
#include "wire/channel.hpp"
#include "wire/codec.hpp"

using namespace ig;

namespace {

constexpr const char* kJsonPath = "BENCH_wire.json";

/// A production-chain style message stream: fixed protocol vocabulary
/// (where interning pays), varying conversation ids and payloads.
std::vector<agent::AclMessage> make_stream(std::size_t count) {
  std::vector<agent::AclMessage> messages;
  messages.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    agent::AclMessage message;
    message.performative =
        i % 3 == 0 ? agent::Performative::Request : agent::Performative::Inform;
    message.sender = i % 2 == 0 ? "coordination" : "ac-" + std::to_string(i % 7);
    message.receiver = i % 2 == 0 ? "ac-" + std::to_string(i % 7) : "coordination";
    message.conversation_id = "case-" + std::to_string(i / 8);
    message.protocol = "enactment-request";
    message.ontology = "grid-standard";
    message.content = "<activity name='mc-gen-" + std::to_string(i) + "'/>";
    message.params["activity"] = "mc-gen-" + std::to_string(i % 12);
    message.params["deadline"] = "12.5";
    message.params["attempt"] = std::to_string(i % 3);
    messages.push_back(std::move(message));
  }
  return messages;
}

struct Measurement {
  double msgs_per_second = 0.0;
  std::uint64_t wire_bytes = 0;
  std::size_t round_trips = 0;
};

Measurement run_binary(const std::vector<agent::AclMessage>& messages, std::size_t rounds) {
  Measurement result;
  util::Stopwatch watch;
  for (std::size_t round = 0; round < rounds; ++round) {
    wire::Stream stream;  // fresh intern tables per round: includes warm-up cost
    for (const agent::AclMessage& message : messages) {
      stream.send(message);
      stream.receive([&](const wire::WireMessageView& view) {
        const agent::AclMessage decoded = view.materialize();
        if (decoded.sender.empty() && !message.sender.empty()) std::abort();
        ++result.round_trips;
      });
    }
    result.wire_bytes = stream.encoder_stats().frame_bytes;
  }
  result.msgs_per_second =
      static_cast<double>(result.round_trips) / watch.elapsed_seconds();
  return result;
}

bool same_message(const agent::AclMessage& a, const agent::AclMessage& b) {
  const bool same_data = a.data == nullptr ? b.data == nullptr
                                           : b.data != nullptr && *a.data == *b.data;
  return std::tie(a.performative, a.sender, a.receiver, a.conversation_id, a.protocol,
                  a.ontology, a.content, a.params) ==
             std::tie(b.performative, b.sender, b.receiver, b.conversation_id, b.protocol,
                      b.ontology, b.content, b.params) &&
         same_data;
}

/// Sends the stream once and counts the messages that do not come back
/// equal to what was sent (a lost message counts as a mismatch).
std::size_t count_round_trip_mismatches(const std::vector<agent::AclMessage>& messages) {
  wire::Stream stream;
  std::size_t matched = 0;
  for (const agent::AclMessage& message : messages) {
    stream.send(message);
    stream.receive([&](const wire::WireMessageView& view) {
      if (same_message(message, view.materialize())) ++matched;
    });
  }
  return messages.size() - matched;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scale = 1;
  if (argc > 1) scale = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  if (scale == 0) scale = 1;
  const std::size_t kMessages = 2000;
  const std::size_t kRounds = 10 * scale;

  const std::vector<agent::AclMessage> messages = make_stream(kMessages);
  const std::size_t mismatches = count_round_trip_mismatches(messages);
  const Measurement binary = run_binary(messages, kRounds);
  const double bytes_per_msg =
      static_cast<double>(binary.wire_bytes) / static_cast<double>(kMessages);

  std::printf("ACL round trips (%zu messages x %zu rounds)\n", kMessages, kRounds);
  std::printf("  binary codec: %.0f msgs/s, %.1f bytes/msg\n", binary.msgs_per_second,
              bytes_per_msg);
  std::printf("round-trip check: %zu/%zu messages equal after decode\n",
              kMessages - mismatches, kMessages);

  bench::JsonRecord record("bench_wire_throughput");
  record.add("messages", kMessages);
  record.add("rounds", kRounds);
  record.add("binary_msgs_per_second", binary.msgs_per_second);
  record.add("binary_bytes_per_msg", bytes_per_msg);
  record.add("round_trip_mismatches", mismatches);
  record.append_to(kJsonPath);

  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu messages changed across the codec\n", mismatches);
    return 1;
  }
  return 0;
}
