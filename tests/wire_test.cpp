// Binary ACL wire codec: framing, interning, zero-copy decode, the
// loopback channel, and the platform transport hook.
//
// The contract under test: encode -> decode -> materialize round-trips
// every AclMessage bitwise (arbitrary binary content included — the very
// bytes the XML path must reject), interning shrinks repeat frames without
// ever desyncing across duplicated definitions, and a platform with the
// wire hook installed behaves exactly like one without it, chaos replay
// included.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "agent/platform.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"
#include "wire/acl_xml.hpp"
#include "wire/channel.hpp"
#include "wire/codec.hpp"
#include "xml/xml.hpp"

namespace ig::wire {
namespace {

using agent::AclMessage;
using agent::Performative;

AclMessage make_message(const std::string& conversation = "c-1") {
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = "coordination";
  message.receiver = "ac-3";
  message.conversation_id = conversation;
  message.protocol = "enactment-request";
  message.ontology = "grid-standard";
  message.content = "<activity name='mc-gen'/>";
  message.params["activity"] = "mc-gen";
  message.params["deadline"] = "12.5";
  return message;
}

std::uint64_t bits(double number) { return std::bit_cast<std::uint64_t>(number); }

/// Value equality down to the IEEE-754 bits (== would call NaN != NaN and
/// -0.0 == 0.0).
bool same_value_bits(const meta::Value& a, const meta::Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case meta::ValueType::None: return true;
    case meta::ValueType::String: return a.as_string() == b.as_string();
    case meta::ValueType::Number: return bits(a.as_number()) == bits(b.as_number());
    case meta::ValueType::Boolean: return a.as_boolean() == b.as_boolean();
    case meta::ValueType::List: {
      const auto& left = a.as_list();
      const auto& right = b.as_list();
      if (left.size() != right.size()) return false;
      for (std::size_t i = 0; i < left.size(); ++i)
        if (!same_value_bits(left[i], right[i])) return false;
      return true;
    }
  }
  return false;
}

bool same_data_bits(const std::shared_ptr<const wfl::DataSet>& a,
                    const std::shared_ptr<const wfl::DataSet>& b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->size() != b->size()) return false;
  for (std::size_t i = 0; i < a->size(); ++i) {
    const wfl::DataSpec& left = a->items()[i];
    const wfl::DataSpec& right = b->items()[i];
    if (left.name() != right.name() || left.properties().size() != right.properties().size())
      return false;
    auto r = right.properties().begin();
    for (const auto& [name, value] : left.properties()) {
      if (name != r->first || !same_value_bits(value, r->second)) return false;
      ++r;
    }
  }
  return true;
}

bool same_message(const AclMessage& a, const AclMessage& b) {
  return std::tie(a.performative, a.sender, a.receiver, a.conversation_id, a.protocol,
                  a.ontology, a.content, a.params) ==
             std::tie(b.performative, b.sender, b.receiver, b.conversation_id, b.protocol,
                      b.ontology, b.content, b.params) &&
         same_data_bits(a.data, b.data);
}

meta::Value list(std::vector<meta::Value> items) { return meta::Value(std::move(items)); }

/// A data set exercising every meta::ValueType and the numbers a decimal
/// rendering would lose: -0.0, NaN payloads, subnormals, 17-digit doubles.
wfl::DataSet make_payload() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  wfl::DataSpec numbers("numbers");
  numbers.with("zero", 0.0)
      .with("negative-zero", -0.0)
      .with("quiet-nan-payload", std::bit_cast<double>(std::uint64_t{0x7FF8'0000'0000'0123}))
      .with("signalling-nan", std::bit_cast<double>(std::uint64_t{0x7FF0'0000'0000'0001}))
      .with("negative-nan", std::bit_cast<double>(std::uint64_t{0xFFF8'0000'0000'0ABC}))
      .with("min-subnormal", std::numeric_limits<double>::denorm_min())
      .with("max-subnormal", std::bit_cast<double>(std::uint64_t{0x000F'FFFF'FFFF'FFFF}))
      .with("seventeen-digits", 0.1 + 0.2)
      .with("third", 1.0 / 3.0)
      .with("max", std::numeric_limits<double>::max())
      .with("minus-infinity", -kInf);
  wfl::DataSpec scalars("scalars");
  scalars.with_classification("Orientation File")
      .with("empty", std::string())
      .with("binary", std::string("\0\x01\xFF", 3))
      .with("yes", true)
      .with("no", false)
      .with("unset", meta::Value());
  wfl::DataSpec lists("lists");
  lists.with("empty-list", list({}))
      .with("ids", meta::Value::list_of({"D1", "D2", ""}))
      .with("nested", list({1.5, list({"x", list({}), -0.0}), true, meta::Value()}));
  return wfl::DataSet({numbers, scalars, lists, wfl::DataSpec("bare"), wfl::DataSpec("")});
}

/// A value `depth` lists deep (depth 0: a scalar).
meta::Value nested_list(int depth) {
  meta::Value value(2.5);
  for (int i = 0; i < depth; ++i) value = list({std::move(value)});
  return value;
}

/// Encode one message and decode it back with fresh codec state.
AclMessage round_trip_once(const AclMessage& message) {
  Encoder encoder;
  Decoder decoder;
  const std::string frame = encoder.encode(message);
  std::string_view payload;
  std::size_t frame_size = 0;
  std::string error;
  EXPECT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kFrame) << error;
  EXPECT_EQ(frame_size, frame.size());
  WireMessageView view;
  EXPECT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
  return view.materialize();
}

// ---------------------------------------------------------------------------
// codec round trips
// ---------------------------------------------------------------------------

TEST(WireCodec, RoundTripsEveryField) {
  const AclMessage original = make_message();
  const AclMessage decoded = round_trip_once(original);
  EXPECT_TRUE(same_message(original, decoded));
}

TEST(WireCodec, RoundTripsEveryPerformative) {
  const Performative all[] = {
      Performative::Request,        Performative::Inform,
      Performative::Agree,          Performative::Refuse,
      Performative::Failure,        Performative::QueryRef,
      Performative::QueryIf,        Performative::Propose,
      Performative::AcceptProposal, Performative::RejectProposal,
      Performative::Subscribe,      Performative::Cancel,
      Performative::NotUnderstood,
  };
  for (const Performative performative : all) {
    AclMessage message = make_message();
    message.performative = performative;
    EXPECT_EQ(round_trip_once(message).performative, performative)
        << agent::to_string(performative);
  }
}

TEST(WireCodec, RoundTripsArbitraryBinaryContent) {
  // Every byte value, twice over, including embedded NULs — the payload the
  // XML path cannot carry (satellite: XML rejects, binary round-trips).
  std::string blob;
  for (int pass = 0; pass < 2; ++pass)
    for (int byte = 0; byte < 256; ++byte) blob.push_back(static_cast<char>(byte));
  AclMessage message = make_message();
  message.content = blob;
  message.params[std::string("k\0ey", 4)] = std::string("\x00\x01\x02", 3);
  const AclMessage decoded = round_trip_once(message);
  EXPECT_TRUE(same_message(message, decoded));
  EXPECT_EQ(decoded.content.size(), 512u);
}

TEST(WireCodec, RoundTripsEmptyFields) {
  AclMessage message;  // all strings empty, no params
  EXPECT_TRUE(same_message(message, round_trip_once(message)));
}

TEST(WireCodec, RoundTripsTheDataPayloadBitwise) {
  AclMessage message = make_message();
  message.data = std::make_shared<const wfl::DataSet>(make_payload());
  const AclMessage decoded = round_trip_once(message);
  ASSERT_NE(decoded.data, nullptr);
  EXPECT_TRUE(same_message(message, decoded));
  // Spot-check the bits a decimal rendering would have lost.
  const wfl::DataSpec* numbers = decoded.data->find("numbers");
  ASSERT_NE(numbers, nullptr);
  EXPECT_EQ(bits(numbers->get("negative-zero").as_number()), bits(-0.0));
  EXPECT_EQ(bits(numbers->get("quiet-nan-payload").as_number()), 0x7FF8'0000'0000'0123u);
  EXPECT_EQ(bits(numbers->get("seventeen-digits").as_number()), bits(0.1 + 0.2));
  EXPECT_EQ(decoded.data->find("scalars")->get("binary").as_string().size(), 3u);
}

TEST(WireCodec, EmptyAndAbsentDataPayloadsStayDistinct) {
  AclMessage message = make_message();
  EXPECT_EQ(round_trip_once(message).data, nullptr);
  message.data = std::make_shared<const wfl::DataSet>();
  const AclMessage decoded = round_trip_once(message);
  ASSERT_NE(decoded.data, nullptr);
  EXPECT_TRUE(decoded.data->empty());
}

TEST(WireCodec, ListsNestedToTheCapRoundTrip) {
  wfl::DataSpec deep("deep");
  deep.with("value", nested_list(kMaxListDepth));
  AclMessage message = make_message();
  message.data = std::make_shared<const wfl::DataSet>(wfl::DataSet({deep}));
  EXPECT_TRUE(same_message(message, round_trip_once(message)));
}

TEST(WireCodec, EncoderRefusesNestingPastTheCapBeforeWritingAnything) {
  wfl::DataSpec deep("deep");
  deep.with("value", nested_list(kMaxListDepth + 1));
  AclMessage message = make_message();
  message.data = std::make_shared<const wfl::DataSet>(wfl::DataSet({deep}));
  Encoder encoder;
  std::string out;
  try {
    encoder.encode(message, out);
    FAIL() << "over-deep list encoded";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("deeper than"), std::string::npos) << error.what();
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(encoder.intern_size(), 0u);  // no definition the decoder never sees
}

TEST(WireCodec, VarintRoundTripsBoundaries) {
  const std::uint64_t values[] = {0,   1,   127,        128,
                                  129, 300, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFFULL};
  for (const std::uint64_t value : values) {
    std::string bytes;
    put_varint(bytes, value);
    store::Reader reader(bytes);
    const auto decoded = read_varint(reader);
    ASSERT_TRUE(decoded.has_value()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(reader.done());
  }
}

// ---------------------------------------------------------------------------
// interning
// ---------------------------------------------------------------------------

TEST(WireIntern, RepeatFramesShrinkAndHitTheTable) {
  Encoder encoder;
  Decoder decoder;
  const std::string first = encoder.encode(make_message("c-1"));
  const std::string second = encoder.encode(make_message("c-2"));
  // Same vocabulary (performative, protocol, ontology, 2 param names): the
  // second frame references ids instead of re-spelling the strings.
  EXPECT_LT(second.size(), first.size());
  EXPECT_EQ(encoder.stats().intern_misses, 5u);
  EXPECT_EQ(encoder.stats().intern_hits, 5u);
  EXPECT_EQ(encoder.intern_size(), 5u);

  for (const std::string& frame : {first, second}) {
    std::string_view payload;
    std::size_t frame_size = 0;
    std::string error;
    ASSERT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kFrame) << error;
    WireMessageView view;
    ASSERT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
    EXPECT_EQ(view.protocol, "enactment-request");
  }
  EXPECT_EQ(decoder.intern_size(), 5u);
}

TEST(WireIntern, RepeatFramesHitTheTableForPropertyNames) {
  // Property names are vocabulary: a second data set with the same shape
  // sends every one of them as an id.
  AclMessage message = make_message("c-1");
  message.data = std::make_shared<const wfl::DataSet>(make_payload());
  std::size_t property_names = 0;
  for (const auto& item : message.data->items()) property_names += item.properties().size();

  Encoder encoder;
  Decoder decoder;
  const std::string first = encoder.encode(message);
  const EncoderStats after_first = encoder.stats();
  EXPECT_EQ(after_first.intern_misses, 5u + property_names);
  message.conversation_id = "c-2";
  const std::string second = encoder.encode(message);
  EXPECT_LT(second.size(), first.size());
  EXPECT_EQ(encoder.stats().intern_misses, after_first.intern_misses);
  EXPECT_EQ(encoder.stats().intern_hits - after_first.intern_hits, 5u + property_names);

  for (const std::string& frame : {first, second}) {
    std::string_view payload;
    std::size_t frame_size = 0;
    std::string error;
    ASSERT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kFrame) << error;
    WireMessageView view;
    ASSERT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
    EXPECT_TRUE(same_data_bits(view.data, message.data));
  }
  EXPECT_EQ(decoder.intern_size(), encoder.intern_size());
}

TEST(WireIntern, DuplicatedDefinitionFrameReplaysCleanly) {
  // A chaos-duplicated first frame re-sends definitions the decoder already
  // holds; explicit ids make that idempotent rather than a desync.
  Encoder encoder;
  Decoder decoder;
  const std::string frame = encoder.encode(make_message());
  std::string_view payload;
  std::size_t frame_size = 0;
  ASSERT_EQ(peek_frame(frame, payload, frame_size, nullptr), FrameStatus::kFrame);
  for (int replay = 0; replay < 3; ++replay) {
    WireMessageView view;
    std::string error;
    ASSERT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
    EXPECT_TRUE(same_message(make_message(), view.materialize()));
  }
  EXPECT_EQ(decoder.intern_size(), 5u);
}

TEST(WireIntern, ReferenceToUnknownIdIsACleanDecodeError) {
  // Frame 2 references ids defined by frame 1; a decoder that never saw
  // frame 1 (dropped definition) must error, not read out of bounds.
  Encoder encoder;
  encoder.encode(make_message("c-1"));
  const std::string second = encoder.encode(make_message("c-2"));
  std::string_view payload;
  std::size_t frame_size = 0;
  ASSERT_EQ(peek_frame(second, payload, frame_size, nullptr), FrameStatus::kFrame);
  Decoder fresh;
  WireMessageView view;
  std::string error;
  EXPECT_FALSE(fresh.decode_payload(payload, view, &error));
  EXPECT_NE(error.find("intern"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

TEST(WireFrame, NeedMoreOnEveryPartialPrefix) {
  Encoder encoder;
  const std::string frame = encoder.encode(make_message());
  for (std::size_t length = 0; length < frame.size(); ++length) {
    std::string_view payload;
    std::size_t frame_size = 0;
    EXPECT_EQ(peek_frame(frame.substr(0, length), payload, frame_size, nullptr),
              FrameStatus::kNeedMore)
        << "prefix length " << length;
  }
}

TEST(WireFrame, CrcMismatchIsBad) {
  Encoder encoder;
  std::string frame = encoder.encode(make_message());
  frame[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  std::string_view payload;
  std::size_t frame_size = 0;
  std::string error;
  EXPECT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kBad);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(WireFrame, OversizedLengthPrefixIsBadNotAnAllocation) {
  std::string bogus(kFrameHeaderBytes, '\0');
  bogus[0] = '\xFF';
  bogus[1] = '\xFF';
  bogus[2] = '\xFF';
  bogus[3] = '\xFF';  // length = 0xFFFFFFFF
  std::string_view payload;
  std::size_t frame_size = 0;
  std::string error;
  EXPECT_EQ(peek_frame(bogus, payload, frame_size, &error), FrameStatus::kBad);
  EXPECT_NE(error.find("length"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// channel
// ---------------------------------------------------------------------------

TEST(WireChannel, DrainReturnsMessagesInSendOrder) {
  FramedChannel channel;
  channel.a().send(make_message("c-1"));
  channel.a().send(make_message("c-2"));
  const std::vector<AclMessage> received = channel.b().drain();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].conversation_id, "c-1");
  EXPECT_EQ(received[1].conversation_id, "c-2");
  EXPECT_EQ(channel.b().incoming().pending_bytes(), 0u);
}

TEST(WireChannel, ByteAtATimeFeedStillDeliversWholeFrames) {
  // The stream must tolerate arbitrary fragmentation, like a real socket.
  Encoder encoder;
  std::string bytes;
  encoder.encode(make_message("c-1"), bytes);
  encoder.encode(make_message("c-2"), bytes);

  Stream stream;
  std::size_t delivered = 0;
  for (const char byte : bytes) {
    stream.feed_bytes(std::string_view(&byte, 1));
    delivered += stream.receive([](const WireMessageView&) {});
  }
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(stream.pending_bytes(), 0u);
  EXPECT_EQ(stream.decode_errors(), 0u);
}

TEST(WireChannel, CorruptFramePoisonsTheRestOfTheStream) {
  Encoder encoder;
  std::string bytes;
  encoder.encode(make_message("c-1"), bytes);
  const std::size_t first_end = bytes.size();
  encoder.encode(make_message("c-2"), bytes);
  bytes[first_end + kFrameHeaderBytes] ^= 0x40;  // corrupt the second payload

  Stream stream;
  stream.feed_bytes(bytes);
  const std::size_t delivered = stream.receive([](const WireMessageView&) {});
  EXPECT_EQ(delivered, 1u);  // the first frame still lands
  EXPECT_EQ(stream.decode_errors(), 1u);
  EXPECT_EQ(stream.pending_bytes(), 0u);  // poisoned bytes discarded
  EXPECT_FALSE(stream.last_error().empty());
}

// ---------------------------------------------------------------------------
// platform hook
// ---------------------------------------------------------------------------

/// Records everything it receives.
class Recorder : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override { received.push_back(message); }
  std::vector<AclMessage> received;
};

TEST(WireHook, MessagesCrossTheCodecUnchanged) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  WireLink link;
  platform.set_transport_hook(make_transport_hook(link));
  platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  AclMessage message = make_message();
  message.sender = "a";
  message.receiver = "b";
  message.content = std::string("\x00\x01\x02 binary ok", 13);
  message.data = std::make_shared<const wfl::DataSet>(make_payload());
  platform.send(message);
  sim.run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(same_message(message, b.received[0]));
  EXPECT_EQ(link.stats().frames, 1u);
  EXPECT_GT(link.stats().bytes, kFrameHeaderBytes);
  EXPECT_EQ(link.stats().decode_errors, 0u);
  EXPECT_EQ(platform.transport_rejects(), 0u);
}

TEST(WireHook, RejectedMessageIsCountedAndTraced) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  platform.set_tracing(true);
  platform.set_transport_hook([](const AclMessage&, std::string* error) {
    if (error != nullptr) *error = "injected reject";
    return std::optional<AclMessage>();
  });
  platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  AclMessage message = make_message();
  message.sender = "a";
  message.receiver = "b";
  platform.send(message);
  sim.run();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(platform.transport_rejects(), 1u);
  bool annotated = false;
  for (const auto& record : platform.trace())
    if (record.chaos.find("injected reject") != std::string::npos) annotated = true;
  EXPECT_TRUE(annotated);
}

TEST(WireHook, ChaosReplayIsBitwiseIdenticalWithTheWireOn) {
  // Chaos draws its stream off the send sequence and the wire round trip is
  // bitwise, so the same seed must produce the same fault counts and the
  // same delivered messages whether frames cross the codec or not.
  const auto run_once = [](bool wire) {
    grid::Simulation sim;
    agent::AgentPlatform platform(sim);
    WireLink link;
    if (wire) platform.set_transport_hook(make_transport_hook(link));
    platform.spawn<Recorder>("a");
    auto& b = platform.spawn<Recorder>("b");
    agent::ChaosPolicy policy;
    policy.seed = 2004;
    agent::ChaosRule rule;
    rule.match.receiver = "b";
    rule.drop = 0.3;
    rule.delay = 0.2;
    rule.duplicate = 0.2;
    policy.rules.push_back(rule);
    platform.set_chaos(policy);
    for (int i = 0; i < 200; ++i) {
      AclMessage message = make_message("c-" + std::to_string(i));
      message.sender = "a";
      message.receiver = "b";
      platform.send(message);
    }
    sim.run();
    std::string transcript;
    for (const auto& record : b.received) transcript += record.conversation_id + "\n";
    return std::make_tuple(platform.chaos_stats(), transcript);
  };

  const auto [bare_stats, bare_transcript] = run_once(false);
  const auto [wire_stats, wire_transcript] = run_once(true);
  EXPECT_EQ(bare_stats.dropped, wire_stats.dropped);
  EXPECT_EQ(bare_stats.delayed, wire_stats.delayed);
  EXPECT_EQ(bare_stats.duplicated, wire_stats.duplicated);
  EXPECT_EQ(bare_transcript, wire_transcript);
  EXPECT_GT(bare_stats.dropped, 0u);
}

// ---------------------------------------------------------------------------
// environment integration
// ---------------------------------------------------------------------------

TEST(WireEnvironment, BootstrapTrafficCrossesTheWireAndPublishesCounters) {
  svc::EnvironmentOptions options;
  options.wire_transport = true;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 2;
  auto environment = svc::make_environment(options);

  ASSERT_NE(environment->wire_link(), nullptr);
  const LinkStats stats = environment->wire_link()->stats();
  EXPECT_GT(stats.frames, 0u);  // registrations crossed the codec
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_GT(stats.intern_hits, 0u);  // vocabulary repeated across frames

  // The link and the platform count in the environment's registry.
  obs::MetricsRegistry& registry = environment->registry();
  EXPECT_EQ(registry.counter("wire_frames_total").value(), stats.frames);
  EXPECT_EQ(registry.counter("platform_transport_rejects_total").value(), 0u);
}

// ---------------------------------------------------------------------------
// enactment under chaos: wire on vs off
// ---------------------------------------------------------------------------
//
// The settings of `igrid_cli chaos 2004 20`: 20% of container-bound messages
// dropped and 10% delayed, on a 2x3 grid with heartbeats and the tightened
// request policies. Every execute request and reply carries the case data
// set as its typed payload, so with the wire on each one crosses the data
// codec; the runs must not be able to tell.

constexpr std::uint64_t kChaosSeed = 2004;
constexpr int kChaosCases = 8;

void apply_cli_chaos_settings(svc::EnvironmentOptions& options, bool wire) {
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 3;
  options.heartbeat_period = 5.0;
  options.wire_transport = wire;
  options.coordination.exec_policy = {300.0, 3, 0.5, 10.0};
  options.coordination.replan_policy = {300.0, 2, 0.5, 10.0};
  agent::ChaosRule rule;
  rule.match.receiver = "ac-*";
  rule.drop = 0.2;
  rule.delay = 0.1;
  options.chaos.rules.push_back(rule);
  options.chaos.seed = kChaosSeed;
}

double chaos_case_resolution(int i) { return 8.0 - 0.04 * static_cast<double>(i); }

TEST(WireChaosDifferential, EngineCaseOutcomesMatchWithTheWireOnAndOff) {
  const auto run_once = [](bool wire) {
    engine::EngineConfig config;
    config.shards = 1;
    config.queue_capacity = kChaosCases + 4;
    apply_cli_chaos_settings(config.environment, wire);
    engine::EnactmentEngine engine(config);
    std::vector<engine::CaseId> ids;
    for (int i = 0; i < kChaosCases; ++i)
      ids.push_back(engine.submit(virolab::make_fig10_process(chaos_case_resolution(i)),
                                  virolab::make_case_description(chaos_case_resolution(i))));
    engine.drain();
    std::vector<std::string> signatures;
    for (const engine::CaseId id : ids) {
      const auto outcome = engine.result(id);
      if (!outcome.has_value()) {
        signatures.push_back("missing");
        continue;
      }
      signatures.push_back(std::string(engine::to_string(outcome->state)) + " makespan " +
                           std::to_string(bits(outcome->makespan)) + " cost " +
                           std::to_string(bits(outcome->total_cost)) + " activities " +
                           std::to_string(outcome->activities_executed) + " replans " +
                           std::to_string(outcome->replans) + " dispatch-failures " +
                           std::to_string(outcome->dispatch_failures));
    }
    const engine::EngineMetrics metrics = engine.metrics();
    const std::uint64_t frames =
        engine.registry().counter("wire_frames_total", {{"shard", "0"}}).value();
    return std::make_tuple(signatures, metrics.faults_injected, metrics.request_retries,
                           metrics.completed, frames);
  };

  const auto [bare, bare_faults, bare_retries, bare_completed, bare_frames] = run_once(false);
  const auto [wired, wired_faults, wired_retries, wired_completed, wired_frames] =
      run_once(true);
  ASSERT_EQ(bare.size(), static_cast<std::size_t>(kChaosCases));
  for (int i = 0; i < kChaosCases; ++i) EXPECT_EQ(bare[i], wired[i]) << "case " << i;
  EXPECT_EQ(bare_faults, wired_faults);
  EXPECT_EQ(bare_retries, wired_retries);
  EXPECT_EQ(bare_completed, wired_completed);
  EXPECT_GT(bare_faults, 0u);  // the nemesis really fired
  EXPECT_GT(bare_retries, 0u);
  EXPECT_EQ(bare_frames, 0u);
  EXPECT_GT(wired_frames, 0u);  // and the wire run really crossed the codec
}

TEST(WireChaosDifferential, EnvironmentDataSetsAndTranscriptsMatchWithTheWireOnAndOff) {
  /// Records the case-completed replies.
  class Client : public agent::Agent {
   public:
    using Agent::Agent;
    void handle_message(const AclMessage& message) override { replies.push_back(message); }
    std::vector<AclMessage> replies;
  };
  struct Run {
    std::vector<std::string> outcomes;
    std::vector<wfl::DataSet> final_data;
    std::string transcript;
    std::vector<std::shared_ptr<const wfl::DataSet>> payloads;
    std::size_t faults = 0;
    std::uint64_t frames = 0;
  };
  const auto run_once = [](bool wire) {
    svc::EnvironmentOptions options;
    options.tracing = true;
    apply_cli_chaos_settings(options, wire);
    auto environment = svc::make_environment(options);
    auto& client = environment->platform().spawn<Client>("ui");
    for (int i = 0; i < kChaosCases; ++i) {
      AclMessage request;
      request.performative = Performative::Request;
      request.sender = client.name();
      request.receiver = svc::names::kCoordination;
      request.protocol = svc::protocols::kEnactCase;
      request.content =
          wfl::process_to_xml_string(virolab::make_fig10_process(chaos_case_resolution(i)));
      request.params["case-xml"] =
          wfl::case_to_xml_string(virolab::make_case_description(chaos_case_resolution(i)));
      environment->platform().send(request);
    }
    environment->run();

    Run run;
    for (const AclMessage& reply : client.replies) {
      run.outcomes.push_back(reply.param("case") + " " + reply.param("success") + " " +
                             reply.param("makespan") + " " + reply.param("error"));
      run.final_data.push_back(reply.content.empty()
                                   ? wfl::DataSet()
                                   : wfl::dataset_from_xml_string(reply.content));
    }
    for (const auto& record : environment->platform().trace()) {
      run.transcript += record.message.protocol + " " + record.message.conversation_id + " " +
                        std::to_string(bits(record.sent_at)) + " " +
                        std::to_string(bits(record.delivered_at)) + " " +
                        (record.delivered ? "delivered" : "lost") + "\n";
      run.payloads.push_back(record.message.data);
    }
    run.faults = environment->platform().chaos_stats().total_injected();
    if (environment->wire_link() != nullptr) run.frames = environment->wire_link()->stats().frames;
    return run;
  };

  const Run bare = run_once(false);
  const Run wired = run_once(true);
  ASSERT_EQ(bare.outcomes.size(), static_cast<std::size_t>(kChaosCases));
  EXPECT_EQ(bare.outcomes, wired.outcomes);
  EXPECT_EQ(bare.final_data, wired.final_data);
  EXPECT_EQ(bare.transcript, wired.transcript);
  EXPECT_EQ(bare.faults, wired.faults);
  EXPECT_GT(bare.faults, 0u);
  EXPECT_GT(wired.frames, 0u);
  // Every typed payload the run carried (each execute request's case data
  // and each reply's produced items) arrived with the same bits.
  ASSERT_EQ(bare.payloads.size(), wired.payloads.size());
  std::size_t carried = 0;
  for (std::size_t i = 0; i < bare.payloads.size(); ++i) {
    EXPECT_TRUE(same_data_bits(bare.payloads[i], wired.payloads[i])) << "trace record " << i;
    if (bare.payloads[i] != nullptr) ++carried;
  }
  EXPECT_GT(carried, 0u);
}

// ---------------------------------------------------------------------------
// XML path: reject-with-reason vs binary round trip (the bugfix)
// ---------------------------------------------------------------------------

TEST(WireAclXml, RoundTripsCleanMessages) {
  const AclMessage original = make_message();
  const AclMessage decoded = acl_from_xml(acl_to_xml(original));
  EXPECT_TRUE(same_message(original, decoded));
}

TEST(WireAclXml, RejectsControlCharactersWithFieldAndOffset) {
  AclMessage message = make_message();
  message.params["payload"] = std::string("ab\x01z", 4);
  try {
    acl_to_xml(message);
    FAIL() << "control character silently accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("payload"), std::string::npos) << what;
    EXPECT_NE(what.find("0x01"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 2"), std::string::npos) << what;
  }
  // The binary codec carries the same message bitwise.
  EXPECT_TRUE(same_message(message, round_trip_once(message)));
}

TEST(WireAclXml, RejectsATypedDataPayloadInsteadOfDroppingIt) {
  AclMessage message = make_message();
  message.data = std::make_shared<const wfl::DataSet>(virolab::make_initial_data());
  try {
    acl_to_xml(message);
    FAIL() << "typed payload silently dropped";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("data"), std::string::npos) << error.what();
  }
  // Even an empty set is a payload the XML form cannot say it carries.
  message.data = std::make_shared<const wfl::DataSet>();
  EXPECT_THROW(acl_to_xml(message), std::invalid_argument);
  EXPECT_TRUE(same_message(message, round_trip_once(message)));
}

TEST(WireAclXml, KeepsXmlWhitespaceControls) {
  AclMessage message = make_message();
  message.content = "line one\n\tline two\r\n";
  EXPECT_TRUE(same_message(message, acl_from_xml(acl_to_xml(message))));
}

}  // namespace
}  // namespace ig::wire
