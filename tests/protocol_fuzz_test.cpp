// Malformed-message fault injection across the ACL protocol layer.
//
// Every service must degrade gracefully when a peer sends garbage: reply
// NotUnderstood/Failure with a "reason" param, or drop the payload — never
// throw out of the handler. The fuzz vectors cover the classic parse traps:
// empty strings, non-numeric text, overflow, negatives where unsigned is
// expected, trailing junk, and missing keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>

#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "services/user_interface.hpp"
#include "util/strings.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "store/codec.hpp"
#include "store/crc32c.hpp"
#include "wfl/xml_io.hpp"
#include "wire/channel.hpp"
#include "wire/codec.hpp"
#include "xml/xml.hpp"

namespace ig::svc {
namespace {

using agent::AclMessage;
using agent::Performative;

/// Strings that must never parse as a double (or int / uint).
const char* const kBadNumbers[] = {"", "   ", "abc", "12x", "1e999999", "--3", "nan(",
                                   "0x10"};

// ---------------------------------------------------------------------------
// util::parse_* unit coverage
// ---------------------------------------------------------------------------

TEST(ParseFuzz, DoubleAcceptsUsualShapes) {
  EXPECT_DOUBLE_EQ(util::parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(util::parse_double(" -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(util::parse_double("+4").value(), 4.0);
  EXPECT_DOUBLE_EQ(util::parse_double(".5").value(), 0.5);
}

TEST(ParseFuzz, DoubleRejectsGarbage) {
  for (const char* text : kBadNumbers)
    EXPECT_FALSE(util::parse_double(text).has_value()) << "'" << text << "'";
}

TEST(ParseFuzz, IntRejectsGarbageAndOverflow) {
  EXPECT_EQ(util::parse_int("-42").value(), -42);
  EXPECT_EQ(util::parse_int("+7").value(), 7);
  for (const char* text : kBadNumbers)
    EXPECT_FALSE(util::parse_int(text).has_value()) << "'" << text << "'";
  EXPECT_FALSE(util::parse_int("2.5").has_value());
  EXPECT_FALSE(util::parse_int("99999999999999999999").has_value());
}

TEST(ParseFuzz, UintRejectsNegatives) {
  EXPECT_EQ(util::parse_uint("18446744073709551615").value(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(util::parse_uint("-5").has_value());
  EXPECT_FALSE(util::parse_uint("-0").has_value());
  EXPECT_FALSE(util::parse_uint("18446744073709551616").has_value());
}

TEST(ParseFuzz, BoolAcceptsCanonicalForms) {
  EXPECT_TRUE(util::parse_bool("true").value());
  EXPECT_TRUE(util::parse_bool("TRUE").value());
  EXPECT_TRUE(util::parse_bool("1").value());
  EXPECT_FALSE(util::parse_bool("false").value());
  EXPECT_FALSE(util::parse_bool("0").value());
  EXPECT_FALSE(util::parse_bool("yes").has_value());
  EXPECT_FALSE(util::parse_bool("").has_value());
}

// ---------------------------------------------------------------------------
// AclMessage typed accessors
// ---------------------------------------------------------------------------

TEST(MessageFuzz, TypedAccessorsNeverThrow) {
  AclMessage message;
  message.params["d"] = "2.5";
  message.params["i"] = "-3";
  message.params["u"] = "7";
  message.params["b"] = "true";
  message.params["junk"] = "zzz";

  EXPECT_DOUBLE_EQ(message.param_double("d").value(), 2.5);
  EXPECT_EQ(message.param_int("i").value(), -3);
  EXPECT_EQ(message.param_uint("u").value(), 7u);
  EXPECT_TRUE(message.param_bool("b").value());

  EXPECT_FALSE(message.param_double("junk").has_value());
  EXPECT_FALSE(message.param_double("missing").has_value());
  EXPECT_FALSE(message.param_uint("i").has_value());  // negative where unsigned

  EXPECT_DOUBLE_EQ(message.param_double("junk", 9.0), 9.0);
  EXPECT_EQ(message.param_int("missing", 4), 4);
  EXPECT_EQ(message.param_uint("junk", 11u), 11u);
  EXPECT_TRUE(message.param_bool("missing", true));
}

TEST(MessageFuzz, DescribeBadParamNamesTheProblem) {
  AclMessage message;
  message.params["seed"] = "-5";
  const std::string described = message.describe_bad_param("seed", "uint");
  EXPECT_NE(described.find("seed"), std::string::npos);
  EXPECT_NE(described.find("-5"), std::string::npos);
  const std::string missing = message.describe_bad_param("nope", "double");
  EXPECT_NE(missing.find("missing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live services under fuzzed requests
// ---------------------------------------------------------------------------

class Client : public agent::Agent {
 public:
  explicit Client(std::string name = "ui") : Agent(std::move(name)) {}
  void handle_message(const AclMessage& message) override { replies.push_back(message); }

  void request(agent::AgentPlatform& platform, AclMessage message) {
    message.sender = name();
    platform.send(std::move(message));
  }

  std::vector<AclMessage> replies;
};

struct Fixture {
  Fixture() {
    EnvironmentOptions options;
    options.topology.domains = 2;
    options.topology.nodes_per_domain = 2;
    options.seed = 11;
    environment = make_environment(options);
    client = &environment->platform().spawn<Client>("fuzzer");
  }

  AclMessage last() const {
    EXPECT_FALSE(client->replies.empty());
    return client->replies.empty() ? AclMessage{} : client->replies.back();
  }

  std::unique_ptr<Environment> environment;
  Client* client = nullptr;
};

TEST(ServiceFuzz, SchedulingBouncesMalformedTaskWork) {
  for (const char* bad : {"", "abc", "1e999999"}) {
    Fixture fixture;
    AclMessage request;
    request.performative = Performative::Request;
    request.receiver = names::kScheduling;
    request.protocol = protocols::kScheduleRequest;
    request.params["tasks"] = std::string("t1:") + bad;
    request.params["speeds"] = "1.0";
    fixture.client->request(fixture.environment->platform(), request);
    fixture.environment->run();
    const AclMessage reply = fixture.last();
    EXPECT_EQ(reply.performative, Performative::NotUnderstood) << "'" << bad << "'";
    EXPECT_NE(reply.param("reason").find("task entry"), std::string::npos);
  }
}

TEST(ServiceFuzz, SchedulingBouncesMalformedSpeed) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kScheduling;
  request.protocol = protocols::kScheduleRequest;
  request.params["tasks"] = "t1:4.0";
  request.params["speeds"] = "1.0,fast";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::NotUnderstood);
  EXPECT_NE(reply.param("reason").find("speed entry"), std::string::npos);
}

TEST(ServiceFuzz, MatchmakingBouncesMalformedDeadlineParams) {
  for (const char* key : {"work", "deadline"}) {
    Fixture fixture;
    AclMessage request;
    request.performative = Performative::Request;
    request.receiver = names::kMatchmaking;
    request.protocol = protocols::kFindContainer;
    request.params["service"] = "P3DR";
    request.params["strategy"] = "deadline";
    request.params[key] = "not-a-number";
    fixture.client->request(fixture.environment->platform(), request);
    fixture.environment->run();
    const AclMessage reply = fixture.last();
    EXPECT_EQ(reply.performative, Performative::NotUnderstood) << key;
    EXPECT_NE(reply.param("reason").find(key), std::string::npos);
  }
}

TEST(ServiceFuzz, MatchmakingMissingDeadlineParamsFallBackToDefaults) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kMatchmaking;
  request.protocol = protocols::kFindContainer;
  request.params["service"] = "P3DR";
  request.params["strategy"] = "deadline";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Inform);
  EXPECT_FALSE(reply.param("container").empty());
}

TEST(ServiceFuzz, PlanningBouncesBadSeed) {
  for (const char* bad : {"abc", "-5", "1e999999", ""}) {
    Fixture fixture;
    AclMessage request;
    request.performative = Performative::Request;
    request.receiver = names::kPlanning;
    request.protocol = protocols::kPlanRequest;
    request.content = wfl::case_to_xml_string(virolab::make_case_description());
    request.params["seed"] = bad;
    fixture.client->request(fixture.environment->platform(), request);
    fixture.environment->run();
    const AclMessage reply = fixture.last();
    EXPECT_EQ(reply.performative, Performative::NotUnderstood) << "'" << bad << "'";
    EXPECT_NE(reply.param("reason").find("seed"), std::string::npos);
  }
}

TEST(ServiceFuzz, PlanningFailsGracefullyOnGarbageCaseXml) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kPlanning;
  request.protocol = protocols::kPlanRequest;
  request.content = "<not-a-case>";
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Failure);
  EXPECT_FALSE(reply.param("error").empty());
}

TEST(ServiceFuzz, CoordinationRejectsGarbageProcessXml) {
  Fixture fixture;
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kCoordination;
  request.protocol = protocols::kEnactCase;
  request.content = "<<<definitely not xml";
  request.params["case-xml"] = wfl::case_to_xml_string(virolab::make_case_description());
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Failure);
  EXPECT_FALSE(reply.param("error").empty());
}

/// Builds a structurally valid checkpoint document, then lets the caller
/// mangle one attribute before it is shipped to the coordination service.
xml::Document make_checkpoint() {
  xml::Document document("checkpoint");
  xml::Element& root = document.root();
  root.set_attribute("case", "case-x");
  root.add_child("process-xml")
      .set_text(wfl::process_to_xml_string(virolab::make_fig10_process()));
  root.add_child("case-xml")
      .set_text(wfl::case_to_xml_string(virolab::make_case_description()));
  root.add_child("dataset-xml").set_text(wfl::dataset_to_xml_string(wfl::DataSet{}));
  root.set_attribute("replans", "0");
  return document;
}

TEST(ServiceFuzz, CoordinationRejectsNonIntegerReplansInCheckpoint) {
  Fixture fixture;
  xml::Document checkpoint = make_checkpoint();
  checkpoint.root().set_attribute("replans", "abc");
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kCoordination;
  request.protocol = protocols::kRestoreCase;
  request.content = checkpoint.to_string();
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Failure);
  EXPECT_NE(reply.param("error").find("bad checkpoint"), std::string::npos);
}

TEST(ServiceFuzz, CoordinationRejectsNonIntegerCompletionCount) {
  Fixture fixture;
  xml::Document checkpoint = make_checkpoint();
  xml::Element& completed = checkpoint.root().add_child("completions").add_child("completed");
  completed.set_attribute("activity", "A2");
  completed.set_attribute("count", "two");
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = names::kCoordination;
  request.protocol = protocols::kRestoreCase;
  request.content = checkpoint.to_string();
  fixture.client->request(fixture.environment->platform(), request);
  fixture.environment->run();
  const AclMessage reply = fixture.last();
  EXPECT_EQ(reply.performative, Performative::Failure);
  EXPECT_NE(reply.param("error").find("bad checkpoint"), std::string::npos);
}

TEST(ServiceFuzz, BrokerageDropsReportWithMangledDuration) {
  Fixture fixture;
  AclMessage report;
  report.performative = Performative::Inform;
  report.receiver = names::kBrokerage;
  report.protocol = protocols::kReportPerformance;
  report.params["container"] = "fuzzed-container";
  report.params["outcome"] = "success";
  report.params["duration"] = "soon";
  fixture.client->request(fixture.environment->platform(), report);
  fixture.environment->run();
  EXPECT_EQ(fixture.environment->brokerage().history_of("fuzzed-container"), nullptr);
}

TEST(ServiceFuzz, BrokerageAcceptsReportWithMissingDuration) {
  Fixture fixture;
  AclMessage report;
  report.performative = Performative::Inform;
  report.receiver = names::kBrokerage;
  report.protocol = protocols::kReportPerformance;
  report.params["container"] = "fuzzed-container";
  report.params["outcome"] = "success";
  fixture.client->request(fixture.environment->platform(), report);
  fixture.environment->run();
  const auto* history = fixture.environment->brokerage().history_of("fuzzed-container");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->successes, 1);
}

TEST(ServiceFuzz, UserInterfaceZeroesMangledOutcomeNumbers) {
  UserInterfaceAgent ui("ui");
  AclMessage done;
  done.performative = Performative::Inform;
  done.protocol = protocols::kCaseCompleted;
  done.params["success"] = "maybe";
  done.params["makespan"] = "fast";
  done.params["activities-executed"] = "1e999999";
  done.params["dispatch-failures"] = "-?";
  done.params["replans"] = "";
  ui.handle_message(done);
  ASSERT_TRUE(ui.finished());
  const TaskOutcome& outcome = ui.outcome();
  EXPECT_FALSE(outcome.success);
  EXPECT_DOUBLE_EQ(outcome.makespan, 0.0);
  EXPECT_EQ(outcome.activities_executed, 0);
  EXPECT_EQ(outcome.dispatch_failures, 0);
  EXPECT_EQ(outcome.replans, 0);
}

TEST(ServiceFuzz, EveryServiceBouncesUnknownProtocolWithReason) {
  Fixture fixture;
  const char* const services[] = {
      names::kInformation,  names::kBrokerage,  names::kMatchmaking,
      names::kMonitoring,   names::kOntology,   names::kAuthentication,
      names::kPersistentStorage, names::kScheduling, names::kSimulation,
      names::kCoordination, names::kPlanning};
  for (const char* service : services) {
    AclMessage request;
    request.performative = Performative::Request;
    request.receiver = service;
    request.protocol = "no-such-protocol";
    fixture.client->request(fixture.environment->platform(), request);
  }
  // One container agent too — it speaks the same bounce convention.
  const auto hosts = fixture.environment->grid().containers_hosting("POD");
  ASSERT_FALSE(hosts.empty());
  AclMessage request;
  request.performative = Performative::Request;
  request.receiver = hosts.front()->id();
  request.protocol = "no-such-protocol";
  fixture.client->request(fixture.environment->platform(), request);

  fixture.environment->run();
  ASSERT_EQ(fixture.client->replies.size(), std::size(services) + 1);
  for (const AclMessage& reply : fixture.client->replies) {
    EXPECT_EQ(reply.performative, Performative::NotUnderstood) << reply.sender;
    EXPECT_NE(reply.param("reason").find("no-such-protocol"), std::string::npos)
        << reply.sender;
  }
}

TEST(ServiceFuzz, InformFuzzToEveryServiceIsSilentlyTolerated) {
  // Inform/Failure carrying garbage must not bounce (reply-loop prevention)
  // and, above all, must not crash the platform.
  Fixture fixture;
  const char* const services[] = {
      names::kInformation,  names::kBrokerage,  names::kMatchmaking,
      names::kMonitoring,   names::kOntology,   names::kAuthentication,
      names::kPersistentStorage, names::kScheduling, names::kSimulation,
      names::kCoordination, names::kPlanning};
  for (const char* service : services) {
    AclMessage junk;
    junk.performative = Performative::Inform;
    junk.receiver = service;
    junk.protocol = "no-such-protocol";
    junk.params["work"] = "NaNaNaN";
    fixture.client->request(fixture.environment->platform(), junk);
  }
  fixture.environment->run();
  EXPECT_TRUE(fixture.client->replies.empty());
  EXPECT_EQ(fixture.environment->platform().handler_failures_total(), 0u);
}

// ---------------------------------------------------------------------------
// wire codec fuzz: hostile bytes against the real receive path
// ---------------------------------------------------------------------------
//
// The decode contract under attack: malformed input yields a decode error —
// never a throw, never an out-of-bounds read (the ASan/UBSan jobs run this
// suite). Vectors mirror store_test's WAL recovery fuzz: truncation at every
// length, a bit flip at every byte offset of the last frame, plus the
// intern-specific faults (references into a table the decoder never built)
// and hostile length prefixes.

wire::Stream make_wire_stream(std::string_view bytes) {
  wire::Stream stream;
  stream.feed_bytes(bytes);
  return stream;
}

/// A small case data set in the shape the coordinator ships: strings,
/// numbers, a list.
std::shared_ptr<const wfl::DataSet> make_wire_data(int variant) {
  wfl::DataSet data = virolab::make_initial_data();
  wfl::DataSpec model("D" + std::to_string(8 + variant));
  model.with_classification("3D Model")
      .with(wfl::props::kSize, meta::Value(64.0 / 3.0 + variant))
      .with("Sources", meta::Value::list_of({"D7", "D8"}));
  data.put(std::move(model));
  return std::make_shared<const wfl::DataSet>(std::move(data));
}

/// Three-frame conversation sharing vocabulary, so frames 2 and 3 lean on
/// the intern table frame 1 defined. `with_data` gives every frame a typed
/// data-set payload, whose property names intern the same way.
std::string encode_three_frames(bool with_data = false) {
  wire::Encoder encoder;
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    AclMessage message;
    message.performative = Performative::Request;
    message.sender = "coordination";
    message.receiver = "ac-1";
    message.conversation_id = "case-" + std::to_string(i);
    message.protocol = "enactment-request";
    message.ontology = "grid-standard";
    message.params["activity"] = "mc-gen";
    if (with_data) message.data = make_wire_data(i);
    encoder.encode(message, bytes);
  }
  return bytes;
}

/// Offset of the third frame in encode_three_frames' output.
std::size_t third_frame_begin(std::string_view bytes) {
  std::string_view payload;
  std::size_t first = 0, second = 0;
  EXPECT_EQ(wire::peek_frame(bytes, payload, first), wire::FrameStatus::kFrame);
  EXPECT_EQ(wire::peek_frame(bytes.substr(first), payload, second), wire::FrameStatus::kFrame);
  return first + second;
}

TEST(WireFuzz, TruncationAtEveryLengthNeverThrowsOrDelivers) {
  for (const bool with_data : {false, true}) {
    SCOPED_TRACE(with_data ? "frames carry a data payload" : "payload-free frames");
    const std::string bytes = encode_three_frames(with_data);
    const std::size_t last_begin = third_frame_begin(bytes);

    for (std::size_t length = last_begin; length < bytes.size(); ++length) {
      wire::Stream stream = make_wire_stream(bytes.substr(0, length));
      const std::size_t delivered = stream.receive([](const wire::WireMessageView&) {});
      EXPECT_EQ(delivered, 2u) << "cut at " << length;  // intact frames still land
      EXPECT_EQ(stream.decode_errors(), 0u);            // truncation != corruption
      EXPECT_EQ(stream.pending_bytes(), length - last_begin);  // tail awaits more bytes
    }
  }
}

TEST(WireFuzz, BitFlipAtEveryByteOffsetOfTheLastFrameIsADecodeErrorNotACrash) {
  for (const bool with_data : {false, true}) {
    SCOPED_TRACE(with_data ? "frames carry a data payload" : "payload-free frames");
    const std::string bytes = encode_three_frames(with_data);
    const std::size_t last_begin = third_frame_begin(bytes);

    for (std::size_t offset = last_begin; offset < bytes.size(); ++offset) {
      std::string mutated = bytes;
      mutated[offset] = static_cast<char>(mutated[offset] ^ 0x01);
      wire::Stream stream = make_wire_stream(mutated);
      std::size_t valid = 0;
      const std::size_t delivered = stream.receive([&](const wire::WireMessageView& view) {
        // Whatever decodes must be internally consistent, not garbage.
        if (view.sender == "coordination" && (view.data != nullptr) == with_data) ++valid;
      });
      EXPECT_EQ(valid, delivered);
      EXPECT_GE(delivered, 2u) << "offset " << offset;  // intact prefix always lands
      // The flipped frame either failed its checksum / payload decode, or
      // (flip in the length prefix) turned into a partial or oversized frame.
      const bool rejected = stream.decode_errors() > 0;
      const bool still_pending = stream.pending_bytes() > 0;
      EXPECT_TRUE(rejected || still_pending || delivered == 3u) << "offset " << offset;
      // A third delivery would mean a 1-bit corruption slid through crc32c on
      // this frame — that is a codec bug, not bad luck.
      EXPECT_LT(delivered, 3u) << "offset " << offset;
    }
  }
}

/// Wraps `payload` in a frame with a valid header, so the bytes get past
/// the checksum and reach the payload decoder.
std::string frame_with_valid_crc(std::string_view payload) {
  std::string frame;
  store::Writer header(frame);
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u32(store::crc32c(payload));
  frame += payload;
  return frame;
}

/// The payload of a data-free frame minus its trailing presence byte: the
/// message fields of a valid frame, ready for a hand-built data section.
std::string payload_before_data() {
  AclMessage message;
  message.performative = Performative::Inform;
  message.sender = "ac-1";
  message.receiver = "coordination";
  message.protocol = "execute-activity";
  wire::Encoder encoder;
  std::string payload = encoder.encode(message).substr(wire::kFrameHeaderBytes);
  EXPECT_EQ(encoder.intern_size(), 3u);  // performative, protocol, ontology
  EXPECT_EQ(payload.back(), '\0');       // presence: no data
  payload.pop_back();
  return payload;
}

/// Appends the first property-name definition a data section behind
/// payload_before_data() may make (intern id 4).
void define_property_name(std::string& section, std::string_view name) {
  wire::put_varint(section, 0);
  wire::put_varint(section, 4);
  store::Writer(section).str(name);
}

/// Decodes `payload` with a fresh decoder; returns the error ("" on success).
std::string decode_error(std::string_view payload) {
  wire::Decoder decoder;
  wire::WireMessageView view;
  std::string error;
  if (decoder.decode_payload(payload, view, &error)) return "";
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(WireFuzz, ForgedDataCountsBeyondTheRemainingBytesAreRejected) {
  // Each count claims far more elements than the frame has bytes left; the
  // decoder must refuse before it sizes anything by it.
  const std::string base = payload_before_data();
  struct Case {
    const char* what;
    std::string section;
    const char* reason;
  };
  std::vector<Case> cases;
  {
    std::string s = "\x01";
    wire::put_varint(s, std::uint64_t{1} << 62);  // items
    cases.push_back({"item count", s, "item count"});
  }
  {
    std::string s = "\x01";
    wire::put_varint(s, 1);
    store::Writer(s).str("D1");
    wire::put_varint(s, 0xFFFFFFFFu);  // properties
    cases.push_back({"property count", s, "data item 'D1'"});
  }
  {
    std::string s = "\x01";
    wire::put_varint(s, 1);
    store::Writer(s).str("D1");
    wire::put_varint(s, 1);
    define_property_name(s, "Sources");
    s.push_back(static_cast<char>(meta::ValueType::List));
    wire::put_varint(s, std::uint64_t{1} << 40);  // list items
    cases.push_back({"list count", s, "list count"});
  }
  {
    std::string s = "\x01";
    wire::put_varint(s, 1);
    store::Writer(s).u32(0x7FFFFFFFu);  // item name length
    cases.push_back({"name length", s, "data item"});
  }
  for (const Case& c : cases) {
    const std::string error = decode_error(base + c.section);
    EXPECT_NE(error.find(c.reason), std::string::npos) << c.what << ": " << error;
  }
}

TEST(WireFuzz, DataNestingPastTheDepthCapIsRejectedWithAReason) {
  const auto section = [](int depth) {
    std::string s = "\x01";
    wire::put_varint(s, 1);
    store::Writer(s).str("deep");
    wire::put_varint(s, 1);
    define_property_name(s, "Value");
    for (int i = 0; i < depth; ++i) {
      s.push_back(static_cast<char>(meta::ValueType::List));
      wire::put_varint(s, 1);
    }
    s.push_back(static_cast<char>(meta::ValueType::None));
    return s;
  };
  const std::string base = payload_before_data();
  EXPECT_EQ(decode_error(base + section(wire::kMaxListDepth)), "");
  const std::string error = decode_error(base + section(wire::kMaxListDepth + 1));
  EXPECT_NE(error.find("depth cap"), std::string::npos) << error;
  // A hostile frame far deeper than the cap fails the same way, without
  // recursing once per level it claims.
  EXPECT_NE(decode_error(base + section(100000)).find("depth cap"), std::string::npos);
}

TEST(WireFuzz, MalformedDataTagsAreRejectedWithAReason) {
  const std::string base = payload_before_data();
  EXPECT_NE(decode_error(base + "\x02").find("presence"), std::string::npos);
  std::string bad_tag = "\x01";
  wire::put_varint(bad_tag, 1);
  store::Writer(bad_tag).str("D1");
  wire::put_varint(bad_tag, 1);
  define_property_name(bad_tag, "Size");
  std::string bad_bool = bad_tag;
  bad_tag.push_back('\x09');
  EXPECT_NE(decode_error(base + bad_tag).find("type tag"), std::string::npos);
  bad_bool.push_back(static_cast<char>(meta::ValueType::Boolean));
  bad_bool.push_back('\x02');
  EXPECT_NE(decode_error(base + bad_bool).find("boolean"), std::string::npos);
}

TEST(WireFuzz, FrameWithoutItsInternDefinitionsIsAStaleIdError) {
  // Deliver only the *last* frame of the conversation to a fresh decoder:
  // every vocabulary field is a reference into a table nobody built.
  const std::string bytes = encode_three_frames();
  std::string_view payload;
  std::size_t first = 0, second = 0;
  ASSERT_EQ(wire::peek_frame(bytes, payload, first), wire::FrameStatus::kFrame);
  ASSERT_EQ(wire::peek_frame(std::string_view(bytes).substr(first), payload, second),
            wire::FrameStatus::kFrame);

  wire::Stream stream = make_wire_stream(std::string_view(bytes).substr(first + second));
  const std::size_t delivered = stream.receive([](const wire::WireMessageView&) {});
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stream.decode_errors(), 1u);
  EXPECT_NE(stream.last_error().find("intern"), std::string::npos) << stream.last_error();
}

TEST(WireFuzz, ForgedInternIdsFarBeyondTheTableAreRejected) {
  // Hand-build a payload whose performative field references id 2^20: the
  // decoder must bounds-check before indexing.
  std::string payload;
  payload.push_back(static_cast<char>(wire::kWireVersion));
  wire::put_varint(payload, 1u << 20);  // interned performative: forged reference
  store::Writer(payload).str("s");      // sender; decode dies before needing the rest

  wire::Stream stream = make_wire_stream(frame_with_valid_crc(payload));
  const std::size_t delivered = stream.receive([](const wire::WireMessageView&) {});
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(stream.decode_errors(), 1u);
}

TEST(WireFuzz, OversizedLengthPrefixIsRejectedBeforeAnyAllocation) {
  for (const std::uint32_t claimed : {0xFFFFFFFFu, 0x7FFFFFFFu,
                                      static_cast<std::uint32_t>(wire::kMaxFramePayload) + 1}) {
    std::string bytes;
    store::Writer header(bytes);
    header.u32(claimed);
    header.u32(0xDEADBEEFu);
    bytes += std::string(64, 'x');
    wire::Stream stream = make_wire_stream(bytes);
    const std::size_t delivered = stream.receive([](const wire::WireMessageView&) {});
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(stream.decode_errors(), 1u) << claimed;
    EXPECT_NE(stream.last_error().find("length"), std::string::npos) << stream.last_error();
  }
}

TEST(WireFuzz, RandomGarbageBuffersNeverThrow) {
  std::mt19937_64 rng(2004);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(1 + rng() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    wire::Stream stream = make_wire_stream(garbage);
    stream.receive([](const wire::WireMessageView&) {});  // must simply not crash
  }
}

TEST(WireFuzz, RandomGarbageDataSectionsBehindAValidCrcNeverThrow) {
  // Random bytes in place of a payload-carrying frame's data section, framed
  // with a correct checksum so every trial reaches the data decoder.
  const std::string base = payload_before_data();
  std::mt19937_64 rng(2004);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string section(1 + rng() % 96, '\0');
    for (char& c : section) c = static_cast<char>(rng());
    section[0] = '\x01';  // claim a payload
    wire::Stream stream = make_wire_stream(frame_with_valid_crc(base + section));
    const std::size_t delivered = stream.receive([](const wire::WireMessageView& view) {
      EXPECT_NE(view.data, nullptr);
    });
    EXPECT_EQ(delivered + stream.decode_errors(), 1u);
    rejected += stream.decode_errors();
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ig::svc
