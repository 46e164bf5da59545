// XML serialization of AclMessage — the baseline the binary codec replaces.
//
// This is how the single-process tier would naturally externalize a message
// (the middleware is XML-everywhere), kept as the comparison point for
// bench_wire_throughput and as the interop form for XML-speaking peers.
// Every field travels as an attribute: our parser returns attribute values
// verbatim (no whitespace stripping), so tabs/newlines round-trip — but
// XML 1.0 has no representation for the remaining C0 control characters,
// so a message carrying them is *rejected with a reason naming the field*
// (std::invalid_argument) instead of being silently corrupted. Arbitrary
// binary payloads and typed data sets belong on the binary codec, which
// round-trips both.
#pragma once

#include <string>
#include <string_view>

#include "agent/message.hpp"

namespace ig::wire {

/// Serializes to an <acl .../> document. Throws std::invalid_argument when
/// a field contains bytes XML 1.0 cannot represent (control characters
/// other than tab/LF/CR), naming the offending field, and when the message
/// carries a typed `data` payload, which this form has no element for.
std::string acl_to_xml(const agent::AclMessage& message);

/// Parses acl_to_xml's output. Throws xml::ParseError on malformed input
/// (including an unknown performative).
agent::AclMessage acl_from_xml(std::string_view text);

}  // namespace ig::wire
