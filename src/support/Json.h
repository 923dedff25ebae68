//===- Json.h - JSON string escaping ----------------------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper behind every document the system writes:
/// --report=json and daemon responses (api/ReportJson, service/), the
/// telemetry dumps (Chrome trace, metrics, flight recorder), and the
/// cobalt-fuzz summaries. One escaper means one set of bytes for the
/// same string wherever it is serialized.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_SUPPORT_JSON_H
#define COBALT_SUPPORT_JSON_H

#include <string>
#include <string_view>

namespace cobalt {
namespace support {

/// Escapes \p S for embedding inside a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`/`\r`/`\t` use their short forms, every
/// other byte below 0x20 becomes `\u00XX`, and everything else (UTF-8
/// included) passes through unchanged.
std::string jsonEscape(std::string_view S);

} // namespace support
} // namespace cobalt

#endif // COBALT_SUPPORT_JSON_H
