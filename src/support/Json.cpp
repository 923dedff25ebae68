//===- Json.cpp -----------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

using namespace cobalt;

std::string support::jsonEscape(std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(S.size());
  // Copy runs of plain bytes in one append; only the escaped bytes are
  // handled one at a time.
  size_t Run = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += "\\u00";
      Out += Hex[C >> 4];
      Out += Hex[C & 0xf];
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
  return Out;
}
