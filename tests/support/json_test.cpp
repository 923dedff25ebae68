//===- json_test.cpp - The shared JSON string escaper ---------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <string>

using namespace cobalt;
using support::jsonEscape;

namespace {

TEST(JsonEscapeTest, PlainTextPassesThrough) {
  EXPECT_EQ(jsonEscape(""), "");
  EXPECT_EQ(jsonEscape("const_prop @ main:4"), "const_prop @ main:4");
}

TEST(JsonEscapeTest, QuotesAndBackslash) {
  EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("\"\\\""), "\\\"\\\\\\\"");
}

TEST(JsonEscapeTest, ShortFormControls) {
  EXPECT_EQ(jsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(jsonEscape("\n\n"), "\\n\\n");
}

TEST(JsonEscapeTest, OtherControlBytesUseUnicodeEscapes) {
  EXPECT_EQ(jsonEscape(std::string("\0", 1)), "\\u0000");
  EXPECT_EQ(jsonEscape("\x01"), "\\u0001");
  EXPECT_EQ(jsonEscape("\x08\x0c"), "\\u0008\\u000c");
  EXPECT_EQ(jsonEscape("x\x1fy"), "x\\u001fy");
  // 0x7f (DEL) is not a JSON control character.
  EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
}

TEST(JsonEscapeTest, Utf8PassesThroughUnchanged) {
  const std::string Utf8 = "\xce\xb7(Y) \xe2\x87\x92 \xf0\x9f\x94\x92";
  EXPECT_EQ(jsonEscape(Utf8), Utf8);
  EXPECT_EQ(jsonEscape("\xe2\x80\x94\"\n"), "\xe2\x80\x94\\\"\\n");
}

} // namespace
