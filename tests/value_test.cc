// Tests for memory/value.h: nil semantics, typed payloads, equality, hash,
// encoded width.
#include "memory/value.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "util/bigint.h"

namespace llsc {
namespace {

struct Point {
  int x = 0;
  int y = 0;
  bool operator==(const Point&) const = default;
  std::string to_string() const {
    return "(" + std::to_string(x) + "," + std::to_string(y) + ")";
  }
};

TEST(Value, DefaultIsNil) {
  Value v;
  EXPECT_TRUE(v.is_nil());
  EXPECT_EQ(v.to_string(), "nil");
  EXPECT_EQ(v.hash(), 0u);
  EXPECT_EQ(v, Value{});
}

TEST(Value, U64RoundTrip) {
  const Value v = Value::of_u64(42);
  EXPECT_FALSE(v.is_nil());
  EXPECT_TRUE(v.holds_u64());
  EXPECT_EQ(v.as_u64(), 42u);
  EXPECT_EQ(v.to_string(), "42");
}

TEST(Value, BigRoundTrip) {
  const Value v = Value::of_big(BigInt::pow2(100));
  EXPECT_TRUE(v.holds_big());
  EXPECT_FALSE(v.holds_u64());
  EXPECT_EQ(v.as_big(), BigInt::pow2(100));
}

TEST(Value, StringRoundTrip) {
  const Value v = Value::of_string("hello");
  EXPECT_EQ(v.as_string(), "hello");
  EXPECT_EQ(v.to_string(), "\"hello\"");
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::of_u64(7), Value::of_u64(7));
  EXPECT_NE(Value::of_u64(7), Value::of_u64(8));
  EXPECT_NE(Value::of_u64(7), Value{});
  // Same number under different payload types is NOT equal.
  EXPECT_NE(Value::of_u64(7), Value::of_big(BigInt(7)));
}

TEST(Value, EqualHashesForEqualValues) {
  EXPECT_EQ(Value::of_u64(99).hash(), Value::of_u64(99).hash());
  EXPECT_EQ(Value::of_string("x").hash(), Value::of_string("x").hash());
}

TEST(Value, CustomPayload) {
  const Value a = Value::of(Point{1, 2});
  const Value b = Value::of(Point{1, 2});
  const Value c = Value::of(Point{3, 4});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.to_string(), "(1,2)");
  ASSERT_NE(a.get_if<Point>(), nullptr);
  EXPECT_EQ(a.get_if<Point>()->x, 1);
  EXPECT_EQ(a.get_if<BigInt>(), nullptr);
}

TEST(Value, EncodedBits) {
  EXPECT_EQ(Value{}.encoded_bits(), 0u);
  EXPECT_EQ(Value::of_u64(0).encoded_bits(), 1u);
  EXPECT_EQ(Value::of_u64(1).encoded_bits(), 1u);
  EXPECT_EQ(Value::of_u64(255).encoded_bits(), 8u);
  EXPECT_EQ(Value::of_u64(256).encoded_bits(), 9u);
  EXPECT_EQ(Value::of_big(BigInt::pow2(100)).encoded_bits(), 101u);
  EXPECT_EQ(Value::of_string("ab").encoded_bits(), 16u);
  // Structured payloads without an encoded_bits hook are unbounded.
  EXPECT_EQ(Value::of(Point{1, 2}).encoded_bits(), ~std::size_t{0});
}

TEST(Value, CopyIsCheapAliasing) {
  const Value a = Value::of_string(std::string(10000, 'x'));
  const Value b = a;  // shares the payload
  EXPECT_EQ(a, b);
  EXPECT_EQ(&a.as_string(), &b.as_string());
}

TEST(Value, GetIfOnNil) {
  Value v;
  EXPECT_EQ(v.get_if<Point>(), nullptr);
  EXPECT_FALSE(v.holds_u64());
}

}  // namespace
}  // namespace llsc
