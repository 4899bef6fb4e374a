// Register values of unbounded size.
//
// The paper's model gives every shared register "an unbounded size": a
// register may hold a process id, an n-bit integer, or (in the Group-Update
// universal construction) the entire state of the implemented object plus
// bookkeeping. Value is an immutable, cheaply copyable, type-erased handle
// over any equality-comparable, printable payload. Copying a Value never
// copies the payload (shared immutable ownership), so moving whole object
// states between registers is O(1) — matching the model, where a move or
// swap of an arbitrarily large word is a single operation.
#ifndef LLSC_MEMORY_VALUE_H_
#define LLSC_MEMORY_VALUE_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>

#include "util/bigint.h"
#include "util/check.h"
#include "util/rng.h"

namespace llsc {

namespace internal {

// Abstract payload. Payloads are immutable once wrapped in a Value.
class ValuePayload {
 public:
  virtual ~ValuePayload() = default;
  // `other` is guaranteed to have the same dynamic type.
  virtual bool equals_same_type(const ValuePayload& other) const = 0;
  virtual std::string to_string() const = 0;
  virtual std::size_t hash() const = 0;
  virtual const std::type_info& type() const = 0;
  // Bits needed to encode this value in a real register, or SIZE_MAX when
  // the payload is a structured object with no a-priori bound (the paper's
  // "unbounded size" registers). Used by the Section 7 width counters.
  virtual std::size_t encoded_bits() const = 0;
};

template <typename T>
concept HasMemberEncodedBits = requires(const T& t) {
  { t.encoded_bits() } -> std::convertible_to<std::size_t>;
};

template <typename T>
concept HasMemberToString = requires(const T& t) {
  { t.to_string() } -> std::convertible_to<std::string>;
};

template <typename T>
concept HasMemberHash = requires(const T& t) {
  { t.hash() } -> std::convertible_to<std::size_t>;
};

template <typename T>
class TypedPayload final : public ValuePayload {
 public:
  explicit TypedPayload(T v) : v_(std::move(v)) {}
  const T& get() const { return v_; }

  bool equals_same_type(const ValuePayload& other) const override {
    return v_ == static_cast<const TypedPayload<T>&>(other).v_;
  }
  std::string to_string() const override {
    if constexpr (HasMemberToString<T>) {
      return v_.to_string();
    } else {
      return std::string("<") + typeid(T).name() + ">";
    }
  }
  std::size_t hash() const override {
    if constexpr (HasMemberHash<T>) {
      return v_.hash();
    } else if constexpr (HasMemberToString<T>) {
      return std::hash<std::string>{}(v_.to_string());
    } else {
      return 0;
    }
  }
  std::size_t encoded_bits() const override {
    if constexpr (HasMemberEncodedBits<T>) {
      return v_.encoded_bits();
    } else {
      return ~std::size_t{0};  // structured payload: unbounded
    }
  }
  const std::type_info& type() const override { return typeid(T); }

 private:
  T v_;
};

}  // namespace internal

// Immutable register value. Default-constructed Value is "nil", the
// distinguished initial content of every register.
//
// u64 payloads are stored inline in the handle rather than behind a
// shared_ptr: the hw backend's inline register words promise zero
// allocations on its hot path, and a heap box for every counter bump
// would break that promise one layer up. Observable semantics (printing,
// hashing, equality — a u64 is still never equal to a BigInt) are
// unchanged.
class Value {
 public:
  Value() = default;

  static Value of_u64(std::uint64_t v) {
    Value out;
    out.u64_ = v;
    out.holds_u64_ = true;
    return out;
  }
  static Value of_big(BigInt v);
  static Value of_string(std::string v);

  // Wrap any payload type T with operator== (and ideally to_string()/hash()
  // members, used for tracing and state hashing).
  template <typename T>
    requires std::equality_comparable<T>
  static Value of(T payload) {
    Value v;
    v.payload_ =
        std::make_shared<internal::TypedPayload<T>>(std::move(payload));
    return v;
  }

  bool is_nil() const { return payload_ == nullptr && !holds_u64_; }

  // Typed access; returns nullptr if the value is nil or holds another type
  // (u64 payloads are inline, not boxed — use as_u64/holds_u64 for those).
  template <typename T>
  const T* get_if() const {
    if (payload_ == nullptr || payload_->type() != typeid(T)) return nullptr;
    return &static_cast<const internal::TypedPayload<T>&>(*payload_).get();
  }

  // Convenience accessors with precondition checks.
  std::uint64_t as_u64() const {
    LLSC_EXPECTS(holds_u64_, "Value does not hold a u64");
    return u64_;
  }
  const BigInt& as_big() const;
  const std::string& as_string() const;
  bool holds_u64() const { return holds_u64_; }
  bool holds_big() const;

  // Structural equality: same payload type and equal payloads. nil == nil.
  bool operator==(const Value& rhs) const;
  bool operator!=(const Value& rhs) const = default;

  std::string to_string() const;
  std::size_t hash() const;

  // Bits needed to store this value in a register: 0 for nil, the bit
  // length for integers, 8 per byte for strings, SIZE_MAX for structured
  // payloads without a HasMemberEncodedBits hook. The width counters
  // (memory/storage_policy.h) read it at every completed install.
  std::size_t encoded_bits() const;

 private:
  std::shared_ptr<const internal::ValuePayload> payload_;
  // Inline u64 payload; meaningful only when holds_u64_ (payload_ is then
  // null — a Value holds exactly one of {nothing, a u64, a boxed payload}).
  std::uint64_t u64_ = 0;
  bool holds_u64_ = false;
};

}  // namespace llsc

#endif  // LLSC_MEMORY_VALUE_H_
