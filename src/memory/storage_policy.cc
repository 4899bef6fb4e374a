#include "memory/storage_policy.h"

#include "util/check.h"

namespace llsc {

std::string to_string(StoragePolicy policy) {
  switch (policy) {
    case StoragePolicy::kBoxed:
      return "boxed";
    case StoragePolicy::kInline:
      return "inline";
  }
  LLSC_UNREACHABLE("bad StoragePolicy");
}

StoragePolicy default_storage_policy() { return StoragePolicy::kInline; }

bool value_fits_inline(const Value& v) {
  return v.is_nil() || (v.holds_u64() && v.as_u64() <= kInlineMaxU64);
}

std::uint64_t inline_tag(std::uint64_t word) {
  return word >> (64 - kInlineTagBits);
}

std::uint64_t next_inline_tag(std::uint64_t tag) { return tag + 1; }

std::uint64_t encode_inline(const Value& v, std::uint64_t tag) {
  LLSC_EXPECTS(tag >= 1 && tag <= kInlineTagPeriod, "inline tag out of range");
  LLSC_EXPECTS(value_fits_inline(v), "value does not fit in an inline word");
  const std::uint64_t payload = v.is_nil() ? 0 : v.as_u64() + 1;
  return (tag << (64 - kInlineTagBits)) | (payload << 1) | 1;
}

Value decode_inline(std::uint64_t word) {
  LLSC_EXPECTS((word & 1) != 0, "not an inline word");
  const std::uint64_t payload =
      (word >> 1) & ((std::uint64_t{1} << kInlinePayloadBits) - 1);
  return payload == 0 ? Value{} : Value::of_u64(payload - 1);
}

}  // namespace llsc
