#include "core/audit.h"

namespace llsc {

std::string WidthAudit::summary() const {
  if (!bounded) {
    return "UNBOUNDED (structured payload written: " + widest_write + ")";
  }
  return std::to_string(max_bits) + " bits (widest: " + widest_write + ")";
}

WidthAudit audit_register_widths(const std::vector<OpRecord>& trace) {
  WidthAudit audit;
  for (const OpRecord& rec : trace) {
    const bool writes_arg =
        rec.op.kind == OpKind::kSwap ||
        (rec.op.kind == OpKind::kSC && rec.result.flag);
    if (!writes_arg) continue;
    ++audit.writes_inspected;
    const std::size_t bits = rec.op.arg.encoded_bits();
    if (bits == ~std::size_t{0}) {
      audit.bounded = false;
      audit.max_bits = ~std::size_t{0};
      audit.widest_write = rec.op.to_string();
      // Keep scanning only for the count; the verdict cannot change back.
      continue;
    }
    if (audit.bounded && bits > audit.max_bits) {
      audit.max_bits = bits;
      audit.widest_write = rec.op.to_string();
    }
  }
  return audit;
}

}  // namespace llsc
