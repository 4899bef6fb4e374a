// Register-width auditing (paper Section 7, "Open problems").
//
// The O(log n) upper bound "makes impractical assumptions on the size of
// registers" — the Group-Update construction stores whole object states
// and announce sets in single registers. The paper's open problem asks
// what happens when registers are restricted to O(log n) bits. This
// auditor makes the distinction measurable: given a run's transcript, it
// reports the widest value any algorithm ever wrote to a register.
//
//   tournament wakeup     writes counts <= n       -> O(log n) bits
//   naive counter wakeup  writes counts <= n       -> O(log n) bits
//   Group-Update / consensus-based constructions
//                         write announce sets and object snapshots
//                                                  -> unbounded
//
// So our log-time *wakeup* algorithm lives within the practical register
// regime, while the log-time *universal construction* does not — exactly
// the gap Section 7 highlights.
#ifndef LLSC_CORE_AUDIT_H_
#define LLSC_CORE_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "memory/op.h"

namespace llsc {

struct WidthAudit {
  // Widest value written to any register (bits); SIZE_MAX if any written
  // value was a structured payload with no a-priori encoding bound.
  std::size_t max_bits = 0;
  bool bounded = true;
  // Total number of writes inspected (successful SCs and swaps; moves copy
  // existing contents and add no new width).
  std::uint64_t writes_inspected = 0;
  // Rendering of the widest write, for reports.
  std::string widest_write;

  std::string summary() const;
};

// Audits every value written during the traced run by the paper's five
// operations (successful SC and swap install new values; moves copy
// existing ones). RMW-written values are not visible in OpRecords (the
// record carries the OLD value) and are out of the audit's scope — the
// Section 7 question is about the five-operation model anyway. The System
// must have been run with recording enabled.
WidthAudit audit_register_widths(const std::vector<OpRecord>& trace);

}  // namespace llsc

#endif  // LLSC_CORE_AUDIT_H_
