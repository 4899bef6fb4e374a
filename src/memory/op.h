// Shared-memory operation descriptors and per-op records.
//
// The paper's model supports exactly five shared-memory operations: LL, SC,
// validate, swap, and move. A PendingOp describes the operation a suspended
// process is *about to* perform — this is what the Fig. 2 adversary inspects
// to partition processes into the LL/validate, move, swap and SC groups.
// An OpRecord additionally carries the result, for the adversary's round
// records and the UP-set update rules, which need to know (for example)
// which SCs in a round succeeded and in what order swaps were applied.
#ifndef LLSC_MEMORY_OP_H_
#define LLSC_MEMORY_OP_H_

#include <cstdint>
#include <string>

#include "memory/rmw.h"
#include "memory/value.h"

namespace llsc {

// Process index in [0, n).
using ProcId = int;
// Register index; registers are unbounded in number.
using RegId = std::uint64_t;

enum class OpKind : std::uint8_t {
  kLL,
  kSC,
  kValidate,
  kSwap,
  kMove,
  // The optional strong operation of Section 7 (NOT one of the paper's
  // five; the Fig. 2 adversary refuses to schedule it — see op_group()).
  kRmw,
};

const char* op_kind_name(OpKind kind);

// The four scheduling groups of the adversary's round (paper Fig. 2).
// LL and validate share a group; the other kinds each get their own.
// kRmw has no group: the lower bound (and hence the adversary) covers
// only LL/SC/VL/swap/move, so op_group() rejects RMW steps.
enum class OpGroup : std::uint8_t {
  kLoad = 0,   // LL or validate
  kMove = 1,
  kSwap = 2,
  kStoreConditional = 3,
};

OpGroup op_group(OpKind kind);
const char* op_group_name(OpGroup group);

// A shared-memory operation a process is about to perform.
struct PendingOp {
  OpKind kind = OpKind::kLL;
  RegId reg = 0;       // target register (destination register for move)
  RegId src = 0;       // source register (move only)
  Value arg;           // value to store (SC and swap only)
  std::shared_ptr<const RmwFunction> rmw;  // transformation (RMW only)

  std::string to_string() const;
};

// The response of a shared-memory operation.
struct OpResult {
  // SC: success flag; validate: link-still-valid flag; others: unused (true).
  bool flag = true;
  // LL/validate/swap: the value read; SC: the previous value (on success) or
  // the current value (on failure); move: nil (move returns only an ack).
  Value value;

  std::string to_string() const;
};

// One executed shared-memory step, as a round record keeps it.
struct OpRecord {
  ProcId proc = -1;
  PendingOp op;
  OpResult result;
  // Sequence number of the step within the run (0-based, shared-memory
  // steps only; coin tosses are not shared-memory steps).
  std::uint64_t step_index = 0;

  std::string to_string() const;
};

}  // namespace llsc

#endif  // LLSC_MEMORY_OP_H_
