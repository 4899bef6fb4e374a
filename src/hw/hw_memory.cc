#include "hw/hw_memory.h"

#include <utility>

#include "util/check.h"

namespace llsc {

HwMemory::HwMemory(std::size_t num_registers, int num_threads,
                   const BackoffOptions& backoff, StoragePolicy storage,
                   ReclaimPolicy reclaim, int reclaim_slots)
    : storage_(storage, num_registers, num_threads, backoff, reclaim,
               reclaim_slots) {}

OpResult HwMemory::apply(ProcId p, const PendingOp& op) {
  switch (op.kind) {
    case OpKind::kLL:
      return OpResult{.flag = true, .value = ll(p, op.reg)};
    case OpKind::kSC:
      return sc(p, op.reg, op.arg);
    case OpKind::kValidate:
      return validate(p, op.reg);
    case OpKind::kSwap:
      return OpResult{.flag = true, .value = swap(p, op.reg, op.arg)};
    case OpKind::kMove:
      move(p, op.src, op.reg);
      return OpResult{.flag = true, .value = Value{}};
    case OpKind::kRmw:
      LLSC_EXPECTS(op.rmw != nullptr, "RMW op without a function");
      return OpResult{.flag = true, .value = rmw(p, op.reg, *op.rmw)};
  }
  LLSC_UNREACHABLE("bad OpKind");
}

}  // namespace llsc
