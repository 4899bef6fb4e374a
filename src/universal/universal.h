// Universal constructions (paper Sections 1.1 and 6).
//
// A universal construction turns the sequential specification of any type T
// into a wait-free linearizable n-process shared object of type T. It is
// *oblivious* when it never exploits T's semantics — both constructions
// here are: they treat operations as opaque (name, argument) pairs and
// apply them through SequentialObject::apply.
//
// The paper's headline results, in terms of this interface:
//   * lower bound — any object obtained from ANY oblivious universal
//     construction over LL/SC/VL/swap/move memory costs some process
//     Ω(log n) shared-memory operations per implemented operation;
//   * tightness — GroupUpdateUC (universal/group_update.h) achieves
//     O(log n) worst-case when register size is unrestricted;
//   * baseline — SingleRegisterUC (universal/single_register.h) is the
//     classic O(n) helping construction the paper's open-problems section
//     cites as the best practical bound;
//   * beyond the bound — CombiningUniversal (universal/combining.h) trades
//     the per-process guarantee for batch throughput: one winner installs
//     every pending operation with a single SC, so system throughput
//     scales with batch size (lock-free, not wait-free).
//
// make_universal(name, ...) is the registry benches and workloads use to
// pick a construction by name without linking against each header.
#ifndef LLSC_UNIVERSAL_UNIVERSAL_H_
#define LLSC_UNIVERSAL_UNIVERSAL_H_

#include <memory>
#include <string>
#include <vector>

#include "objects/object.h"
#include "runtime/process.h"
#include "runtime/sub_task.h"

namespace llsc {

class UniversalConstruction {
 public:
  virtual ~UniversalConstruction() = default;

  // Executes one operation on the implemented object on behalf of the
  // calling process (ctx.id()). Wait-free for the tree/register
  // constructions; CombiningUniversal is lock-free (see its header).
  virtual SubTask<Value> execute(ProcCtx ctx, ObjOp op) = 0;

  // Worst-case number of shared-memory operations execute() performs
  // (the construction's shared-access time complexity). Lock-free
  // constructions report their fault-free one-outstanding-op bound and
  // say so in their header.
  virtual std::uint64_t worst_case_shared_ops() const = 0;

  virtual std::string name() const = 0;
};

// Registry of constructions buildable by name: "group-update",
// "single-register", "consensus-based", "combining" (the names each
// construction's name() reports). DirectFetchAdd lives outside the
// registry — it is type-specific, not universal (src/direct). Aborts via
// LLSC_CHECK on an unknown name.
std::unique_ptr<UniversalConstruction> make_universal(
    const std::string& name, int n, ObjectFactory factory, RegId base = 0);

// The registry's names, in a stable documentation order.
const std::vector<std::string>& universal_construction_names();

}  // namespace llsc

#endif  // LLSC_UNIVERSAL_UNIVERSAL_H_
