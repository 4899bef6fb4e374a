#include "memory/reclaim_policy.h"

#include "util/check.h"

namespace llsc {

std::string to_string(ReclaimPolicy policy) {
  switch (policy) {
    case ReclaimPolicy::kEpoch:
      return "epoch";
    case ReclaimPolicy::kHazard:
      return "hazard";
  }
  LLSC_UNREACHABLE("bad ReclaimPolicy");
}

ReclaimPolicy default_reclaim_policy() { return ReclaimPolicy::kHazard; }

}  // namespace llsc
