// The two register-storage policies (memory/storage_policy.h) as a gtest
// parameter. Every hw suite runs its executor-level cases under both, so
// each CI leg covers boxed nodes and inline tagged words alike.
#ifndef LLSC_TESTS_STORAGE_PARAM_H_
#define LLSC_TESTS_STORAGE_PARAM_H_

#include <gtest/gtest.h>

#include <string>

#include "memory/storage_policy.h"

namespace llsc {

inline auto both_storage_policies() {
  return ::testing::Values(StoragePolicy::kBoxed, StoragePolicy::kInline);
}

inline std::string storage_param_name(
    const ::testing::TestParamInfo<StoragePolicy>& info) {
  return info.param == StoragePolicy::kBoxed ? "Boxed" : "Inline";
}

}  // namespace llsc

#endif  // LLSC_TESTS_STORAGE_PARAM_H_
