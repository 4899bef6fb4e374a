// Kept because perfbench/src/report.h includes it; the register storage
// lives in HwMemory (hw/hw_memory.h).
#ifndef LLSC_HW_REGISTER_STORAGE_H_
#define LLSC_HW_REGISTER_STORAGE_H_

#include "hw/hw_memory.h"

#endif  // LLSC_HW_REGISTER_STORAGE_H_
