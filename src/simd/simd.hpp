// Runtime-dispatched SIMD kernel layer.
//
// Two loops the compiler cannot vectorize from plain C++ funnel through
// the function-pointer table below: the box blur's horizontal pass
// (sliding windows over strided streams, one stream per vector lane) and
// the camera's sensor noise (Box-Muller with an in-tree log, sin and cos).
// Every other hot loop is plain C++ that the compiler vectorizes for the
// build target. A scalar reference implementation is always built, plus
// AVX2 on x86-64 (hardware permitting); other hosts run the reference. The
// active table is chosen once, at first use:
//
//   INFRAME_SIMD=scalar|avx2   overrides auto-detection (a level the host
//                              cannot run falls back to the best supported
//                              one; any other name throws)
//
// Determinism contract: every vector kernel is bit-identical to the
// scalar reference, because each lane replays the reference's op sequence
// (see kernel_list.def). Decoded payload bits are
// therefore identical at every SIMD level, which
// tests/core/test_parallel_determinism.cpp pins end to end and
// tests/simd/test_kernel_parity.cpp pins kernel by kernel with a seeded
// differential fuzzer. That harness is the acceptance gate for every new
// kernel: a kernel added to kernel_list.def without a parity adapter
// fails the build at configure time (tests/CMakeLists.txt guard).
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace inframe::simd {

enum class Level : int { scalar = 0, avx2 = 1 };

const char* to_string(Level level);

// Dispatch table: one function pointer per kernel in kernel_list.def.
struct Kernels {
#define INFRAME_SIMD_KERNEL(name, ret, args) ret(*name) args = nullptr;
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
};

// Highest level this host can execute (scalar is always supported).
Level best_supported();

// Every level this host can execute, ascending (always starts at scalar).
std::span<const Level> available_levels();

// The level in effect: INFRAME_SIMD override (read once) or
// best_supported(), unless set_active_level() replaced it.
Level active_level();

// The dispatch table for the active level. Cheap (one atomic load); hot
// loops should still hoist the reference out of per-pixel code.
const Kernels& kernels();

// Table for a specific level; `level` must be in available_levels().
const Kernels& kernels_for(Level level);

// Test/bench hook: force a level (must be supported). Returns the
// previous level. Not safe to call concurrently with running kernels.
Level set_active_level(Level level);

// Parses "scalar" | "avx2" (case-insensitive); throws
// Contract_violation on anything else.
Level level_from_name(const std::string& name);

} // namespace inframe::simd
