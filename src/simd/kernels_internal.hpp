// Internal glue between dispatch.cpp and the per-level kernel files.
// Each vector level builds its table on top of the scalar one (scalar ->
// avx2 on x86-64; scalar -> neon on aarch64), so a kernel a level does not
// re-implement falls back to the reference.
#pragma once

#include "simd/simd.hpp"

namespace inframe::simd {

// The scalar reference implementations, visible to every level so vector
// files can delegate lane/element tails to the exact reference code.
namespace scalar {
#define INFRAME_SIMD_KERNEL(name, ret, args) ret name args;
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
} // namespace scalar

} // namespace inframe::simd

namespace inframe::simd::detail {

Kernels scalar_table();

// Compiled on every platform; on a platform without the ISA they return
// `base` unchanged (dispatch.cpp never selects the level there anyway).
Kernels avx2_table(Kernels base);
Kernels neon_table(Kernels base);

} // namespace inframe::simd::detail
