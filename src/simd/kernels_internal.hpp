// Internal glue between dispatch.cpp and the per-level kernel files. The
// AVX2 table is built on top of the scalar one, and every other host runs
// the scalar reference.
#pragma once

#include "simd/simd.hpp"

#include <cstdint>

namespace inframe::simd {

// The scalar reference implementations, visible to every level so vector
// files can delegate lane/element tails to the exact reference code.
namespace scalar {
#define INFRAME_SIMD_KERNEL(name, ret, args) ret name args;
#include "simd/kernel_list.def"
#undef INFRAME_SIMD_KERNEL
} // namespace scalar

// Constants of the in-tree log, sin and cos behind box_muller_f64, shared
// so that every level evaluates the same polynomials. They are fdlibm's:
// e_log.c (ln2 split, Lg1..Lg7), k_sin.c (S1..S6), k_cos.c (C1..C6) and the
// medium-size pi/2 reduction of e_rem_pio2.c (invpio2, pio2_1, pio2_1t).
namespace box_muller {
inline constexpr double ln2_hi = 0x1.62e42feep-1;
inline constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
inline constexpr double Lg1 = 0x1.5555555555593p-1;
inline constexpr double Lg2 = 0x1.999999997fa04p-2;
inline constexpr double Lg3 = 0x1.2492494229359p-2;
inline constexpr double Lg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double Lg5 = 0x1.7466496cb03dep-3;
inline constexpr double Lg6 = 0x1.39a09d078c69fp-3;
inline constexpr double Lg7 = 0x1.2f112df3e5244p-3;
inline constexpr double S1 = -0x1.5555555555549p-3;
inline constexpr double S2 = 0x1.111111110f8a6p-7;
inline constexpr double S3 = -0x1.a01a019c161d5p-13;
inline constexpr double S4 = 0x1.71de357b1fe7dp-19;
inline constexpr double S5 = -0x1.ae5e68a2b9cebp-26;
inline constexpr double S6 = 0x1.5d93a5acfd57cp-33;
inline constexpr double C1 = 0x1.555555555554cp-5;
inline constexpr double C2 = -0x1.6c16c16c15177p-10;
inline constexpr double C3 = 0x1.a01a019cb159p-16;
inline constexpr double C4 = -0x1.27e4f809c52adp-22;
inline constexpr double C5 = 0x1.1ee9ebdb4b1c4p-29;
inline constexpr double C6 = -0x1.8fae9be8838d4p-37;
inline constexpr double invpio2 = 0x1.45f306dc9c883p-1;
// pi/2 = pio2_1 + pio2_1t to 86 bits; pio2_1 has 33, so n * pio2_1 is
// exact for the n <= 4 of an angle in [0, 2 pi).
inline constexpr double pio2_1 = 0x1.921fb544p+0;
inline constexpr double pio2_1t = 0x1.0b4611a626331p-34;
// 2 pi rounded to double: the angle is two_pi * u2, as util::Prng has it.
inline constexpr double two_pi = 0x1.921fb54442d18p+2;
// (x + round_shift) - round_shift rounds |x| < 2^51 to the nearest
// integer (ties to even), and the sum's low mantissa bits hold that
// integer; (0x1.8p52 + k) read as an integer is this + k.
inline constexpr double round_shift = 0x1.8p52;
inline constexpr std::uint64_t round_shift_bits = 0x4338'0000'0000'0000;
} // namespace box_muller

} // namespace inframe::simd

namespace inframe::simd::detail {

Kernels scalar_table();

// Compiled on every platform; without AVX2 at compile time it returns
// `base` unchanged (dispatch.cpp never selects the level there anyway).
Kernels avx2_table(Kernels base);

} // namespace inframe::simd::detail
