//===- support/Compiler.h - portability and hint macros ------------------===//
//
// Part of the manticore-gc project: a reproduction of "Garbage Collection
// for Multicore NUMA Machines" (Auhagen, Bergstrom, Fluet, Reppy, 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small set of compiler hint and portability macros used across the
/// project. Follows the spirit of llvm/Support/Compiler.h.
///
//===----------------------------------------------------------------------===//

#ifndef MANTI_SUPPORT_COMPILER_H
#define MANTI_SUPPORT_COMPILER_H

#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define MANTI_LIKELY(EXPR) __builtin_expect(static_cast<bool>(EXPR), true)
#define MANTI_UNLIKELY(EXPR) __builtin_expect(static_cast<bool>(EXPR), false)
#define MANTI_NOINLINE __attribute__((noinline))
#define MANTI_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MANTI_LIKELY(EXPR) (EXPR)
#define MANTI_UNLIKELY(EXPR) (EXPR)
#define MANTI_NOINLINE
#define MANTI_ALWAYS_INLINE inline
#endif

namespace manti {

/// Size, in bytes, assumed for one cache line when padding shared state.
inline constexpr std::size_t CacheLineSize = 64;

} // namespace manti

#endif // MANTI_SUPPORT_COMPILER_H
