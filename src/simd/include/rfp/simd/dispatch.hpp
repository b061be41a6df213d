#pragma once

/// \file dispatch.hpp
/// Runtime CPU dispatch for the rfp::simd micro-kernels (DESIGN.md
/// "Vectorized kernels"). The instruction set is probed once per process
/// (cpuid) and every kernel call routes through the chosen level; the
/// scalar fallback is always available and bit-identical to the vector
/// path, so dispatch never changes results — only speed.
///
/// Overrides:
///  - build: -DRFP_DISABLE_SIMD=ON compiles the vector kernels out
///    entirely (non-x86 hosts, or pinning the fallback under sanitizers);
///  - process: RFP_FORCE_SCALAR (any value other than "", "0", "false",
///    "off") forces the scalar path.

namespace rfp::simd {

enum class Level {
  kScalar = 0,  ///< portable fallback, std::fma arithmetic
  kAvx2 = 1,    ///< AVX2 + FMA, 4-8 cells per instruction
};

/// Short stable name for logs/benches: "scalar" or "avx2".
const char* name(Level level);

/// True when the AVX2 kernel translation unit was compiled in (the build
/// was not configured with -DRFP_DISABLE_SIMD and the compiler supports
/// the required target flags).
bool compiled_avx2();

/// The best level the running CPU supports, probed once (cpuid: AVX2 and FMA
/// for kAvx2). kScalar when nothing vector was compiled in.
Level detected();

/// detected(), unless the RFP_FORCE_SCALAR environment variable demands
/// the scalar path. Read once per process, like detected().
Level active();

/// Pure resolution of an RFP_FORCE_SCALAR value against a detected level,
/// exposed for tests: any truthy value yields kScalar; unset, empty, "0",
/// "false" and "off" pass `detected_level` through. `force_scalar_env` is
/// the raw variable value (nullptr = unset).
Level resolve_level(Level detected_level, const char* force_scalar_env);

}  // namespace rfp::simd
