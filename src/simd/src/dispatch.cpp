#include "rfp/simd/dispatch.hpp"

#include <cstdlib>
#include <cstring>

namespace rfp::simd {

const char* name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

bool compiled_avx2() {
#if defined(RFP_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

Level detected() {
#if defined(RFP_HAVE_AVX2)
  static const Level level =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
          ? Level::kAvx2
          : Level::kScalar;
  return level;
#else
  return Level::kScalar;
#endif
}

Level resolve_level(Level detected_level, const char* force_scalar_env) {
  const char* env = force_scalar_env;
  const bool force = env != nullptr && env[0] != '\0' &&
                     std::strcmp(env, "0") != 0 &&
                     std::strcmp(env, "false") != 0 &&
                     std::strcmp(env, "off") != 0;
  return force ? Level::kScalar : detected_level;
}

Level active() {
  static const Level level =
      resolve_level(detected(), std::getenv("RFP_FORCE_SCALAR"));
  return level;
}

}  // namespace rfp::simd
