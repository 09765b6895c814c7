#include "privelet/simd/dispatch.h"

#include <cstdlib>
#include <string>

#include "privelet/simd/kernels.h"

namespace privelet::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
bool CpuHasAvx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}
#else
bool CpuHasAvx2() { return false; }
bool CpuHasAvx512() { return false; }
#endif

IsaLevel ProbeBestIsa() {
  if (CpuHasAvx512() && Avx512Kernels() != nullptr) return IsaLevel::kAvx512;
  if (CpuHasAvx2() && Avx2Kernels() != nullptr) return IsaLevel::kAvx2;
  return IsaLevel::kScalar;
}

std::string ProbeFeatureString() {
#if defined(__x86_64__) || defined(__i386__)
  std::string features;
  const auto add = [&features](const char* name, bool present) {
    if (!present) return;
    if (!features.empty()) features += ',';
    features += name;
  };
  add("avx", __builtin_cpu_supports("avx") != 0);
  add("avx2", __builtin_cpu_supports("avx2") != 0);
  add("fma", __builtin_cpu_supports("fma") != 0);
  add("avx512f", __builtin_cpu_supports("avx512f") != 0);
  add("avx512dq", __builtin_cpu_supports("avx512dq") != 0);
  add("avx512vl", __builtin_cpu_supports("avx512vl") != 0);
  add("avx512bw", __builtin_cpu_supports("avx512bw") != 0);
  return features.empty() ? std::string("none") : features;
#else
  return "none";
#endif
}

}  // namespace

IsaLevel DetectBestIsa() {
  static const IsaLevel best = ProbeBestIsa();
  return best;
}

IsaLevel ResolveIsa() {
  // Re-read the environment on every call: a getenv is a few tens of
  // nanoseconds, paid once per pass, and it lets the determinism tests
  // flip PRIVELET_ISA between publishes within one process.
  const char* env = std::getenv("PRIVELET_ISA");
  IsaLevel requested;
  if (env == nullptr || !ParseIsaLevel(env, &requested)) {
    return DetectBestIsa();
  }
  const IsaLevel best = DetectBestIsa();
  return requested <= best ? requested : best;
}

std::string_view IsaLevelName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool ParseIsaLevel(std::string_view name, IsaLevel* out) {
  if (name == "scalar") {
    *out = IsaLevel::kScalar;
  } else if (name == "avx2") {
    *out = IsaLevel::kAvx2;
  } else if (name == "avx512") {
    *out = IsaLevel::kAvx512;
  } else {
    return false;
  }
  return true;
}

std::string_view CpuFeatureString() {
  static const std::string features = ProbeFeatureString();
  return features;
}

const KernelTable& Kernels(IsaLevel level) {
  // Fall back level by level so a table is always available even when the
  // binary was built without the matching compiler flags.
  if (level == IsaLevel::kAvx512) {
    const KernelTable* t = Avx512Kernels();
    if (t != nullptr) return *t;
    level = IsaLevel::kAvx2;
  }
  if (level == IsaLevel::kAvx2) {
    const KernelTable* t = Avx2Kernels();
    if (t != nullptr) return *t;
  }
  return *ScalarKernels();
}

}  // namespace privelet::simd
