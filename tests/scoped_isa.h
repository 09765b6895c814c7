// Forces the kernel level for one scope. simd::ResolveIsa() reads
// PRIVELET_ISA on every call, so setting it switches every later pass;
// the destructor restores the previous value, so a suite run under a
// forced PRIVELET_ISA keeps it for the tests that follow.
#ifndef PRIVELET_TESTS_SCOPED_ISA_H_
#define PRIVELET_TESTS_SCOPED_ISA_H_

#include <cstdlib>
#include <optional>
#include <string>

#include "privelet/simd/dispatch.h"

namespace privelet::testutil {

class ScopedIsa {
 public:
  explicit ScopedIsa(simd::IsaLevel level) {
    if (const char* old = std::getenv("PRIVELET_ISA")) previous_ = old;
    setenv("PRIVELET_ISA", std::string(simd::IsaLevelName(level)).c_str(), 1);
  }
  ~ScopedIsa() {
    if (previous_) {
      setenv("PRIVELET_ISA", previous_->c_str(), 1);
    } else {
      unsetenv("PRIVELET_ISA");
    }
  }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  std::optional<std::string> previous_;
};

}  // namespace privelet::testutil

#endif  // PRIVELET_TESTS_SCOPED_ISA_H_
