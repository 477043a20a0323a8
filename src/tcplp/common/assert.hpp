// Always-on invariant checking. The simulator is a measurement instrument:
// a silently-corrupted invariant would invalidate experiment output, so
// these checks stay enabled in release builds.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace tcplp::detail {
/// What this thread is running, named by a failed invariant (nullptr =
/// nothing to name). The campaign runner points it at each run point's
/// description while the point runs, so an abort names its point.
inline thread_local const char* runningTask = nullptr;

[[noreturn]] inline void assertFail(const char* expr, const char* file, int line) {
    // One fprintf, so another thread's output cannot split the line.
    std::fprintf(stderr, "tcplp invariant failed: %s at %s:%d%s%s\n", expr, file, line,
                 runningTask != nullptr ? " while running " : "",
                 runningTask != nullptr ? runningTask : "");
    std::abort();
}
}  // namespace tcplp::detail

#define TCPLP_ASSERT(expr) \
    ((expr) ? void(0) : ::tcplp::detail::assertFail(#expr, __FILE__, __LINE__))
