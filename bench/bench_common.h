// Shared helpers for bench mains.
//
// Benchmarks measured in *virtual* time are insensitive to the build type,
// but anything reporting wall-clock numbers (bench_fibers_native,
// bench_alloc_scale) is meaningless from an unoptimized build — the
// BENCH_fibers_native.json debacle was a debug-build baseline checked in as
// if it were real.  Every bench main calls WarnIfDebugBuild() so a debug run
// is loud on stderr, and every JSON emitter tags its output with
// kBuildType so a reader (or CI diff) can reject mislabeled baselines.

#ifndef SA_BENCH_BENCH_COMMON_H_
#define SA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>

namespace sa::bench {

#ifdef NDEBUG
inline constexpr bool kDebugBuild = false;
inline constexpr const char* kBuildType = "release";
#else
inline constexpr bool kDebugBuild = true;
inline constexpr const char* kBuildType = "debug";
#endif

// Prints a loud stderr warning when the binary was compiled without NDEBUG.
// Returns true iff this is a debug build, so callers can also tag output.
inline bool WarnIfDebugBuild(const char* bench_name) {
  if (kDebugBuild) {
    std::fprintf(stderr,
                 "%s: WARNING: this is a DEBUG build (assertions on, no "
                 "optimization); wall-clock timings are not comparable and "
                 "must not be checked in as a baseline\n",
                 bench_name);
  }
  return kDebugBuild;
}

// The record guard: a warning is ignorable, a checked-in debug baseline is
// not (it is exactly how the first BENCH_fibers_native.json went bad).
// Returns true — and the caller must exit nonzero — when a debug build was
// asked to *record* results: any flag that writes a machine-readable file
// (--benchmark_out=..., or a bespoke --out/--json flag), or a positional
// output path ending in .json (bench_alloc_scale, bench_lending,
// bench_multitenant and bench_locality take their record path that way).  Plain console runs of
// a debug build stay allowed; they only warn.
inline bool RefuseDebugRecord(const char* bench_name, int argc,
                              char** argv) {
  if (!kDebugBuild) {
    return false;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const size_t len = std::strlen(arg);
    const bool json_path =
        arg[0] != '-' && len >= 5 && std::strcmp(arg + len - 5, ".json") == 0;
    if (std::strncmp(arg, "--benchmark_out", 15) == 0 ||
        std::strncmp(arg, "--out", 5) == 0 ||
        std::strncmp(arg, "--json", 6) == 0 || json_path) {
      std::fprintf(stderr,
                   "%s: ERROR: refusing to record results from a DEBUG "
                   "build (%s); rebuild with -DCMAKE_BUILD_TYPE=Release "
                   "before writing a baseline\n",
                   bench_name, arg);
      return true;
    }
  }
  return false;
}

}  // namespace sa::bench

#endif  // SA_BENCH_BENCH_COMMON_H_
