//===- Main.cpp - psc_perfbench entry point -------------------------------===//
///
/// \file
///   psc_perfbench --workload analyze|serve --seed N --seconds S
///                 --trace 0|1 [--root DIR] [--sock-dir DIR]
///                 [--trace-out FILE] [--wrong-reference]
///
/// Prints a stamp line (machine, compiler, build type, seed) and then, as
/// the last line of stdout, one JSON object: correct, attempted, failed,
/// and the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). --wrong-reference corrupts one reference value, so the run
/// must report failed ops (the benchmark's self-test).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <malloc.h>
#include <string>
#include <thread>

#ifndef PSC_PERFBENCH_BUILD_TYPE
#define PSC_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace pb;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psc_perfbench --workload analyze|serve --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--sock-dir DIR] "
               "[--trace-out FILE] [--wrong-reference]\n");
  return 2;
}

std::string stampJson(const Options &O) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}",
                O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                O.Seconds, O.Trace ? 1 : 0,
                std::thread::hardware_concurrency(),
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "gcc " __VERSION__,
#else
                "unknown",
#endif
                PSC_PERFBENCH_BUILD_TYPE);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
#ifdef M_ARENA_MAX
  // glibc gives every thread that allocates while the others hold their
  // arenas an arena of its own, up to eight per core. serve's eight live
  // threads then spread the server's caches over as many arenas, and its
  // peak RSS moved between 112 and 150 MB from run to run with how they
  // fragmented. Two arenas, one per pool worker, hold it within 2% at the
  // same session rate.
  mallopt(M_ARENA_MAX, 2);
#endif
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--wrong-reference") {
      O.WrongReference = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--root")
      O.Root = V;
    else if (A == "--sock-dir")
      O.SockDir = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      return usage();
  }
  if (O.Seconds <= 0)
    return usage();

  RunOutcome R;
  try {
    if (O.Workload == "analyze")
      R = runAnalyze(O);
    else if (O.Workload == "serve")
      R = runServe(O);
    else
      return usage();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }

  std::string Stamp = stampJson(O);
  if (O.Trace && !O.TraceOut.empty() &&
      !tracer().write(O.TraceOut, Stamp))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());

  std::printf("{\"stamp\": %s}\n", Stamp.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.M.size(); ++I) {
    double V = R.M[I].second.Value;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n",
                   R.M[I].first.c_str());
      V = 0.0;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.M[I].first.c_str(), V,
                R.M[I].second.Unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
