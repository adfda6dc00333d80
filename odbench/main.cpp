//===- odbench/main.cpp - The repository benchmark's entry point ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// odbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
///         [--commit ID]
/// odbench --list-metrics
///
/// Prints a HOST row, the run's INPUT fingerprint, TIMING details (median,
/// highest supported percentile, sample count) and, last, one JSON line:
/// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
/// end-to-end metrics, traced runs the per-layer ones.
///
/// Exit status: 0 on a correct run; 1 when any output was wrong, failed or
/// refused (the JSON line still prints, with "correct": false); 2 on bad
/// usage; 3 when the harness itself could not run or end-to-end numbers
/// would come from a non-Release build (no JSON line).
///
//===----------------------------------------------------------------------===//

#include "lib/Workloads.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

using namespace odbench;

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--commit ID]\n"
               "       %s --list-metrics\n"
               "workloads: jit-x86, synth-cold, serve-open\n",
               Argv0, Argv0);
  return 2;
}

static bool parseU64(const char *S, std::uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || *S == '-')
    return false;
  Out = V;
  return true;
}

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  std::string SpansPath, Commit;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    if (A == "--list-metrics") {
      std::printf("%s\n", metricTableJson().c_str());
      return 0;
    }
    if (I + 1 >= Argc)
      return usage(Argv[0]);
    const char *V = Argv[++I];
    std::uint64_t N = 0;
    if (A == "--workload") {
      Cfg.Workload = V;
      HaveWorkload = findWorkload(V) != nullptr;
    } else if (A == "--seed" && parseU64(V, N)) {
      Cfg.Seed = N;
      HaveSeed = true;
    } else if (A == "--seconds" && parseU64(V, N) && N >= 1 && N <= 3600) {
      Cfg.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (A == "--trace" && (std::string_view(V) == "0" ||
                                  std::string_view(V) == "1")) {
      Cfg.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--spans") {
      SpansPath = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage(Argv[0]);

  HostInfo H = detectHost(Cfg.Workload, Cfg.Seed, Cfg.Trace, Commit);
  std::printf("HOST {\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"commit\":\"%s\",\"seed\":%llu,\"traced\":%s,"
              "\"workload\":\"%s\",\"seconds\":%g}\n",
              H.Nproc, H.Compiler.c_str(), H.BuildType.c_str(),
              H.Commit.c_str(), static_cast<unsigned long long>(H.Seed),
              H.Traced ? "true" : "false", H.Workload.c_str(), Cfg.Seconds);
  std::fflush(stdout);
  if (!Cfg.Trace && H.BuildType != "Release") {
    std::fprintf(stderr, "odbench: refusing end-to-end numbers from a '%s' "
                         "build; configure with CMAKE_BUILD_TYPE=Release\n",
                 H.BuildType.c_str());
    return 3;
  }

  Report R(Cfg.Trace);
  Gate G;
  Tracer T(Cfg.Trace);
  std::string Err;
  bool Ran = runWorkload(Cfg, R, G, T, Err);
  for (const std::string &Line : R.notes())
    std::printf("%s\n", Line.c_str());
  if (!Ran) {
    std::fprintf(stderr, "odbench: %s\n", Err.c_str());
    return 3;
  }
  GateCounts C = G.counts();
  if (Cfg.Trace) {
    if (!SpansPath.empty()) {
      if (!T.writeJsonl(SpansPath)) {
        std::fprintf(stderr, "odbench: cannot write spans to '%s'\n",
                     SpansPath.c_str());
        return 3;
      }
      std::printf("SPANS %zu written to %s\n", T.spans().size(),
                  SpansPath.c_str());
    }
  }
  std::vector<std::string> Missing = R.missing();
  for (const std::string &M : Missing)
    std::fprintf(stderr, "odbench: internal error: metric '%s' not measured\n",
                 M.c_str());
  if (!Missing.empty())
    return 3;
  for (const std::string &P : G.problems())
    std::printf("PROBLEM %s\n", P.c_str());
  bool Correct = C.Attempted > 0 && C.bad() == 0;
  std::printf("GATE {\"attempted\":%llu,\"failed\":%llu,\"shed\":%llu,"
              "\"deadline\":%llu,\"mismatched\":%llu,\"error_ratio\":%g}\n",
              static_cast<unsigned long long>(C.Attempted),
              static_cast<unsigned long long>(C.Failed),
              static_cast<unsigned long long>(C.Shed),
              static_cast<unsigned long long>(C.Deadline),
              static_cast<unsigned long long>(C.Mismatched), C.errorRatio());
  std::printf("%s\n", R.json(C, Correct).c_str());
  return Correct ? 0 : 1;
}
