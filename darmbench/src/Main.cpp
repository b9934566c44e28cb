//===- Main.cpp - darmbench command line ----------------------------------===//
//
//   darmbench --workload sim-fig8|sim-real|serve-warm|serve-cold
//             --seed N [--seconds S] [--trace 0|1] [--out FILE.json]
//             [--trace-out FILE.json]
//
// One workload per process, so peak_rss_mb and setup_s belong to it. The
// last line of stdout is the result JSON: the end-to-end metrics, or with
// --trace 1 the per-layer metrics of a traced run. The exit code is 0
// only when every output checked was correct.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace darmbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: darmbench --workload sim-fig8|sim-real|serve-warm|"
               "serve-cold --seed N [--seconds S] [--trace 0|1]\n"
               "                 [--out FILE.json] [--trace-out FILE.json]\n");
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (!std::strcmp(A, "--workload")) {
      O.Workload = V;
    } else if (!std::strcmp(A, "--seed")) {
      if (!parseUnsigned(V, O.Seed))
        return usage();
      HaveSeed = true;
    } else if (!std::strcmp(A, "--seconds")) {
      char *End = nullptr;
      O.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(O.Seconds > 0) || O.Seconds > 3600)
        return usage();
    } else if (!std::strcmp(A, "--trace")) {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage();
      O.Trace = V[0] == '1';
    } else if (!std::strcmp(A, "--out")) {
      O.OutPath = V;
    } else if (!std::strcmp(A, "--trace-out")) {
      O.TracePath = V;
    } else {
      return usage();
    }
  }
  const bool Sim = O.Workload == "sim-fig8" || O.Workload == "sim-real";
  const bool Serve = O.Workload == "serve-warm" || O.Workload == "serve-cold";
  if (!HaveSeed || (!Sim && !Serve))
    return usage();
  // A closed connection must surface as an error, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  Report R;
  R.Opts = O;
  if (Sim)
    runSimWorkload(O, R, O.Workload == "sim-real");
  else
    runServeWorkload(O, R, O.Workload == "serve-cold");

  if (O.Trace && !O.TracePath.empty() &&
      !Tracer::writeChromeTrace(O.TracePath, /*MaxEvents=*/200000)) {
    std::fprintf(stderr, "darmbench: cannot write trace '%s'\n",
                 O.TracePath.c_str());
    return 2;
  }
  return emitReport(R);
}
