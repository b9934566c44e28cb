//===- darmd.cpp - persistent compile daemon ----------------------------------===//
//
// The compilation-as-a-service front end over CompileService
// (docs/caching.md, docs/serving.md): a persistent process answering
// textual-IR compile requests over the length-prefixed serve protocol,
// from a shared in-memory cache backed by an optional on-disk artifact
// store — so a restarted daemon serves yesterday's compiles without
// recompiling.
//
// Server modes (pick one transport):
//   darmd --listen ENDPOINT [--store DIR] [--store-mb N] [--cache-mb N]
//         [--max-conns N] [--idle-timeout-ms N] [--frame-timeout-ms N]
//         [--drain-ms N] [--fault-plan SPEC] [--stats]
//       accept connections on ENDPOINT — "host:port" (TCP) or a Unix-
//       socket path — one serving thread per client, a bounded
//       connection count with Busy load shedding above it, until
//       SIGTERM/SIGINT: then stop accepting, drain in-flight requests
//       (up to --drain-ms), flush the store's queued writes, and exit 0.
//       --socket PATH is an alias for --listen with a Unix path.
//   darmd --stdio [--store DIR] [--cache-mb N] [--stats]
//       serve a single session on stdin/stdout until EOF (the simplest
//       client is another darmd via socketpair; also handy under a
//       supervisor that owns the transport). The store's queued writes
//       are flushed at session end. --stats prints a SERVE summary line
//       (cache and store counters) to stderr at exit.
//
// Client mode (the CI serve-smoke replay, docs/caching.md):
//   darmd --connect ENDPOINT --replay-corpus [--repeat N] [--expect-warm]
//         [--retries N] [--timeout-ms N] [--fallback-local] [--stats]
//       builds every real benchmark kernel x config pipeline, sends each
//       request N times (duplicate-heavy by construction) through the
//       resilient serve::Client (retry/backoff/reconnect; with
//       --fallback-local, exhausted retries compile in-process), and
//       verifies every response artifact is BYTE-IDENTICAL to an
//       in-process compileToArtifact of the same kernel+config.
//       --expect-warm additionally fails unless zero responses were
//       freshly compiled — the "warm restart recompiles nothing" gate.
//       Exit 0 clean, 1 on any mismatch or expectation failure, 2 on
//       usage/transport error.
//
// Debug:
//   --fault-plan "seed=N[,rate=R][,sock=0|1][,store=0|1][,delay-ms=N]"
//       installs a seeded fault-injection plan (serve/FaultInjection.h)
//       for the process lifetime — the CI chaos-smoke job runs a daemon
//       under injected store faults and proves the replay still
//       converges.
//
//===----------------------------------------------------------------------===//

#include "darm/core/CompileService.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/kernels/Benchmark.h"
#include "darm/serve/ArtifactStore.h"
#include "darm/serve/Client.h"
#include "darm/serve/FaultInjection.h"
#include "darm/serve/Server.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

using namespace darm;
using namespace darm::serve;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: darmd --listen ENDPOINT [--store DIR] [--store-mb N]\n"
      "             [--cache-mb N] [--max-conns N] [--idle-timeout-ms N]\n"
      "             [--frame-timeout-ms N] [--drain-ms N]\n"
      "             [--fault-plan SPEC] [--stats]\n"
      "       darmd --socket PATH ...      (alias: Unix-socket --listen)\n"
      "       darmd --stdio [--store DIR] [--cache-mb N] [--stats]\n"
      "       darmd --connect ENDPOINT --replay-corpus [--repeat N]\n"
      "             [--expect-warm] [--retries N] [--timeout-ms N]\n"
      "             [--fallback-local] [--stats]\n"
      "ENDPOINT is host:port (TCP) or a Unix-socket path.\n");
  return 2;
}

/// The --stats line. With a store wired, its counters follow the cache's
/// (read after a flush, so every accepted store is counted as written or
/// skipped).
void printServeLine(const ServeCounters &C, const CompileService &Svc,
                    const FileArtifactStore *Store) {
  const CompileService::CacheStats CS = Svc.stats();
  std::string StoreCounters;
  if (Store) {
    const FileArtifactStore::Stats SS = Store->stats();
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  " store_loads=%llu store_misses=%llu store_writes=%llu "
                  "store_skips=%llu store_coalesced=%llu store_dropped=%llu "
                  "store_evictions=%llu",
                  static_cast<unsigned long long>(SS.Loads),
                  static_cast<unsigned long long>(SS.LoadMisses),
                  static_cast<unsigned long long>(SS.Stores),
                  static_cast<unsigned long long>(SS.StoreSkips),
                  static_cast<unsigned long long>(SS.Coalesced),
                  static_cast<unsigned long long>(SS.Dropped),
                  static_cast<unsigned long long>(SS.Evictions));
    StoreCounters = Buf;
  }
  std::fprintf(stderr,
               "SERVE requests=%llu compiled=%llu mem_hits=%llu "
               "disk_hits=%llu upgrades=%llu errors=%llu busy=%llu "
               "timeouts=%llu entries=%llu bytes=%llu%s\n",
               static_cast<unsigned long long>(C.Requests.load()),
               static_cast<unsigned long long>(C.Compiled.load()),
               static_cast<unsigned long long>(C.MemoryHits.load()),
               static_cast<unsigned long long>(C.DiskHits.load()),
               static_cast<unsigned long long>(C.Upgrades.load()),
               static_cast<unsigned long long>(C.Errors.load()),
               static_cast<unsigned long long>(C.Busy.load()),
               static_cast<unsigned long long>(C.Timeouts.load()),
               static_cast<unsigned long long>(CS.Entries),
               static_cast<unsigned long long>(CS.Bytes),
               StoreCounters.c_str());
}

/// The replay corpus: every real benchmark kernel at its smallest paper
/// block size, under each named config pipeline. The same (kernel,
/// config) grid the acceptance gate quantifies over.
struct CorpusConfig {
  const char *Name;
  DARMConfig Cfg;
};

std::vector<CorpusConfig> corpusConfigs() {
  std::vector<CorpusConfig> Cs;
  Cs.push_back({"darm", DARMConfig()});
  Cs.push_back({"darm-canon", DARMConfig::withCanonicalization()});
  DARMConfig BF;
  BF.DiamondOnly = true;
  BF.EnableRegionReplication = false;
  Cs.push_back({"branch-fusion", BF});
  return Cs;
}

int runReplay(const ClientOptions &COpts, unsigned Repeat, bool ExpectWarm,
              bool Stats) {
  Client Cli(COpts);
  std::string Err;
  uint64_t Sent = 0, Compiled = 0, MemHits = 0, DiskHits = 0, Upgraded = 0;
  unsigned Mismatches = 0;
  for (const std::string &Name : realBenchmarkNames()) {
    const unsigned BS = paperBlockSizes(Name).front();
    auto B = createBenchmark(Name, BS);
    for (const CorpusConfig &CC : corpusConfigs()) {
      // The reference: the exact artifact an in-process caller gets,
      // serialized the same way the daemon serializes its response.
      Context Ctx;
      Module M(Ctx, Name);
      Function *F = B->build(M);
      const std::vector<uint8_t> Expect =
          serializeCompiledModule(compileToArtifact(*F, CC.Cfg));
      CompileRequest Req;
      Req.Cfg = CC.Cfg;
      Req.IRText = printFunction(*F);
      for (unsigned R = 0; R < Repeat; ++R) {
        CompileResponse Resp;
        if (!Cli.request(Req, Resp, &Err)) {
          std::fprintf(stderr, "darmd: %s %s: %s\n", Name.c_str(), CC.Name,
                       Err.c_str());
          return 2;
        }
        ++Sent;
        if (!Resp.Ok) {
          std::fprintf(stderr, "darmd: %s %s: daemon error: %s\n",
                       Name.c_str(), CC.Name, Resp.Error.c_str());
          ++Mismatches;
          continue;
        }
        switch (Resp.Origin) {
        case ServeOrigin::Compiled:
          ++Compiled;
          break;
        case ServeOrigin::MemoryHit:
          ++MemHits;
          break;
        case ServeOrigin::DiskHit:
          ++DiskHits;
          break;
        case ServeOrigin::Upgraded:
          ++Upgraded;
          break;
        }
        if (serializeCompiledModule(Resp.Art) != Expect) {
          std::fprintf(stderr,
                       "darmd: BYTE MISMATCH: %s %s (%s) differs from "
                       "in-process compileToArtifact\n",
                       Name.c_str(), CC.Name, originName(Resp.Origin));
          ++Mismatches;
        }
      }
    }
  }
  const ClientCounters &CC = Cli.counters();
  if (Stats || Mismatches || (ExpectWarm && (Compiled || Upgraded)))
    std::fprintf(stderr,
                 "REPLAY sent=%llu compiled=%llu mem_hits=%llu "
                 "disk_hits=%llu upgrades=%llu mismatches=%u "
                 "attempts=%llu retries=%llu reconnects=%llu "
                 "busy_shed=%llu deadline_hits=%llu fallbacks=%llu\n",
                 static_cast<unsigned long long>(Sent),
                 static_cast<unsigned long long>(Compiled),
                 static_cast<unsigned long long>(MemHits),
                 static_cast<unsigned long long>(DiskHits),
                 static_cast<unsigned long long>(Upgraded), Mismatches,
                 static_cast<unsigned long long>(CC.Attempts.load()),
                 static_cast<unsigned long long>(CC.Retries.load()),
                 static_cast<unsigned long long>(CC.Reconnects.load()),
                 static_cast<unsigned long long>(CC.BusyShed.load()),
                 static_cast<unsigned long long>(CC.DeadlineHits.load()),
                 static_cast<unsigned long long>(CC.Fallbacks.load()));
  if (Mismatches) {
    std::fprintf(stderr, "darmd: replay found %u byte mismatches\n",
                 Mismatches);
    return 1;
  }
  if (ExpectWarm && (Compiled || Upgraded)) {
    std::fprintf(stderr,
                 "darmd: --expect-warm but %llu responses were freshly "
                 "compiled — the store did not survive the restart\n",
                 static_cast<unsigned long long>(Compiled + Upgraded));
    return 1;
  }
  std::fprintf(stderr, "darmd: replay clean: %llu responses byte-identical "
                       "to in-process compiles\n",
               static_cast<unsigned long long>(Sent));
  return 0;
}

/// Self-pipe the SIGTERM/SIGINT handler writes to; main blocks on the
/// read end and runs the graceful drain. write(2) is async-signal-safe;
/// nothing else in the handler.
int SignalPipe[2] = {-1, -1};

void onStopSignal(int) {
  const char X = 's';
  [[maybe_unused]] ssize_t W = ::write(SignalPipe[1], &X, 1);
}

} // namespace

int main(int argc, char **argv) {
  std::string Endpoint, ConnectTo, StoreDir, FaultSpec;
  bool Stdio = false, Replay = false, ExpectWarm = false, Stats = false;
  bool FallbackLocal = false;
  unsigned Repeat = 2; // duplicate-heavy by default: each key twice
  unsigned Retries = 4, MaxConns = 256;
  int TimeoutMs = 10000, IdleTimeoutMs = -1, FrameTimeoutMs = 10000;
  int DrainMs = 5000;
  size_t CacheMb = 256, StoreMb = 0;
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    if ((Arg == "--listen" || Arg == "--socket") && I + 1 < argc) {
      Endpoint = argv[++I];
    } else if (Arg == "--connect" && I + 1 < argc) {
      ConnectTo = argv[++I];
    } else if (Arg == "--store" && I + 1 < argc) {
      StoreDir = argv[++I];
    } else if (Arg == "--cache-mb" && I + 1 < argc) {
      CacheMb = static_cast<size_t>(std::atol(argv[++I]));
    } else if (Arg == "--store-mb" && I + 1 < argc) {
      StoreMb = static_cast<size_t>(std::atol(argv[++I]));
    } else if (Arg == "--max-conns" && I + 1 < argc) {
      MaxConns = static_cast<unsigned>(std::atoi(argv[++I]));
    } else if (Arg == "--idle-timeout-ms" && I + 1 < argc) {
      IdleTimeoutMs = std::atoi(argv[++I]);
    } else if (Arg == "--frame-timeout-ms" && I + 1 < argc) {
      FrameTimeoutMs = std::atoi(argv[++I]);
    } else if (Arg == "--drain-ms" && I + 1 < argc) {
      DrainMs = std::atoi(argv[++I]);
    } else if (Arg == "--fault-plan" && I + 1 < argc) {
      FaultSpec = argv[++I];
    } else if (Arg == "--retries" && I + 1 < argc) {
      Retries = static_cast<unsigned>(std::atoi(argv[++I]));
    } else if (Arg == "--timeout-ms" && I + 1 < argc) {
      TimeoutMs = std::atoi(argv[++I]);
    } else if (Arg == "--fallback-local") {
      FallbackLocal = true;
    } else if (Arg == "--stdio") {
      Stdio = true;
    } else if (Arg == "--replay-corpus") {
      Replay = true;
    } else if (Arg == "--repeat" && I + 1 < argc) {
      const int N = std::atoi(argv[++I]);
      if (N <= 0) {
        std::fprintf(stderr, "--repeat expects a positive integer\n");
        return 2;
      }
      Repeat = static_cast<unsigned>(N);
    } else if (Arg == "--expect-warm") {
      ExpectWarm = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return usage();
    }
  }

  // Belt and braces alongside MSG_NOSIGNAL: --stdio writes to a pipe,
  // where only the disposition protects us from a SIGPIPE kill.
  ::signal(SIGPIPE, SIG_IGN);

  static FaultPlan::Options FaultOpts;
  static std::unique_ptr<FaultPlan> Plan;
  if (!FaultSpec.empty()) {
    std::string Err;
    if (!FaultPlan::parse(FaultSpec, FaultOpts, &Err)) {
      std::fprintf(stderr, "darmd: bad --fault-plan: %s\n", Err.c_str());
      return 2;
    }
    Plan = std::make_unique<FaultPlan>(FaultOpts);
    setFaultPlan(Plan.get());
    std::fprintf(stderr, "darmd: fault plan installed: %s\n",
                 FaultSpec.c_str());
  }

  if (!ConnectTo.empty()) {
    if (!Replay) {
      std::fprintf(stderr, "--connect requires --replay-corpus\n");
      return usage();
    }
    ClientOptions CO;
    CO.Endpoint = ConnectTo;
    CO.RequestTimeoutMs = TimeoutMs;
    CO.MaxRetries = Retries;
    CO.Fallback = FallbackLocal ? FallbackMode::LocalCompile
                                : FallbackMode::Fail;
    return runReplay(CO, Repeat, ExpectWarm, Stats);
  }
  if (Stdio != Endpoint.empty()) {
    // Exactly one transport: --stdio xor --listen/--socket.
    return usage();
  }

  CompileService::Options Opts;
  Opts.MaxBytes = CacheMb << 20;
  CompileService Svc(Opts);
  std::unique_ptr<FileArtifactStore> Store;
  if (!StoreDir.empty()) {
    FileArtifactStore::Options SO;
    SO.MaxBytes = StoreMb << 20;
    Store = std::make_unique<FileArtifactStore>(StoreDir, SO);
    if (!Store->valid()) {
      std::fprintf(stderr, "darmd: store directory '%s' is unusable\n",
                   StoreDir.c_str());
      return 2;
    }
    Svc.setPersistence(Store.get());
  }
  ServeCounters Counters;

  if (Stdio) {
    serveStream(STDIN_FILENO, STDOUT_FILENO, Svc, &Counters);
    // The store writes behind the replies: land every queued artifact
    // before exiting, so a restart on the same store serves warm.
    if (Store)
      Store->flush();
    if (Stats)
      printServeLine(Counters, Svc, Store.get());
    return 0;
  }

  std::string Err;
  uint16_t BoundPort = 0;
  const int ListenFd = listenEndpoint(Endpoint, &Err, &BoundPort);
  if (ListenFd < 0) {
    std::fprintf(stderr, "darmd: %s\n", Err.c_str());
    return 2;
  }
  SocketServer::Options SrvOpts;
  SrvOpts.MaxConnections = MaxConns;
  SrvOpts.IdleTimeoutMs = IdleTimeoutMs;
  SrvOpts.FrameTimeoutMs = FrameTimeoutMs;
  SocketServer Server(Svc, &Counters, SrvOpts);
  if (::pipe(SignalPipe) != 0 || !Server.start(ListenFd)) {
    std::fprintf(stderr, "darmd: failed to start server\n");
    ::close(ListenFd);
    return 2;
  }
  ::signal(SIGTERM, onStopSignal);
  ::signal(SIGINT, onStopSignal);
  if (endpointIsTcp(Endpoint) && BoundPort)
    std::fprintf(stderr, "darmd: serving on %s (port %u)%s%s\n",
                 Endpoint.c_str(), BoundPort,
                 StoreDir.empty() ? "" : ", store ",
                 StoreDir.empty() ? "" : StoreDir.c_str());
  else
    std::fprintf(stderr, "darmd: serving on %s%s%s\n", Endpoint.c_str(),
                 StoreDir.empty() ? "" : ", store ",
                 StoreDir.empty() ? "" : StoreDir.c_str());

  // Block until SIGTERM/SIGINT, then drain: stop accepting, finish the
  // requests already read (bounded by --drain-ms), exit 0.
  char Buf;
  while (::read(SignalPipe[0], &Buf, 1) < 0 && errno == EINTR) {
  }
  const bool Drained = Server.drain(DrainMs);
  if (Store)
    Store->flush();
  if (Stats)
    printServeLine(Counters, Svc, Store.get());
  std::fprintf(stderr, "darmd: %s\n",
               Drained ? "drained, exiting" : "drain deadline hit, exiting");
  return 0;
}
