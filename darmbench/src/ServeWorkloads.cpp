//===- ServeWorkloads.cpp - serve-warm and serve-cold ---------------------===//
//
// A real SocketServer on a Unix socket in this process, over a
// CompileService and an on-disk FileArtifactStore, driven by two
// closed-loop serve::Clients: each sends its next request only when the
// previous answer is back, as a build tool does. Two clients and two
// server sessions make four threads.
//
//   serve-warm  the 21-key corpus (7 real kernels x darm / darm-canon /
//               branch-fusion) compiled during set-up; every timed
//               request is a memory hit.
//   serve-cold  generated kernels x {darm, darm-canon}, each key sent
//               once per round, and between rounds the server's service
//               emptied and its store moved to an empty directory; every
//               request compiles and writes the store.
//
// serve-warm sends each key thousands of times, so a key's timing is the
// fastest share of its round trips (README.md, "Noise"); serve-cold's are
// over every round trip. Each client keeps a CPU of its own; the server's
// sessions are left to the scheduler.
//
// A traced run spends half its window on the clients (the untraced base)
// and half replaying requests on one thread through the public calls
// serveRequest makes, one span each.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "darm/core/CompileService.h"
#include "darm/fuzz/KernelGenerator.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRParser.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/kernels/Benchmark.h"
#include "darm/serve/ArtifactStore.h"
#include "darm/serve/Client.h"
#include "darm/serve/Server.h"
#include "darm/sim/DecodedProgram.h"
#include "darm/support/ErrorHandling.h"
#include "darm/support/Hashing.h"
#include "darm/support/Parallel.h"
#include "darm/support/RNG.h"
#include "darm/transform/DCE.h"
#include "darm/transform/SimplifyCFG.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include <fcntl.h>
#include <unistd.h>

using namespace darm;
using namespace darmbench;

namespace {

/// Where each server's socket and store go, under the checkout's build
/// directory; a server removes its own when it stops.
constexpr const char *kWorkDir = ".bench_build/work";
/// Set-ups per run, four per CPU of a 4-core host.
constexpr unsigned kSetUps = 16;
constexpr unsigned kClients = 2;
/// serve-warm's first twentieth of the window pays the connects and is
/// left out.
constexpr double kConnectShare = 0.05;
/// The share of a serve-warm key's round trips that its timing is taken
/// from, of the 250 to 500 a key gets each second.
constexpr double kWarmShare = 0.02;
constexpr unsigned kMinColdRounds = 3;
/// Samples each client can log per second of window without growing its
/// buffers (serve-warm runs 3000 to 6000 per client).
constexpr double kMaxRequestsPerSecond = 12000;
/// serve-cold kernels per second of window, each sent under both configs
/// in every round: a round then takes about a fifteenth of the window on
/// a 4-core x86-64 box.
constexpr double kColdKernelsPerSecond = 25;

struct NamedConfig {
  const char *Name;
  DARMConfig Cfg;
};

std::vector<NamedConfig> configsFor(bool Cold) {
  DARMConfig BF;
  BF.DiamondOnly = true;
  BF.EnableRegionReplication = false;
  std::vector<NamedConfig> Cs = {
      {"darm", DARMConfig()},
      {"darm-canon", DARMConfig::withCanonicalization()}};
  if (!Cold)
    Cs.push_back({"branch-fusion", BF});
  return Cs;
}

/// What serve-cold checks one served (kernel, config) against, made
/// before the window.
struct ColdRef {
  uint64_t BytesHash = 0; ///< of compileToArtifact's DRMA bytes
  size_t Bytes = 0;
  SimStats Melded; ///< its program on the generator's memory image
  unsigned Regions = 0;
};

/// One kernel of a workload's corpus, as the textual IR clients send.
struct Kernel {
  std::string Name;
  std::string IR;
  std::shared_ptr<const Benchmark> B; ///< serve-warm: host reference
  uint64_t GenSeed = 0;               ///< serve-cold: generator seed
  SimStats Base;                      ///< serve-cold: the unmelded run
  std::vector<ColdRef> Refs;          ///< serve-cold: one per config
};

serve::ServeOrigin toOrigin(CacheSource S) {
  switch (S) {
  case CacheSource::Compiled:
    return serve::ServeOrigin::Compiled;
  case CacheSource::MemoryHit:
    return serve::ServeOrigin::MemoryHit;
  case CacheSource::DiskHit:
    return serve::ServeOrigin::DiskHit;
  case CacheSource::Upgraded:
    return serve::ServeOrigin::Upgraded;
  }
  return serve::ServeOrigin::Compiled;
}

/// The timing ArtifactPersistence forwarder: every store call the
/// service makes becomes a span.
class TimedStore : public ArtifactPersistence {
public:
  explicit TimedStore(std::string Dir) { reopen(std::move(Dir)); }

  std::shared_ptr<const CompiledModule> load(uint64_t IRHash,
                                             const std::string &Fingerprint,
                                             bool NeedProgram) override {
    Span S("serve.store_load");
    return Inner->load(IRHash, Fingerprint, NeedProgram);
  }
  void store(const CompiledModule &Art) override {
    LastStoreNs.store(Tracer::nowNs(), std::memory_order_relaxed);
    Span S("serve.store_write");
    Inner->store(Art);
  }
  bool valid() const { return Inner->valid(); }
  /// When the latest store began: a fresh compile's pipeline stages end
  /// there.
  int64_t lastStoreNs() const {
    return LastStoreNs.load(std::memory_order_relaxed);
  }
  /// Replaces the store with one in \p Dir. Only while no request is in
  /// flight.
  void reopen(std::string Dir) {
    Inner = std::make_unique<serve::FileArtifactStore>(std::move(Dir));
  }

private:
  std::unique_ptr<serve::FileArtifactStore> Inner;
  std::atomic<int64_t> LastStoreNs{0};
};

std::string makeDir(const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Removes \p Path and commits the deletes (and the discards the
/// filesystem may issue for them) now, so they do not land on later
/// fsyncs of the workload.
void removeCommitted(const std::string &Path) {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
  const int Fd = ::open(kWorkDir, O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::syncfs(Fd);
    ::close(Fd);
  }
}

/// The system under test: service, store, counters and accept loop, in a
/// directory of its own that goes away with it.
struct ServerUnderTest {
  std::string Dir;
  std::string StoreDir;
  CompileService Svc;
  TimedStore Store;
  serve::ServeCounters Counters;
  std::unique_ptr<serve::SocketServer> Server;
  std::string Endpoint;

  explicit ServerUnderTest(const std::string &D)
      : Dir(makeDir(D)), StoreDir(Dir + "/store"), Store(StoreDir),
        Endpoint(Dir + "/s.sock") {
    Svc.setPersistence(&Store);
  }
  ~ServerUnderTest() {
    if (Server)
      Server->drain(/*DeadlineMs=*/5000);
    Server.reset();
    removeCommitted(Dir);
  }
  /// Makes the server cold again between serve-cold rounds: empties the
  /// service and moves the store to a new empty directory (the old one is
  /// removed). Only while no request is in flight.
  void makeCold(unsigned Round) {
    const std::string Old = StoreDir;
    StoreDir = Dir + "/store" + std::to_string(Round);
    Store.reopen(StoreDir);
    Svc.clear();
    removeCommitted(Old);
  }
  ServerUnderTest(const ServerUnderTest &) = delete;
  ServerUnderTest &operator=(const ServerUnderTest &) = delete;

  bool start(std::string *Err) {
    if (!Store.valid()) {
      *Err = "store directory unusable";
      return false;
    }
    const int Fd = serve::listenEndpoint(Endpoint, Err);
    if (Fd < 0)
      return false;
    serve::SocketServer::Options SO;
    SO.MaxConnections = kClients + 2;
    Server = std::make_unique<serve::SocketServer>(Svc, &Counters, SO);
    return Server->start(Fd);
  }
};

/// serveStream's work for one frame, untraced: the in-process reference.
std::vector<uint8_t> handleReference(const std::vector<uint8_t> &Frame,
                                     CompileService &Svc) {
  serve::CompileRequest Req;
  serve::decodeRequest(Frame.data(), Frame.size(), Req);
  return serve::encodeResponse(serve::serveRequest(Req, Svc));
}

/// The same work as the separate public calls serveRequest makes, one
/// span each; the key is computed apart from the lookup. Returns the
/// response payload, or empty after recording a failure.
std::vector<uint8_t> handleTraced(const std::vector<uint8_t> &Frame,
                                  CompileService &Svc, const TimedStore &Store,
                                  uint32_t Id, Report &R) {
  Span Top("serve.request", Id);
  serve::CompileRequest Req;
  std::string Err;
  {
    Span S("serve.decode");
    if (!serve::decodeRequest(Frame.data(), Frame.size(), Req, &Err)) {
      R.fail("traced replay: " + Err);
      return {};
    }
  }
  auto Ctx = std::make_unique<Context>();
  std::unique_ptr<Module> M;
  {
    Span S("ir.parse");
    M = parseModule(*Ctx, Req.IRText, &Err);
  }
  if (!M || M->functions().size() != 1) {
    R.fail("traced replay: request is not one parseable kernel " + Err);
    return {};
  }
  const Function &F = *M->functions().front();
  uint64_t Hash;
  std::string Fingerprint;
  {
    Span S("core.key");
    Hash = artifactIRHash(F);
    Fingerprint = configFingerprint(Req.Cfg);
  }
  CompileService::Artifact Art;
  {
    Span S("core.lookup");
    Art = Svc.lookup(Hash, Fingerprint);
  }
  CacheSource Src = CacheSource::MemoryHit;
  if (!Art || (Req.IncludeProgram && !Art->failed() &&
               Art->ProgramBytes.empty())) {
    Span S("core.compile");
    const int64_t StoreBefore = Store.lastStoreNs();
    Art = Svc.getOrCompile(F, Req.Cfg, Req.IncludeProgram, &Src);
    if (Src == CacheSource::Compiled || Src == CacheSource::Upgraded)
      addStageSpans(Art->Stats, Store.lastStoreNs() != StoreBefore
                                    ? Store.lastStoreNs()
                                    : Tracer::nowNs());
  }
  std::vector<uint8_t> Out;
  {
    Span S("core.encode");
    serve::CompileResponse Resp;
    Resp.Ok = true;
    Resp.Origin = toOrigin(Src);
    Resp.Art = *Art;
    Out = serve::encodeResponse(Resp);
  }
  Span S("ir.free");
  M.reset();
  Ctx.reset();
  return Out;
}

//===----------------------------------------------------------------------===//
// Closed-loop clients
//===----------------------------------------------------------------------===//

struct ClientLog {
  std::vector<float> LatUs, DoneS;
  std::vector<serve::ServeOrigin> Origins;
  std::vector<uint32_t> Keys; ///< kernel x configs + config
  /// serve-cold: the artifacts whose bytes were not the reference's, for a
  /// closer look after the window; each (key, bytes) once, so that what
  /// they hold does not grow with the number of rounds.
  struct Renumbered {
    size_t Kernel, Config;
    CompiledModule Art;
  };
  std::vector<Renumbered> ColdRenumbered;
  std::set<std::pair<size_t, uint64_t>> RenumberedSeen;
  std::vector<std::string> Failures;
  uint64_t Attempted = 0, Retries = 0, ByteMismatches = 0;
};

/// Picks client C's I-th request; false when its keys are used up.
using NextRequest = std::function<bool(unsigned C, uint64_t I, size_t &Kernel,
                                       size_t &Config)>;

/// Sizes \p V for \p Cap elements and touches every page, so samples
/// appended later (up to Cap) leave peak_rss_mb independent of how many
/// requests a run managed.
template <typename T> void reserveTouched(std::vector<T> &V, size_t Cap) {
  V.resize(Cap);
  V.clear();
}

/// Logs of \p Seconds of requests, with their buffers sized and touched.
std::vector<ClientLog> makeLogs(double Seconds) {
  std::vector<ClientLog> Logs(kClients);
  const size_t Cap = static_cast<size_t>(Seconds * kMaxRequestsPerSecond);
  for (ClientLog &L : Logs) {
    reserveTouched(L.LatUs, Cap);
    reserveTouched(L.DoneS, Cap);
    reserveTouched(L.Origins, Cap);
    reserveTouched(L.Keys, Cap);
  }
  return Logs;
}

/// Runs the clients against \p Endpoint until \p Deadline or until \p Next
/// has no more requests for them, appending to \p Logs; DoneS counts from
/// the start of this call. With \p EndRound set (serve-cold), that ends a
/// round: once every client is through, EndRound runs and says whether
/// the clients start another, over the same connections, with \p Next's
/// request numbers counting from 0 again. Every answer's artifact bytes
/// are hashed against \p RefHashes (by key). serve-warm answers (\p Warm)
/// must be memory hits with the reference bytes; serve-cold answers whose
/// bytes differ are kept for verifyCold.
void runClients(std::vector<ClientLog> &Logs, const std::string &Endpoint,
                Clock::time_point Deadline, uint64_t Seed,
                const std::vector<Kernel> &Kernels,
                const std::vector<NamedConfig> &Configs,
                const NextRequest &Next,
                const std::vector<uint64_t> &RefHashes, bool Warm,
                const std::function<bool()> &EndRound = nullptr) {
  bool Again = false;
  auto OnRoundEnd = [&]() noexcept { Again = EndRound && EndRound(); };
  std::barrier<decltype(OnRoundEnd)> RoundEnd(kClients, OnRoundEnd);
  std::vector<std::thread> Threads;
  const Clock::time_point W0 = Clock::now();
  for (unsigned C = 0; C < kClients; ++C)
    Threads.emplace_back([&, C] {
      ClientLog &Log = Logs[C];
      CpuPin Pin;
      Pin.pin(C * Pin.count() / kClients);
      serve::ClientOptions CO;
      CO.Endpoint = Endpoint;
      CO.MaxRetries = 2;
      CO.RequestTimeoutMs = 60000;
      CO.BackoffSeed = Seed * 31 + C;
      serve::Client Cli(CO);
      serve::CompileRequest Req;
      uint64_t I = 0;
      while (Clock::now() < Deadline) {
        size_t K = 0, Cfg = 0;
        if (!Next(C, I++, K, Cfg)) {
          if (!EndRound)
            break;
          RoundEnd.arrive_and_wait();
          if (!Again)
            break;
          I = 0;
          continue;
        }
        Req.Cfg = Configs[Cfg].Cfg;
        Req.IRText = Kernels[K].IR;
        serve::CompileResponse Resp;
        std::string Err;
        ++Log.Attempted;
        const Clock::time_point T0 = Clock::now();
        const bool Ok = Cli.request(Req, Resp, &Err);
        const Clock::time_point T1 = Clock::now();
        const std::string Label = Kernels[K].Name + "/" + Configs[Cfg].Name;
        if (!Ok || !Resp.Ok) {
          Log.Failures.push_back(Label + ": request failed: " + Err +
                                 Resp.Error);
          continue;
        }
        Log.LatUs.push_back(static_cast<float>(microsBetween(T0, T1)));
        Log.DoneS.push_back(
            static_cast<float>(std::chrono::duration<double>(T1 - W0).count()));
        Log.Origins.push_back(Resp.Origin);
        const size_t Key = K * Configs.size() + Cfg;
        Log.Keys.push_back(static_cast<uint32_t>(Key));
        const std::vector<uint8_t> Bytes = serializeCompiledModule(Resp.Art);
        const uint64_t Hash = hashBytes(Bytes.data(), Bytes.size());
        const bool Hit = Resp.Origin == serve::ServeOrigin::MemoryHit;
        if (Warm && (!Hit || Hash != RefHashes[Key])) {
          Log.Failures.push_back(Label + ": warm response is not the "
                                         "reference artifact from memory");
        } else if (!Warm && Hash != RefHashes[Key]) {
          ++Log.ByteMismatches;
          if (Log.RenumberedSeen.insert({Key, Hash}).second)
            Log.ColdRenumbered.push_back({K, Cfg, std::move(Resp.Art)});
        }
      }
      Log.Retries += Cli.counters().Retries.load();
    });
  for (std::thread &T : Threads)
    T.join();
}

/// Adds the timing metrics of the round trips that finished \p SkipS or
/// more into their run of the clients, which ran for \p ActiveS seconds.
/// With \p NumKeys set (serve-warm), they are each key's fastest
/// kWarmShare (addFastestMetrics, two clients at a time), and the measured
/// rate and percentiles go to the extra numbers; otherwise the
/// percentiles are over every round trip and ops_per_s is the measured
/// rate. Latency percentiles per response origin go to the extra numbers.
void addServeMetrics(Report &R, const std::vector<ClientLog> &Logs,
                     double SkipS, double ActiveS, size_t NumKeys) {
  std::vector<double> Lat, ByOrigin[4];
  std::vector<OpTimes> ByKey(NumKeys);
  for (const ClientLog &L : Logs)
    for (size_t I = 0; I < L.LatUs.size(); ++I) {
      ByOrigin[static_cast<unsigned>(L.Origins[I])].push_back(L.LatUs[I]);
      if (L.DoneS[I] < SkipS)
        continue;
      Lat.push_back(L.LatUs[I]);
      if (NumKeys)
        ByKey[L.Keys[I]].push_back(L.LatUs[I]);
    }
  std::vector<Metric> &Measured = NumKeys ? R.Extra : R.EndToEnd;
  const char *Prefix = NumKeys ? "window." : "";
  if (NumKeys)
    addFastestMetrics(R, ByKey, kWarmShare, kClients);
  addLatencyMetrics(Measured, Prefix, Lat);
  addMetric(Measured, std::string(Prefix) + "ops_per_s", "1/s",
            Lat.size() / ActiveS, Lat.size());

  const char *OriginNames[4] = {"compiled", "memory_hit", "disk_hit",
                                "upgraded"};
  for (unsigned O = 0; O < 4; ++O) {
    const std::string Prefix = std::string("origin.") + OriginNames[O];
    addMetric(R.Extra, Prefix + "_requests", "count", ByOrigin[O].size());
    if (ByOrigin[O].empty())
      continue;
    addMetric(R.Extra, Prefix + "_p50_us", "us", median(ByOrigin[O]),
              ByOrigin[O].size());
    addMetric(R.Extra, Prefix + "_p99_us", "us", quantile(ByOrigin[O], 0.99),
              ByOrigin[O].size());
  }
}

//===----------------------------------------------------------------------===//
// Inputs and verification
//===----------------------------------------------------------------------===//

std::unique_ptr<Module> parseKernel(Context &Ctx, const Kernel &K,
                                    std::string &Err) {
  std::unique_ptr<Module> M = parseModule(Ctx, K.IR, &Err);
  if (M && M->functions().size() != 1) {
    Err = "not one function";
    M.reset();
  }
  return M;
}

/// serve-cold's kernels: \p Count generator seeds from a fixed range,
/// duplicates (equal artifactIRHash) dropped so every key is cold, in an
/// order drawn from the benchmark seed. Every seed serves from the same
/// kernels, so the workload's device counters and artifact sizes repeat
/// exactly; the seed sets the traffic: which kernels each client sends,
/// and in which order.
std::vector<Kernel> generateColdKernels(uint64_t Seed, size_t Count) {
  constexpr uint64_t Base = uint64_t(1) << 40;
  std::vector<Kernel> Kernels;
  std::unordered_set<uint64_t> Seen;
  for (uint64_t I = 0; I < Count; ++I) {
    const fuzz::FuzzCase C(Base + I);
    Context Ctx;
    Module M(Ctx, C.name());
    Function *F = fuzz::buildFuzzKernel(M, C);
    if (!Seen.insert(artifactIRHash(*F)).second)
      continue;
    Kernel K;
    K.Name = C.name();
    K.IR = printFunction(*F);
    K.GenSeed = Base + I;
    Kernels.push_back(std::move(K));
  }
  RNG Rng(Seed * 0x9E3779B97F4A7C15ull + 0xC01D);
  for (size_t I = Kernels.size(); I > 1; --I)
    std::swap(Kernels[I - 1], Kernels[Rng.nextBelow(I)]);
  return Kernels;
}

[[noreturn]] void throwFatal(const char *Msg) {
  throw std::runtime_error(Msg);
}

/// Runs a generated kernel on its generator's memory image; \p MemHash
/// receives the final image's hash. A simulator abort throws (callers
/// install throwFatal).
SimRun simulateFuzz(SimEngine &E, const fuzz::FuzzCase &C, uint32_t Op,
                    uint64_t &MemHash) {
  GlobalMemory Mem;
  const std::vector<uint64_t> Args = fuzz::setupFuzzMemory(C, Mem);
  SimRun Run = runLaunches(
      E, C.Launch, C.NumLaunches, [&](unsigned) { return Args; }, Mem, Op);
  MemHash = hashMemoryImage(Mem);
  return Run;
}

SimRun simulateFuzzArtifact(const CompiledModule &Art,
                            const fuzz::FuzzCase &C, uint32_t Op,
                            uint64_t &MemHash) {
  DecodedProgram P;
  std::unique_ptr<SimEngine> E;
  {
    Span S("sim.decode");
    if (!decodeFromArtifact(Art, P))
      throw std::runtime_error("artifact has no program image");
    E = std::make_unique<SimEngine>(std::move(P));
  }
  return simulateFuzz(*E, C, Op, MemHash);
}

/// Makes serve-cold's references on the pool: for each kernel, parsed
/// from the text the clients send, compileToArtifact under every config,
/// and the unmelded (cleaned) kernel and every compiled program run on
/// the generator's memory image. The reference for memory is the
/// unmelded run, not the compiler under test: a melded image that
/// differs, a failed compile or a simulator abort is a failed output.
/// The kernels come from a fixed generator range that the compiler gets
/// right, so none of these should happen.
void makeColdRefs(std::vector<Kernel> &Kernels,
                  const std::vector<NamedConfig> &Configs, ThreadPool &Pool,
                  Report &R) {
  const std::vector<std::string> Failures =
      parallelMap<std::string>(Pool, Kernels.size(), [&](size_t I) {
        Kernel &K = Kernels[I];
        ScopedFatalErrorHandler Guard(throwFatal);
        try {
          const fuzz::FuzzCase C(K.GenSeed);
          Context Ctx;
          std::string Err;
          std::unique_ptr<Module> M = parseKernel(Ctx, K, Err);
          if (!M)
            return K.Name + ": kernel does not parse: " + Err;
          Function &F = *M->functions().front();
          std::vector<uint64_t> MemHashes;
          for (const NamedConfig &NC : Configs) {
            const CompiledModule Art = compileToArtifact(F, NC.Cfg);
            if (Art.failed())
              return K.Name + "/" + NC.Name + ": compile failed: " +
                     Art.CompileError;
            const std::vector<uint8_t> Bytes = serializeCompiledModule(Art);
            ColdRef Ref;
            Ref.BytesHash = hashBytes(Bytes.data(), Bytes.size());
            Ref.Bytes = Bytes.size();
            Ref.Regions = Art.Stats.RegionsMelded;
            MemHashes.push_back(0);
            Ref.Melded =
                simulateFuzzArtifact(Art, C, 0, MemHashes.back()).Stats;
            K.Refs.push_back(Ref);
          }
          simplifyCFG(F);
          eliminateDeadCode(F);
          SimEngine BaseE(F);
          uint64_t BaseHash = 0;
          K.Base = simulateFuzz(BaseE, C, 0, BaseHash).Stats;
          for (size_t Cfg = 0; Cfg < Configs.size(); ++Cfg)
            if (MemHashes[Cfg] != BaseHash)
              return K.Name + "/" + Configs[Cfg].Name +
                     ": final memory differs from the unmelded kernel's";
          return std::string();
        } catch (const std::exception &E) {
          return K.Name + ": " + E.what();
        }
      });
  R.Attempted += Kernels.size();
  for (const std::string &F : Failures)
    if (!F.empty())
      R.fail(F);
}

/// Simulates each warm kernel cleaned (the baseline) and under every
/// served artifact, validating each run against the host reference.
void verifyWarm(const std::vector<Kernel> &Kernels,
                const std::vector<NamedConfig> &Configs,
                const std::vector<std::shared_ptr<const CompiledModule>> &Expect,
                Report &R, std::vector<DevicePair> &Pairs,
                std::vector<SimRun> &Runs) {
  uint32_t Op = 0;
  auto Simulate = [&](const Kernel &K, SimEngine &E, const std::string &Label,
                      SimRun &Out) {
    GlobalMemory Mem;
    const std::vector<uint64_t> Base = K.B->setup(Mem);
    Out = runLaunches(
        E, K.B->launch(), K.B->numLaunches(),
        [&](unsigned L) { return K.B->argsForLaunch(L, Base); }, Mem, Op++);
    ++R.Attempted;
    std::string Why;
    if (!K.B->validate(Mem, Base, &Why))
      R.fail(Label + ": host reference mismatch: " + Why);
  };
  for (size_t KI = 0; KI < Kernels.size(); ++KI) {
    const Kernel &K = Kernels[KI];
    Context Ctx;
    std::string Err;
    std::unique_ptr<Module> M = parseKernel(Ctx, K, Err);
    if (!M) {
      R.fail(K.Name + ": printed kernel does not parse: " + Err);
      continue;
    }
    Function &F = *M->functions().front();
    simplifyCFG(F);
    eliminateDeadCode(F);
    std::unique_ptr<SimEngine> BaseE;
    {
      Span S("sim.decode");
      BaseE = std::make_unique<SimEngine>(F);
    }
    SimRun BaseRun;
    Simulate(K, *BaseE, K.Name + "/baseline", BaseRun);
    for (size_t C = 0; C < Configs.size(); ++C) {
      DecodedProgram P;
      std::unique_ptr<SimEngine> E;
      {
        Span S("sim.decode");
        if (!decodeFromArtifact(*Expect[KI * Configs.size() + C], P)) {
          R.fail(K.Name + ": artifact has no program image");
          continue;
        }
        E = std::make_unique<SimEngine>(std::move(P));
      }
      SimRun Run;
      Simulate(K, *E, K.Name + "/" + Configs[C].Name, Run);
      Pairs.push_back({BaseRun.Stats, Run.Stats});
      Runs.push_back(Run);
    }
  }
}

/// Equal bytes are the daemon's contract, but the melder creates the loads
/// and selects of predicated gap stores in pointer order (it iterates the
/// std::map GapSrc in Melder.cpp), so a few percent of generated kernels
/// number their values differently from one heap layout to the next. Two
/// artifacts of one generated kernel whose bytes differ are accepted only
/// when that is all: equal key and meld counters, and equal simulated
/// counters and final memory.
bool sameBehaviour(const CompiledModule &A, const CompiledModule &B,
                   const fuzz::FuzzCase &C) {
  CompiledModule Renumbered = A;
  Renumbered.ModuleBytes = B.ModuleBytes;
  Renumbered.ProgramBytes = B.ProgramBytes;
  if (serializeCompiledModule(Renumbered) != serializeCompiledModule(B))
    return false;
  uint64_t HashA = 0, HashB = 0;
  const SimRun RunA = simulateFuzzArtifact(A, C, 0, HashA);
  const SimRun RunB = simulateFuzzArtifact(B, C, 0, HashB);
  return HashA == HashB && sameStats(RunA.Stats, RunB.Stats);
}

/// Every served serve-cold key was compared with its reference's bytes
/// as it arrived. The artifacts whose bytes differed are checked here, on
/// the pool, against a fresh compileToArtifact by sameBehaviour; the
/// responses that carried them are counted in verify.byte_mismatches.
void verifyCold(const std::vector<Kernel> &Kernels,
                const std::vector<NamedConfig> &Configs,
                const std::vector<ClientLog> &Logs, ThreadPool &Pool,
                Report &R) {
  std::vector<const ClientLog::Renumbered *> Todo;
  uint64_t Served = 0, Mismatches = 0;
  for (const ClientLog &L : Logs) {
    Served += L.LatUs.size();
    Mismatches += L.ByteMismatches;
    for (const ClientLog::Renumbered &Re : L.ColdRenumbered)
      Todo.push_back(&Re);
  }
  const std::vector<std::string> Failures =
      parallelMap<std::string>(Pool, Todo.size(), [&](size_t I) {
        const ClientLog::Renumbered &Re = *Todo[I];
        const Kernel &K = Kernels[Re.Kernel];
        const std::string Label = K.Name + "/" + Configs[Re.Config].Name;
        ScopedFatalErrorHandler Guard(throwFatal);
        try {
          Context Ctx;
          std::string Err;
          std::unique_ptr<Module> M = parseKernel(Ctx, K, Err);
          if (!M)
            return Label + ": kernel does not parse: " + Err;
          const CompiledModule Ref =
              compileToArtifact(*M->functions().front(), Configs[Re.Config].Cfg);
          if (!sameBehaviour(Ref, Re.Art, fuzz::FuzzCase(K.GenSeed)))
            return Label + ": served artifact differs from compileToArtifact's";
          return std::string();
        } catch (const std::exception &E) {
          return Label + ": " + E.what();
        }
      });
  for (const std::string &F : Failures)
    if (!F.empty())
      R.fail(F);
  addMetric(R.Extra, "verify.byte_mismatches", "count", Mismatches, Served);
}

/// The traced replay's check for serve-cold, whose two paths compile in
/// different services: response bytes that differ must decode to
/// artifacts that differ by sameBehaviour alone.
bool renumberedOnly(const std::vector<uint8_t> &X,
                    const std::vector<uint8_t> &Y, const Kernel &K) {
  serve::CompileResponse A, B;
  if (!serve::decodeResponse(X.data(), X.size(), A) ||
      !serve::decodeResponse(Y.data(), Y.size(), B) || A.Ok != B.Ok ||
      A.Origin != B.Origin)
    return false;
  ScopedFatalErrorHandler Guard(throwFatal);
  try {
    return sameBehaviour(A.Art, B.Art, fuzz::FuzzCase(K.GenSeed));
  } catch (const std::exception &) {
    return false;
  }
}

/// A fresh server for \p O's workload, in a directory named by \p Tag;
/// null after recording a failure.
std::unique_ptr<ServerUnderTest> startServer(const Options &O,
                                             const std::string &Tag,
                                             Report &R) {
  auto Sut = std::make_unique<ServerUnderTest>(
      std::string(kWorkDir) + "/" + O.Workload + "-" +
      std::to_string(::getpid()) + "-" + Tag);
  std::string Err;
  if (!Sut->start(&Err)) {
    R.fail("server start: " + Err);
    return nullptr;
  }
  return Sut;
}

} // namespace

void darmbench::runServeWorkload(const Options &O, Report &R, bool Cold) {
  const std::vector<NamedConfig> Configs = configsFor(Cold);
  ThreadPool Pool(hardwareParallelism());
  const double WindowS = O.Trace ? O.Seconds / 2 : O.Seconds;

  // serve-warm's inputs and references, made before any set-up is timed.
  // RefHashes holds, by key, the hash of the reference artifact's bytes.
  std::vector<Kernel> Kernels;
  std::vector<std::shared_ptr<const CompiledModule>> Expect;
  std::vector<uint64_t> RefHashes;
  auto HashOf = [](const CompiledModule &Art) {
    const std::vector<uint8_t> Bytes = serializeCompiledModule(Art);
    return hashBytes(Bytes.data(), Bytes.size());
  };
  if (!Cold) {
    for (const std::string &Name : realBenchmarkNames()) {
      Kernel K;
      K.Name = Name;
      K.B = createBenchmark(Name, paperBlockSizes(Name).front());
      Context Ctx;
      Module M(Ctx, Name);
      K.IR = printFunction(*K.B->build(M));
      std::string Err;
      std::unique_ptr<Module> Parsed = parseKernel(Ctx, K, Err);
      if (!Parsed) {
        R.fail(K.Name + ": printed kernel does not parse: " + Err);
        return;
      }
      for (const NamedConfig &C : Configs) {
        Expect.push_back(std::make_shared<const CompiledModule>(
            compileToArtifact(*Parsed->functions().front(), C.Cfg)));
        RefHashes.push_back(HashOf(*Expect.back()));
      }
      Kernels.push_back(std::move(K));
    }
  }

  // Set-up: service + empty store + server, then for serve-warm the corpus
  // served in-process to warm it, for serve-cold the generated kernels the
  // clients will send. That work runs on the next CPU at every set-up,
  // pinned only once the server's threads exist. The last set-up's server
  // serves the window. The warm-up responses are checked after the timing.
  std::vector<double> SetUpS;
  std::unique_ptr<ServerUnderTest> Sut;
  std::vector<serve::CompileResponse> Warmed;
  for (unsigned K = 0; K < kSetUps; ++K) {
    const bool Traced = O.Trace && K + 1 == kSetUps;
    Tracer::setEnabled(Traced);
    Sut.reset();
    const Clock::time_point T0 = Clock::now();
    Sut = startServer(O, "setup" + std::to_string(K), R);
    if (!Sut)
      return;
    CpuPin Pin;
    Pin.pin(K);
    if (Cold) {
      Kernels.clear();
      Kernels = generateColdKernels(
          O.Seed, static_cast<size_t>(O.Seconds * kColdKernelsPerSecond) + 16);
    } else {
      Warmed.clear();
      Warmed.reserve(RefHashes.size());
      for (size_t KI = 0; KI < Kernels.size(); ++KI)
        for (size_t C = 0; C < Configs.size(); ++C) {
          serve::CompileRequest Req;
          Req.Cfg = Configs[C].Cfg;
          Req.IRText = Kernels[KI].IR;
          // The traced set-up compiles through the decomposed path, so
          // the trace carries compile and per-stage spans.
          serve::CompileResponse Resp;
          if (Traced) {
            const std::vector<uint8_t> Out = handleTraced(
                serve::encodeRequest(Req), Sut->Svc, Sut->Store, 0, R);
            serve::decodeResponse(Out.data(), Out.size(), Resp);
          } else {
            Resp = serve::serveRequest(Req, Sut->Svc);
          }
          Warmed.push_back(std::move(Resp));
        }
    }
    SetUpS.push_back(secondsSince(T0));
    Tracer::setEnabled(false);
    for (size_t Key = 0; Key < Warmed.size(); ++Key)
      if (!Warmed[Key].Ok || HashOf(Warmed[Key].Art) != RefHashes[Key])
        R.fail(Kernels[Key / Configs.size()].Name + "/" +
               Configs[Key % Configs.size()].Name +
               ": warm-up response is not the reference artifact");
  }
  if (Cold) {
    makeColdRefs(Kernels, Configs, Pool, R);
    for (const Kernel &K : Kernels)
      for (const ColdRef &Ref : K.Refs)
        RefHashes.push_back(Ref.BytesHash);
  }
  if (!R.correct())
    return;

  // The window. serve-warm clients draw keys in a seeded order for the
  // whole window. serve-cold runs rounds until the window is over, each
  // round to a server made cold again, and the clients take disjoint
  // kernels (client c: c, c+2, ...) and send each under both configs.
  std::vector<RNG> Orders;
  for (unsigned C = 0; C < kClients; ++C)
    Orders.emplace_back(O.Seed * 0x9E3779B97F4A7C15ull + 17 * C + 1);
  const NextRequest Next = [&](unsigned C, uint64_t I, size_t &K,
                               size_t &Cfg) {
    if (!Cold) {
      const uint64_t Key = Orders[C].nextBelow(Kernels.size() * Configs.size());
      K = Key / Configs.size();
      Cfg = Key % Configs.size();
      return true;
    }
    K = C + kClients * (I / Configs.size());
    Cfg = I % Configs.size();
    return K < Kernels.size();
  };
  std::vector<ClientLog> Logs = makeLogs(WindowS);
  const double SkipS = Cold ? 0 : WindowS * kConnectShare;
  double ActiveS = 0;
  unsigned Rounds = 0;
  const Clock::time_point W0 = Clock::now();
  if (Cold) {
    // The clients and the server's sessions stay for the whole window, so
    // no round pays for new threads and their memory.
    Clock::time_point R0 = W0;
    const std::function<bool()> EndRound = [&] {
      ActiveS += secondsSince(R0);
      ++Rounds;
      if (Rounds >= kMinColdRounds && secondsSince(W0) >= WindowS)
        return false;
      Sut->makeCold(Rounds);
      R0 = Clock::now();
      return true;
    };
    runClients(Logs, Sut->Endpoint, Clock::time_point::max(), O.Seed,
               Kernels, Configs, Next, RefHashes, /*Warm=*/false, EndRound);
  } else {
    runClients(Logs, Sut->Endpoint,
               W0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(WindowS)),
               O.Seed, Kernels, Configs, Next, RefHashes, /*Warm=*/true);
    ActiveS = secondsSince(W0) - SkipS;
  }
  const double PeakRss = peakRssMb();
  uint64_t Retries = 0, Hits = 0;
  std::vector<double> RttUs;
  for (const ClientLog &L : Logs) {
    R.Attempted += L.Attempted;
    for (const std::string &F : L.Failures)
      R.fail(F);
    Retries += L.Retries;
    RttUs.insert(RttUs.end(), L.LatUs.begin(), L.LatUs.end());
    Hits += std::count(L.Origins.begin(), L.Origins.end(),
                       serve::ServeOrigin::MemoryHit);
  }
  const double HitRatio = static_cast<double>(Hits) / RttUs.size();

  // The traced replay: each request through the reference path and the
  // spanned path, alternating which goes first; the bytes must agree.
  std::vector<double> RefUs, TracedUs, ReqBytes, RespBytes;
  uint64_t ReplayMismatches = 0;
  LayerMap Replay;
  if (O.Trace) {
    // serve-cold replays its kernels to one more fresh server, and runs
    // the reference path on a service of its own, so both paths compile.
    if (Cold) {
      Sut.reset();
      Sut = startServer(O, "replay", R);
      if (!Sut)
        return;
    }
    CompileService RefSvc;
    serve::FileArtifactStore RefStore(Sut->Dir + "/ref-store");
    RefSvc.setPersistence(&RefStore);
    CompileService &Reference = Cold ? RefSvc : Sut->Svc;
    RNG Order(O.Seed * 0x9E3779B97F4A7C15ull + 99);
    const LayerMap Before = Tracer::totals();
    const Clock::time_point W0 = Clock::now();
    for (uint32_t Id = 0; Id < 8 || secondsSince(W0) < O.Seconds / 2; ++Id) {
      size_t K, Cfg;
      if (Cold) {
        K = Id / Configs.size();
        Cfg = Id % Configs.size();
        if (K >= Kernels.size())
          break;
      } else {
        const uint64_t Key = Order.nextBelow(Kernels.size() * Configs.size());
        K = Key / Configs.size();
        Cfg = Key % Configs.size();
      }
      serve::CompileRequest Req;
      Req.Cfg = Configs[Cfg].Cfg;
      Req.IRText = Kernels[K].IR;
      const std::vector<uint8_t> Frame = serve::encodeRequest(Req);
      std::vector<uint8_t> RefOut, Out;
      for (unsigned Pass = 0; Pass < 2; ++Pass) {
        const bool RefTurn = (Pass + Id) % 2 == 0;
        Tracer::setEnabled(!RefTurn);
        const Clock::time_point T0 = Clock::now();
        if (RefTurn)
          RefOut = handleReference(Frame, Reference);
        else
          Out = handleTraced(Frame, Sut->Svc, Sut->Store, Id, R);
        (RefTurn ? RefUs : TracedUs).push_back(microsBetween(T0, Clock::now()));
        Tracer::setEnabled(false);
      }
      ++R.Attempted;
      if (Out != RefOut && !(Cold && renumberedOnly(Out, RefOut, Kernels[K])))
        R.fail(Kernels[K].Name + "/" + Configs[Cfg].Name +
               ": traced replay bytes differ from serveRequest's");
      ReplayMismatches += Out != RefOut;
      ReqBytes.push_back(Frame.size());
      RespBytes.push_back(Out.size());
    }
    Replay = diffTotals(Tracer::totals(), Before);
    addMetric(R.Extra, "verify.replay_byte_mismatches", "count",
              ReplayMismatches, RefUs.size());
  }

  // Verification: outputs against references that are not the compiler
  // under test. The device counters and artifact sizes are those of the
  // workload's kernels x configs, which every served artifact equals.
  std::vector<DevicePair> Pairs;
  std::vector<SimRun> Runs;
  std::vector<double> Regions, ArtifactBytes;
  Tracer::setEnabled(O.Trace);
  if (Cold) {
    verifyCold(Kernels, Configs, Logs, Pool, R);
    // In generator order, not the seed's, so that the floating-point sums
    // come out the same for every seed.
    std::vector<const Kernel *> InOrder;
    for (const Kernel &K : Kernels)
      InOrder.push_back(&K);
    std::sort(InOrder.begin(), InOrder.end(),
              [](const Kernel *A, const Kernel *B) {
                return A->GenSeed < B->GenSeed;
              });
    for (const Kernel *K : InOrder)
      for (const ColdRef &Ref : K->Refs) {
        Pairs.push_back({K->Base, Ref.Melded});
        Regions.push_back(Ref.Regions);
        ArtifactBytes.push_back(Ref.Bytes);
      }
  } else {
    verifyWarm(Kernels, Configs, Expect, R, Pairs, Runs);
    for (const auto &E : Expect) {
      Regions.push_back(E->Stats.RegionsMelded);
      ArtifactBytes.push_back(serializeCompiledModule(*E).size());
    }
  }
  Tracer::setEnabled(false);

  addSetUpMetric(R, SetUpS);
  addServeMetrics(R, Logs, SkipS, ActiveS, Cold ? 0 : RefHashes.size());
  addMetric(R.EndToEnd, "artifact_kib", "KiB", mean(ArtifactBytes) / 1024.0,
            ArtifactBytes.size());
  addDeviceMetrics(R, Pairs);
  if (Cold)
    addMetric(R.Extra, "window.rounds", "count", Rounds);

  if (O.Trace) {
    const LayerMap All = Tracer::totals();
    const double NReq = std::max<size_t>(1, RefUs.size());
    auto Total = [&](const char *Layer) {
      auto It = Replay.find(Layer);
      return It == Replay.end() ? 0.0 : It->second.TotalUs;
    };
    auto Self = [&](const char *Layer) {
      auto It = Replay.find(Layer);
      return It == Replay.end() ? 0.0 : It->second.SelfUs;
    };
    // Per request of the replay: the span layers (compile with its
    // stages, without the store calls it makes), and transport as what the
    // clients waited beyond the in-process request.
    const double TransportUs = std::max(0.0, mean(RttUs) - mean(RefUs));
    double Named = 0;
    for (const char *L : {"serve.decode", "ir.parse", "core.key", "core.lookup",
                          "core.compile", "serve.store_load",
                          "serve.store_write", "core.encode", "ir.free"}) {
      const std::string Layer = L;
      double Us;
      if (Layer == "core.compile")
        Us = Total("core.compile") - Total("serve.store_load") -
             Total("serve.store_write");
      else if (Layer == "serve.store_load" || Layer == "serve.store_write")
        Us = Total(L);
      else
        Us = Self(L);
      Named += Us / NReq;
      addMetric(R.Extra, "request." + Layer + "_us", "us", Us / NReq, NReq);
    }
    addLayerMetrics(R, All, TransportUs);
    double Instrs = 0, SimUs = 0;
    for (const SimRun &Run : Runs) {
      Instrs += Run.Stats.InstructionsIssued;
      SimUs += Run.Us;
    }
    addSimPathMetrics(R, Runs, SimUs > 0 ? Instrs / SimUs : 0);
    addMetric(R.PerLayer, "core.regions_melded", "count", mean(Regions),
              Regions.size());
    addMetric(R.PerLayer, "cache.hit_ratio", "ratio", HitRatio);
    addMetric(R.PerLayer, "client.retries", "count", Retries);
    addMetric(R.PerLayer, "serve.request_bytes", "B", mean(ReqBytes),
              ReqBytes.size());
    addMetric(R.PerLayer, "serve.response_bytes", "B", mean(RespBytes),
              RespBytes.size());
    addMetric(R.PerLayer, "trace.overhead_pct", "%",
              100.0 * (mean(TracedUs) / mean(RefUs) - 1), TracedUs.size());
    addMetric(R.PerLayer, "trace.coverage_pct", "%",
              100.0 * Named / mean(RefUs), TracedUs.size());
    addMetric(R.Extra, "request.rtt_us", "us", mean(RttUs), RttUs.size());
    addMetric(R.Extra, "request.in_process_us", "us", mean(RefUs),
              RefUs.size());
    addMetric(R.Extra, "request.traced_us", "us", mean(TracedUs),
              TracedUs.size());
  }
  addMetric(R.EndToEnd, "peak_rss_mb", "MB", PeakRss);
}
