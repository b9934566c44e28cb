//===- compile_service_test.cpp - Compile cache behaviour ---------------------===//
//
// Pins the CompileService contract (docs/caching.md): config
// fingerprints distinguish every tunable, hits return the exact artifact
// a cold compile produces (byte-identical, at any cache state), the LRU
// byte budget evicts cold entries, failed compiles are cached negative
// results, and concurrent get-or-compile under the support/Parallel.h
// pool is deterministic.
//
//===----------------------------------------------------------------------===//

#include "darm/core/CompileService.h"

#include "darm/core/DARMPass.h"
#include "darm/fuzz/KernelGenerator.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/ir/Serialize.h"
#include "darm/sim/DecodedProgram.h"
#include "darm/support/Hashing.h"
#include "darm/support/Parallel.h"

#include "helpers/WriterStall.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace darm;

namespace {

Function *buildKernel(Module &M, uint64_t Seed) {
  fuzz::FuzzCase C(Seed);
  Function *F = fuzz::buildFuzzKernel(M, C);
  EXPECT_NE(F, nullptr);
  return F;
}

TEST(ConfigFingerprint, DistinguishesEveryField) {
  const std::string Base = configFingerprint(DARMConfig());
  auto Differs = [&](DARMConfig Cfg) {
    EXPECT_NE(configFingerprint(Cfg), Base);
  };
  {
    DARMConfig C;
    C.ProfitThreshold = 0.3;
    Differs(C);
  }
  {
    DARMConfig C;
    C.InstrGapPenalty = -0.25;
    Differs(C);
  }
  {
    DARMConfig C;
    C.SubgraphGapPenalty = -0.2;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableUnpredication = false;
    Differs(C);
  }
  {
    DARMConfig C;
    C.DiamondOnly = true;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableRegionReplication = false;
    Differs(C);
  }
  {
    DARMConfig C;
    C.MinAbsoluteSaving = 3.0;
    Differs(C);
  }
  {
    DARMConfig C;
    C.MaxIterations = 7;
    Differs(C);
  }
  {
    DARMConfig C;
    C.VerifyEachStep = false;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableConstProp = true;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableAlgebraic = true;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableGVN = true;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableLICM = true;
    Differs(C);
  }
  {
    DARMConfig C;
    C.EnableLoopUnroll = true;
    Differs(C);
  }
  // Equal configs fingerprint equal; the fingerprint embeds the schema
  // version and the explicit field count as a tripwire for fields added
  // without extending configFingerprint — NOT sizeof(DARMConfig), which
  // varies with compiler padding and would silently split on-disk
  // artifact keys across ABIs (docs/caching.md fingerprint portability).
  // When growing the struct: bump kDARMConfigFieldCount, extend
  // configFingerprint() and the serve/Protocol.h config codec, and add a
  // Differs() block above — this pin counts them.
  EXPECT_EQ(configFingerprint(DARMConfig()), Base);
  EXPECT_EQ(kDARMConfigFieldCount, 14u);
  const std::string Prefix =
      "darm-cfg-v2;" + std::to_string(kDARMConfigFieldCount) + ";";
  EXPECT_EQ(Base.rfind(Prefix, 0), 0u) << Base;
  EXPECT_EQ(Base.find(std::to_string(sizeof(DARMConfig))), std::string::npos)
      << "fingerprint must not embed ABI-dependent sizeof";
}

TEST(CompiledModuleTest, ArtifactMatchesDirectCompile) {
  Context Ctx;
  Module M(Ctx, "direct");
  Function *F = buildKernel(M, 11);

  CompiledModule Art = compileToArtifact(*F, DARMConfig());
  ASSERT_FALSE(Art.failed()) << Art.CompileError;
  EXPECT_EQ(Art.IRHash, artifactIRHash(*F));
  EXPECT_FALSE(Art.ModuleBytes.empty());
  EXPECT_FALSE(Art.ProgramBytes.empty());

  // The input function is untouched...
  std::string Before = printFunction(*F);
  EXPECT_EQ(artifactIRHash(*F), Art.IRHash);

  // ...and the artifact's module is exactly what melding the input
  // in place produces.
  DARMStats DirectStats;
  runDARM(*F, DARMConfig(), &DirectStats);
  Context ArtCtx;
  std::string Err;
  std::unique_ptr<Module> AM = moduleFromArtifact(Art, ArtCtx, &Err);
  ASSERT_NE(AM, nullptr) << Err;
  EXPECT_EQ(printFunction(*AM->functions().front()), printFunction(*F));
  EXPECT_EQ(Art.Stats.RegionsMelded, DirectStats.RegionsMelded);
  EXPECT_EQ(Art.Stats.Iterations, DirectStats.Iterations);

  // The embedded program image equals a fresh decode of the melded IR.
  EXPECT_EQ(Art.ProgramBytes,
            serializeDecodedProgram(decodeProgram(*AM->functions().front())));

  // Determinism: compiling the same input again is byte-identical.
  Context Ctx2;
  Module M2(Ctx2, "direct");
  Function *F2 = buildKernel(M2, 11);
  CompiledModule Art2 = compileToArtifact(*F2, DARMConfig());
  EXPECT_EQ(Art2.ModuleBytes, Art.ModuleBytes);
  EXPECT_EQ(Art2.ProgramBytes, Art.ProgramBytes);
}

TEST(CompiledModuleTest, ArtifactIRHashIsPureInFunctionContent) {
  // Same kernel in modules with different names, Contexts and sibling
  // functions: the content key must not move — renaming a module or
  // adding an unrelated sibling must never cold the cache.
  Context C1;
  Module M1(C1, "alpha");
  Function *F1 = buildKernel(M1, 9);
  Context C2;
  Module M2(C2, "beta");
  Function *F2 = buildKernel(M2, 9);
  Function *Sibling = buildKernel(M2, 10);
  EXPECT_EQ(artifactIRHash(*F1), artifactIRHash(*F2));
  EXPECT_NE(artifactIRHash(*F1), artifactIRHash(*Sibling));

  // The key is the hash of the canonical single-function snapshot.
  std::vector<uint8_t> Snap = serializeFunction(*F1);
  ASSERT_FALSE(Snap.empty());
  EXPECT_EQ(artifactIRHash(*F1), hashBytes(Snap.data(), Snap.size()));
  EXPECT_EQ(Snap, serializeFunction(*F2));
}

TEST(CompileServiceTest, MissThenHit) {
  CompileService Svc;
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildKernel(M, 3);

  CompileService::Artifact A = Svc.getOrCompile(*F, DARMConfig());
  ASSERT_NE(A, nullptr);
  CompileService::Artifact B = Svc.getOrCompile(*F, DARMConfig());
  EXPECT_EQ(A.get(), B.get()) << "hit must return the cached artifact";

  // The same kernel built in a different Context hits too: the key is
  // content, not identity.
  Context Ctx2;
  Module M2(Ctx2, "m2");
  Function *F2 = buildKernel(M2, 3);
  CompileService::Artifact C = Svc.getOrCompile(*F2, DARMConfig());
  EXPECT_EQ(A.get(), C.get());

  CompileService::CacheStats St = Svc.stats();
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Entries, 1u);
  EXPECT_GT(St.Bytes, 0u);
  EXPECT_DOUBLE_EQ(St.hitRate(), 2.0 / 3.0);

  EXPECT_NE(Svc.lookup(A->IRHash, A->Fingerprint), nullptr);
  Svc.clear();
  EXPECT_EQ(Svc.lookup(A->IRHash, A->Fingerprint), nullptr);
  EXPECT_EQ(Svc.stats().Entries, 0u);
}

TEST(CompileServiceTest, DistinctConfigsAndKernelsDistinctEntries) {
  CompileService Svc;
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildKernel(M, 4);
  Function *G = buildKernel(M, 5);

  DARMConfig Aggressive;
  Aggressive.ProfitThreshold = 0.1;
  CompileService::Artifact A = Svc.getOrCompile(*F, DARMConfig());
  CompileService::Artifact B = Svc.getOrCompile(*F, Aggressive);
  CompileService::Artifact C = Svc.getOrCompile(*G, DARMConfig());
  EXPECT_NE(A.get(), B.get());
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(Svc.stats().Entries, 3u);
  EXPECT_EQ(Svc.stats().Misses, 3u);
}

TEST(CompileServiceTest, ProgramUpgradeCountsAsUpgrade) {
  CompileService Svc;
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildKernel(M, 6);

  CacheSource Src = CacheSource::MemoryHit;
  CompileService::Artifact NoProg = Svc.getOrCompile(
      *F, DARMConfig(), /*IncludeProgram=*/false, &Src);
  EXPECT_TRUE(NoProg->ProgramBytes.empty());
  EXPECT_EQ(Src, CacheSource::Compiled);
  CompileService::Artifact WithProg =
      Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/true, &Src);
  EXPECT_FALSE(WithProg->ProgramBytes.empty());
  EXPECT_EQ(WithProg->ModuleBytes, NoProg->ModuleBytes);
  EXPECT_EQ(Src, CacheSource::Upgraded);
  // Re-deriving the program image for an already-cached module is an
  // upgrade, not a cold miss: it must not dilute the hit rate a cache
  // of full artifacts would report.
  EXPECT_EQ(Svc.stats().Misses, 1u);
  EXPECT_EQ(Svc.stats().Upgrades, 1u);
  EXPECT_DOUBLE_EQ(Svc.stats().hitRate(), 0.0);
  // A program-less request is satisfied by the upgraded entry.
  CompileService::Artifact Again =
      Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/false, &Src);
  EXPECT_EQ(Again.get(), WithProg.get());
  EXPECT_EQ(Src, CacheSource::MemoryHit);
  EXPECT_EQ(Svc.stats().Hits, 1u);
  EXPECT_DOUBLE_EQ(Svc.stats().hitRate(), 0.5);
}

TEST(CompileServiceTest, FailedCompileIsCachedNegative) {
  CompileService Svc;
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildKernel(M, 7);

  unsigned Runs = 0;
  // A compile step that produces verifier-rejected IR (a block with no
  // terminator): the service must cache the failure, not rerun it.
  CompileFn Broken = [&Runs](Function &K, DARMStats &) {
    ++Runs;
    K.createBlock("dangling");
  };
  CompileService::Artifact A = Svc.getOrCompile(*F, "test:broken", Broken);
  ASSERT_TRUE(A->failed());
  EXPECT_TRUE(A->ModuleBytes.empty());
  CompileService::Artifact B = Svc.getOrCompile(*F, "test:broken", Broken);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(Runs, 1u);
  EXPECT_EQ(Svc.stats().Hits, 1u);

  Context Err;
  std::string Msg;
  EXPECT_EQ(moduleFromArtifact(*A, Err, &Msg), nullptr);
  EXPECT_EQ(Msg, A->CompileError);
}

TEST(CompileServiceTest, LruEvictionUnderByteBudget) {
  CompileService::Options Opts;
  Opts.NumShards = 1; // one LRU list so the budget math is exact
  Opts.MaxBytes = 64 * 1024;
  CompileService Svc(Opts);

  Context Ctx;
  Module M(Ctx, "m");
  CompileService::Artifact First;
  uint64_t Seed = 100;
  // Compile until the budget forces evictions.
  while (Svc.stats().Evictions == 0 && Seed < 200) {
    Function *F = buildKernel(M, Seed);
    CompileService::Artifact A = Svc.getOrCompile(*F, DARMConfig());
    if (!First)
      First = A;
    ++Seed;
  }
  CompileService::CacheStats St = Svc.stats();
  ASSERT_GT(St.Evictions, 0u) << "64 KiB must not hold 100 artifacts";
  EXPECT_LE(St.Bytes, Opts.MaxBytes);
  // The coldest entry (the first) is gone; re-requesting it is a miss.
  EXPECT_EQ(Svc.lookup(First->IRHash, First->Fingerprint), nullptr);
  // Evicted artifacts stay alive through consumer references.
  EXPECT_FALSE(First->ModuleBytes.empty());
}

TEST(CompileServiceTest, OversizedArtifactIsServedButNotCached) {
  CompileService::Options Opts;
  Opts.NumShards = 1;
  Opts.MaxBytes = 256; // far below any real artifact's byteSize()
  CompileService Svc(Opts);

  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildKernel(M, 5);
  CacheSource Src = CacheSource::MemoryHit;
  CompileService::Artifact A =
      Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/true, &Src);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(Src, CacheSource::Compiled);
  EXPECT_GT(A->byteSize(), Opts.MaxBytes);

  // Reject-from-cache policy (core/CompileService.h): the caller gets
  // the artifact, but the cache neither admits it (which would pin the
  // shard over budget forever — the old `size() > 1` eviction guard bug)
  // nor evicts everything else to make room that still would not
  // suffice.
  CompileService::CacheStats St = Svc.stats();
  EXPECT_EQ(St.Oversized, 1u);
  EXPECT_EQ(St.Entries, 0u);
  EXPECT_EQ(St.Bytes, 0u);
  EXPECT_EQ(Svc.lookup(A->IRHash, A->Fingerprint), nullptr);

  // Re-requesting recompiles (a miss, counted again as oversized) and
  // still returns the full deterministic artifact.
  CompileService::Artifact B =
      Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/true, &Src);
  EXPECT_EQ(Src, CacheSource::Compiled);
  EXPECT_EQ(Svc.stats().Misses, 2u);
  EXPECT_EQ(Svc.stats().Oversized, 2u);
  EXPECT_EQ(B->ModuleBytes, A->ModuleBytes);
  EXPECT_EQ(B->ProgramBytes, A->ProgramBytes);
}

TEST(CompileServiceTest, OversizedRepeatBeforeFlushIsDiskHit) {
  // An oversized artifact never enters memory, so its repeat request is
  // answered by the persistence layer. A write-behind store must answer
  // it from its queue while the write is still pending: a DiskHit, not a
  // second compile.
  const std::string Dir = "compile_service_test_oversized.dir";
  std::system(("rm -rf " + Dir).c_str());
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = buildKernel(M, 5);
  Module Other(Ctx, "other");
  const CompiledModule First =
      compileToArtifact(*buildKernel(Other, 6), DARMConfig());
  {
    serve::FileArtifactStore Store(Dir);
    CompileService::Options Opts;
    Opts.NumShards = 1;
    Opts.MaxBytes = 256; // far below any real artifact's byteSize()
    CompileService Svc(Opts);
    Svc.setPersistence(&Store);
    // Long enough to cover the compile below even in sanitizer builds.
    testhelpers::WriterStall Stall(Store, First, /*MinMs=*/1000);

    CacheSource Src = CacheSource::MemoryHit;
    CompileService::Artifact A = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::Compiled);
    CompileService::Artifact B = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::DiskHit);
    EXPECT_EQ(Store.stats().Stores, 0u) << "the write had not landed yet";
    const CompileService::CacheStats St = Svc.stats();
    EXPECT_EQ(St.Misses, 1u);
    EXPECT_EQ(St.DiskHits, 1u);
    EXPECT_EQ(St.Oversized, 2u);
    EXPECT_EQ(serializeCompiledModule(*B), serializeCompiledModule(*A));
    Store.flush();
  }
  std::system(("rm -rf " + Dir).c_str());
}

TEST(CompileServiceTest, ConcurrentGetOrCompileIsDeterministic) {
  CompileService Svc;
  // 64 work items over 8 distinct kernels, racing on a shared service.
  // Per-worker-Context rule: every item builds its own Context.
  constexpr size_t Items = 64;
  ThreadPool Pool(8);
  std::vector<CompileService::Artifact> Arts =
      parallelMap<CompileService::Artifact>(Pool, Items, [&](size_t I) {
        Context Ctx;
        Module M(Ctx, "w");
        Function *F = fuzz::buildFuzzKernel(M, fuzz::FuzzCase(I % 8));
        return Svc.getOrCompile(*F, DARMConfig());
      });

  for (size_t I = 0; I < Items; ++I) {
    ASSERT_NE(Arts[I], nullptr);
    EXPECT_FALSE(Arts[I]->failed()) << Arts[I]->CompileError;
    // Same seed -> byte-identical artifact, regardless of which worker
    // compiled it or whether it hit.
    EXPECT_EQ(Arts[I]->ModuleBytes, Arts[I % 8]->ModuleBytes);
    EXPECT_EQ(Arts[I]->ProgramBytes, Arts[I % 8]->ProgramBytes);
  }
  CompileService::CacheStats St = Svc.stats();
  EXPECT_EQ(St.Hits + St.Misses, Items);
  EXPECT_EQ(St.Entries, 8u);
  // Racing compiles may duplicate work but never change results.
  EXPECT_GE(St.Misses, 8u);
}

} // namespace
