//===- CompileService.cpp - Artifact compilation + sharded cache --------------===//
//
// Implements the context-free artifact layer (core/CompiledModule.h) and
// the sharded get-or-compile cache in front of it (core/CompileService.h,
// docs/caching.md). Lives in the darm_service library: producing a
// DecodedProgram image needs darm_sim, which the core layers must not
// link (darm_sim already depends on darm_analysis below them).
//
//===----------------------------------------------------------------------===//

#include "darm/core/CompileService.h"

#include "darm/analysis/Verifier.h"
#include "darm/core/DARMPass.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRParser.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/ir/Serialize.h"
#include "darm/sim/DecodedProgram.h"
#include "darm/support/BinaryStream.h"
#include "darm/support/Hashing.h"

#include <sstream>

using namespace darm;

//===----------------------------------------------------------------------===//
// Config fingerprint
//===----------------------------------------------------------------------===//

std::string darm::configFingerprint(const DARMConfig &Cfg) {
  // Every field, in declaration order, under a version tag. Doubles are
  // printed with max_digits10 round-trip precision so distinct values
  // never collapse to one fingerprint. kDARMConfigFieldCount acts as the
  // tripwire: growing the struct without extending this list changes the
  // count (a cache flush), never a silent false hit — and the unit test
  // counts its per-field mutations against the constant so the diff
  // points here. Deliberately NOT sizeof(DARMConfig): ABI padding
  // differs across compilers/platforms, and baking it into the key would
  // silently invalidate every artifact persisted by another build
  // (docs/caching.md fingerprint portability).
  std::ostringstream OS;
  OS.precision(17);
  OS << "darm-cfg-v2;" << kDARMConfigFieldCount << ';';
  OS << Cfg.ProfitThreshold << ';' << Cfg.InstrGapPenalty << ';'
     << Cfg.SubgraphGapPenalty << ';' << Cfg.EnableUnpredication << ';'
     << Cfg.DiamondOnly << ';' << Cfg.EnableRegionReplication << ';'
     << Cfg.MinAbsoluteSaving << ';' << Cfg.MaxIterations << ';'
     << Cfg.VerifyEachStep << ';' << Cfg.EnableConstProp << ';'
     << Cfg.EnableAlgebraic << ';' << Cfg.EnableGVN << ';' << Cfg.EnableLICM
     << ';' << Cfg.EnableLoopUnroll;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Artifact container serialization ("DRMA")
//===----------------------------------------------------------------------===//

namespace {

constexpr char kArtifactMagic[4] = {'D', 'R', 'M', 'A'};

void writeByteVector(ByteWriter &W, const std::vector<uint8_t> &V) {
  W.writeVar(V.size());
  for (uint8_t B : V)
    W.writeU8(B);
}

bool readByteVector(ByteReader &R, std::vector<uint8_t> &V) {
  uint64_t N = R.readVar();
  // Reject before allocating: a corrupt length must not OOM the reader.
  if (R.failed() || N > (1u << 30))
    return false;
  V.resize(static_cast<size_t>(N));
  for (size_t I = 0; I < V.size(); ++I)
    V[I] = R.readU8();
  return !R.failed();
}

} // namespace

std::vector<uint8_t> darm::serializeCompiledModule(const CompiledModule &Art) {
  ByteWriter W;
  for (char C : kArtifactMagic)
    W.writeU8(static_cast<uint8_t>(C));
  W.writeU16(kArtifactFormatVersion);
  W.writeU64(Art.IRHash);
  W.writeStr(Art.Fingerprint);
  writeByteVector(W, Art.ModuleBytes);
  writeByteVector(W, Art.ProgramBytes);
  W.writeStr(Art.CompileError);
  // The deterministic compile counters. StageSeconds — host wall-clock —
  // are deliberately not part of the artifact value (see the header):
  // equal compiles must serialize to equal bytes on any machine.
  W.writeVar(Art.Stats.Iterations);
  W.writeVar(Art.Stats.RegionsMelded);
  W.writeVar(Art.Stats.SubgraphPairsMelded);
  W.writeVar(Art.Stats.BlockRegionMelds);
  W.writeVar(Art.Stats.SelectsInserted);
  W.writeVar(Art.Stats.UnpredicationSplits);
  W.writeVar(Art.Stats.GuardedStores);
  std::vector<uint8_t> Bytes = W.take();
  // Trailing FNV-1a/64 over the whole image. The inner decoders catch
  // structural damage, but a flipped byte inside a counter varint or the
  // module payload's data section can still decode to a plausible wrong
  // value — the checksum turns every single-byte flip into a detected
  // reject (a cold miss), which the on-disk store's crash-safety
  // contract requires.
  const uint64_t Sum = hashBytes(Bytes.data(), Bytes.size());
  for (unsigned I = 0; I < 8; ++I)
    Bytes.push_back(static_cast<uint8_t>(Sum >> (8 * I)));
  return Bytes;
}

bool darm::deserializeCompiledModule(const uint8_t *Data, size_t Size,
                                     CompiledModule &Art, std::string *Err) {
  auto Reject = [&](const char *Why) {
    if (Err)
      *Err = std::string("artifact: ") + Why;
    return false;
  };
  if (Size < 8)
    return Reject("too short for a DRMA artifact");
  uint64_t Sum = 0;
  for (unsigned I = 0; I < 8; ++I)
    Sum |= static_cast<uint64_t>(Data[Size - 8 + I]) << (8 * I);
  if (hashBytes(Data, Size - 8) != Sum)
    return Reject("checksum mismatch (corrupt artifact)");
  ByteReader R(Data, Size - 8);
  for (char C : kArtifactMagic)
    if (R.readU8() != static_cast<uint8_t>(C))
      return Reject("bad magic (not a DRMA artifact)");
  const uint16_t Version = R.readU16();
  if (R.failed())
    return Reject("truncated header");
  if (Version != kArtifactFormatVersion)
    return Reject("unsupported format version");
  CompiledModule A;
  A.IRHash = R.readU64();
  A.Fingerprint = R.readStr();
  if (!readByteVector(R, A.ModuleBytes) || !readByteVector(R, A.ProgramBytes))
    return Reject("truncated payload");
  A.CompileError = R.readStr();
  A.Stats.Iterations = static_cast<unsigned>(R.readVar());
  A.Stats.RegionsMelded = static_cast<unsigned>(R.readVar());
  A.Stats.SubgraphPairsMelded = static_cast<unsigned>(R.readVar());
  A.Stats.BlockRegionMelds = static_cast<unsigned>(R.readVar());
  A.Stats.SelectsInserted = static_cast<unsigned>(R.readVar());
  A.Stats.UnpredicationSplits = static_cast<unsigned>(R.readVar());
  A.Stats.GuardedStores = static_cast<unsigned>(R.readVar());
  if (R.failed())
    return Reject("truncated payload");
  if (!R.atEnd())
    return Reject("trailing bytes after artifact");
  Art = std::move(A);
  return true;
}

//===----------------------------------------------------------------------===//
// Artifact construction / consumption
//===----------------------------------------------------------------------===//

namespace {

/// Miss-path core shared by compileToArtifact and getOrCompile. \p
/// Snapshot, when non-null, is F's canonical single-function snapshot
/// (serializeFunction) and \p IRHash its hash — computed once by the
/// caller, because at corpus scale serializing + hashing the snapshot is
/// ~3x cheaper than hashing the printed text, and the same bytes then
/// rematerialize the kernel. A null snapshot (IR the serializer refuses)
/// falls back to the printed-form round trip.
CompiledModule compileArtifactImpl(const Function &F,
                                   const std::vector<uint8_t> *Snapshot,
                                   uint64_t IRHash,
                                   const std::string &Fingerprint,
                                   const CompileFn &Compile,
                                   bool IncludeProgram) {
  CompiledModule Art;
  Art.IRHash = IRHash;
  Art.Fingerprint = Fingerprint;

  // Rematerialize the kernel in a private Context (round-trip identity of
  // both forms is pinned), so the caller's function and Context are never
  // touched.
  Context Ctx;
  std::string Err;
  std::unique_ptr<Module> M = Snapshot
                                  ? deserializeModule(Ctx, *Snapshot, &Err)
                                  : parseModule(Ctx, printFunction(F), &Err);
  if (!M || M->functions().empty()) {
    Art.CompileError = "artifact: input rematerialization failed: " + Err;
    return Art;
  }
  Function &Kernel = *M->functions().front();

  Compile(Kernel, Art.Stats);

  if (!verifyFunction(Kernel, &Err)) {
    // Cache the negative result: consumers report the verifier message
    // exactly as a direct compile would, without re-running the broken
    // transform per consumer.
    Art.CompileError = Err;
    return Art;
  }

  Art.ModuleBytes = serializeModule(*M);
  if (Art.ModuleBytes.empty()) {
    Art.CompileError = "artifact: melded module is not serializable";
    return Art;
  }
  if (IncludeProgram)
    Art.ProgramBytes = serializeDecodedProgram(decodeProgram(Kernel));
  return Art;
}

} // namespace

uint64_t darm::artifactIRHash(const Function &F) {
  std::vector<uint8_t> Snap = serializeFunction(F);
  return Snap.empty() ? hashFunction(F)
                      : hashBytes(Snap.data(), Snap.size());
}

CompiledModule darm::compileToArtifact(const Function &F,
                                       const std::string &Fingerprint,
                                       const CompileFn &Compile,
                                       bool IncludeProgram) {
  std::vector<uint8_t> Snap = serializeFunction(F);
  if (!Snap.empty())
    return compileArtifactImpl(F, &Snap, hashBytes(Snap.data(), Snap.size()),
                               Fingerprint, Compile, IncludeProgram);
  return compileArtifactImpl(F, nullptr, hashFunction(F), Fingerprint, Compile,
                             IncludeProgram);
}

CompiledModule darm::compileToArtifact(const Function &F,
                                       const DARMConfig &Cfg,
                                       bool IncludeProgram) {
  return compileToArtifact(
      F, configFingerprint(Cfg),
      [&Cfg](Function &Kernel, DARMStats &Stats) {
        runDARM(Kernel, Cfg, &Stats);
      },
      IncludeProgram);
}

std::unique_ptr<Module> darm::moduleFromArtifact(const CompiledModule &Art,
                                                 Context &Ctx,
                                                 std::string *Err) {
  if (Art.failed()) {
    if (Err)
      *Err = Art.CompileError;
    return nullptr;
  }
  return deserializeModule(Ctx, Art.ModuleBytes, Err);
}

bool darm::decodeFromArtifact(const CompiledModule &Art, DecodedProgram &P) {
  return !Art.ProgramBytes.empty() &&
         deserializeDecodedProgram(Art.ProgramBytes.data(),
                                   Art.ProgramBytes.size(), P);
}

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

size_t CompileService::KeyHash::operator()(const Key &K) const {
  StableHasher H;
  H.updateU64(K.IRHash);
  H.update(K.Fingerprint);
  return static_cast<size_t>(H.finish());
}

CompileService::CompileService() : CompileService(Options()) {}

CompileService::CompileService(Options O) : Opts(O) {
  if (Opts.NumShards == 0)
    Opts.NumShards = 1;
  ShardBudget = Opts.MaxBytes / Opts.NumShards;
  Shards = std::vector<Shard>(Opts.NumShards);
}

CompileService::Shard &CompileService::shardFor(const Key &K) const {
  return Shards[KeyHash()(K) % Shards.size()];
}

CompileService::Artifact CompileService::lookup(
    uint64_t IRHash, const std::string &Fingerprint) const {
  Key K{IRHash, Fingerprint};
  Shard &S = shardFor(K);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  return It == S.Map.end() ? nullptr : It->second->Art;
}

CompileService::Artifact CompileService::getOrCompile(const Function &F,
                                                      const std::string &FP,
                                                      const CompileFn &Compile,
                                                      bool IncludeProgram,
                                                      CacheSource *Source) {
  // One snapshot serves both halves of the miss path: its hash is the
  // content key (artifactIRHash), and on a miss the same bytes
  // rematerialize the kernel — nothing is printed, parsed or hashed
  // twice.
  std::vector<uint8_t> Snap = serializeFunction(F);
  Key K{Snap.empty() ? hashFunction(F) : hashBytes(Snap.data(), Snap.size()),
        FP};
  Shard &S = shardFor(K);
  // Distinguishes "key absent" (a cold miss) from "key cached without a
  // program image" (an upgrade): the latter re-runs the compile too, but
  // is counted in Upgrades, not Misses — folding upgrades into misses
  // would understate the hit rate every consumer reports.
  bool UpgradeOfCached = false;
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    // A hit must satisfy the caller: an entry cached without a program
    // image does not serve an IncludeProgram request (failed artifacts
    // have nothing to decode and always count as hits).
    if (It != S.Map.end()) {
      if (!IncludeProgram || It->second->Art->failed() ||
          !It->second->Art->ProgramBytes.empty()) {
        S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
        Hits.fetch_add(1, std::memory_order_relaxed);
        if (Source)
          *Source = CacheSource::MemoryHit;
        return It->second->Art;
      }
      UpgradeOfCached = true;
    }
  }
  // Second level: a persisted artifact (previous process, or another
  // daemon sharing the store) serves the request without recompiling —
  // the warm-start-survives-restart path. The store validates what it
  // returns; anything torn/corrupt/stale comes back null and we fall
  // through to a plain compile. An upgrade probes the store too: a
  // program-carrying artifact persisted by an earlier IncludeProgram
  // compile upgrades the in-memory program-less entry for free.
  if (Persist) {
    if (Artifact OnDisk = Persist->load(K.IRHash, FP, IncludeProgram)) {
      DiskHits.fetch_add(1, std::memory_order_relaxed);
      if (Source)
        *Source = CacheSource::DiskHit;
      return insert(K, std::move(OnDisk), IncludeProgram);
    }
  }
  // Compile with no lock held: a multi-second meld must not serialize
  // every other key in the shard. Racing compiles of the same key are
  // deterministic duplicates; insert() keeps the first.
  (UpgradeOfCached ? Upgrades : Misses).fetch_add(1,
                                                  std::memory_order_relaxed);
  auto Art = std::make_shared<const CompiledModule>(
      compileArtifactImpl(F, Snap.empty() ? nullptr : &Snap, K.IRHash, FP,
                          Compile, IncludeProgram));
  // Hand to the store before inserting: even when the insert loses a
  // duplicate race (or the artifact is oversized for the in-memory
  // budget), the store's write-once rule makes the extra store a no-op,
  // and the disk copy is what survives the process. A write-behind store
  // returns before the write is durable and answers repeat loads of the
  // key from its queue, so an oversized artifact's repeat request is a
  // DiskHit even before the file lands.
  if (Persist)
    Persist->store(*Art);
  if (Source)
    *Source = UpgradeOfCached ? CacheSource::Upgraded : CacheSource::Compiled;
  return insert(K, std::move(Art), IncludeProgram);
}

CompileService::Artifact CompileService::getOrCompile(const Function &F,
                                                      const DARMConfig &Cfg,
                                                      bool IncludeProgram,
                                                      CacheSource *Source) {
  return getOrCompile(
      F, configFingerprint(Cfg),
      [&Cfg](Function &Kernel, DARMStats &Stats) {
        runDARM(Kernel, Cfg, &Stats);
      },
      IncludeProgram, Source);
}

CompileService::Artifact CompileService::insert(const Key &K, Artifact Art,
                                                bool RequireProgram) {
  Shard &S = shardFor(K);
  size_t Bytes = Art->byteSize();
  // Oversized policy (see the header): an artifact that alone exceeds
  // the shard budget never enters the cache. It previously slid past the
  // eviction loop's size guard and pinned the shard permanently over
  // budget; now it is handed back uncached, and if a persistence layer
  // is wired the disk copy (no byte budget) answers repeat requests.
  if (Bytes > ShardBudget) {
    Oversized.fetch_add(1, std::memory_order_relaxed);
    return Art;
  }
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    // Keep the incumbent unless ours upgrades it with a program image.
    bool Upgrade = RequireProgram && !It->second->Art->failed() &&
                   It->second->Art->ProgramBytes.empty();
    if (!Upgrade) {
      DuplicateCompiles.fetch_add(1, std::memory_order_relaxed);
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      return It->second->Art;
    }
    S.Bytes -= It->second->Bytes;
    S.Lru.erase(It->second);
    S.Map.erase(It);
  }
  S.Lru.push_front(Entry{K, Art, Bytes});
  S.Map[K] = S.Lru.begin();
  S.Bytes += Bytes;
  // Every cached entry fits the budget individually (oversized ones were
  // rejected above), so this runs the cold tail down without ever
  // popping the entry just inserted at the front.
  while (S.Bytes > ShardBudget) {
    Entry &Cold = S.Lru.back();
    S.Bytes -= Cold.Bytes;
    S.Map.erase(Cold.K);
    S.Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return Art;
}

CompileService::CacheStats CompileService::stats() const {
  CacheStats St;
  St.Hits = Hits.load(std::memory_order_relaxed);
  St.Misses = Misses.load(std::memory_order_relaxed);
  St.Upgrades = Upgrades.load(std::memory_order_relaxed);
  St.DiskHits = DiskHits.load(std::memory_order_relaxed);
  St.Evictions = Evictions.load(std::memory_order_relaxed);
  St.DuplicateCompiles = DuplicateCompiles.load(std::memory_order_relaxed);
  St.Oversized = Oversized.load(std::memory_order_relaxed);
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    St.Bytes += S.Bytes;
    St.Entries += S.Map.size();
  }
  return St;
}

void CompileService::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Lru.clear();
    S.Map.clear();
    S.Bytes = 0;
  }
  Hits.store(0);
  Misses.store(0);
  Upgrades.store(0);
  DiskHits.store(0);
  Evictions.store(0);
  DuplicateCompiles.store(0);
  Oversized.store(0);
}
