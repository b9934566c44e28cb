//===- CompileService.h - In-process compile cache ----------------*- C++ -*-===//
///
/// \file
/// A sharded, content-addressed cache of CompiledModule artifacts: the
/// get-or-compile front door every repeated-compile consumer goes
/// through (check::measureCorpus, fuzz::sweepSeeds, bench/sim_throughput,
/// the darm_opt/darm_check/darm_fuzz --cache flags), and the seed of the
/// ROADMAP's darmd compilation service.
///
/// Concurrency: safe under the support/Parallel.h pool. Keys hash to one
/// of NumShards independently-locked shards, so workers sweeping
/// different kernels rarely contend. No lock is held while compiling:
/// two workers racing on the same cold key may both compile, and the
/// first insert wins — acceptable because compileToArtifact is
/// deterministic (both produce byte-identical artifacts), and the loser
/// counts the duplicate work in DuplicateCompiles rather than blocking a
/// whole shard behind one multi-second meld.
///
/// Memory: each shard owns an LRU list under MaxBytes/NumShards; inserts
/// evict from the cold tail. Artifacts are handed out as
/// shared_ptr<const>, so eviction never invalidates a consumer's copy.
///
/// Determinism contract (docs/caching.md, pinned by the fuzz serialize
/// axis + tests/compile_service_test.cpp): a consumer gets byte-identical
/// results at any --jobs count and any cache state, because hit and miss
/// return the same deterministic artifact value.
///
//===----------------------------------------------------------------------===//
#ifndef DARM_CORE_COMPILESERVICE_H
#define DARM_CORE_COMPILESERVICE_H

#include "darm/core/CompiledModule.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace darm {

class Function;

/// Second-level artifact storage behind a CompileService — the hook the
/// on-disk store (serve/ArtifactStore.h FileArtifactStore) plugs in so
/// warm starts survive restarts. The service probes it after an
/// in-memory miss and feeds it every fresh compile. Implementations must
/// be safe for concurrent load/store from many threads, must validate
/// what they return (a corrupt or stale persisted artifact degrades to a
/// null — a cold miss — never an abort), and must only ever return
/// artifacts that are byte-faithful to what was stored.
class ArtifactPersistence {
public:
  virtual ~ArtifactPersistence() = default;

  /// Returns the persisted artifact for (IRHash, Fingerprint), or null
  /// when absent/invalid. With \p NeedProgram, an artifact without a
  /// DecodedProgram image does not satisfy the request (failed artifacts
  /// always do — there is nothing to decode).
  virtual std::shared_ptr<const CompiledModule>
  load(uint64_t IRHash, const std::string &Fingerprint, bool NeedProgram) = 0;

  /// Persists a freshly compiled artifact. Write-once per key: an
  /// already-persisted equal artifact may be skipped; only a program-
  /// image upgrade replaces an existing entry. May return before the
  /// artifact is durable (a write-behind store), and may drop it: a
  /// store that never lands is a later cold miss, never a wrong answer.
  /// An implementation that answers before durability should answer
  /// load() for the key from what it still holds (read-your-writes).
  virtual void store(const CompiledModule &Art) = 0;
};

/// Where a getOrCompile answer came from (the optional out-param) — the
/// daemon reports this per response so clients can assert "warm restarts
/// recompile nothing".
enum class CacheSource : uint8_t {
  Compiled,  ///< cold miss: freshly compiled (and persisted, if wired)
  MemoryHit, ///< served from the in-memory LRU
  DiskHit,   ///< in-memory miss served from ArtifactPersistence
  Upgraded,  ///< recompiled to add a program image to a cached entry
};

/// Sharded LRU cache mapping (IRHash, Fingerprint) to artifacts.
class CompileService {
public:
  using Artifact = std::shared_ptr<const CompiledModule>;

  struct Options {
    /// Total retained-byte budget across all shards (CompiledModule::
    /// byteSize). 256 MiB holds every kernel x config this repo compiles
    /// many times over; sweeps shrink it to exercise eviction.
    size_t MaxBytes = 256u << 20;
    /// Lock striping width. More shards = less contention, coarser
    /// per-shard LRU. Must be >= 1.
    unsigned NumShards = 16;
  };

  /// Counter snapshot (stats()); totals since construction or clear().
  struct CacheStats {
    uint64_t Hits = 0;
    /// Cold compiles only. Program-image upgrades of cached entries are
    /// counted in Upgrades, NOT here — an upgrade re-runs the compile
    /// but the cache did have the key, so folding it into Misses would
    /// skew hit_rate in table2_compile_time --cache-json and the serve
    /// bench.
    uint64_t Misses = 0;
    /// IncludeProgram requests that found a cached program-less entry
    /// and recompiled to add the image. Excluded from both Hits and
    /// Misses (and from hitRate()).
    uint64_t Upgrades = 0;
    /// In-memory misses answered by the ArtifactPersistence layer
    /// (no recompile). Counted separately from Hits and Misses.
    uint64_t DiskHits = 0;
    uint64_t Evictions = 0;
    /// Compiles whose insert lost the race to an equal artifact.
    uint64_t DuplicateCompiles = 0;
    /// Artifacts rejected from the cache because a single one exceeds
    /// the per-shard byte budget (see insert()'s oversized policy).
    uint64_t Oversized = 0;
    size_t Bytes = 0;
    size_t Entries = 0;

    /// Hits over hits + cold misses. Upgrades and disk hits are
    /// excluded: an upgrade is neither a hit nor a cold key, and a disk
    /// hit is a different tier's hit (report DiskHits alongside).
    double hitRate() const {
      uint64_t Total = Hits + Misses;
      return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                   : 0.0;
    }
  };

  CompileService();
  explicit CompileService(Options Opts);

  /// The front door: returns the cached artifact for (hash(F), Cfg) or
  /// compiles, caches and returns it. With \p IncludeProgram, guarantees
  /// the returned artifact carries a DecodedProgram image (upgrading a
  /// cached program-less entry recompiles and counts in
  /// CacheStats::Upgrades). Never returns null; failed compiles come
  /// back as artifacts with failed() set. \p Source, when non-null,
  /// receives where the answer came from (the daemon reports it per
  /// response).
  Artifact getOrCompile(const Function &F, const DARMConfig &Cfg,
                        bool IncludeProgram = true,
                        CacheSource *Source = nullptr);

  /// Same contract for a caller-supplied compile step (CompileFn), keyed
  /// by an explicit fingerprint that must uniquely identify it — how the
  /// fuzz oracle caches its named transform configurations.
  Artifact getOrCompile(const Function &F, const std::string &Fingerprint,
                        const CompileFn &Compile, bool IncludeProgram = true,
                        CacheSource *Source = nullptr);

  /// Wires a second-level artifact store (not owned; may be null to
  /// detach). After an in-memory miss the service probes it before
  /// compiling (a valid persisted artifact is served as a DiskHit and
  /// promoted into the LRU), and every fresh compile is stored back —
  /// including oversized artifacts the in-memory cache rejects, so
  /// repeat requests for them become disk hits instead of recompiles.
  /// Set before serving traffic: the pointer itself is not synchronized.
  void setPersistence(ArtifactPersistence *P) { Persist = P; }
  ArtifactPersistence *persistence() const { return Persist; }

  /// Probe without compiling; null on miss. Does not touch hit/miss
  /// counters (diagnostic use).
  Artifact lookup(uint64_t IRHash, const std::string &Fingerprint) const;

  CacheStats stats() const;
  /// Empties every shard and zeroes the counters.
  void clear();

private:
  struct Key {
    uint64_t IRHash;
    std::string Fingerprint;
    bool operator==(const Key &O) const {
      return IRHash == O.IRHash && Fingerprint == O.Fingerprint;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const;
  };
  struct Entry {
    Key K;
    Artifact Art;
    size_t Bytes;
  };
  struct Shard {
    mutable std::mutex M;
    /// Hot-first LRU order; Map points into this list.
    std::list<Entry> Lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> Map;
    size_t Bytes = 0;
  };

  Shard &shardFor(const Key &K) const;
  /// Inserts (or refreshes) under the shard lock, evicting the cold tail
  /// past the per-shard budget. Returns the artifact now cached — the
  /// existing one when \p Art lost an insert race.
  ///
  /// Oversized policy: an artifact whose byteSize() alone exceeds the
  /// per-shard budget is REJECTED from the cache (returned to the caller
  /// uncached, counted in CacheStats::Oversized) rather than inserted.
  /// Admitting it would either pin the shard permanently over budget or
  /// evict every other entry for a value that still doesn't fit; repeat
  /// requests for an oversized key recompile (or hit the persistence
  /// layer, which has no byte budget). Every cached entry therefore fits
  /// its shard's budget individually, which is what lets eviction run
  /// the tail down without a "keep at least one" escape hatch.
  Artifact insert(const Key &K, Artifact Art, bool RequireProgram);

  Options Opts;
  size_t ShardBudget;
  ArtifactPersistence *Persist = nullptr;
  mutable std::vector<Shard> Shards;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Upgrades{0}, DiskHits{0},
      Evictions{0}, DuplicateCompiles{0}, Oversized{0};
};

} // namespace darm

#endif // DARM_CORE_COMPILESERVICE_H
