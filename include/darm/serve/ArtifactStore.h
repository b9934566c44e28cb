//===- ArtifactStore.h - On-disk artifact persistence ------------*- C++ -*-===//
///
/// \file
/// The on-disk tier of the compile cache (docs/caching.md): a directory
/// of write-once "DRMA" artifact files keyed by (IRHash, fingerprint),
/// plugged into a CompileService via setPersistence so warm starts
/// survive process restarts — the darmd daemon's restart story.
///
/// Layout: one file per key, `<irhash:016x>-<fnv64(fingerprint):016x>
/// .drma`, flat in the store directory. The fingerprint is hashed only
/// to form a filename; the full fingerprint (and IRHash) are stored
/// *inside* the artifact and checked on load, so a filename-hash
/// collision degrades to a miss, never a wrong artifact. Keys are
/// portable across builds and platforms by construction: IRHash is the
/// canonical-snapshot FNV-1a/64 and the fingerprint is the ABI-free
/// configFingerprint encoding.
///
/// Atomic-write rule: every store writes to a unique temp file in the
/// same directory and rename(2)s it over the final name. Readers
/// therefore see either nothing or a complete file — never a torn write
/// in progress. A crash can only leave stray `.tmp-*` droppings or, if
/// the filesystem itself tears a non-synced rename, a corrupt file —
/// which validation catches. Temp sweeping is bounded to STALE temps
/// (dead writer pid, or older than Options::StaleTempAgeSecs): a second
/// store opening the same directory must not yank a live writer's temp
/// out from under its rename (pinned by tests/serve_test.cpp's
/// two-process sweep test).
///
/// Validation on load (the crash-safety contract, pinned by
/// tests/serve_test.cpp): the container must decode as a versioned DRMA
/// image with the exact requested key inside, the module bytes must
/// decode through the versioned "DRMB" deserializer, and a program image
/// must decode through the DecodedProgram reader. Truncated files,
/// flipped bytes, wrong magic, stale versions and torn writes all fail
/// one of these gates and degrade to a cold miss (null) — never an
/// abort, never a wrong answer — after which the service recompiles and
/// re-persists over the bad file.
///
/// Garbage collection (docs/serving.md): with a byte budget set, the
/// store evicts least-recently-used artifacts (by file mtime, bumped on
/// every successful load) oldest-first until the directory fits — on
/// open and after stores. Eviction is plain unlink, so POSIX semantics
/// make "never evict mid-load" automatic: a reader that already opened
/// the file keeps its bytes. A concurrently re-stored key simply
/// reappears with a fresh mtime; the next pass sees the truth.
///
/// Write-behind (answered before durable): store() copies the artifact
/// into a bounded in-memory queue and returns; one writer thread per
/// store drains the queue through the write-once temp + fsync + rename
/// path above, so the caller's reply never waits for a disk. Nothing
/// observable changes: a write that never lands (queue full, a crash or
/// kill -9 before the writer reached it, an I/O fault) is the same cold
/// miss that heals on the next compile as a torn or dropped write.
///   - Read-your-writes: load() answers a key still waiting for its write
///     from the queue, under the same NeedProgram rule as a disk load.
///   - Coalescing: a store of a key that is still pending is folded into
///     the pending write by the write-once rule — skipped, or replacing
///     it when it adds a program image.
///   - Bound: at most kMaxQueuedBytes of artifacts wait in the queue; a
///     store arriving when they do not fit is dropped and counted
///     (Stats::Dropped), never blocked on.
///   - flush() waits until every accepted store has been written (or has
///     failed); the destructor flushes and joins the writer, so a store
///     can be destroyed and its directory removed right after.
///
/// Thread model: load(), store(), flush(), stats() and collectGarbage()
/// may be called from any thread. The queue is guarded by one mutex held
/// only for map/deque updates, never across I/O; all file writes and
/// post-store GC passes run on the writer thread.
///
//===----------------------------------------------------------------------===//
#ifndef DARM_SERVE_ARTIFACTSTORE_H
#define DARM_SERVE_ARTIFACTSTORE_H

#include "darm/core/CompileService.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

namespace darm {
namespace serve {

/// Directory-backed ArtifactPersistence. Thread-safe: loads are
/// independent reads, stores are queued for the store's writer thread,
/// which writes each through a temp file + atomic rename (writers in
/// other stores or processes racing one key race benignly — compiles are
/// deterministic, so whichever rename lands last installs the same
/// bytes).
class FileArtifactStore : public ArtifactPersistence {
public:
  /// Upper bound on the artifact bytes (CompiledModule::byteSize) waiting
  /// in the write-behind queue. About 200 typical artifacts; a store that
  /// does not fit is dropped and counted. A store into an empty queue is
  /// always accepted, so an artifact larger than the bound still
  /// persists.
  static constexpr size_t kMaxQueuedBytes = 1u << 20;

  struct Options {
    /// Byte budget for the whole store directory; 0 = unbounded (no GC).
    /// When set, opening the store and storing past the budget evict
    /// LRU artifacts (oldest mtime first) until the directory fits.
    size_t MaxBytes = 0;
    /// A `.tmp-*` file older than this is presumed abandoned even when
    /// its writer pid cannot be probed; temps whose embedded pid is
    /// provably dead are swept regardless of age.
    long StaleTempAgeSecs = 3600;
  };

  /// Opens (creating if needed) \p Dir as the store root, sweeps STALE
  /// temp files from crashed writers, and — with a byte budget — evicts
  /// down to it. An unusable directory is not fatal: the store then
  /// simply misses every load and drops every store (valid() reports
  /// it).
  explicit FileArtifactStore(std::string Dir);
  FileArtifactStore(std::string Dir, Options Opts);
  /// Flushes the queue, then joins the writer.
  ~FileArtifactStore() override;
  FileArtifactStore(const FileArtifactStore &) = delete;
  FileArtifactStore &operator=(const FileArtifactStore &) = delete;

  /// True when the store directory exists and is usable.
  bool valid() const { return Usable; }
  const std::string &directory() const { return Root; }

  /// Answers from the write-behind queue when the key is still pending
  /// there, else from disk (validated).
  std::shared_ptr<const CompiledModule>
  load(uint64_t IRHash, const std::string &Fingerprint,
       bool NeedProgram) override;

  /// Queues \p Art for the writer and returns; the write lands later.
  /// Write-once: an existing valid file for the key is kept untouched,
  /// unless \p Art upgrades it with a program image (or the incumbent
  /// fails validation) — those are replaced via the same atomic rename.
  void store(const CompiledModule &Art) override;

  /// Blocks until the queue is empty and the last write has finished.
  /// Stores made concurrently with the flush may or may not be covered.
  void flush();

  /// The file a key persists to (diagnostics and tests).
  std::string pathFor(uint64_t IRHash, const std::string &Fingerprint) const;

  /// Runs one GC pass now (no-op without a budget). Returns the bytes
  /// the directory's artifacts occupy after the pass.
  size_t collectGarbage();

  struct Stats {
    uint64_t Loads = 0;      ///< load() calls that returned an artifact
    uint64_t LoadMisses = 0; ///< absent, unreadable, or failed validation
    uint64_t Stores = 0;     ///< files written (fresh or replacement)
    uint64_t StoreSkips = 0; ///< write-once: a valid incumbent was kept
    uint64_t Evictions = 0;  ///< artifacts unlinked by GC
    uint64_t Dropped = 0;    ///< stores refused because the queue was full
    /// Stores folded into a still-pending write of the same key (skipped,
    /// or replacing it with a program-image upgrade).
    uint64_t Coalesced = 0;
  };
  Stats stats() const;

private:
  using Key = std::pair<uint64_t, std::string>;
  /// A key's write that has not landed yet: waiting in the queue, or
  /// taken by the writer and not yet renamed into place.
  struct PendingWrite {
    std::shared_ptr<const CompiledModule> Art;
    bool Queued = true;
  };

  void sweepStaleTemps();
  void writerLoop();
  /// The synchronous write-once temp + fsync + rename of one artifact.
  void writeArtifact(const CompiledModule &Art);

  std::string Root;
  Options Opts;
  bool Usable = false;
  std::atomic<uint64_t> Loads{0}, LoadMisses{0}, Stores{0}, StoreSkips{0},
      Evictions{0}, Dropped{0}, Coalesced{0};
  std::atomic<uint64_t> TempCounter{0};
  /// One GC pass at a time; concurrent would-be collectors skip.
  std::mutex GcM;

  /// Write-behind state, all guarded by QueueM. Queue holds each pending
  /// key at most once, in arrival order; QueuedBytes sums the byteSize of
  /// the artifacts still in it.
  std::mutex QueueM;
  std::condition_variable WorkCv; ///< writer: work arrived or stopping
  std::condition_variable IdleCv; ///< flush(): nothing pending any more
  std::map<Key, PendingWrite> Pending;
  std::deque<std::map<Key, PendingWrite>::iterator> Queue;
  size_t QueuedBytes = 0;
  bool Stopping = false;
  std::thread Writer;
};

} // namespace serve
} // namespace darm

#endif // DARM_SERVE_ARTIFACTSTORE_H
