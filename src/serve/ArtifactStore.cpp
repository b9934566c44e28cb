//===- ArtifactStore.cpp - On-disk artifact persistence -----------------------===//
//
// Write-once artifact files under an atomic temp-file + rename
// discipline, written behind the caller by one writer thread, fully
// validated on load, LRU-evicted to a byte budget (serve/ArtifactStore.h,
// docs/caching.md, docs/serving.md). Every failure mode — absent,
// truncated, flipped, wrong magic/version, torn, mis-keyed,
// out-of-space, queue full, crash before the write — degrades to a cold
// miss or a dropped store.
// All filesystem I/O goes through the fi* primitives so the chaos
// battery (tests/chaos_test.cpp) can schedule ENOSPC/EIO/fsync faults
// against the real code paths.
//
//===----------------------------------------------------------------------===//

#include "darm/serve/ArtifactStore.h"

#include "darm/ir/Context.h"
#include "darm/ir/Module.h"
#include "darm/ir/Serialize.h"
#include "darm/serve/FaultInjection.h"
#include "darm/sim/DecodedProgram.h"
#include "darm/support/Hashing.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace darm;
using namespace darm::serve;

namespace {

/// Reads a whole file; false when absent or unreadable.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Bytes) {
  const int Fd = fiOpen(Path.c_str(), O_RDONLY, 0);
  if (Fd < 0)
    return false;
  Bytes.clear();
  uint8_t Buf[1 << 16];
  for (;;) {
    const ssize_t N = fiFsRead(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  }
  ::close(Fd);
  return true;
}

/// Full validation gate (header contract): container decode, exact key
/// match, inner DRMB module decode, inner program decode. Anything short
/// of all four is a miss.
bool validateArtifact(const std::vector<uint8_t> &Bytes, uint64_t IRHash,
                      const std::string &Fingerprint, CompiledModule &Art) {
  if (!deserializeCompiledModule(Bytes, Art))
    return false;
  if (Art.IRHash != IRHash || Art.Fingerprint != Fingerprint)
    return false; // filename-hash collision or a renamed/copied file
  if (Art.failed())
    // Negative results persist too (docs/caching.md negative caching);
    // they carry no bytes to validate further.
    return Art.ModuleBytes.empty() && Art.ProgramBytes.empty();
  Context Scratch;
  std::string Err;
  if (!deserializeModule(Scratch, Art.ModuleBytes, &Err))
    return false;
  if (!Art.ProgramBytes.empty()) {
    DecodedProgram P;
    if (!deserializeDecodedProgram(Art.ProgramBytes.data(),
                                   Art.ProgramBytes.size(), P))
      return false;
  }
  return true;
}

char hexDigit(unsigned V) {
  return static_cast<char>(V < 10 ? '0' + V : 'a' + (V - 10));
}

void appendHex64(std::string &S, uint64_t V) {
  for (int Shift = 60; Shift >= 0; Shift -= 4)
    S.push_back(hexDigit(static_cast<unsigned>((V >> Shift) & 0xf)));
}

/// Parses 16 lowercase-hex digits; false on anything else.
bool parseHex64(const char *S, uint64_t &V) {
  V = 0;
  for (int I = 0; I < 16; ++I) {
    const char C = S[I];
    unsigned D;
    if (C >= '0' && C <= '9')
      D = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = static_cast<unsigned>(C - 'a') + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  return true;
}

/// The NeedProgram rule (core/CompileService.h): a program-less artifact
/// does not satisfy a request for a program image; a failed one does.
bool satisfies(const CompiledModule &Art, bool NeedProgram) {
  return !NeedProgram || Art.failed() || !Art.ProgramBytes.empty();
}

/// The write-once exception: \p Art replaces \p Incumbent only when it
/// adds a program image to a successful program-less artifact.
bool upgrades(const CompiledModule &Incumbent, const CompiledModule &Art) {
  return !Incumbent.failed() && Incumbent.ProgramBytes.empty() &&
         !Art.ProgramBytes.empty();
}

bool endsWith(const char *Name, const char *Suffix) {
  const size_t N = std::strlen(Name), S = std::strlen(Suffix);
  return N >= S && std::strcmp(Name + (N - S), Suffix) == 0;
}

} // namespace

FileArtifactStore::FileArtifactStore(std::string Dir)
    : FileArtifactStore(std::move(Dir), Options()) {}

FileArtifactStore::FileArtifactStore(std::string Dir, Options Opts)
    : Root(std::move(Dir)), Opts(Opts) {
  if (::mkdir(Root.c_str(), 0777) != 0 && errno != EEXIST)
    return;
  struct stat St;
  if (::stat(Root.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return;
  Usable = true;
  sweepStaleTemps();
  collectGarbage();
  Writer = std::thread([this] { writerLoop(); });
}

FileArtifactStore::~FileArtifactStore() {
  if (!Writer.joinable())
    return;
  flush();
  {
    std::lock_guard<std::mutex> L(QueueM);
    Stopping = true;
  }
  WorkCv.notify_one();
  Writer.join();
}

void FileArtifactStore::writerLoop() {
  std::unique_lock<std::mutex> L(QueueM);
  for (;;) {
    WorkCv.wait(L, [this] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // stopping, and nothing left to write
    const auto It = Queue.front();
    Queue.pop_front();
    It->second.Queued = false;
    const std::shared_ptr<const CompiledModule> Art = It->second.Art;
    QueuedBytes -= Art->byteSize();
    L.unlock();
    try {
      writeArtifact(*Art);
    } catch (...) {
      // An allocation failure mid-write is a failed write like ENOSPC:
      // the key stays a cold miss. Escaping the thread would terminate
      // the process over a loss the store's contract already allows.
    }
    L.lock();
    // Retire the key unless an upgrade re-queued it during the write.
    if (!It->second.Queued)
      Pending.erase(It);
    if (Pending.empty())
      IdleCv.notify_all();
  }
}

void FileArtifactStore::flush() {
  std::unique_lock<std::mutex> L(QueueM);
  IdleCv.wait(L, [this] { return Pending.empty(); });
}

void FileArtifactStore::sweepStaleTemps() {
  // Sweep temp droppings from writers that died mid-store — but ONLY
  // stale ones. Temp names embed the writer's pid
  // (`.tmp-<pid:016x>-<counter:016x>`): a temp whose pid is provably
  // dead (kill(0) => ESRCH) is garbage now; one whose pid is alive (or
  // unprobeable) is presumed a concurrent writer mid-store and left
  // alone until it ages past StaleTempAgeSecs. Unparseable `.tmp-*`
  // names were not written by this code and are swept unconditionally.
  DIR *D = ::opendir(Root.c_str());
  if (!D)
    return;
  const time_t Now = ::time(nullptr);
  while (struct dirent *E = ::readdir(D)) {
    if (std::strncmp(E->d_name, ".tmp-", 5) != 0)
      continue;
    const std::string Path = Root + "/" + E->d_name;
    uint64_t Pid = 0, Ctr = 0;
    const char *Tail = E->d_name + 5;
    const bool Parsed = std::strlen(Tail) == 33 && Tail[16] == '-' &&
                        parseHex64(Tail, Pid) && parseHex64(Tail + 17, Ctr);
    bool Stale = true;
    if (Parsed) {
      if (Pid == static_cast<uint64_t>(::getpid())) {
        Stale = false; // our own live writer, same process
      } else if (::kill(static_cast<pid_t>(Pid), 0) == 0 ||
                 errno != ESRCH) {
        // Writer alive (or unprobeable): stale only by age.
        struct stat TSt;
        Stale = ::stat(Path.c_str(), &TSt) == 0 &&
                Now - TSt.st_mtime > Opts.StaleTempAgeSecs;
      }
    }
    if (Stale)
      ::unlink(Path.c_str());
  }
  ::closedir(D);
}

size_t FileArtifactStore::collectGarbage() {
  if (!Usable)
    return 0;
  std::unique_lock<std::mutex> L(GcM, std::try_to_lock);
  if (!L.owns_lock())
    return 0; // another thread is collecting; it sees our files too
  struct Entry {
    std::string Name;
    time_t Mtime;
    size_t Bytes;
  };
  std::vector<Entry> Files;
  size_t Total = 0;
  DIR *D = ::opendir(Root.c_str());
  if (!D)
    return 0;
  while (struct dirent *E = ::readdir(D)) {
    if (!endsWith(E->d_name, ".drma"))
      continue;
    struct stat St;
    if (::stat((Root + "/" + E->d_name).c_str(), &St) != 0)
      continue; // raced with another collector's unlink
    Files.push_back({E->d_name, St.st_mtime, static_cast<size_t>(St.st_size)});
    Total += static_cast<size_t>(St.st_size);
  }
  ::closedir(D);
  if (Opts.MaxBytes == 0 || Total <= Opts.MaxBytes)
    return Total;
  // LRU by mtime (bumped on every successful load), oldest first.
  std::sort(Files.begin(), Files.end(), [](const Entry &A, const Entry &B) {
    return A.Mtime != B.Mtime ? A.Mtime < B.Mtime : A.Name < B.Name;
  });
  for (const Entry &F : Files) {
    if (Total <= Opts.MaxBytes)
      break;
    if (::unlink((Root + "/" + F.Name).c_str()) == 0) {
      Total -= std::min(Total, F.Bytes);
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Total;
}

std::string FileArtifactStore::pathFor(uint64_t IRHash,
                                       const std::string &Fingerprint) const {
  std::string Path = Root;
  Path += '/';
  appendHex64(Path, IRHash);
  Path += '-';
  appendHex64(Path, hashBytes(Fingerprint));
  Path += ".drma";
  return Path;
}

std::shared_ptr<const CompiledModule>
FileArtifactStore::load(uint64_t IRHash, const std::string &Fingerprint,
                        bool NeedProgram) {
  if (!Usable) {
    LoadMisses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Read-your-writes: a key whose write has not landed yet answers from
  // the queue. One that fails the NeedProgram rule falls through to disk,
  // which may still hold an older program-carrying artifact.
  {
    std::lock_guard<std::mutex> L(QueueM);
    const auto It = Pending.find(Key(IRHash, Fingerprint));
    if (It != Pending.end() && satisfies(*It->second.Art, NeedProgram)) {
      Loads.fetch_add(1, std::memory_order_relaxed);
      return It->second.Art;
    }
  }
  const std::string Path = pathFor(IRHash, Fingerprint);
  std::vector<uint8_t> Bytes;
  auto Art = std::make_shared<CompiledModule>();
  if (!readFileBytes(Path, Bytes) ||
      !validateArtifact(Bytes, IRHash, Fingerprint, *Art) ||
      !satisfies(*Art, NeedProgram)) {
    LoadMisses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // LRU clock: mark the file recently used so GC evicts colder keys
  // first. mtime, not atime — relatime mounts make atime useless as a
  // recency signal. Best-effort; a failed bump only ages the entry.
  ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
  Loads.fetch_add(1, std::memory_order_relaxed);
  return Art;
}

void FileArtifactStore::store(const CompiledModule &Art) {
  if (!Usable)
    return;
  auto Copy = std::make_shared<const CompiledModule>(Art);
  const size_t Bytes = Copy->byteSize();
  // Admits \p Add more queued bytes in place of \p Sub; an empty queue
  // admits anything, so one artifact over the bound still persists.
  const auto Fits = [this](size_t Add, size_t Sub) {
    return QueuedBytes == Sub || QueuedBytes - Sub + Add <= kMaxQueuedBytes;
  };
  {
    std::lock_guard<std::mutex> L(QueueM);
    const auto [It, Fresh] =
        Pending.try_emplace(Key(Art.IRHash, Art.Fingerprint));
    if (Fresh) {
      if (!Fits(Bytes, 0)) {
        Pending.erase(It);
        Dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      It->second.Art = std::move(Copy);
      Queue.push_back(It);
      QueuedBytes += Bytes;
    } else {
      // The key's write is still pending: fold this store into it by the
      // write-once rule.
      PendingWrite &P = It->second;
      if (!upgrades(*P.Art, Art)) {
        Coalesced.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const size_t Old = P.Queued ? P.Art->byteSize() : 0;
      if (!Fits(Bytes, Old)) {
        Dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Coalesced.fetch_add(1, std::memory_order_relaxed);
      QueuedBytes = QueuedBytes - Old + Bytes;
      P.Art = std::move(Copy);
      if (!P.Queued) {
        // Taken by the writer already: the upgrade is written after it.
        P.Queued = true;
        Queue.push_back(It);
      }
    }
  }
  WorkCv.notify_one();
}

void FileArtifactStore::writeArtifact(const CompiledModule &Art) {
  const std::string Final = pathFor(Art.IRHash, Art.Fingerprint);
  // Write-once: keep a valid incumbent unless ours upgrades it with a
  // program image. An unreadable/corrupt/stale incumbent is replaced —
  // that is how a torn file heals after the recompile.
  {
    std::vector<uint8_t> Existing;
    CompiledModule Incumbent;
    if (readFileBytes(Final, Existing) &&
        validateArtifact(Existing, Art.IRHash, Art.Fingerprint, Incumbent)) {
      if (!upgrades(Incumbent, Art)) {
        StoreSkips.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }
  std::string Temp = Root + "/.tmp-";
  appendHex64(Temp, static_cast<uint64_t>(::getpid()));
  Temp += '-';
  appendHex64(Temp, TempCounter.fetch_add(1, std::memory_order_relaxed));
  const std::vector<uint8_t> Bytes = serializeCompiledModule(Art);
  const int Fd = fiOpen(Temp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0666);
  if (Fd < 0)
    return;
  size_t Done = 0;
  bool WriteOk = true;
  while (Done < Bytes.size()) {
    const ssize_t N = fiFsWrite(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      WriteOk = false; // ENOSPC/EIO: drop the store, never publish
      break;
    }
    Done += static_cast<size_t>(N);
  }
  // Flush file contents before the rename publishes the name: a crash
  // after rename must not expose a name pointing at unwritten data.
  if (WriteOk && fiFsync(Fd) != 0)
    WriteOk = false;
  ::close(Fd);
  if (!WriteOk || fiRename(Temp.c_str(), Final.c_str()) != 0) {
    ::unlink(Temp.c_str());
    return;
  }
  Stores.fetch_add(1, std::memory_order_relaxed);
  if (Opts.MaxBytes != 0)
    collectGarbage();
}

FileArtifactStore::Stats FileArtifactStore::stats() const {
  Stats S;
  S.Loads = Loads.load(std::memory_order_relaxed);
  S.LoadMisses = LoadMisses.load(std::memory_order_relaxed);
  S.Stores = Stores.load(std::memory_order_relaxed);
  S.StoreSkips = StoreSkips.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.Dropped = Dropped.load(std::memory_order_relaxed);
  S.Coalesced = Coalesced.load(std::memory_order_relaxed);
  return S;
}
