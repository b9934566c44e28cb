//===- FaultInjection.h - Seeded fault schedules for the serve stack -*- C++ -*-===//
///
/// \file
/// Deterministic fault injection for the serving layer (docs/serving.md):
/// a seeded FaultPlan decides, per I/O operation, whether the operation
/// proceeds, is shortened, fails with a scheduled errno, or tears the
/// transport — so the chaos battery (tests/chaos_test.cpp) can sweep
/// hundreds of failure schedules and assert that every request still ends
/// in a byte-identical artifact, a typed error, or a verified local
/// fallback. Never a hang, never an abort, never a torn store file.
///
/// The hook is compiled in always (the chaos battery runs against the
/// production code paths, not a test build) but is zero-cost when unset:
/// every fault-aware primitive loads one relaxed atomic pointer and takes
/// the fast path when it is null. Plans are installed process-globally
/// (setFaultPlan / ScopedFaultPlan) because the faults model the world
/// outside the process — sockets and disks — which is global too.
///
/// Determinism: a plan is a pure function of (seed, op-arrival order).
/// Concurrent threads consult one mutex-guarded RNG, so a multi-threaded
/// run is deterministic per-thread-interleaving, not globally — what the
/// battery needs is that faults *occur* on a schedule dense enough to hit
/// every path, while single-threaded sweeps replay exactly.
///
/// Fault vocabulary (mapped onto ops in FaultInjection.cpp):
///   sockets   short reads/writes, EINTR, ECONNRESET/EPIPE, mid-frame
///             disconnect (the fd is poisoned: every later op fails too),
///             slow-loris delays (bounded, milliseconds)
///   store fs  ENOSPC/EIO on writes, EIO on reads, fsync failure,
///             rename failure, open failure, slow-disk delays on writes
///             and fsyncs (bounded, milliseconds)
///
//===----------------------------------------------------------------------===//
#ifndef DARM_SERVE_FAULTINJECTION_H
#define DARM_SERVE_FAULTINJECTION_H

#include "darm/support/RNG.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <sys/types.h>

namespace darm {
namespace serve {

/// The operation classes a plan can fault. Socket ops cover every byte
/// moved by the framing layer (serve/Protocol.h); Fs ops cover every
/// filesystem call the artifact store makes (serve/ArtifactStore.h).
enum class FaultOp : uint8_t {
  SockRead = 0,
  SockWrite,
  FsOpen,
  FsRead,
  FsWrite,
  FsFsync,
  FsRename,
  NumOps
};

/// What the injection layer does to one operation.
struct FaultDecision {
  enum Kind : uint8_t {
    Proceed,    ///< run the real operation untouched
    Shorten,    ///< run the real operation with a smaller byte count
    Fail,       ///< do not run it; return -1 with Err as errno
    Disconnect, ///< fail with Err AND poison the fd: all later ops fail
    Delay,      ///< sleep DelayMs (slow-loris), then run the real op
  };
  Kind K = Proceed;
  int Err = 0;
  size_t ShortenTo = 0;
  unsigned DelayMs = 0;
};

/// A seeded, deterministic schedule of faults. Rate is the per-operation
/// fault probability; the fault kind is drawn from a fixed distribution
/// per op class (see decide() in FaultInjection.cpp). Thread-safe.
class FaultPlan {
public:
  struct Options {
    uint64_t Seed = 0;
    /// Per-op fault probability in [0,1]. The chaos battery sweeps this
    /// together with the seed so both sparse and dense schedules run.
    double Rate = 0.05;
    bool FaultSockets = true;
    bool FaultStore = true;
    /// Upper bound for injected delays: slow-loris sockets and slow-disk
    /// store writes/fsyncs. Kept small so a faulted battery still
    /// terminates fast; deadline tests install plans with delays above
    /// their frame timeout, queue tests stall the store's writer.
    unsigned MaxDelayMs = 2;
  };

  explicit FaultPlan(Options O) : Opts(O), Rng(O.Seed) {}
  FaultPlan(uint64_t Seed, double Rate) : FaultPlan(mk(Seed, Rate)) {}

  /// Draws the fate of the next operation of class \p Op moving
  /// \p Bytes bytes. Deterministic in arrival order.
  FaultDecision decide(FaultOp Op, size_t Bytes);

  /// Operations seen / faulted so far (telemetry for the battery).
  uint64_t operations() const { return Operations.load(std::memory_order_relaxed); }
  uint64_t faults() const { return Faults.load(std::memory_order_relaxed); }

  /// Parses a "seed=N[,rate=R][,sock=0|1][,store=0|1][,delay-ms=N]" spec
  /// (the darmd --fault-plan argument). False with \p Err on a malformed
  /// spec.
  static bool parse(const std::string &Spec, Options &O, std::string *Err);

private:
  /// A Delay decision of 1..MaxDelayMs ms (0 when MaxDelayMs is 0).
  FaultDecision stall(uint64_t Extra) const;
  static Options mk(uint64_t Seed, double Rate) {
    Options O;
    O.Seed = Seed;
    O.Rate = Rate;
    return O;
  }
  Options Opts;
  std::mutex M;
  RNG Rng;
  std::atomic<uint64_t> Operations{0}, Faults{0};
};

/// Installs \p P as the process-global plan (null detaches). The serving
/// primitives consult it on every operation; when unset they cost one
/// relaxed atomic load. Not synchronized against in-flight operations —
/// install before traffic, detach after.
void setFaultPlan(FaultPlan *P);
FaultPlan *faultPlan();

/// RAII install/detach for tests.
class ScopedFaultPlan {
public:
  explicit ScopedFaultPlan(FaultPlan &P) { setFaultPlan(&P); }
  ~ScopedFaultPlan() { setFaultPlan(nullptr); }
  ScopedFaultPlan(const ScopedFaultPlan &) = delete;
  ScopedFaultPlan &operator=(const ScopedFaultPlan &) = delete;
};

/// Clears the poisoned-fd set (a Disconnect decision poisons an fd for
/// the rest of its life; fds are recycled by the OS, so long-lived
/// processes clear on detach). setFaultPlan(nullptr) calls this.
void clearPoisonedFds();

//===----------------------------------------------------------------------===//
// Fault-aware I/O primitives
//
// Every byte the serving layer moves goes through these. Each loops on
// EINTR *below* the injection point is NOT done here — callers keep
// their retry loops, so injected EINTR exercises them.
//===----------------------------------------------------------------------===//

/// read(2) with injection. Returns what read would: >0 bytes, 0 on EOF,
/// -1 with errno set (injected faults included).
ssize_t fiRead(int Fd, void *Buf, size_t N);

/// Socket-safe write: send(MSG_NOSIGNAL) on sockets so a peer closing
/// mid-write surfaces as EPIPE instead of a process-killing SIGPIPE;
/// falls back to write(2) for pipes (--stdio mode). With injection.
ssize_t fiWrite(int Fd, const void *Buf, size_t N);

/// Store filesystem ops with injection.
int fiOpen(const char *Path, int Flags, unsigned Mode);
ssize_t fiFsRead(int Fd, void *Buf, size_t N);
ssize_t fiFsWrite(int Fd, const void *Buf, size_t N);
int fiFsync(int Fd);
int fiRename(const char *From, const char *To);

/// Waits until \p Fd is ready for \p Events (POLLIN/POLLOUT) or
/// \p TimeoutMs elapses. Returns 1 ready, 0 timeout, -1 error. A
/// negative timeout waits forever. Loops on EINTR, re-arming the
/// remaining time so a signal storm cannot extend the deadline.
int fiPollWait(int Fd, short Events, int TimeoutMs);

} // namespace serve
} // namespace darm

#endif // DARM_SERVE_FAULTINJECTION_H
