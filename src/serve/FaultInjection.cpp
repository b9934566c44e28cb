//===- FaultInjection.cpp - Seeded fault schedules for the serve stack --------===//
//
// The process-global fault plan and the fault-aware I/O primitives every
// serving-layer byte goes through (serve/FaultInjection.h,
// docs/serving.md). The injection point sits ABOVE the callers' EINTR /
// short-count retry loops, so injected transient faults exercise exactly
// the code that absorbs real ones.
//
//===----------------------------------------------------------------------===//

#include "darm/serve/FaultInjection.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_set>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace darm;
using namespace darm::serve;

namespace {

std::atomic<FaultPlan *> GlobalPlan{nullptr};

/// Fds a Disconnect decision has torn. Guarded by its own mutex; only
/// touched on the (rare) faulted path and in the fd-poison check, which
/// is only reached when a plan is installed.
std::mutex PoisonM;
std::unordered_set<int> PoisonedFds;

bool fdPoisoned(int Fd) {
  std::lock_guard<std::mutex> L(PoisonM);
  return PoisonedFds.count(Fd) != 0;
}

void poisonFd(int Fd) {
  std::lock_guard<std::mutex> L(PoisonM);
  PoisonedFds.insert(Fd);
}

/// The shared prologue of every fault-aware primitive: null-plan fast
/// path, poisoned-fd check, then the plan's decision. Returns true when
/// the caller should return \p Ret immediately (fault consumed the op).
/// Fd < 0 marks path-level ops (open/rename) with no fd to poison.
bool consultPlan(FaultOp Op, int Fd, size_t &N, ssize_t &Ret, bool Sock) {
  FaultPlan *P = GlobalPlan.load(std::memory_order_relaxed);
  if (__builtin_expect(P == nullptr, 1))
    return false;
  if (Fd >= 0 && fdPoisoned(Fd)) {
    errno = Sock ? ECONNRESET : EIO;
    Ret = -1;
    return true;
  }
  const FaultDecision D = P->decide(Op, N);
  switch (D.K) {
  case FaultDecision::Proceed:
    return false;
  case FaultDecision::Shorten:
    N = D.ShortenTo;
    return false;
  case FaultDecision::Delay:
    std::this_thread::sleep_for(std::chrono::milliseconds(D.DelayMs));
    return false;
  case FaultDecision::Fail:
    errno = D.Err;
    Ret = -1;
    return true;
  case FaultDecision::Disconnect:
    if (Fd >= 0)
      poisonFd(Fd);
    errno = D.Err;
    Ret = -1;
    return true;
  }
  return false;
}

} // namespace

void darm::serve::setFaultPlan(FaultPlan *P) {
  GlobalPlan.store(P, std::memory_order_relaxed);
  if (!P)
    clearPoisonedFds();
}

FaultPlan *darm::serve::faultPlan() {
  return GlobalPlan.load(std::memory_order_relaxed);
}

void darm::serve::clearPoisonedFds() {
  std::lock_guard<std::mutex> L(PoisonM);
  PoisonedFds.clear();
}

FaultDecision FaultPlan::decide(FaultOp Op, size_t Bytes) {
  Operations.fetch_add(1, std::memory_order_relaxed);
  FaultDecision D;
  const bool Sock = Op == FaultOp::SockRead || Op == FaultOp::SockWrite;
  if (Sock && !Opts.FaultSockets)
    return D;
  if (!Sock && !Opts.FaultStore)
    return D;

  uint64_t Draw, Kind, Extra;
  {
    std::lock_guard<std::mutex> L(M);
    Draw = Rng.next();
    Kind = Rng.next();
    Extra = Rng.next();
  }
  // Rate gate: top 53 bits as a uniform double in [0,1).
  const double U =
      static_cast<double>(Draw >> 11) / static_cast<double>(1ULL << 53);
  if (U >= Opts.Rate)
    return D;
  Faults.fetch_add(1, std::memory_order_relaxed);

  // Per-class fault distributions. Transient faults (EINTR, short
  // counts, delays) dominate so retry loops see heavy traffic; terminal
  // faults (resets, ENOSPC) stay frequent enough that every absorbing
  // layer fires across a 200-plan sweep.
  switch (Op) {
  case FaultOp::SockRead:
  case FaultOp::SockWrite:
    switch (Kind % 8) {
    case 0:
    case 1: // EINTR: the retry loop must spin, not fail
      D.K = FaultDecision::Fail;
      D.Err = EINTR;
      break;
    case 2:
    case 3: // short count: framing must reassemble
      if (Bytes > 1) {
        D.K = FaultDecision::Shorten;
        D.ShortenTo = 1 + static_cast<size_t>(Extra % (Bytes - 1));
      }
      break;
    case 4: // slow-loris: bounded stall mid-frame
      D = stall(Extra);
      break;
    case 5: // reset without poisoning: this op fails, fd survives
      D.K = FaultDecision::Fail;
      D.Err = ECONNRESET;
      break;
    default: // mid-frame disconnect: the fd is dead from here on
      D.K = FaultDecision::Disconnect;
      D.Err = Op == FaultOp::SockWrite ? EPIPE : ECONNRESET;
      break;
    }
    break;
  case FaultOp::FsOpen:
    D.K = FaultDecision::Fail;
    D.Err = Kind % 2 ? EMFILE : EACCES;
    break;
  case FaultOp::FsRead:
    if (Kind % 3 == 0) {
      D.K = FaultDecision::Fail;
      D.Err = EINTR;
    } else if (Kind % 3 == 1 && Bytes > 1) {
      D.K = FaultDecision::Shorten;
      D.ShortenTo = 1 + static_cast<size_t>(Extra % (Bytes - 1));
    } else {
      D.K = FaultDecision::Fail;
      D.Err = EIO;
    }
    break;
  case FaultOp::FsWrite:
    if (Kind % 5 == 0) {
      D.K = FaultDecision::Fail;
      D.Err = EINTR;
    } else if (Kind % 5 == 1 && Bytes > 1) {
      D.K = FaultDecision::Shorten;
      D.ShortenTo = 1 + static_cast<size_t>(Extra % (Bytes - 1));
    } else if (Kind % 5 == 2) {
      D = stall(Extra); // slow disk
    } else {
      // The headline store fault: disk full / dying mid-artifact.
      D.K = FaultDecision::Fail;
      D.Err = Kind % 5 == 3 ? ENOSPC : EIO;
    }
    break;
  case FaultOp::FsFsync:
    if (Kind % 3 == 0) {
      D = stall(Extra); // slow disk: the write-behind queue backs up
    } else {
      D.K = FaultDecision::Fail;
      D.Err = Kind % 3 == 1 ? EIO : ENOSPC;
    }
    break;
  case FaultOp::FsRename:
    D.K = FaultDecision::Fail;
    D.Err = Kind % 2 ? EIO : ENOSPC;
    break;
  case FaultOp::NumOps:
    break;
  }
  if (D.K == FaultDecision::Proceed)
    Faults.fetch_sub(1, std::memory_order_relaxed);
  return D;
}

FaultDecision FaultPlan::stall(uint64_t Extra) const {
  FaultDecision D;
  D.K = FaultDecision::Delay;
  D.DelayMs =
      Opts.MaxDelayMs ? 1 + static_cast<unsigned>(Extra % Opts.MaxDelayMs) : 0;
  return D;
}

bool FaultPlan::parse(const std::string &Spec, Options &O, std::string *Err) {
  Options Out;
  bool SawSeed = false;
  size_t At = 0;
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = "fault-plan: " + Why;
    return false;
  };
  while (At < Spec.size()) {
    size_t End = Spec.find(',', At);
    if (End == std::string::npos)
      End = Spec.size();
    const std::string Field = Spec.substr(At, End - At);
    At = End + 1;
    const size_t Eq = Field.find('=');
    if (Eq == std::string::npos)
      return Fail("field '" + Field + "' is not key=value");
    const std::string Key = Field.substr(0, Eq);
    const std::string Val = Field.substr(Eq + 1);
    char *EndP = nullptr;
    if (Key == "seed") {
      Out.Seed = std::strtoull(Val.c_str(), &EndP, 0);
      SawSeed = true;
    } else if (Key == "rate") {
      Out.Rate = std::strtod(Val.c_str(), &EndP);
      if (Out.Rate < 0 || Out.Rate > 1)
        return Fail("rate must be in [0,1]");
    } else if (Key == "sock") {
      Out.FaultSockets = std::strtoul(Val.c_str(), &EndP, 10) != 0;
    } else if (Key == "store") {
      Out.FaultStore = std::strtoul(Val.c_str(), &EndP, 10) != 0;
    } else if (Key == "delay-ms") {
      Out.MaxDelayMs =
          static_cast<unsigned>(std::strtoul(Val.c_str(), &EndP, 10));
    } else {
      return Fail("unknown key '" + Key + "'");
    }
    if (!EndP || *EndP != '\0' || Val.empty())
      return Fail("bad value for '" + Key + "'");
  }
  if (!SawSeed)
    return Fail("missing required 'seed=N'");
  O = Out;
  return true;
}

ssize_t darm::serve::fiRead(int Fd, void *Buf, size_t N) {
  ssize_t Ret = 0;
  if (consultPlan(FaultOp::SockRead, Fd, N, Ret, /*Sock=*/true))
    return Ret;
  return ::read(Fd, Buf, N);
}

ssize_t darm::serve::fiWrite(int Fd, const void *Buf, size_t N) {
  ssize_t Ret = 0;
  if (consultPlan(FaultOp::SockWrite, Fd, N, Ret, /*Sock=*/true))
    return Ret;
  // MSG_NOSIGNAL: a peer that closed mid-session must surface as EPIPE,
  // never as a process-killing SIGPIPE. Pipes (--stdio mode) are not
  // sockets; send() fails ENOTSOCK there and write(2) takes over — the
  // daemon ignores SIGPIPE process-wide for that transport.
  const ssize_t W = ::send(Fd, Buf, N, MSG_NOSIGNAL);
  if (W < 0 && errno == ENOTSOCK)
    return ::write(Fd, Buf, N);
  return W;
}

int darm::serve::fiOpen(const char *Path, int Flags, unsigned Mode) {
  size_t N = 0;
  ssize_t Ret = 0;
  if (consultPlan(FaultOp::FsOpen, -1, N, Ret, /*Sock=*/false))
    return -1;
  return ::open(Path, Flags, static_cast<mode_t>(Mode));
}

ssize_t darm::serve::fiFsRead(int Fd, void *Buf, size_t N) {
  ssize_t Ret = 0;
  // Path-level poisoning is meaningless for store files; pass Fd=-1 so
  // only the decision applies.
  if (consultPlan(FaultOp::FsRead, -1, N, Ret, /*Sock=*/false))
    return Ret;
  return ::read(Fd, Buf, N);
}

ssize_t darm::serve::fiFsWrite(int Fd, const void *Buf, size_t N) {
  ssize_t Ret = 0;
  if (consultPlan(FaultOp::FsWrite, -1, N, Ret, /*Sock=*/false))
    return Ret;
  return ::write(Fd, Buf, N);
}

int darm::serve::fiFsync(int Fd) {
  size_t N = 0;
  ssize_t Ret = 0;
  if (consultPlan(FaultOp::FsFsync, -1, N, Ret, /*Sock=*/false))
    return -1;
  return ::fsync(Fd);
}

int darm::serve::fiRename(const char *From, const char *To) {
  size_t N = 0;
  ssize_t Ret = 0;
  if (consultPlan(FaultOp::FsRename, -1, N, Ret, /*Sock=*/false))
    return -1;
  return ::rename(From, To);
}

int darm::serve::fiPollWait(int Fd, short Events, int TimeoutMs) {
  const auto Start = std::chrono::steady_clock::now();
  for (;;) {
    pollfd P;
    P.fd = Fd;
    P.events = Events;
    P.revents = 0;
    int Remaining = TimeoutMs;
    if (TimeoutMs >= 0) {
      const auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - Start)
                               .count();
      Remaining = TimeoutMs - static_cast<int>(Elapsed);
      if (Remaining < 0)
        Remaining = 0;
    }
    const int R = ::poll(&P, 1, Remaining);
    if (R > 0)
      return 1; // readable/writable OR error/hup: let the I/O call see it
    if (R == 0)
      return 0;
    if (errno != EINTR)
      return -1;
  }
}
