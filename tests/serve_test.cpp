//===- serve_test.cpp - darmd protocol + on-disk store crash safety -----------===//
//
// Pins the serving layer (docs/caching.md): the DRMA artifact container
// and DRMQ/DRMR wire codecs round-trip and reject corruption, the
// serveStream loop answers byte-identically to in-process
// compileToArtifact, and the on-disk artifact store survives every
// crash shape — truncated files, flipped bytes, wrong magic, stale
// versions, torn writes, concurrent writers racing one key — as a cold
// miss that recompiles and re-persists, never an abort, never a wrong
// artifact.
//
//===----------------------------------------------------------------------===//

#include "darm/serve/ArtifactStore.h"
#include "darm/serve/Client.h"
#include "darm/serve/Server.h"

#include "darm/core/CompileService.h"
#include "darm/fuzz/KernelGenerator.h"
#include "darm/ir/Context.h"
#include "darm/ir/IRPrinter.h"
#include "darm/ir/Module.h"
#include "darm/support/Hashing.h"

#include "helpers/WriterStall.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace darm;
using namespace darm::serve;

namespace {

Function *buildKernel(Module &M, uint64_t Seed) {
  fuzz::FuzzCase C(Seed);
  Function *F = fuzz::buildFuzzKernel(M, C);
  EXPECT_NE(F, nullptr);
  return F;
}

CompiledModule makeArtifact(uint64_t Seed, bool IncludeProgram = true) {
  Context Ctx;
  Module M(Ctx, "serve");
  Function *F = buildKernel(M, Seed);
  return compileToArtifact(*F, DARMConfig(), IncludeProgram);
}

/// A unique fresh directory per test under the build tree.
std::string freshDir(const char *Tag) {
  std::string D = std::string("serve_test_") + Tag + ".dir";
  std::system(("rm -rf " + D).c_str());
  return D;
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()),
           static_cast<std::streamsize>(Bytes.size()));
}

//===----------------------------------------------------------------------===//
// DRMA artifact container
//===----------------------------------------------------------------------===//

TEST(ArtifactCodec, RoundTripsEveryField) {
  CompiledModule Art = makeArtifact(11);
  Art.Stats.Iterations = 3;
  Art.Stats.RegionsMelded = 2;
  const std::vector<uint8_t> Bytes = serializeCompiledModule(Art);

  CompiledModule Back;
  std::string Err;
  ASSERT_TRUE(deserializeCompiledModule(Bytes, Back, &Err)) << Err;
  EXPECT_EQ(Back.IRHash, Art.IRHash);
  EXPECT_EQ(Back.Fingerprint, Art.Fingerprint);
  EXPECT_EQ(Back.ModuleBytes, Art.ModuleBytes);
  EXPECT_EQ(Back.ProgramBytes, Art.ProgramBytes);
  EXPECT_EQ(Back.CompileError, Art.CompileError);
  EXPECT_EQ(Back.Stats.Iterations, Art.Stats.Iterations);
  EXPECT_EQ(Back.Stats.RegionsMelded, Art.Stats.RegionsMelded);
  // Decode-reencode is byte-identical: the container is canonical.
  EXPECT_EQ(serializeCompiledModule(Back), Bytes);
}

TEST(ArtifactCodec, RejectsEveryTruncation) {
  const std::vector<uint8_t> Bytes = serializeCompiledModule(makeArtifact(12));
  CompiledModule Out;
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    EXPECT_FALSE(deserializeCompiledModule(Bytes.data(), Len, Out))
        << "prefix of " << Len << " bytes must not decode";
}

TEST(ArtifactCodec, RejectsEveryFlippedByte) {
  // The trailing whole-image checksum makes this exhaustive guarantee
  // possible: a flip in a counter varint or deep in the module payload
  // decodes structurally fine but must still read as corrupt.
  const std::vector<uint8_t> Bytes = serializeCompiledModule(makeArtifact(13));
  CompiledModule Out;
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[I] ^= 0x40;
    EXPECT_FALSE(deserializeCompiledModule(Bad, Out))
        << "flipped byte " << I << " must not decode";
  }
}

TEST(ArtifactCodec, RejectsTrailingGarbage) {
  std::vector<uint8_t> Bytes = serializeCompiledModule(makeArtifact(14));
  Bytes.push_back(0);
  CompiledModule Out;
  EXPECT_FALSE(deserializeCompiledModule(Bytes, Out));
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTrip) {
  Context Ctx;
  Module M(Ctx, "req");
  Function *F = buildKernel(M, 21);

  CompileRequest Req;
  Req.Cfg = DARMConfig::withCanonicalization();
  Req.Cfg.ProfitThreshold = 0.125;
  Req.Cfg.MaxIterations = 9;
  Req.IncludeProgram = false;
  Req.IRText = printFunction(*F);

  CompileRequest Back;
  std::string Err;
  const std::vector<uint8_t> Frame = encodeRequest(Req);
  ASSERT_TRUE(decodeRequest(Frame.data(), Frame.size(), Back, &Err)) << Err;
  // The config codec is field-exact: equal fingerprints, not just
  // equal-ish structs.
  EXPECT_EQ(configFingerprint(Back.Cfg), configFingerprint(Req.Cfg));
  EXPECT_EQ(Back.IncludeProgram, Req.IncludeProgram);
  EXPECT_EQ(Back.IRText, Req.IRText);
}

TEST(Protocol, RequestRejectsCorruption) {
  CompileRequest Req;
  Req.IRText = "kernel @k() { entry: ret }";
  std::vector<uint8_t> Frame = encodeRequest(Req);
  CompileRequest Out;

  for (size_t Len = 0; Len < Frame.size(); ++Len)
    EXPECT_FALSE(decodeRequest(Frame.data(), Len, Out));
  {
    std::vector<uint8_t> Bad = Frame;
    Bad[0] = 'X'; // magic
    EXPECT_FALSE(decodeRequest(Bad.data(), Bad.size(), Out));
  }
  {
    std::vector<uint8_t> Bad = Frame;
    Bad[4] ^= 0xff; // version
    EXPECT_FALSE(decodeRequest(Bad.data(), Bad.size(), Out));
  }
  {
    std::vector<uint8_t> Bad = Frame;
    Bad.push_back(0); // trailing garbage
    EXPECT_FALSE(decodeRequest(Bad.data(), Bad.size(), Out));
  }
}

TEST(Protocol, ResponseRoundTripOkAndError) {
  {
    CompileResponse Resp;
    Resp.Ok = true;
    Resp.Origin = ServeOrigin::DiskHit;
    Resp.Art = makeArtifact(22);
    const std::vector<uint8_t> Frame = encodeResponse(Resp);
    CompileResponse Back;
    std::string Err;
    ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), Back, &Err)) << Err;
    EXPECT_TRUE(Back.Ok);
    EXPECT_EQ(Back.Origin, ServeOrigin::DiskHit);
    EXPECT_EQ(serializeCompiledModule(Back.Art),
              serializeCompiledModule(Resp.Art));
  }
  {
    CompileResponse Resp;
    Resp.Error = "parse error: nope";
    const std::vector<uint8_t> Frame = encodeResponse(Resp);
    CompileResponse Back;
    ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), Back));
    EXPECT_FALSE(Back.Ok);
    EXPECT_EQ(Back.Error, Resp.Error);
  }
}

TEST(Protocol, BusyResponseRoundTrip) {
  CompileResponse Resp;
  Resp.Busy = true;
  const std::vector<uint8_t> Frame = encodeResponse(Resp);
  CompileResponse Back;
  std::string Err;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), Back, &Err)) << Err;
  EXPECT_FALSE(Back.Ok);
  EXPECT_TRUE(Back.Busy);
  EXPECT_FALSE(Back.Error.empty());
}

TEST(Protocol, FramesOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  const std::vector<uint8_t> Payload = {1, 2, 3, 250, 251, 252};
  ASSERT_TRUE(writeFrame(Fds[0], Payload));
  std::vector<uint8_t> Back;
  bool CleanEof = true;
  ASSERT_TRUE(readFrame(Fds[1], Back, &CleanEof));
  EXPECT_EQ(Back, Payload);
  EXPECT_FALSE(CleanEof);
  ::close(Fds[0]);
  EXPECT_FALSE(readFrame(Fds[1], Back, &CleanEof));
  EXPECT_TRUE(CleanEof); // EOF at a frame boundary, not a torn frame
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// serveStream end to end
//===----------------------------------------------------------------------===//

TEST(ServeStream, ByteIdenticalToInProcessCompile) {
  Context Ctx;
  Module M(Ctx, "serve");
  Function *F = buildKernel(M, 31);
  const std::vector<uint8_t> Expect =
      serializeCompiledModule(compileToArtifact(*F, DARMConfig()));

  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  CompileService Svc;
  ServeCounters Counters;
  std::thread Server([&] {
    serveStream(Fds[1], Fds[1], Svc, &Counters);
    ::close(Fds[1]);
  });

  CompileRequest Req;
  Req.IRText = printFunction(*F);
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(roundTrip(Fds[0], Req, Resp, &Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Resp.Origin, ServeOrigin::Compiled);
  EXPECT_EQ(serializeCompiledModule(Resp.Art), Expect);

  // The duplicate is a memory hit with the same bytes.
  ASSERT_TRUE(roundTrip(Fds[0], Req, Resp, &Err)) << Err;
  ASSERT_TRUE(Resp.Ok);
  EXPECT_EQ(Resp.Origin, ServeOrigin::MemoryHit);
  EXPECT_EQ(serializeCompiledModule(Resp.Art), Expect);

  ::close(Fds[0]);
  Server.join();
  EXPECT_EQ(Counters.Requests.load(), 2u);
  EXPECT_EQ(Counters.Compiled.load(), 1u);
  EXPECT_EQ(Counters.MemoryHits.load(), 1u);
}

TEST(ServeStream, BadIRIsPerRequestErrorSessionContinues) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  CompileService Svc;
  std::thread Server([&] {
    serveStream(Fds[1], Fds[1], Svc);
    ::close(Fds[1]);
  });

  CompileRequest Bad;
  Bad.IRText = "this is not IR";
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(roundTrip(Fds[0], Bad, Resp, &Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("parse error"), std::string::npos);

  // The session survives a bad request: a good one still answers.
  Context Ctx;
  Module M(Ctx, "after");
  Function *F = buildKernel(M, 32);
  CompileRequest Good;
  Good.IRText = printFunction(*F);
  ASSERT_TRUE(roundTrip(Fds[0], Good, Resp, &Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;

  ::close(Fds[0]);
  Server.join();
}

//===----------------------------------------------------------------------===//
// Deadlines, SIGPIPE, drain (docs/serving.md resilience contracts)
//===----------------------------------------------------------------------===//

TEST(Deadline, SlowLorisPeerIsCutOthersUnaffected) {
  // Connection 1 starts a frame and stalls (length prefix, no payload);
  // connection 2 sends a real request. The loris is disconnected by the
  // frame deadline; the good connection answers normally.
  int Loris[2], Good[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Loris), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Good), 0);
  CompileService Svc;
  ServeCounters Counters;
  ServeOptions SO;
  SO.FrameTimeoutMs = 150;
  std::thread LorisServer(
      [&] { serveStream(Loris[1], Loris[1], Svc, &Counters, SO); });
  std::thread GoodServer(
      [&] { serveStream(Good[1], Good[1], Svc, &Counters, SO); });

  const uint8_t Prefix[4] = {100, 0, 0, 0}; // "100 bytes follow" — they never do
  ASSERT_EQ(::write(Loris[0], Prefix, 4), 4);

  Context Ctx;
  Module M(Ctx, "good");
  CompileRequest Req;
  Req.IRText = printFunction(*buildKernel(M, 61));
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(roundTrip(Good[0], Req, Resp, &Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;

  LorisServer.join(); // returns within the deadline or the test times out
  EXPECT_EQ(Counters.Timeouts.load(), 1u);
  ::close(Good[0]);
  GoodServer.join();
  ::close(Loris[0]);
  ::close(Loris[1]);
  ::close(Good[1]);
  EXPECT_EQ(Counters.Requests.load(), 1u) << "the loris never completed one";
}

TEST(Deadline, IdleTimeoutCutsSilentConnection) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  CompileService Svc;
  ServeCounters Counters;
  ServeOptions SO;
  SO.IdleTimeoutMs = 100;
  std::thread Server([&] { serveStream(Fds[1], Fds[1], Svc, &Counters, SO); });
  Server.join(); // the silent peer is cut; join or the watchdog fires
  EXPECT_EQ(Counters.Timeouts.load(), 1u);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(Framing, ClosedPeerIsCleanFailureNotSigpipe) {
  // Without MSG_NOSIGNAL the second write would raise SIGPIPE and kill
  // the whole test binary; the contract is a clean false.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  ::close(Fds[1]);
  const std::vector<uint8_t> Payload(1 << 16, 0xab);
  EXPECT_FALSE(writeFrame(Fds[0], Payload));
  EXPECT_FALSE(writeFrame(Fds[0], Payload)); // and again, post-EPIPE
  ::close(Fds[0]);
}

TEST(ServeStream, DrainingSessionStillAnswersRequestItReads) {
  // The graceful-shutdown contract: a request the server has already
  // read when the drain flag goes up is NOT abandoned — it is answered,
  // and only then does the session close. The Requests counter ticks
  // right after the frame is read, so waiting on it (rather than a
  // sleep) makes the set-drain-mid-service ordering deterministic. The
  // idle timeout is a safety exit so a scheduling fluke cannot leave
  // the session blocked forever; the drain check normally fires first.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  CompileService Svc;
  ServeCounters Counters;
  std::atomic<bool> Drain{false};
  ServeOptions SO;
  SO.Drain = &Drain;
  SO.IdleTimeoutMs = 2000;
  std::thread Server(
      [&] { serveStream(Fds[1], Fds[1], Svc, &Counters, SO); });

  Context Ctx;
  Module M(Ctx, "drain");
  CompileRequest Req;
  Req.IRText = printFunction(*buildKernel(M, 62));
  ASSERT_TRUE(writeFrame(Fds[0], encodeRequest(Req), 2000));
  // Wait until the server has READ the frame — from here it must answer.
  for (int I = 0; I < 2000 && Counters.Requests.load() == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Counters.Requests.load(), 1u);
  Drain.store(true, std::memory_order_release);

  std::vector<uint8_t> Frame;
  bool CleanEof = false;
  ASSERT_TRUE(readFrame(Fds[0], Frame, &CleanEof, 5000, 5000));
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), Resp, &Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;

  // ...and the session then ends instead of waiting for another frame.
  Server.join();
  EXPECT_FALSE(readFrame(Fds[0], Frame, &CleanEof, 1000, 1000));
  ::close(Fds[0]);
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// SocketServer: TCP transport, load shedding, graceful drain
//===----------------------------------------------------------------------===//

TEST(SocketServerTest, TcpServeAndGracefulDrain) {
  CompileService Svc;
  ServeCounters Counters;
  std::string Err;
  uint16_t Port = 0;
  const int ListenFd = listenTcp("127.0.0.1:0", &Err, &Port);
  ASSERT_GE(ListenFd, 0) << Err;
  ASSERT_NE(Port, 0);
  SocketServer Server(Svc, &Counters);
  ASSERT_TRUE(Server.start(ListenFd));

  const std::string Endpoint = "127.0.0.1:" + std::to_string(Port);
  ASSERT_TRUE(endpointIsTcp(Endpoint));
  const int Fd = connectEndpoint(Endpoint, &Err, /*TimeoutMs=*/2000);
  ASSERT_GE(Fd, 0) << Err;

  Context Ctx;
  Module M(Ctx, "tcp");
  Function *F = buildKernel(M, 63);
  const std::vector<uint8_t> Expect =
      serializeCompiledModule(compileToArtifact(*F, DARMConfig()));
  CompileRequest Req;
  Req.IRText = printFunction(*F);
  CompileResponse Resp;
  ASSERT_TRUE(roundTrip(Fd, Req, Resp, &Err, /*TimeoutMs=*/30000)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(serializeCompiledModule(Resp.Art), Expect)
      << "TCP transport must not change a single artifact byte";
  ::close(Fd);

  EXPECT_TRUE(Server.drain(/*DeadlineMs=*/5000));
  // Drained server refuses new connections: the listener is gone.
  EXPECT_LT(connectEndpoint(Endpoint, &Err, /*TimeoutMs=*/500), 0);
}

TEST(SocketServerTest, OverCapConnectionGetsBusyFrame) {
  CompileService Svc;
  ServeCounters Counters;
  SocketServer::Options Opts;
  Opts.MaxConnections = 1;
  SocketServer Server(Svc, &Counters, Opts);
  const std::string Path = "serve_test_busy.sock";
  std::string Err;
  const int ListenFd = listenUnixSocket(Path, &Err);
  ASSERT_GE(ListenFd, 0) << Err;
  ASSERT_TRUE(Server.start(ListenFd));

  const int Holder = connectUnixSocket(Path, &Err);
  ASSERT_GE(Holder, 0) << Err;
  // Wait until the holder is accepted and occupies the one slot.
  for (int I = 0; I < 2000 && Server.activeConnections() < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(Server.activeConnections(), 1u);

  // The over-cap connection is answered with one unsolicited Busy frame
  // and closed — load shedding, not a silent drop.
  const int Shed = connectUnixSocket(Path, &Err);
  ASSERT_GE(Shed, 0) << Err;
  std::vector<uint8_t> Frame;
  bool CleanEof = false;
  ASSERT_TRUE(readFrame(Shed, Frame, &CleanEof, /*IdleTimeoutMs=*/5000,
                        /*FrameTimeoutMs=*/5000));
  CompileResponse Resp;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), Resp, &Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_TRUE(Resp.Busy);
  EXPECT_FALSE(readFrame(Shed, Frame, &CleanEof));
  EXPECT_TRUE(CleanEof) << "shed connection must be closed cleanly";
  ::close(Shed);
  ::close(Holder);
  Server.drain(2000);
  EXPECT_GE(Counters.Busy.load(), 1u);
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// serve::Client: retry, backoff, reconnect, Busy absorption, fallback
//===----------------------------------------------------------------------===//

/// A scripted flaky daemon on a Unix socket: tears the first
/// \p TornConnections connections after reading their request (close
/// without answering), answers \p BusyConnections more with one Busy
/// frame, then serves the rest properly until drained.
class FlakyServer {
public:
  FlakyServer(const std::string &Path, unsigned TornConnections,
              unsigned BusyConnections)
      : Path(Path), Torn(TornConnections), BusyN(BusyConnections) {
    std::string Err;
    ListenFd = listenUnixSocket(Path, &Err);
    EXPECT_GE(ListenFd, 0) << Err;
    Acceptor = std::thread([this] { run(); });
  }
  ~FlakyServer() {
    Stop.store(true);
    ::shutdown(ListenFd, SHUT_RDWR);
    ::close(ListenFd);
    Acceptor.join();
    ::unlink(Path.c_str());
  }

private:
  void run() {
    while (!Stop.load()) {
      const int Conn = ::accept(ListenFd, nullptr, nullptr);
      if (Conn < 0)
        return;
      if (Torn > 0) {
        --Torn;
        std::vector<uint8_t> Frame;
        readFrame(Conn, Frame, nullptr, 2000, 2000); // swallow the request
        ::close(Conn); // ...and hang up without answering
        continue;
      }
      if (BusyN > 0) {
        --BusyN;
        // Read the request first so the answer is deterministic: an
        // unsolicited Busy racing the client's write can surface as a
        // torn connection instead (that shape is pinned by
        // SocketServerTest.OverCapConnectionGetsBusyFrame).
        std::vector<uint8_t> Frame;
        readFrame(Conn, Frame, nullptr, 2000, 2000);
        CompileResponse Busy;
        Busy.Busy = true;
        writeFrame(Conn, encodeResponse(Busy), 2000);
        ::close(Conn);
        continue;
      }
      serveStream(Conn, Conn, Svc);
      ::close(Conn);
    }
  }

  std::string Path;
  unsigned Torn, BusyN;
  int ListenFd = -1;
  CompileService Svc;
  std::atomic<bool> Stop{false};
  std::thread Acceptor;
};

ClientOptions fastClientOptions(const std::string &Endpoint) {
  ClientOptions O;
  O.Endpoint = Endpoint;
  O.ConnectTimeoutMs = 2000;
  O.RequestTimeoutMs = 30000;
  O.BackoffBaseMs = 1;
  O.BackoffCapMs = 5; // fast schedule: the tests pin behaviour, not timing
  return O;
}

TEST(ClientTest, RetriesTornConnectionsAndSucceeds) {
  const std::string Path = "serve_test_flaky_torn.sock";
  FlakyServer Flaky(Path, /*TornConnections=*/2, /*BusyConnections=*/0);
  ClientOptions O = fastClientOptions(Path);
  O.MaxRetries = 3;
  Client Cli(O);

  Context Ctx;
  Module M(Ctx, "cli");
  Function *F = buildKernel(M, 64);
  const std::vector<uint8_t> Expect =
      serializeCompiledModule(compileToArtifact(*F, DARMConfig()));
  CompileRequest Req;
  Req.IRText = printFunction(*F);
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(Cli.request(Req, Resp, &Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(serializeCompiledModule(Resp.Art), Expect);
  EXPECT_EQ(Cli.counters().Attempts.load(), 3u);
  EXPECT_EQ(Cli.counters().Retries.load(), 2u);
  EXPECT_EQ(Cli.counters().Reconnects.load(), 2u);
}

TEST(ClientTest, AbsorbsBusySheddingWithBackoff) {
  const std::string Path = "serve_test_flaky_busy.sock";
  FlakyServer Flaky(Path, /*TornConnections=*/0, /*BusyConnections=*/2);
  ClientOptions O = fastClientOptions(Path);
  O.MaxRetries = 4;
  Client Cli(O);

  Context Ctx;
  Module M(Ctx, "busy");
  CompileRequest Req;
  Req.IRText = printFunction(*buildKernel(M, 65));
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(Cli.request(Req, Resp, &Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(Cli.counters().BusyShed.load(), 2u);
  EXPECT_GE(Cli.counters().Retries.load(), 2u);
}

TEST(ClientTest, PermanentErrorIsNotRetried) {
  const std::string Path = "serve_test_flaky_perm.sock";
  FlakyServer Flaky(Path, 0, 0); // healthy server
  ClientOptions O = fastClientOptions(Path);
  O.MaxRetries = 5;
  Client Cli(O);

  CompileRequest Req;
  Req.IRText = "this is not IR";
  CompileResponse Resp;
  std::string Err;
  // A definitive answer: request() is true, Resp.Ok false — and exactly
  // one attempt, because resending identical bytes cannot help.
  ASSERT_TRUE(Cli.request(Req, Resp, &Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Busy);
  EXPECT_EQ(Cli.counters().Attempts.load(), 1u);
  EXPECT_EQ(Cli.counters().Retries.load(), 0u);
}

TEST(ClientTest, FallsBackToLocalCompileWhenDaemonIsGone) {
  // Nobody listens here: every attempt fails to connect, retries
  // exhaust, and the verified local fallback answers — byte-identical
  // to what the daemon would have said, by the determinism contract.
  ClientOptions O = fastClientOptions("serve_test_no_such_daemon.sock");
  O.MaxRetries = 1;
  O.ConnectTimeoutMs = 200;
  O.Fallback = FallbackMode::LocalCompile;
  CompileService Shared;
  Client Cli(O, &Shared);

  Context Ctx;
  Module M(Ctx, "fb");
  Function *F = buildKernel(M, 66);
  const std::vector<uint8_t> Expect =
      serializeCompiledModule(compileToArtifact(*F, DARMConfig()));
  CompileRequest Req;
  Req.IRText = printFunction(*F);
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(Cli.request(Req, Resp, &Err)) << Err;
  ASSERT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(serializeCompiledModule(Resp.Art), Expect)
      << "local fallback must be byte-identical to the daemon's answer";
  EXPECT_EQ(Cli.counters().Fallbacks.load(), 1u);
  EXPECT_EQ(Cli.counters().Attempts.load(), 2u);
  EXPECT_EQ(Shared.stats().Misses, 1u) << "fallback compiles in the shared service";
}

TEST(ClientTest, FailsCleanlyWithoutFallback) {
  ClientOptions O = fastClientOptions("serve_test_no_such_daemon2.sock");
  O.MaxRetries = 1;
  O.ConnectTimeoutMs = 200;
  Client Cli(O);
  CompileRequest Req;
  Req.IRText = "kernel irrelevant";
  CompileResponse Resp;
  std::string Err;
  EXPECT_FALSE(Cli.request(Req, Resp, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Cli.counters().Attempts.load(), 2u);
}

//===----------------------------------------------------------------------===//
// FileArtifactStore crash safety
//===----------------------------------------------------------------------===//

class ArtifactStoreTest : public ::testing::Test {
protected:
  /// Each test gets a fresh store dir named after the test.
  std::string Dir;
  void SetUp() override {
    Dir = freshDir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::system(("rm -rf " + Dir).c_str()); }
};

TEST_F(ArtifactStoreTest, StoreLoadRoundTrip) {
  FileArtifactStore Store(Dir);
  ASSERT_TRUE(Store.valid());
  const CompiledModule Art = makeArtifact(41);
  Store.store(Art);
  Store.flush();
  auto Back = Store.load(Art.IRHash, Art.Fingerprint, /*NeedProgram=*/true);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(serializeCompiledModule(*Back), serializeCompiledModule(Art));
  EXPECT_EQ(Store.stats().Stores, 1u);
  EXPECT_EQ(Store.stats().Loads, 1u);

  // Write-once: storing the same artifact again is a skip, not a write.
  Store.store(Art);
  Store.flush();
  EXPECT_EQ(Store.stats().Stores, 1u);
  EXPECT_EQ(Store.stats().StoreSkips, 1u);
}

TEST_F(ArtifactStoreTest, AbsentKeyIsMiss) {
  FileArtifactStore Store(Dir);
  EXPECT_EQ(Store.load(0x1234, "nope", true), nullptr);
  EXPECT_EQ(Store.stats().LoadMisses, 1u);
}

TEST_F(ArtifactStoreTest, TruncatedFileIsMissAndHeals) {
  FileArtifactStore Store(Dir);
  const CompiledModule Art = makeArtifact(42);
  Store.store(Art);
  Store.flush();
  const std::string Path = Store.pathFor(Art.IRHash, Art.Fingerprint);
  const std::vector<uint8_t> Full = serializeCompiledModule(Art);

  for (size_t Len : {size_t(0), size_t(3), Full.size() / 2, Full.size() - 1}) {
    writeFile(Path, std::vector<uint8_t>(Full.begin(), Full.begin() + Len));
    EXPECT_EQ(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr)
        << "truncation to " << Len << " bytes must miss";
    // The recompile's store() replaces the corrupt incumbent — the heal
    // path a real daemon takes right after the miss. The flush makes the
    // load below read the healed file, not the write-behind queue.
    Store.store(Art);
    Store.flush();
    EXPECT_NE(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr);
  }
}

TEST_F(ArtifactStoreTest, FlippedBytesAreMisses) {
  FileArtifactStore Store(Dir);
  const CompiledModule Art = makeArtifact(43);
  Store.store(Art);
  Store.flush();
  const std::string Path = Store.pathFor(Art.IRHash, Art.Fingerprint);
  const std::vector<uint8_t> Full = serializeCompiledModule(Art);
  // Every 7th offset keeps the sweep fast while still crossing the
  // magic, header, payload, counter and checksum regions.
  for (size_t I = 0; I < Full.size(); I += 7) {
    std::vector<uint8_t> Bad = Full;
    Bad[I] ^= 0x08;
    writeFile(Path, Bad);
    EXPECT_EQ(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr)
        << "flipped byte " << I << " must miss";
  }
}

TEST_F(ArtifactStoreTest, WrongMagicAndStaleVersionAreMisses) {
  FileArtifactStore Store(Dir);
  const CompiledModule Art = makeArtifact(44);
  Store.store(Art);
  Store.flush();
  const std::string Path = Store.pathFor(Art.IRHash, Art.Fingerprint);
  const std::vector<uint8_t> Full = serializeCompiledModule(Art);
  {
    std::vector<uint8_t> Bad = Full;
    Bad[0] = 'X'; // not DRMA — e.g. a stray file with a colliding name
    writeFile(Path, Bad);
    EXPECT_EQ(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr);
  }
  {
    std::vector<uint8_t> Bad = Full;
    Bad[4] = 0xee; // a future/stale format version
    Bad[5] = 0xee;
    writeFile(Path, Bad);
    EXPECT_EQ(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr);
  }
}

TEST_F(ArtifactStoreTest, MiskeyedFileIsMiss) {
  // A valid artifact sitting at the wrong path (filename-hash collision,
  // a copied/renamed file): the key inside the container must win.
  FileArtifactStore Store(Dir);
  const CompiledModule A = makeArtifact(45);
  const CompiledModule B = makeArtifact(46);
  ASSERT_NE(A.IRHash, B.IRHash);
  Store.store(A);
  Store.flush();
  writeFile(Store.pathFor(B.IRHash, B.Fingerprint),
            serializeCompiledModule(A));
  EXPECT_EQ(Store.load(B.IRHash, B.Fingerprint, true), nullptr);
  // The real key still loads fine.
  EXPECT_NE(Store.load(A.IRHash, A.Fingerprint, true), nullptr);
}

TEST_F(ArtifactStoreTest, TornWriteSweptOnOpen) {
  // A writer killed mid-store leaves only a temp file (the rename never
  // happened). A fresh store over the directory sweeps it and the key
  // reads as absent.
  {
    FileArtifactStore Store(Dir);
    ASSERT_TRUE(Store.valid());
  }
  writeFile(Dir + "/.tmp-dead-writer", {0x12, 0x34});
  const CompiledModule Art = makeArtifact(47);
  FileArtifactStore Store(Dir);
  EXPECT_EQ(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr);
  struct stat St;
  EXPECT_NE(::stat((Dir + "/.tmp-dead-writer").c_str(), &St), 0)
      << "temp droppings must be swept on open";
}

TEST_F(ArtifactStoreTest, ConcurrentWritersOneKey) {
  // N threads race store() on one key; compiles are deterministic so
  // every writer carries the same bytes — whichever store the queue keeps
  // (the rest coalesce), the file must be complete and valid, and later
  // loads must succeed.
  FileArtifactStore Store(Dir);
  const CompiledModule Art = makeArtifact(48);
  std::vector<std::thread> Writers;
  for (int I = 0; I < 8; ++I)
    Writers.emplace_back([&] { Store.store(Art); });
  for (std::thread &T : Writers)
    T.join();
  Store.flush();
  auto Back = Store.load(Art.IRHash, Art.Fingerprint, true);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(serializeCompiledModule(*Back), serializeCompiledModule(Art));
  // No temp droppings survive the races.
  FileArtifactStore Fresh(Dir);
  EXPECT_NE(Fresh.load(Art.IRHash, Art.Fingerprint, true), nullptr);
}

TEST_F(ArtifactStoreTest, UnusableDirectoryDegradesToMisses) {
  FileArtifactStore Store("/dev/null/not-a-dir");
  EXPECT_FALSE(Store.valid());
  const CompiledModule Art = makeArtifact(49);
  Store.store(Art); // silently dropped
  EXPECT_EQ(Store.load(Art.IRHash, Art.Fingerprint, true), nullptr);
}

//===----------------------------------------------------------------------===//
// Store GC (byte budget, LRU by mtime) + stale-bounded temp sweep
//===----------------------------------------------------------------------===//

namespace {
/// Backdates a file's mtime by \p Secs (the GC's LRU clock).
void ageFile(const std::string &Path, long Secs) {
  struct timespec Times[2];
  Times[0].tv_sec = ::time(nullptr) - Secs;
  Times[0].tv_nsec = 0;
  Times[1] = Times[0];
  ASSERT_EQ(::utimensat(AT_FDCWD, Path.c_str(), Times, 0), 0);
}

size_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<size_t>(St.st_size) : 0;
}

/// Total bytes of .drma files in \p Dir.
size_t storeBytes(const std::string &Dir) {
  size_t Total = 0;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return 0;
  while (struct dirent *E = ::readdir(D)) {
    const std::string Name = E->d_name;
    if (Name.size() > 5 && Name.compare(Name.size() - 5, 5, ".drma") == 0)
      Total += fileSize(Dir + "/" + Name);
  }
  ::closedir(D);
  return Total;
}
} // namespace

TEST_F(ArtifactStoreTest, GcEvictsOldestToBudgetOnOpen) {
  const CompiledModule Old = makeArtifact(71);
  const CompiledModule Fresh = makeArtifact(72);
  size_t OldSize, FreshSize;
  {
    FileArtifactStore Store(Dir);
    Store.store(Old);
    Store.store(Fresh);
    Store.flush();
    OldSize = fileSize(Store.pathFor(Old.IRHash, Old.Fingerprint));
    FreshSize = fileSize(Store.pathFor(Fresh.IRHash, Fresh.Fingerprint));
    ageFile(Store.pathFor(Old.IRHash, Old.Fingerprint), 1000);
  }
  // Reopen with a budget that fits only one: the older entry is evicted.
  FileArtifactStore::Options Opts;
  Opts.MaxBytes = OldSize + FreshSize - 1;
  FileArtifactStore Store(Dir, Opts);
  EXPECT_EQ(Store.load(Old.IRHash, Old.Fingerprint, true), nullptr)
      << "the LRU entry must be the one evicted";
  EXPECT_NE(Store.load(Fresh.IRHash, Fresh.Fingerprint, true), nullptr);
  EXPECT_GE(Store.stats().Evictions, 1u);
  EXPECT_LE(storeBytes(Dir), Opts.MaxBytes);
}

TEST_F(ArtifactStoreTest, GcKeepsDirectoryUnderBudgetAcrossOverfill) {
  // The acceptance shape: a workload that writes ~2x the budget must
  // leave the directory at or under budget after every store.
  const size_t ProbeSize = [&] {
    FileArtifactStore Probe(Dir);
    const CompiledModule A = makeArtifact(80);
    Probe.store(A);
    Probe.flush();
    return fileSize(Probe.pathFor(A.IRHash, A.Fingerprint));
  }();
  std::system(("rm -rf " + Dir).c_str());

  FileArtifactStore::Options Opts;
  Opts.MaxBytes = ProbeSize * 3; // a few artifacts fit; eight do not
  FileArtifactStore Store(Dir, Opts);
  for (uint64_t Seed = 80; Seed < 88; ++Seed) {
    Store.store(makeArtifact(Seed));
    Store.flush();
    EXPECT_LE(storeBytes(Dir), Opts.MaxBytes)
        << "budget must hold after every store + flush, not eventually";
  }
  EXPECT_GE(Store.stats().Evictions, 1u);
  // The store still works: the newest key must have survived and load.
  const CompiledModule Last = makeArtifact(87);
  EXPECT_NE(Store.load(Last.IRHash, Last.Fingerprint, true), nullptr);
}

TEST_F(ArtifactStoreTest, LoadBumpsRecencySoHotKeysSurviveGc) {
  const CompiledModule A = makeArtifact(73); // oldest... but loaded (hot)
  const CompiledModule B = makeArtifact(74); // cold: the eviction victim
  const CompiledModule C = makeArtifact(75);
  size_t Sizes = 0;
  {
    FileArtifactStore Store(Dir);
    Store.store(A);
    Store.store(B);
    Store.flush();
    ageFile(Store.pathFor(A.IRHash, A.Fingerprint), 2000);
    ageFile(Store.pathFor(B.IRHash, B.Fingerprint), 1000);
    // The load bumps A's mtime to now: A is younger than B again.
    ASSERT_NE(Store.load(A.IRHash, A.Fingerprint, true), nullptr);
    Store.store(C);
    Store.flush();
    Sizes = storeBytes(Dir);
  }
  FileArtifactStore::Options Opts;
  Opts.MaxBytes = Sizes - 1; // forces at least one eviction
  FileArtifactStore Store(Dir, Opts);
  EXPECT_EQ(Store.load(B.IRHash, B.Fingerprint, true), nullptr)
      << "the unloaded key is the LRU victim";
  EXPECT_NE(Store.load(A.IRHash, A.Fingerprint, true), nullptr)
      << "the loaded key was bumped hot and must survive";
  EXPECT_NE(Store.load(C.IRHash, C.Fingerprint, true), nullptr);
}

TEST_F(ArtifactStoreTest, TempSweepSparesLiveWritersTwoProcess) {
  // Two stores over one directory: the second store's open must sweep
  // the temp of a DEAD writer process but spare a LIVE one mid-store —
  // yanking a live temp would break the concurrent writer's rename.
  {
    FileArtifactStore Store(Dir);
    ASSERT_TRUE(Store.valid());
  }
  // The dead writer: a real child process that leaves a parseable temp
  // (its own pid) and exits before the sweep runs.
  const pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    char Name[512];
    std::snprintf(Name, sizeof(Name), "%s/.tmp-%016lx-%016lx", Dir.c_str(),
                  static_cast<unsigned long>(::getpid()), 0ul);
    const int Fd = ::open(Name, O_WRONLY | O_CREAT, 0666);
    if (Fd >= 0)
      ::close(Fd);
    ::_exit(0);
  }
  ASSERT_EQ(::waitpid(Child, nullptr, 0), Child);
  char DeadTemp[512], LiveTemp[512];
  std::snprintf(DeadTemp, sizeof(DeadTemp), "%s/.tmp-%016lx-%016lx",
                Dir.c_str(), static_cast<unsigned long>(Child), 0ul);
  struct stat St;
  ASSERT_EQ(::stat(DeadTemp, &St), 0) << "child must have left its temp";
  // The live writer: this process, temp freshly created.
  std::snprintf(LiveTemp, sizeof(LiveTemp), "%s/.tmp-%016lx-%016lx",
                Dir.c_str(), static_cast<unsigned long>(::getpid()), 1ul);
  writeFile(LiveTemp, {0x11});

  FileArtifactStore Store(Dir);
  EXPECT_NE(::stat(DeadTemp, &St), 0) << "dead writer's temp must be swept";
  EXPECT_EQ(::stat(LiveTemp, &St), 0) << "live writer's temp must be spared";
  ::unlink(LiveTemp);
}

TEST_F(ArtifactStoreTest, AgedTempOfForeignLiveProcessIsSwept) {
  // A temp owned by a live pid we cannot prove dead (pid 1) is spared
  // while fresh but presumed abandoned once it ages past the threshold.
  {
    FileArtifactStore Store(Dir);
    ASSERT_TRUE(Store.valid());
  }
  char Temp[512];
  std::snprintf(Temp, sizeof(Temp), "%s/.tmp-%016lx-%016lx", Dir.c_str(), 1ul,
                0ul);
  writeFile(Temp, {0x22});
  struct stat St;
  {
    FileArtifactStore Store(Dir);
    EXPECT_EQ(::stat(Temp, &St), 0) << "fresh foreign temp must be spared";
  }
  ageFile(Temp, 2 * 3600);
  {
    FileArtifactStore Store(Dir);
    EXPECT_NE(::stat(Temp, &St), 0) << "aged foreign temp must be swept";
  }
}

//===----------------------------------------------------------------------===//
// Write-behind queue: read-your-writes, coalescing, bound, destructor flush
//===----------------------------------------------------------------------===//

namespace {
/// \p N copies of \p Base under distinct keys (IRHash + I): cheap, valid
/// artifacts of one size for filling the queue.
std::vector<CompiledModule> distinctCopies(const CompiledModule &Base,
                                           unsigned N) {
  std::vector<CompiledModule> Arts(N, Base);
  for (unsigned I = 0; I < N; ++I)
    Arts[I].IRHash = Base.IRHash + 1 + I;
  return Arts;
}

bool exists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}
} // namespace

TEST_F(ArtifactStoreTest, ReadYourWritesBeforeFlush) {
  const CompiledModule First = makeArtifact(60);
  const CompiledModule Full = makeArtifact(61);
  const CompiledModule Bare = makeArtifact(62, /*IncludeProgram=*/false);
  FileArtifactStore Store(Dir);
  testhelpers::WriterStall Stall(Store, First, /*MinMs=*/300);
  Store.store(Full);
  Store.store(Bare);
  ASSERT_FALSE(exists(Store.pathFor(Full.IRHash, Full.Fingerprint)));

  // Nothing has landed, yet a queued key loads byte-identical...
  auto Back = Store.load(Full.IRHash, Full.Fingerprint, /*NeedProgram=*/true);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(serializeCompiledModule(*Back), serializeCompiledModule(Full));
  // ...and a queued program-less entry obeys the NeedProgram rule.
  EXPECT_EQ(Store.load(Bare.IRHash, Bare.Fingerprint, true), nullptr);
  EXPECT_NE(Store.load(Bare.IRHash, Bare.Fingerprint, false), nullptr);
  EXPECT_EQ(Store.stats().Stores, 0u) << "answered before any write landed";

  Store.flush();
  EXPECT_EQ(Store.stats().Stores, 3u);
  FileArtifactStore Reopened(Dir);
  Back = Reopened.load(Full.IRHash, Full.Fingerprint, true);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(serializeCompiledModule(*Back), serializeCompiledModule(Full));
}

TEST_F(ArtifactStoreTest, DestructorFlushes) {
  const std::vector<CompiledModule> Arts = distinctCopies(makeArtifact(63), 32);
  {
    FileArtifactStore Store(Dir);
    for (const CompiledModule &A : Arts)
      Store.store(A);
  } // no flush(): the destructor must land every queued write
  FileArtifactStore Reopened(Dir);
  for (const CompiledModule &A : Arts)
    EXPECT_NE(Reopened.load(A.IRHash, A.Fingerprint, true), nullptr)
        << "key " << A.IRHash << " was queued but never written";
  EXPECT_EQ(Reopened.stats().Loads, Arts.size());
}

TEST_F(ArtifactStoreTest, DuplicateStoresCoalesce) {
  const CompiledModule First = makeArtifact(64);
  const CompiledModule Bare = makeArtifact(65, /*IncludeProgram=*/false);
  const CompiledModule Full = makeArtifact(65, /*IncludeProgram=*/true);
  ASSERT_EQ(Bare.IRHash, Full.IRHash);
  FileArtifactStore Store(Dir);
  {
    testhelpers::WriterStall Stall(Store, First, /*MinMs=*/300);
    Store.store(Bare);
    Store.store(Bare); // same key still queued: skipped
    Store.store(Full); // adds a program image: replaces the queued write
    Store.store(Bare); // the queued write already has one: skipped
    EXPECT_EQ(Store.stats().Coalesced, 3u);
    auto Back = Store.load(Full.IRHash, Full.Fingerprint, /*NeedProgram=*/true);
    ASSERT_NE(Back, nullptr);
    EXPECT_EQ(serializeCompiledModule(*Back), serializeCompiledModule(Full));
    Store.flush();
  }
  const FileArtifactStore::Stats S = Store.stats();
  EXPECT_EQ(S.Stores, 2u) << "one write for the stall key, one for the duplicates";
  EXPECT_EQ(S.StoreSkips, 0u);
  FileArtifactStore Reopened(Dir);
  auto Back = Reopened.load(Full.IRHash, Full.Fingerprint, true);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(serializeCompiledModule(*Back), serializeCompiledModule(Full));
}

TEST_F(ArtifactStoreTest, QueueFullDropsNeverBlocks) {
  const CompiledModule Base = makeArtifact(66);
  const size_t Each = CompiledModule(Base).byteSize(); // as the queue holds it
  const unsigned N =
      static_cast<unsigned>(2 * FileArtifactStore::kMaxQueuedBytes / Each);
  const std::vector<CompiledModule> Arts = distinctCopies(Base, N);
  const CompiledModule First = makeArtifact(67);
  FileArtifactStore Store(Dir);
  {
    testhelpers::WriterStall Stall(Store, First, /*MinMs=*/1500);
    for (const CompiledModule &A : Arts)
      Store.store(A);
    // Every store has returned while the writer still sleeps in its first
    // write: a full queue drops the store, it never waits for room.
    const FileArtifactStore::Stats S = Store.stats();
    EXPECT_EQ(S.Stores, 0u);
    EXPECT_EQ(N - S.Dropped, FileArtifactStore::kMaxQueuedBytes / Each)
        << "the queue admits exactly what fits its byte bound";
    // A dropped key is a plain miss; an admitted one answers from the queue.
    EXPECT_EQ(Store.load(Arts.back().IRHash, Arts.back().Fingerprint, true),
              nullptr);
    EXPECT_NE(Store.load(Arts.front().IRHash, Arts.front().Fingerprint, true),
              nullptr);
    Store.flush();
  }
  const FileArtifactStore::Stats S = Store.stats();
  EXPECT_GE(S.Dropped, 1u);
  EXPECT_EQ(S.Stores, 1 + N - S.Dropped);
  FileArtifactStore Reopened(Dir);
  unsigned Landed = 0;
  for (const CompiledModule &A : Arts)
    Landed += Reopened.load(A.IRHash, A.Fingerprint, true) != nullptr;
  EXPECT_EQ(Landed, N - S.Dropped);
}

//===----------------------------------------------------------------------===//
// CompileService + persistence integration
//===----------------------------------------------------------------------===//

TEST_F(ArtifactStoreTest, ServiceWarmStartsFromDisk) {
  Context Ctx;
  Module M(Ctx, "persist");
  Function *F = buildKernel(M, 51);

  CompileService::Artifact ColdArt;
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::MemoryHit;
    ColdArt = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::Compiled);
    Store.flush();
    EXPECT_EQ(Store.stats().Stores, 1u);
  }
  // The restart: a fresh service over the same directory serves the key
  // from disk — zero recompiles — and the artifact is byte-identical.
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::Compiled;
    CompileService::Artifact Warm = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::DiskHit);
    EXPECT_EQ(serializeCompiledModule(*Warm), serializeCompiledModule(*ColdArt));
    CompileService::CacheStats St = Svc.stats();
    EXPECT_EQ(St.Misses, 0u);
    EXPECT_EQ(St.DiskHits, 1u);
    // The disk hit was promoted into memory: the duplicate is a pure
    // memory hit, no second disk read.
    Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::MemoryHit);
    EXPECT_EQ(Store.stats().Loads, 1u);
  }
}

TEST_F(ArtifactStoreTest, ServiceRecompilesOverCorruptFile) {
  Context Ctx;
  Module M(Ctx, "heal");
  Function *F = buildKernel(M, 52);

  std::string Path;
  std::vector<uint8_t> Expect;
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CompileService::Artifact Art = Svc.getOrCompile(*F, DARMConfig());
    Expect = serializeCompiledModule(*Art);
    Path = Store.pathFor(Art->IRHash, Art->Fingerprint);
  }
  // Corrupt the persisted file (a torn rename, a bad disk)...
  std::vector<uint8_t> Bad(Expect.begin(), Expect.begin() + Expect.size() / 3);
  writeFile(Path, Bad);
  // ...the restarted service misses, recompiles, answers correctly, and
  // re-persists over the bad file.
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::MemoryHit;
    CompileService::Artifact Art = Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::Compiled);
    EXPECT_EQ(serializeCompiledModule(*Art), Expect);
    Store.flush();
    EXPECT_EQ(Store.stats().Stores, 1u) << "the corrupt file must be healed";
  }
  // Third start: clean disk hit again.
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::Compiled;
    Svc.getOrCompile(*F, DARMConfig(), true, &Src);
    EXPECT_EQ(Src, CacheSource::DiskHit);
  }
}

TEST_F(ArtifactStoreTest, ProgramlessDiskEntryUpgradesOnDemand) {
  Context Ctx;
  Module M(Ctx, "upgrade");
  Function *F = buildKernel(M, 53);
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/false);
  }
  // The restart asks for a program image: the program-less disk file
  // cannot satisfy it (NeedProgram gate), so the service recompiles and
  // the store() upgrade-replaces the incumbent.
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::MemoryHit;
    CompileService::Artifact Art =
        Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/true, &Src);
    EXPECT_EQ(Src, CacheSource::Compiled);
    EXPECT_FALSE(Art->ProgramBytes.empty());
    Store.flush();
    EXPECT_EQ(Store.stats().Stores, 1u) << "program upgrade must be written";
  }
  // Now the full artifact serves from disk.
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::Compiled;
    CompileService::Artifact Art =
        Svc.getOrCompile(*F, DARMConfig(), /*IncludeProgram=*/true, &Src);
    EXPECT_EQ(Src, CacheSource::DiskHit);
    EXPECT_FALSE(Art->ProgramBytes.empty());
  }
}

TEST_F(ArtifactStoreTest, NegativeResultsPersist) {
  // A failed compile is a cacheable negative result in memory
  // (docs/caching.md) — and on disk: the restart must not retry the
  // doomed compile.
  Context Ctx;
  Module M(Ctx, "neg");
  Function *F = buildKernel(M, 54);
  const std::string FP = "serve-test-fail-v1";
  unsigned Runs = 0;
  // Verifier-rejected output (a block with no terminator), as in the
  // in-memory negative-caching test.
  const CompileFn Fail = [&Runs](Function &K, DARMStats &) {
    ++Runs;
    K.createBlock("dangling");
  };
  std::string ColdError;
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CompileService::Artifact Art = Svc.getOrCompile(*F, FP, Fail);
    ASSERT_TRUE(Art->failed());
    ColdError = Art->CompileError;
    Store.flush();
    EXPECT_EQ(Store.stats().Stores, 1u);
  }
  {
    CompileService Svc;
    FileArtifactStore Store(Dir);
    Svc.setPersistence(&Store);
    CacheSource Src = CacheSource::Compiled;
    CompileService::Artifact Art = Svc.getOrCompile(*F, FP, Fail, true, &Src);
    EXPECT_EQ(Src, CacheSource::DiskHit);
    EXPECT_TRUE(Art->failed());
    EXPECT_EQ(Art->CompileError, ColdError);
    EXPECT_EQ(Runs, 1u) << "the doomed compile must not rerun after restart";
  }
}

} // namespace
