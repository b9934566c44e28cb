//===- WriterStall.h - Hold a write-behind store's writer in a stall -*- C++ -*-===//
///
/// \file
/// Tests of the write-behind artifact store (serve/ArtifactStore.h) need
/// its writer thread held off while they fill the queue or read a key
/// back before it lands. No test-only knob does that: a seeded FaultPlan
/// does, through the store's own slow-disk fault. A plan's decisions are
/// a pure function of its seed and the order of operations, and the first
/// artifact a fresh store writes makes its first fault-aware calls: open
/// the incumbent (either outcome reads as "no incumbent"), open the temp
/// file (must proceed), write (must draw a long Delay). slowFirstWrite()
/// finds a seed with exactly that schedule.
///
//===----------------------------------------------------------------------===//
#ifndef DARM_TESTS_WRITERSTALL_H
#define DARM_TESTS_WRITERSTALL_H

#include "darm/serve/ArtifactStore.h"
#include "darm/serve/FaultInjection.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace darm {
namespace testhelpers {

/// Plan options under which a fresh store's first write sleeps between
/// \p MinMs and 2 * \p MinMs milliseconds before it proceeds.
inline serve::FaultPlan::Options slowFirstWrite(unsigned MinMs) {
  serve::FaultPlan::Options O;
  O.Rate = 0.5;
  O.FaultSockets = false;
  O.MaxDelayMs = 2 * MinMs;
  for (O.Seed = 1;; ++O.Seed) {
    serve::FaultPlan Probe(O);
    Probe.decide(serve::FaultOp::FsOpen, 0);
    if (Probe.decide(serve::FaultOp::FsOpen, 0).K !=
        serve::FaultDecision::Proceed)
      continue;
    const serve::FaultDecision W = Probe.decide(serve::FaultOp::FsWrite, 0);
    if (W.K == serve::FaultDecision::Delay && W.DelayMs >= MinMs)
      return O;
  }
}

/// Queues \p First on a fresh \p Store under slowFirstWrite(MinMs) and
/// returns once the writer sleeps inside that write, with the plan
/// detached again: for at least MinMs from construction the store writes
/// nothing, and every later operation runs fault-free. The caller must
/// not touch the store's files until the constructor returns. Keep the
/// object alive until the stall ends (flush() or the store's
/// destruction); it owns the plan the writer consulted.
class WriterStall {
public:
  WriterStall(serve::FileArtifactStore &Store, const CompiledModule &First,
              unsigned MinMs)
      : Plan(slowFirstWrite(MinMs)) {
    serve::setFaultPlan(&Plan);
    Store.store(First);
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (Plan.operations() < 3 &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    // The writer now sleeps in its third operation's Delay, so no later
    // decision can race the detach. The plan outlives the decision that
    // may still be returning.
    serve::setFaultPlan(nullptr);
    EXPECT_EQ(Plan.operations(), 3u) << "the writer did not reach its stall";
  }
  ~WriterStall() { serve::setFaultPlan(nullptr); }
  WriterStall(const WriterStall &) = delete;
  WriterStall &operator=(const WriterStall &) = delete;

private:
  serve::FaultPlan Plan;
};

} // namespace testhelpers
} // namespace darm

#endif // DARM_TESTS_WRITERSTALL_H
