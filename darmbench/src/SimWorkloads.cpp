//===- SimWorkloads.cpp - sim-fig8 and sim-real ---------------------------===//
//
// One cell is a (kernel, paper block size, pipeline) triple: the baseline
// pipeline is simplifycfg + dce, the darm pipeline runDARM at the paper's
// threshold followed by the same cleanup — the cells of the Fig. 8 and
// Fig. 9 harnesses. Set-up compiles every cell through a CompileService
// and decodes the artifact's program image; the timed part replays the
// cells in a seeded order, one round after another, on one thread.
//
// A cell's host time is taken from the fastest kFastestShare of its runs
// in the window (README.md, "Noise"): the host slows each vCPU by up to 2x
// for milliseconds to seconds at a time, and the fastest runs are the ones
// no slowdown hit. Every set-up and every round runs on the next CPU, so
// each run samples all of them.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "darm/core/CompileService.h"
#include "darm/core/DARMPass.h"
#include "darm/ir/Context.h"
#include "darm/ir/Module.h"
#include "darm/kernels/Benchmark.h"
#include "darm/sim/DecodedProgram.h"
#include "darm/support/RNG.h"
#include "darm/transform/DCE.h"
#include "darm/transform/SimplifyCFG.h"

#include <numeric>

using namespace darm;
using namespace darmbench;

namespace {

/// Set-ups per run, eight per CPU of a 4-core host.
constexpr unsigned kSetUps = 32;
/// Timed rounds per window even when the window is shorter than that.
constexpr unsigned kMinRounds = 3;
/// The share of a cell's runs that its timing is taken from: a tenth gives
/// the pooled op_p99_us at least ten samples beyond it on both suites.
constexpr double kFastestShare = 0.1;
/// The simulator speed, in simulated instructions per host second, that a
/// cell's sample buffer is sized for: a few times today's. The buffers are
/// filled before the window, so peak_rss_mb does not grow with the number
/// of rounds a faster simulator fits in.
constexpr double kMaxInstrsPerSecond = 150e6;

struct Cell {
  std::shared_ptr<const Benchmark> B;
  std::string Label;
  CompileService::Artifact Art;
  std::unique_ptr<SimEngine> Engine;
  SimStats Ref; ///< counters of the first run; every later run must match
  bool HaveRef = false;
};

std::vector<Cell>
setUpCells(const std::vector<std::pair<std::string, unsigned>> &Specs,
           CompileService &Svc, Report &R) {
  std::vector<Cell> Cells;
  for (const auto &[Name, BS] : Specs) {
    std::shared_ptr<const Benchmark> B = createBenchmark(Name, BS);
    Context Ctx;
    Module M(Ctx, Name);
    Function *F = B->build(M);
    for (bool Meld : {false, true}) {
      Cell C;
      C.B = B;
      C.Label = Name + "/" + std::to_string(BS) + (Meld ? "/darm" : "/baseline");
      const std::string FP =
          std::string("darmbench-sim-v1;") + (Meld ? "darm" : "baseline");
      const CompileFn Compile = [Meld](Function &K, DARMStats &St) {
        if (Meld)
          runDARM(K, DARMConfig(), &St);
        simplifyCFG(K);
        eliminateDeadCode(K);
      };
      if (Tracer::enabled()) {
        // The key and the lookup as separate calls, so the trace splits
        // them out of getOrCompile (which then repeats both, cheaply).
        uint64_t Hash;
        {
          Span S("core.key");
          Hash = artifactIRHash(*F);
        }
        Span S("core.lookup");
        (void)Svc.lookup(Hash, FP);
      }
      {
        Span S("core.compile");
        C.Art = Svc.getOrCompile(*F, FP, Compile);
        addStageSpans(C.Art->Stats, Tracer::nowNs());
      }
      DecodedProgram P;
      {
        Span S("sim.decode");
        if (C.Art->failed() || !decodeFromArtifact(*C.Art, P)) {
          R.fail(C.Label + ": no runnable artifact " + C.Art->CompileError);
          continue;
        }
        C.Engine = std::make_unique<SimEngine>(std::move(P));
      }
      Cells.push_back(std::move(C));
    }
  }
  return Cells;
}

/// Runs every cell once in a seeded order, recording each run's host time
/// in \p Times (up to each buffer's capacity) and each SimRun in \p Keep.
void runRound(std::vector<Cell> &Cells, RNG &Rng, bool Validate,
              uint32_t &OpId, Report &R, std::vector<OpTimes> *Times,
              std::vector<SimRun> *Keep) {
  std::vector<size_t> Order(Cells.size());
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);

  for (size_t I : Order) {
    Cell &C = Cells[I];
    GlobalMemory Mem;
    const std::vector<uint64_t> Base = C.B->setup(Mem);
    const SimRun Run = runLaunches(
        *C.Engine, C.B->launch(), C.B->numLaunches(),
        [&](unsigned L) { return C.B->argsForLaunch(L, Base); }, Mem, OpId++);
    ++R.Attempted;
    if (Times && (*Times)[I].size() < (*Times)[I].capacity())
      (*Times)[I].push_back(static_cast<float>(Run.Us));
    if (!C.HaveRef) {
      C.Ref = Run.Stats;
      C.HaveRef = true;
    } else if (!sameStats(Run.Stats, C.Ref)) {
      R.fail(C.Label + ": simulated counters differ between rounds");
    }
    std::string Why;
    if (Validate && !C.B->validate(Mem, Base, &Why))
      R.fail(C.Label + ": host reference mismatch: " + Why);
    if (Keep)
      Keep->push_back(Run);
  }
}

/// What a window measured besides each cell's run times.
struct SimWindow {
  double RoundUs = 0; ///< sumOfMeans of the times: one pass over every cell
  size_t Rounds = 0;
  double WallS = 0;
};

/// Rounds until \p Seconds have passed, each on the next CPU, recording
/// each cell's run times in \p Times. The last round is validated against
/// the host reference like the warm-up round before the window; when the
/// window ends on a round that was not, one more round is validated,
/// untimed.
SimWindow runWindow(std::vector<Cell> &Cells, std::vector<OpTimes> &Times,
                    double Seconds, RNG &Rng, uint32_t &OpId, Report &R) {
  SimWindow SW;
  for (OpTimes &T : Times)
    T.clear();
  {
    CpuPin Pin;
    const Clock::time_point W0 = Clock::now();
    double LastWall = 0;
    bool LastValidated = false;
    while (SW.Rounds < kMinRounds || secondsSince(W0) < Seconds) {
      Pin.pin(SW.Rounds);
      LastValidated = secondsSince(W0) + LastWall >= Seconds;
      const Clock::time_point T0 = Clock::now();
      runRound(Cells, Rng, LastValidated, OpId, R, &Times, nullptr);
      LastWall = secondsSince(T0);
      ++SW.Rounds;
    }
    SW.WallS = secondsSince(W0);
    if (!LastValidated)
      runRound(Cells, Rng, true, OpId, R, nullptr, nullptr);
  }
  SW.RoundUs = sumOfMeans(Times, kFastestShare);
  return SW;
}

} // namespace

void darmbench::runSimWorkload(const Options &O, Report &R, bool Real) {
  std::vector<std::pair<std::string, unsigned>> Specs;
  for (const std::string &Name :
       Real ? realBenchmarkNames() : syntheticBenchmarkNames())
    for (unsigned BS : paperBlockSizes(Name))
      Specs.push_back({Name, BS});

  std::vector<double> SetUpS;
  std::vector<Cell> Cells;
  std::unique_ptr<CompileService> Svc;
  {
    CpuPin Pin;
    for (unsigned K = 0; K < kSetUps; ++K) {
      Pin.pin(K);
      // Only the last set-up, the one whose cells are measured, is traced.
      Tracer::setEnabled(O.Trace && K + 1 == kSetUps);
      Cells.clear();
      Svc = std::make_unique<CompileService>();
      const Clock::time_point T0 = Clock::now();
      Cells = setUpCells(Specs, *Svc, R);
      SetUpS.push_back(secondsSince(T0));
      Tracer::setEnabled(false);
    }
  }
  if (!R.correct())
    return;

  RNG Rng(O.Seed * 0x9E3779B97F4A7C15ull + 0x5157);
  uint32_t OpId = 0;
  // The warm-up round also records one run per cell for the path counters.
  std::vector<SimRun> Runs;
  runRound(Cells, Rng, /*Validate=*/true, OpId, R, nullptr, &Runs);
  uint64_t RoundInstrs = 0;
  for (const SimRun &Run : Runs)
    RoundInstrs += Run.Stats.InstructionsIssued;
  const size_t MaxRounds =
      kMinRounds + static_cast<size_t>(O.Seconds * kMaxInstrsPerSecond /
                                       std::max<double>(1, RoundInstrs));
  std::vector<OpTimes> Times(Cells.size());
  for (OpTimes &T : Times) {
    T.resize(MaxRounds);
    T.clear();
  }

  // Untraced rounds give the end-to-end numbers; a traced run spends half
  // its window on them (the tracing-overhead base) and half traced.
  const SimWindow Untraced = runWindow(
      Cells, Times, O.Trace ? O.Seconds / 2 : O.Seconds, Rng, OpId, R);
  const double PeakRss = peakRssMb();

  addSetUpMetric(R, SetUpS);
  addFastestMetrics(R, Times, kFastestShare, /*Concurrency=*/1);
  addMetric(R.EndToEnd, "peak_rss_mb", "MB", PeakRss);
  std::vector<double> ArtifactKiB;
  for (const Cell &C : Cells)
    ArtifactKiB.push_back(serializeCompiledModule(*C.Art).size() / 1024.0);
  addMetric(R.EndToEnd, "artifact_kib", "KiB", mean(ArtifactKiB),
            ArtifactKiB.size());
  std::vector<DevicePair> Pairs;
  double Regions = 0;
  for (size_t I = 0; I + 1 < Cells.size(); I += 2) {
    Pairs.push_back({Cells[I].Ref, Cells[I + 1].Ref});
    Regions += Cells[I + 1].Art->Stats.RegionsMelded;
  }
  addDeviceMetrics(R, Pairs);
  const double MinstrPerS = RoundInstrs / Untraced.RoundUs;
  addMetric(R.Extra, "sim.minstr_per_s", "Minstr/s", MinstrPerS,
            Untraced.Rounds);
  addMetric(R.Extra, "window.rounds", "count", Untraced.Rounds);

  if (!O.Trace)
    return;
  const LayerMap Before = Tracer::totals();
  Tracer::setEnabled(true);
  const SimWindow Traced =
      runWindow(Cells, Times, O.Seconds / 2, Rng, OpId, R);
  Tracer::setEnabled(false);
  const LayerMap All = Tracer::totals();
  const LayerMap Phase = diffTotals(All, Before);

  auto It = Phase.find("sim.run");
  const double SpanUs = It == Phase.end() ? 0 : It->second.TotalUs;
  addLayerMetrics(R, All, /*TransportUs=*/0);
  addSimPathMetrics(R, Runs, MinstrPerS);
  addMetric(R.PerLayer, "core.regions_melded", "count", Regions / Pairs.size(),
            Pairs.size());
  addMetric(R.PerLayer, "cache.hit_ratio", "ratio", Svc->stats().hitRate());
  addMetric(R.PerLayer, "client.retries", "count", 0);
  addMetric(R.PerLayer, "serve.request_bytes", "B", 0);
  addMetric(R.PerLayer, "serve.response_bytes", "B", 0);
  addMetric(R.PerLayer, "trace.overhead_pct", "%",
            100.0 * (Traced.RoundUs / Untraced.RoundUs - 1), Traced.Rounds);
  // The share of the traced window spent inside sim.run spans; the rest
  // is the benchmark's own per-run memory set-up and validation.
  addMetric(R.PerLayer, "trace.coverage_pct", "%",
            100.0 * SpanUs / (Traced.WallS * 1e6), Traced.Rounds);
}
