//===- Bench.h - darmbench shared declarations ------------------*- C++ -*-===//
///
/// \file
/// What the four workloads share: the run options, the report they fill,
/// sample statistics, the span tracer, and a few comparisons. The
/// benchmark times calls into the public DARM API from outside; nothing
/// here reaches into library internals.
///
//===----------------------------------------------------------------------===//
#ifndef DARMBENCH_BENCH_H
#define DARMBENCH_BENCH_H

#include "darm/core/CompiledModule.h"
#include "darm/sim/GpuConfig.h"
#include "darm/sim/Simulator.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sched.h>

namespace darmbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string OutPath;   ///< full report (JSON) when set
  std::string TracePath; ///< Chrome trace-event JSON when set (traced runs)
};

/// One reported number. A timing carries the quartiles of the samples it
/// summarizes; Samples is the count the value was computed from.
struct Metric {
  std::string Name, Unit;
  double Value = 0;
  double P25 = -1, P75 = -1; ///< negative: not a spread-carrying metric
  uint64_t Samples = 0;
};

struct Report {
  Options Opts;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few, for stderr
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Supporting numbers that are not BENCHMARK.json metrics (absolute
  /// per-layer times, origin counts, sample sizes); only in --out.
  std::vector<Metric> Extra;

  void fail(const std::string &Why);
  bool correct() const { return Failed == 0; }
};

void addMetric(std::vector<Metric> &To, const std::string &Name,
               const std::string &Unit, double Value, uint64_t Samples = 1);
/// Adds setup_s: the median of the fastest half of \p SetUpS, the
/// set-ups no slowdown of the host hit (README.md, "Noise"), with the
/// quartiles of all of them.
void addSetUpMetric(Report &R, const std::vector<double> &SetUpS);

/// Adds <Prefix>op_p50_us and <Prefix>op_p99_us to \p To: the median and
/// 99th percentile of the operation latencies \p OpUs.
void addLatencyMetrics(std::vector<Metric> &To, const std::string &Prefix,
                       const std::vector<double> &OpUs);

/// The host times, in µs, of one operation that a workload repeats (a sim
/// cell, a serve-warm key). Such an operation is timed by a fixed share of
/// its fastest runs, the runs no slowdown of the host hit (README.md,
/// "Noise"): a share, not a count, so that a window which fits in more
/// runs still estimates the same quantile.
using OpTimes = std::vector<float>;

/// The fastest \p Share of \p Times (at least one), ascending.
std::vector<double> fastestShare(const OpTimes &Times, double Share);

/// Sum over \p Ops of the mean of their fastest \p Share: the time to run
/// each once.
double sumOfMeans(const std::vector<OpTimes> &Ops, double Share);

/// Adds op_p50_us and op_p99_us over every operation's fastest \p Share,
/// pooled, and ops_per_s: \p Concurrency x the operations over
/// sumOfMeans, the rate of running each equally often, \p Concurrency at
/// a time, at those times.
void addFastestMetrics(Report &R, const std::vector<OpTimes> &Ops,
                       double Share, unsigned Concurrency);

/// Type-7 (linear interpolation) quantile, the definition Python's
/// statistics.quantiles(method="inclusive") and numpy use.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);
double mean(const std::vector<double> &V);

double peakRssMb();

/// Prints the human-readable metric lines, then the result JSON as the
/// last line of stdout; writes --out when requested. Returns the exit
/// code (0 only when every output was correct).
int emitReport(const Report &R);

//===----------------------------------------------------------------------===//
// Clock
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
inline double microsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Measuring on a noisy host
//===----------------------------------------------------------------------===//

/// Pins the calling thread to one of the CPUs it may run on, and restores
/// its CPU set when destroyed. Threads started while it is pinned inherit
/// the one CPU. The host this benchmark was built on slows one vCPU at a
/// time for up to seconds (README.md, "Noise"): the sim workloads move
/// to the next CPU at every set-up and round, and each serve client keeps
/// a CPU of its own.
class CpuPin {
public:
  CpuPin() {
    CPU_ZERO(&Original);
    if (::sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Original))
        Cpus.push_back(C);
  }
  ~CpuPin() {
    if (!Cpus.empty())
      ::sched_setaffinity(0, sizeof(Original), &Original);
  }
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;

  size_t count() const { return Cpus.size(); }
  /// Pins to the \p I-th CPU of the original set, modulo its size.
  void pin(size_t I) {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[I % Cpus.size()], &One);
    ::sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

//===----------------------------------------------------------------------===//
// Tracing: spans recorded in benchmark code around public calls.
//===----------------------------------------------------------------------===//

/// Per-layer aggregate of the spans recorded so far.
struct LayerTotals {
  uint64_t Calls = 0;
  double SelfUs = 0;  ///< duration minus the time child spans cover
  double TotalUs = 0;
};
using LayerMap = std::map<std::string, LayerTotals>;

/// In-memory span recorder. Off unless setEnabled(true); then every
/// thread appends to its own buffer, so the recording threads never
/// contend. Spans nest per thread: a span's parent is the innermost span
/// still open on that thread.
class Tracer {
public:
  static void setEnabled(bool On);
  static bool enabled();
  static int begin(const char *Name, uint32_t Request);
  static void end(int Id);
  /// Records a completed child of the innermost open span from a duration
  /// the library measured itself (DARMStats::StageSeconds), placed at
  /// [StartNs, StartNs + DurNs).
  static void addChild(const char *Name, int64_t StartNs, int64_t DurNs);
  static int64_t nowNs();
  /// Totals over every thread's spans. Call while no span is open.
  static LayerMap totals();
  /// Writes Chrome trace-event JSON (at most \p MaxEvents spans).
  static bool writeChromeTrace(const std::string &Path, size_t MaxEvents);
};

/// RAII span; costs one flag test when tracing is off.
class Span {
public:
  explicit Span(const char *Name, uint32_t Request = 0)
      : Id(Tracer::enabled() ? Tracer::begin(Name, Request) : -1) {}
  ~Span() {
    if (Id >= 0)
      Tracer::end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int Id;
};

/// Adds the StageSeconds of a fresh compile as children of the open
/// compile span, laid back to back so they end at \p EndNs.
void addStageSpans(const darm::DARMStats &Stats, int64_t EndNs);

/// Layer totals recorded between two snapshots.
LayerMap diffTotals(const LayerMap &After, const LayerMap &Before);
double meanSelfUs(const LayerMap &M, const std::string &Layer);

/// The pipeline stages DARMStats::StageSeconds can name, in pipeline
/// order; each is a per-layer metric.
const std::vector<std::string> &stageNames();

/// The per-layer time metrics every workload reports, each the mean over
/// the layer's calls: <layer>_us for the span layers (compile without
/// the store calls inside it, compile_other without the stages too, one
/// transform.<stage>_us per pipeline stage), and serve.transport_us =
/// \p TransportUs, which no span measures.
void addLayerMetrics(Report &R, const LayerMap &All, double TransportUs);

//===----------------------------------------------------------------------===//
// Device and artifact helpers
//===----------------------------------------------------------------------===//

bool sameStats(const darm::SimStats &A, const darm::SimStats &B);

/// One simulated kernel execution: device counters, the host engine's
/// path counters, and host time.
struct SimRun {
  darm::SimStats Stats;
  darm::EngineStats Engine;
  double Us = 0;
};

/// Runs launches 0..\p NumLaunches-1 of \p E over \p Mem inside one
/// "sim.run" span; \p ArgsFor(L) gives launch L's arguments.
template <typename ArgsFn>
SimRun runLaunches(darm::SimEngine &E, const darm::LaunchParams &LP,
                   unsigned NumLaunches, const ArgsFn &ArgsFor,
                   darm::GlobalMemory &Mem, uint32_t Op) {
  SimRun R;
  const Clock::time_point T0 = Clock::now();
  {
    Span S("sim.run", Op);
    for (unsigned L = 0; L < NumLaunches; ++L) {
      R.Stats += E.run(LP, ArgsFor(L), Mem);
      const darm::EngineStats &ES = E.engineStats();
      R.Engine.TraceRuns += ES.TraceRuns;
      R.Engine.TraceInstrs += ES.TraceInstrs;
      R.Engine.BatchedTraceInstrs += ES.BatchedTraceInstrs;
    }
  }
  R.Us = microsBetween(T0, Clock::now());
  return R;
}

/// Host-side simulator metrics over a set of runs: simulated instructions
/// per host second and the shares retired through traces.
void addSimPathMetrics(Report &R, const std::vector<SimRun> &Runs,
                       double MinstrPerS);

/// Baseline-versus-melded simulated counters of one compared pair.
struct DevicePair {
  darm::SimStats Base, Melded;
};
/// Adds device_cycles_speedup, device_divbr_ratio and device_alu_util,
/// plus the per-layer baseline-divergence metrics.
void addDeviceMetrics(Report &R, const std::vector<DevicePair> &Pairs);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runSimWorkload(const Options &O, Report &R, bool Real);
void runServeWorkload(const Options &O, Report &R, bool Cold);

} // namespace darmbench

#endif // DARMBENCH_BENCH_H
