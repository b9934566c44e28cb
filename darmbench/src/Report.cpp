//===- Report.cpp - Statistics, shared metrics and result output ----------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace darmbench;

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void darmbench::addMetric(std::vector<Metric> &To, const std::string &Name,
                          const std::string &Unit, double Value,
                          uint64_t Samples) {
  Metric M;
  M.Name = Name;
  M.Unit = Unit;
  M.Value = std::isfinite(Value) ? Value : 0;
  M.Samples = Samples;
  To.push_back(M);
}

void darmbench::addSetUpMetric(Report &R, const std::vector<double> &SetUpS) {
  std::vector<double> Fastest = SetUpS;
  std::sort(Fastest.begin(), Fastest.end());
  Fastest.resize((Fastest.size() + 1) / 2);
  addMetric(R.EndToEnd, "setup_s", "s", median(Fastest), SetUpS.size());
  R.EndToEnd.back().P25 = quantile(SetUpS, 0.25);
  R.EndToEnd.back().P75 = quantile(SetUpS, 0.75);
}

void darmbench::addLatencyMetrics(std::vector<Metric> &To,
                                  const std::string &Prefix,
                                  const std::vector<double> &OpUs) {
  addMetric(To, Prefix + "op_p50_us", "us", median(OpUs), OpUs.size());
  To.back().P25 = quantile(OpUs, 0.25);
  To.back().P75 = quantile(OpUs, 0.75);
  addMetric(To, Prefix + "op_p99_us", "us", quantile(OpUs, 0.99), OpUs.size());
}

std::vector<double> darmbench::fastestShare(const OpTimes &Times,
                                            double Share) {
  std::vector<double> V(Times.begin(), Times.end());
  const double Wanted = std::ceil(Share * static_cast<double>(V.size()));
  const size_t Keep =
      std::min(V.size(), std::max<size_t>(1, static_cast<size_t>(Wanted)));
  std::partial_sort(V.begin(), V.begin() + Keep, V.end());
  V.resize(Keep);
  return V;
}

double darmbench::sumOfMeans(const std::vector<OpTimes> &Ops, double Share) {
  double Sum = 0;
  for (const OpTimes &Op : Ops)
    Sum += mean(fastestShare(Op, Share));
  return Sum;
}

void darmbench::addFastestMetrics(Report &R, const std::vector<OpTimes> &Ops,
                                  double Share, unsigned Concurrency) {
  std::vector<double> Pool;
  for (const OpTimes &Op : Ops) {
    const std::vector<double> Fastest = fastestShare(Op, Share);
    Pool.insert(Pool.end(), Fastest.begin(), Fastest.end());
  }
  addLatencyMetrics(R.EndToEnd, "", Pool);
  addMetric(R.EndToEnd, "ops_per_s", "1/s",
            Concurrency * Ops.size() / sumOfMeans(Ops, Share) * 1e6,
            Pool.size());
}

double darmbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double darmbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double darmbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double darmbench::mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double darmbench::peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec (a Python parent's, for instance).
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  unsigned long KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lu kB", &KiB) == 1)
      break;
  std::fclose(F);
  return static_cast<double>(KiB) / 1024.0;
}

bool darmbench::sameStats(const darm::SimStats &A, const darm::SimStats &B) {
  for (unsigned I = 0; I < darm::SimStats::NumCounters; ++I)
    if (A.counter(I) != B.counter(I))
      return false;
  return true;
}

void darmbench::addDeviceMetrics(Report &R,
                                 const std::vector<DevicePair> &Pairs) {
  std::vector<double> Speedups;
  darm::SimStats Base, Melded;
  for (const DevicePair &P : Pairs) {
    Speedups.push_back(static_cast<double>(P.Base.Cycles) /
                       static_cast<double>(P.Melded.Cycles));
    Base += P.Base;
    Melded += P.Melded;
  }
  const uint64_t N = Pairs.size();
  addMetric(R.EndToEnd, "device_cycles_speedup", "x", geomean(Speedups), N);
  addMetric(R.EndToEnd, "device_divbr_ratio", "ratio",
            static_cast<double>(Melded.DivergentBranches) /
                static_cast<double>(Base.DivergentBranches),
            N);
  addMetric(R.EndToEnd, "device_alu_util", "ratio", Melded.aluUtilization(),
            N);
  addMetric(R.PerLayer, "sim.base_divergent_branch_share", "ratio",
            static_cast<double>(Base.DivergentBranches) /
                static_cast<double>(Base.BranchesExecuted),
            N);
  addMetric(R.PerLayer, "sim.base_alu_util", "ratio", Base.aluUtilization(),
            N);
}

void darmbench::addLayerMetrics(Report &R, const LayerMap &All,
                                double TransportUs) {
  auto Calls = [&](const std::string &Layer) {
    auto It = All.find(Layer);
    return It == All.end() ? uint64_t(0) : It->second.Calls;
  };
  auto Total = [&](const std::string &Layer) {
    auto It = All.find(Layer);
    return It == All.end() ? 0.0 : It->second.TotalUs;
  };
  auto PerCall = [&](double Us, uint64_t N) { return N ? Us / N : 0.0; };
  for (const char *Layer :
       {"sim.run", "sim.decode", "serve.decode", "ir.parse", "core.key",
        "core.lookup", "serve.store_load", "serve.store_write", "core.encode",
        "ir.free"})
    addMetric(R.PerLayer, std::string(Layer) + "_us", "us",
              PerCall(Total(Layer), Calls(Layer)), Calls(Layer));
  // Compile time without the store calls getOrCompile makes (they are
  // layers of their own, and only ever run inside a compile), and what is
  // left of it after the pipeline stages.
  const uint64_t Compiles = Calls("core.compile");
  const double CompileUs = Total("core.compile") - Total("serve.store_load") -
                           Total("serve.store_write");
  addMetric(R.PerLayer, "core.compile_us", "us", PerCall(CompileUs, Compiles),
            Compiles);
  addMetric(R.PerLayer, "core.compile_other_us", "us",
            meanSelfUs(All, "core.compile"), Compiles);
  // The canonicalization stages run only under darm-canon, so on sim-*
  // (baseline + darm) they read 0.
  for (const std::string &Stage : stageNames())
    addMetric(R.PerLayer, Stage + "_us", "us",
              PerCall(Total(Stage), Compiles), Compiles);
  addMetric(R.PerLayer, "serve.transport_us", "us", TransportUs);
}

void darmbench::addSimPathMetrics(Report &R, const std::vector<SimRun> &Runs,
                                  double MinstrPerS) {
  uint64_t Instrs = 0, Trace = 0, Batched = 0;
  for (const SimRun &Run : Runs) {
    Instrs += Run.Stats.InstructionsIssued;
    Trace += Run.Engine.TraceInstrs;
    Batched += Run.Engine.BatchedTraceInstrs;
  }
  const double Div = Instrs ? static_cast<double>(Instrs) : 1.0;
  addMetric(R.PerLayer, "sim.minstr_per_s", "Minstr/s", MinstrPerS,
            Runs.size());
  addMetric(R.PerLayer, "sim.trace_instr_share", "ratio", Trace / Div,
            Runs.size());
  addMetric(R.PerLayer, "sim.batched_instr_share", "ratio", Batched / Div,
            Runs.size());
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

namespace {

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

const char *compilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void printMetricLines(const char *Kind, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms) {
    std::printf("  %-10s %-34s %16.6g %-9s", Kind, M.Name.c_str(), M.Value,
                M.Unit.c_str());
    if (M.P25 >= 0)
      std::printf(" p25 %.6g p75 %.6g", M.P25, M.P75);
    std::printf(" n=%llu\n", static_cast<unsigned long long>(M.Samples));
  }
}

void writeMetricArray(std::FILE *F, const char *Key,
                      const std::vector<Metric> &Ms, bool Last) {
  std::fprintf(F, "  \"%s\": [\n", Key);
  for (size_t I = 0; I < Ms.size(); ++I) {
    const Metric &M = Ms[I];
    std::fprintf(F, "    {\"name\": \"%s\", \"unit\": \"%s\", \"value\": %s",
                 M.Name.c_str(), M.Unit.c_str(), num(M.Value).c_str());
    if (M.P25 >= 0)
      std::fprintf(F, ", \"p25\": %s, \"p75\": %s", num(M.P25).c_str(),
                   num(M.P75).c_str());
    std::fprintf(F, ", \"samples\": %llu}%s\n",
                 static_cast<unsigned long long>(M.Samples),
                 I + 1 < Ms.size() ? "," : "");
  }
  std::fprintf(F, "  ]%s\n", Last ? "" : ",");
}

bool writeOut(const Report &R) {
  std::FILE *F = std::fopen(R.Opts.OutPath.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\n  \"schema\": \"darmbench-v1\",\n");
  std::fprintf(F,
               "  \"build\": {\"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"darm_sim_threaded\": %s},\n",
               std::thread::hardware_concurrency(), compilerName(),
               DARMBENCH_BUILD_TYPE, DARMBENCH_SIM_THREADED ? "true" : "false");
  std::fprintf(F,
               "  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": "
               "%s,\n  \"trace\": %s,\n",
               R.Opts.Workload.c_str(),
               static_cast<unsigned long long>(R.Opts.Seed),
               num(R.Opts.Seconds).c_str(), R.Opts.Trace ? "true" : "false");
  std::fprintf(F,
               "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": "
               "%llu,\n",
               R.correct() ? "true" : "false",
               static_cast<unsigned long long>(R.Attempted),
               static_cast<unsigned long long>(R.Failed));
  writeMetricArray(F, "end_to_end", R.EndToEnd, false);
  writeMetricArray(F, "per_layer", R.PerLayer, false);
  writeMetricArray(F, "extra", R.Extra, true);
  std::fprintf(F, "}\n");
  return std::fclose(F) == 0;
}

} // namespace

int darmbench::emitReport(const Report &R) {
  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "darmbench: FAILED: %s\n", Why.c_str());
  std::printf("darmbench %s seed=%llu seconds=%g trace=%d | nproc=%u %s "
              "build=%s sim_threaded=%d\n",
              R.Opts.Workload.c_str(),
              static_cast<unsigned long long>(R.Opts.Seed), R.Opts.Seconds,
              R.Opts.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              compilerName(), DARMBENCH_BUILD_TYPE, DARMBENCH_SIM_THREADED);
  const std::vector<Metric> &Shown = R.Opts.Trace ? R.PerLayer : R.EndToEnd;
  printMetricLines(R.Opts.Trace ? "per-layer" : "end-to-end", Shown);
  printMetricLines("extra", R.Extra);

  if (!R.Opts.OutPath.empty() && !writeOut(R)) {
    std::fprintf(stderr, "darmbench: cannot write '%s'\n",
                 R.Opts.OutPath.c_str());
    return 2;
  }

  std::string Json = "{\"correct\": ";
  Json += R.correct() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Shown.size(); ++I) {
    Json += I ? ", \"" : "\"";
    Json += Shown[I].Name + "\": {\"value\": " + num(Shown[I].Value) +
            ", \"unit\": \"" + Shown[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return R.correct() ? 0 : 1;
}
