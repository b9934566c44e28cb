//===- Trace.cpp - In-memory span recorder and Chrome trace writer --------===//
//
// Spans are kept in per-thread buffers owned by a global registry, so a
// buffer outlives the pool thread that filled it and the aggregation after
// a phase sees every thread. Self time is computed as spans close: a
// closing span adds its duration to its parent's child time.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace darmbench;

namespace {

struct SpanRec {
  const char *Name;
  int64_t StartNs, EndNs;
  int32_t Parent;
  uint32_t Request;
  int64_t ChildNs;
};

struct ThreadBuf {
  unsigned Tid = 0;
  std::vector<SpanRec> Spans;
  std::vector<int32_t> Open; ///< indices of the spans still open
};

std::atomic<bool> Enabled{false};
std::mutex RegistryM;
std::vector<std::unique_ptr<ThreadBuf>> Registry;
const Clock::time_point Origin = Clock::now();

ThreadBuf &threadBuf() {
  thread_local ThreadBuf *TB = nullptr;
  if (!TB) {
    std::lock_guard<std::mutex> Lock(RegistryM);
    Registry.push_back(std::make_unique<ThreadBuf>());
    TB = Registry.back().get();
    TB->Tid = static_cast<unsigned>(Registry.size());
  }
  return *TB;
}

void appendJsonString(std::string &Out, const char *S) {
  Out += '"';
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out += '\\';
    Out += *S;
  }
  Out += '"';
}

} // namespace

void Tracer::setEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

bool Tracer::enabled() { return Enabled.load(std::memory_order_relaxed); }

int64_t Tracer::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int Tracer::begin(const char *Name, uint32_t Request) {
  ThreadBuf &TB = threadBuf();
  const int32_t Parent = TB.Open.empty() ? -1 : TB.Open.back();
  TB.Spans.push_back({Name, nowNs(), 0, Parent, Request, 0});
  const int Id = static_cast<int>(TB.Spans.size() - 1);
  TB.Open.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  ThreadBuf &TB = threadBuf();
  SpanRec &S = TB.Spans[static_cast<size_t>(Id)];
  S.EndNs = nowNs();
  TB.Open.pop_back();
  if (S.Parent >= 0)
    TB.Spans[static_cast<size_t>(S.Parent)].ChildNs += S.EndNs - S.StartNs;
}

void Tracer::addChild(const char *Name, int64_t StartNs, int64_t DurNs) {
  ThreadBuf &TB = threadBuf();
  if (TB.Open.empty())
    return;
  const int32_t Parent = TB.Open.back();
  TB.Spans.push_back({Name, StartNs, StartNs + DurNs, Parent,
                      TB.Spans[static_cast<size_t>(Parent)].Request, 0});
  TB.Spans[static_cast<size_t>(Parent)].ChildNs += DurNs;
}

LayerMap Tracer::totals() {
  LayerMap M;
  std::lock_guard<std::mutex> Lock(RegistryM);
  for (const auto &TB : Registry)
    for (const SpanRec &S : TB->Spans) {
      if (S.EndNs == 0)
        continue; // still open
      LayerTotals &T = M[S.Name];
      ++T.Calls;
      T.TotalUs += (S.EndNs - S.StartNs) / 1e3;
      T.SelfUs += (S.EndNs - S.StartNs - S.ChildNs) / 1e3;
    }
  return M;
}

bool Tracer::writeChromeTrace(const std::string &Path, size_t MaxEvents) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  size_t Written = 0;
  char Buf[160];
  std::lock_guard<std::mutex> Lock(RegistryM);
  for (const auto &TB : Registry)
    for (const SpanRec &S : TB->Spans) {
      if (S.EndNs == 0 || Written == MaxEvents)
        continue;
      Out += Written++ ? ",\n{\"name\": " : "{\"name\": ";
      appendJsonString(Out, S.Name);
      std::snprintf(Buf, sizeof(Buf),
                    ", \"cat\": \"darmbench\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                    "{\"request\": %u, \"parent\": ",
                    S.StartNs / 1e3, (S.EndNs - S.StartNs) / 1e3, TB->Tid,
                    S.Request);
      Out += Buf;
      if (S.Parent >= 0)
        appendJsonString(Out, TB->Spans[static_cast<size_t>(S.Parent)].Name);
      else
        Out += "null";
      Out += "}}";
    }
  Out += "\n]}\n";
  const bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}

void darmbench::addStageSpans(const darm::DARMStats &Stats, int64_t EndNs) {
  if (!Tracer::enabled())
    return;
  int64_t Total = 0;
  for (const auto &[Name, Secs] : Stats.StageSeconds)
    Total += static_cast<int64_t>(Secs * 1e9);
  int64_t At = EndNs - Total;
  for (const auto &[Name, Secs] : Stats.StageSeconds) {
    // Span names must outlive the buffers: map onto the static list.
    for (const std::string &Known : stageNames())
      if (Known == "transform." + Name) {
        const int64_t Dur = static_cast<int64_t>(Secs * 1e9);
        Tracer::addChild(Known.c_str(), At, Dur);
        At += Dur;
      }
  }
}

LayerMap darmbench::diffTotals(const LayerMap &After, const LayerMap &Before) {
  LayerMap D = After;
  for (const auto &[Name, T] : Before) {
    LayerTotals &X = D[Name];
    X.Calls -= T.Calls;
    X.SelfUs -= T.SelfUs;
    X.TotalUs -= T.TotalUs;
  }
  return D;
}

double darmbench::meanSelfUs(const LayerMap &M, const std::string &Layer) {
  auto It = M.find(Layer);
  return It == M.end() || It->second.Calls == 0
             ? 0
             : It->second.SelfUs / static_cast<double>(It->second.Calls);
}

const std::vector<std::string> &darmbench::stageNames() {
  static const std::vector<std::string> Names = {
      "transform.constprop",   "transform.algebraic",  "transform.gvn",
      "transform.licm",        "transform.loop-unroll", "transform.simplifycfg",
      "transform.darm-meld",   "transform.ssa-repair", "transform.dce",
      "transform.verify"};
  return Names;
}
