//===- Harness.cpp --------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "opts/Optimizations.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>

namespace perfbench {

double Samples::sum() const {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

double Samples::quantile(double Q) const {
  if (V.empty())
    return 0;
  std::vector<double> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Pos - static_cast<double>(Lo)) * (Sorted[Hi] - Sorted[Lo]);
}

size_t PerInput::size() const {
  size_t N = 0;
  for (const auto &[Input, S] : ByInput)
    N += S.size();
  return N;
}

Samples PerInput::medians() const {
  Samples M;
  for (const auto &[Input, S] : ByInput)
    M.add(S.median());
  return M;
}

void setTail(Result &R, const Samples &S, double Q, const char *Label) {
  double Tail = S.quantile(Q);
  R.Values["op_a_tail_ms"] = Tail;
  R.TailLabel = Label;
  R.TailSamples = S.size();
  R.TailAbove = static_cast<size_t>(std::count_if(
      S.V.begin(), S.V.end(), [&](double X) { return X > Tail; }));
}

//===----------------------------------------------------------------------===//
// Layers from spans.
//===----------------------------------------------------------------------===//

namespace {
using cobalt::support::TraceEvent;

/// The parent of each event: the innermost event of the same process and
/// lane whose interval contains it, or -1.
std::vector<int> parents(const std::vector<TraceEvent> &Events) {
  std::vector<size_t> Order(Events.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  // By lane, then outer spans before the spans they contain.
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const TraceEvent &X = Events[A], &Y = Events[B];
    if (X.Pid != Y.Pid || X.Lane != Y.Lane)
      return std::pair(X.Pid, X.Lane) < std::pair(Y.Pid, Y.Lane);
    if (X.StartUs != Y.StartUs)
      return X.StartUs < Y.StartUs;
    return X.DurUs > Y.DurUs;
  });
  std::vector<int> Parent(Events.size(), -1);
  std::vector<size_t> Open;
  for (size_t K = 0; K < Order.size(); ++K) {
    const TraceEvent &E = Events[Order[K]];
    if (K > 0) {
      const TraceEvent &Prev = Events[Order[K - 1]];
      if (Prev.Pid != E.Pid || Prev.Lane != E.Lane)
        Open.clear();
    }
    while (!Open.empty() && Events[Open.back()].StartUs +
                                    Events[Open.back()].DurUs <
                                E.StartUs + E.DurUs)
      Open.pop_back();
    if (!Open.empty())
      Parent[Order[K]] = static_cast<int>(Open.back());
    Open.push_back(Order[K]);
  }
  return Parent;
}

std::vector<double> childUs(const std::vector<TraceEvent> &Events,
                            const std::vector<int> &Parent) {
  std::vector<double> Us(Events.size(), 0.0);
  for (size_t I = 0; I < Events.size(); ++I)
    if (Parent[I] >= 0)
      Us[Parent[I]] += static_cast<double>(Events[I].DurUs);
  return Us;
}

bool isBench(const TraceEvent &E) { return std::strcmp(E.Cat, "bench") == 0; }
} // namespace

std::map<std::string, LayerRow>
layerTable(const std::vector<TraceEvent> &Events) {
  std::vector<int> Parent = parents(Events);
  std::vector<double> ChildUs = childUs(Events, Parent);
  std::map<std::string, LayerRow> Table;
  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    LayerRow &Row = Table[isBench(E) ? std::string(E.Name)
                                     : std::string(E.Cat) + ":" + E.Name];
    Row.TotalS += static_cast<double>(E.DurUs) * 1e-6;
    Row.SelfS += (static_cast<double>(E.DurUs) - ChildUs[I]) * 1e-6;
    ++Row.Count;
  }
  return Table;
}

double unattributedFrac(const std::vector<TraceEvent> &Events) {
  std::vector<int> Parent = parents(Events);
  std::vector<double> ChildUs = childUs(Events, Parent);
  double OpUs = 0, UncoveredUs = 0;
  for (size_t I = 0; I < Events.size(); ++I)
    if (Parent[I] < 0 && isBench(Events[I]) &&
        std::strncmp(Events[I].Name, "op.", 3) == 0) {
      OpUs += static_cast<double>(Events[I].DurUs);
      UncoveredUs += static_cast<double>(Events[I].DurUs) - ChildUs[I];
    }
  return OpUs > 0 ? UncoveredUs / OpUs : 0;
}

//===----------------------------------------------------------------------===//
// Metric sets.
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"setup_s", "s"},          {"success_rate", "ratio"},
      {"peak_rss_mb", "MB"},     {"op_a_p50_ms", "ms"},
      {"op_a_tail_ms", "ms"},    {"op_b_p50_ms", "ms"},
      {"quality", "ratio"},
  };
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = [] {
    std::vector<std::pair<std::string, std::string>> N = {
        {"checker.obligations", "count"},
        {"checker.proven", "count"},
        {"checker.failed", "count"},
        {"checker.unknown", "count"},
        {"checker.attempts", "count"},
        {"checker.retry_ratio", "ratio"},
        {"checker.solve_s", "s"},
        {"checker.cex_s", "s"},
        {"checker.nonsolver_s", "s"},
        {"checker.context_setup_ms", "ms"},
        {"checker.obligation_p50_ms", "ms"},
        {"checker.obligation_p90_ms", "ms"},
        {"checker.rlimit", "count"},
        {"checker.rlimit_p90", "count"},
        {"engine.label_s", "s"},
        {"engine.solve_s", "s"},
        {"engine.solve_iters", "count"},
        {"engine.facts", "count"},
        {"engine.match_s", "s"},
        {"engine.delta", "count"},
        {"engine.apply_s", "s"},
        {"engine.applied", "count"},
        {"engine.apply_ratio", "ratio"},
        {"engine.tx_s", "s"},
    };
    for (const cobalt::PureAnalysis &A : cobalt::opts::allAnalyses())
      N.push_back({"engine.pass_s." + A.Name, "s"});
    for (const cobalt::Optimization &O : cobalt::opts::allOptimizations())
      N.push_back({"engine.pass_s." + O.Name, "s"});
    const std::pair<std::string, std::string> Rest[] = {
        {"validate.equivalent", "count"},
        {"validate.inequivalent", "count"},
        {"validate.unknown", "count"},
        {"validate.procs_alpha", "count"},
        {"validate.procs_sim", "count"},
        {"validate.prover_s", "s"},
        {"validate.nonprover_s", "s"},
        {"validate.probe_s", "s"},
        {"validate.unknown_s", "s"},
        {"api.check_warm_us", "us"},
        {"api.run_s", "s"},
        {"api.emit_json_us", "us"},
        {"service.overhead_us", "us"},
        {"service.parse_json_us", "us"},
        {"service.frame_bytes", "bytes"},
        {"support.cache_hit_ratio", "ratio"},
        {"ir.parse_s", "s"},
        {"ir.interp_steps", "count"},
        {"core.parse_cobalt_s", "s"},
        {"prove.unattributed_frac", "ratio"},
        {"optimize.unattributed_frac", "ratio"},
        {"validate.unattributed_frac", "ratio"},
        {"serve.unattributed_frac", "ratio"},
        {"trace.overhead_frac", "ratio"},
    };
    N.insert(N.end(), std::begin(Rest), std::end(Rest));
    return N;
  }();
  return Names;
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  fatal("no VmHWM line in /proc/self/status");
}

void resetPeakRss() {
  std::ofstream ClearRefs("/proc/self/clear_refs");
  ClearRefs << "5";
  ClearRefs.flush();
  if (!ClearRefs)
    fatal("cannot reset the peak resident set (/proc/self/clear_refs)");
}

void releaseFreedMemory() { malloc_trim(0); }

} // namespace perfbench
