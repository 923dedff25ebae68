//===- Harness.h - Timing, tracing and result reporting ---------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared machinery of the end-to-end benchmark (README.md): latency
/// samples and their percentiles, spans around the calls the benchmark
/// makes into the libraries' public functions, the per-layer table built
/// from the recorded spans, and the metric set the last stdout line
/// reports. Spans go to the support::Telemetry that a traced run
/// installs, together with the libraries' own spans, and are written as
/// Chrome trace_event JSON by its TraceRecorder.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_PERFBENCH_HARNESS_H
#define COBALT_PERFBENCH_HARNESS_H

#include "support/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Latency (or any) samples of one kind.
struct Samples {
  std::vector<double> V;
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  double sum() const;
  /// Linear-interpolated quantile, Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
};

/// Latencies of a corpus whose inputs one run may visit unequally often,
/// summarised over the per-input medians: every input weighs the same in
/// every run, whatever order the seed visits them in.
struct PerInput {
  std::map<size_t, Samples> ByInput;
  void add(size_t Input, double X) { ByInput[Input].add(X); }
  size_t size() const;
  Samples medians() const;
};

/// Runs \p Fn inside a span "bench"/\p Name and returns its wall
/// seconds. The span is recorded only while a support::Telemetry is
/// installed (TelemetryScope), which only traced runs do; otherwise it
/// costs one atomic load and a branch.
template <typename F> double timed(const char *Name, F &&Fn) {
  auto Start = Clock::now();
  {
    cobalt::support::TraceSpan S("bench", Name);
    Fn();
  }
  return secondsSince(Start);
}

/// Per-layer aggregate of the spans of one name.
struct LayerRow {
  double TotalS = 0, SelfS = 0;
  unsigned Count = 0;
};

/// Name → total / self / count over every recorded span. A span's
/// parent is the innermost span of the same process and lane that
/// contains it; self time is its duration minus its children's. The
/// benchmark's spans are keyed by name, the libraries' own spans by
/// "<category>:<name>".
std::map<std::string, LayerRow>
layerTable(const std::vector<cobalt::support::TraceEvent> &Events);

/// Share of the time of root spans named "op.*" not covered by a direct
/// child span: the wall time of operations that no layer accounts for.
double unattributedFrac(const std::vector<cobalt::support::TraceEvent> &Events);

/// The metric names every run reports: the end-to-end set (untraced
/// runs) and the per-layer set (traced runs), each with its unit. Both
/// lists must match BENCHMARK.json; run.py checks that they do.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// What a workload hands back to main().
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Values; ///< By metric name.
  Samples SetupSeconds;                 ///< One sample per set-up.
  /// Timings behind op_a_* and op_b_*, and where op_a_tail_ms sits:
  /// printed on the line before the result.
  size_t OpASamples = 0, OpBSamples = 0, TailSamples = 0, TailAbove = 0;
  const char *TailLabel = "";
};

/// Sets op_a_tail_ms to quantile \p Q (described by \p Label, e.g.
/// "p90") of \p S and records how many samples lie above it.
void setTail(Result &R, const Samples &S, double Q, const char *Label);

/// Prints a message and exits nonzero without a result line: for broken
/// set-up and for outputs that must never happen (a blessed miscompile).
[[noreturn]] void fatal(const std::string &Message);

/// Peak resident set of this process (VmHWM), in MB, since it started or
/// since the last resetPeakRss().
double peakRssMb();

/// Restarts the peak resident set at the current resident set (Linux
/// /proc/self/clear_refs); exits nonzero when the kernel refuses.
void resetPeakRss();

/// Returns freed heap memory to the system between operations, so that
/// each operation starts from a heap like a fresh process's and heap kept
/// from earlier operations does not add to the peak resident set.
void releaseFreedMemory();

} // namespace perfbench

#endif // COBALT_PERFBENCH_HARNESS_H
