//===- Main.cpp - Entry point of the end-to-end benchmark ----------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// cobalt_perfbench --workload prove|optimize|validate|serve --seed N
///                  --seconds S --trace 0|1
///
/// Runs one workload (Workloads.h) and prints, as its last stdout line,
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. A traced run
/// also writes .bench_out/<workload>-seed<N>.trace.json (Chrome
/// trace_event) and .bench_out/<workload>-seed<N>.layers.txt.
///
/// Refuses to run while a fault-injection plan is configured: every
/// number must come from real work.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/FaultInjection.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cobalt_perfbench --workload prove|optimize|validate|"
               "serve --seed N --seconds S --trace 0|1\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Val = Argv[I + 1];
    char *End = nullptr;
    if (std::strcmp(Flag, "--workload") == 0) {
      O.Workload = Val;
      HaveWorkload = true;
    } else if (std::strcmp(Flag, "--seed") == 0) {
      O.Seed = std::strtoull(Val, &End, 10);
      HaveSeed = *Val && !*End;
    } else if (std::strcmp(Flag, "--seconds") == 0) {
      O.Seconds = std::strtod(Val, &End);
      if (!*Val || *End || !(O.Seconds > 0))
        return false;
    } else if (std::strcmp(Flag, "--trace") == 0) {
      if (std::strcmp(Val, "0") != 0 && std::strcmp(Val, "1") != 0)
        return false;
      O.Trace = Val[0] == '1';
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && HaveWorkload && HaveSeed;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  if (!Out)
    fatal("cannot write " + Path);
}

/// The per-layer table of a traced run: span rows (total, self, count).
std::string
layerTableText(const std::vector<cobalt::support::TraceEvent> &Events) {
  std::string Out =
      "layer                               total_s     self_s  count\n";
  char Line[160];
  for (const auto &[Name, Row] : layerTable(Events)) {
    std::snprintf(Line, sizeof(Line), "%-33s %9.4f  %9.4f  %5u\n",
                  Name.c_str(), Row.TotalS, Row.SelfS, Row.Count);
    Out += Line;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();
  Result (*Run)(const Options &, cobalt::support::Telemetry &) = nullptr;
  if (Opts.Workload == "prove")
    Run = runProve;
  else if (Opts.Workload == "optimize")
    Run = runOptimize;
  else if (Opts.Workload == "validate")
    Run = runValidate;
  else if (Opts.Workload == "serve")
    Run = runServe;
  else
    return usage();

  if (!cobalt::support::FaultInjector::instance().empty())
    fatal("a fault-injection plan is configured (COBALT_FAULTS); the "
          "benchmark measures real work only");
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  std::printf("fault injection: none configured\n");
  std::fflush(stdout);

  cobalt::support::Telemetry Tel;
  Result R = Run(Opts, Tel);
  // The fastest of the run's set-ups: on a shared machine a millisecond
  // set-up runs fast or up to ~1.6x slower in stretches of tens of
  // milliseconds, and the median moved with the share of slow stretches
  // (0.73-1.0 ms between runs on prove); the minimum moved by ~10%.
  R.Values["setup_s"] = R.SetupSeconds.quantile(0);
  if (!R.Values.count("peak_rss_mb"))
    R.Values["peak_rss_mb"] = peakRssMb();
  R.Values["success_rate"] =
      R.Attempted ? 1.0 - static_cast<double>(R.Failed) /
                              static_cast<double>(R.Attempted)
                  : 0.0;

  if (Opts.Trace) {
    std::filesystem::create_directories(".bench_out");
    std::string Stem = ".bench_out/" + Opts.Workload + "-seed" +
                       std::to_string(Opts.Seed);
    std::vector<cobalt::support::TraceEvent> Events = Tel.Trace.snapshot();
    R.Values[Opts.Workload + ".unattributed_frac"] = unattributedFrac(Events);
    std::string Table = layerTableText(Events);
    char Line[96];
    std::snprintf(Line, sizeof(Line), "%s.unattributed_frac %.4f\n",
                  Opts.Workload.c_str(),
                  R.Values[Opts.Workload + ".unattributed_frac"]);
    Table += Line;
    writeFile(Stem + ".trace.json", Tel.Trace.json());
    writeFile(Stem + ".layers.txt", Table);
    std::printf("%s", Table.c_str());
    std::printf("trace: %s.trace.json, table: %s.layers.txt\n", Stem.c_str(),
                Stem.c_str());
  }

  if (!Opts.Trace)
    std::printf("samples: op_a %zu, op_b %zu; op_a_tail_ms is the %s, over "
                "%zu samples, %zu of them above it\n",
                R.OpASamples, R.OpBSamples, R.TailLabel, R.TailSamples,
                R.TailAbove);

  const auto &Names = Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted) +
          ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {";
  char Num[64];
  for (size_t I = 0; I < Names.size(); ++I) {
    double V = R.Values.count(Names[I].first) ? R.Values[Names[I].first] : 0.0;
    if (!std::isfinite(V))
      fatal("metric " + Names[I].first + " is not a finite number");
    std::snprintf(Num, sizeof(Num), "%.17g", V);
    Json += (I ? ", \"" : "\"") + Names[I].first + "\": {\"value\": " + Num +
            ", \"unit\": \"" + Names[I].second + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
