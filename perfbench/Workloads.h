//===- Workloads.h - The four benchmark workloads ---------------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload drives one user-visible path through the public API
/// (api::CobaltService, service::Client) with real Z3 and engine work:
///
///   prove     cold soundness check of the sound suite, then of the
///             buggy suite (op A / op B);
///   optimize  `cobaltc opt` on generated programs of ~150 / ~600
///             statements (op A / op B);
///   validate  translation validation of (P, pass(P)) pairs from a sound
///             pass / from a buggy rule (op A / op B);
///   serve     a daemon answering check frames (op A) and run frames
///             (op B) from four client connections.
///
/// An untraced run fills Result::Values with the end-to-end metrics; a
/// traced run fills the per-layer ones and records spans.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_PERFBENCH_WORKLOADS_H
#define COBALT_PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include "api/Service.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
};

/// Each runs one workload. A traced run (Opts.Trace) installs \p Tel
/// around the traced pass only, so its untraced reference pass, and every
/// untraced run, records nothing.
Result runProve(const Options &Opts, cobalt::support::Telemetry &Tel);
Result runOptimize(const Options &Opts, cobalt::support::Telemetry &Tel);
Result runValidate(const Options &Opts, cobalt::support::Telemetry &Tel);
Result runServe(const Options &Opts, cobalt::support::Telemetry &Tel);

/// Calls \p SetUp(I) for I in [0, Times), recording how long each call
/// took (not the teardown of the set-up it replaces) in R.SetupSeconds,
/// and returns the last result.
template <typename F> auto repeatSetUp(int Times, Result &R, F &&SetUp) {
  decltype(SetUp(0)) Last;
  for (int I = 0; I < Times; ++I) {
    auto Start = Clock::now();
    auto Fresh = SetUp(I);
    R.SetupSeconds.add(secondsSince(Start));
    Last = std::move(Fresh);
  }
  return Last;
}

/// Parses the bundled Cobalt module (`cobaltc stdlib`), as `cobaltc` does
/// for a `stdlib` argument; returns the seconds it took. Set-up of every
/// workload starts with it.
double parseStdlib();

/// Service configuration shared by the workloads: two jobs,
/// in-memory verdict cache, default transactional pass policy.
cobalt::api::CobaltConfig baseConfig();

/// Builds a service with the standard labels, the taint analysis and the
/// 20 shipped optimizations: the 21-definition sound suite.
std::shared_ptr<cobalt::api::CobaltService>
buildService(const cobalt::api::CobaltConfig &Config);

/// Statements in every procedure of \p Prog.
unsigned statementCount(const cobalt::ir::Program &Prog);

/// Fills Values with the per-layer checker metrics of \p Reports, whose
/// entries took \p WallSeconds each (checked one definition at a time).
void addCheckerLayers(const std::vector<cobalt::checker::CheckReport> &Reports,
                      const std::vector<double> &WallSeconds, Result &R);

/// Median milliseconds to construct one checker::ObligationBuilder (a
/// fresh Z3 context with the IL datatypes and background axioms).
double contextSetupMs(const cobalt::api::CobaltService &Svc);

} // namespace perfbench

#endif // COBALT_PERFBENCH_WORKLOADS_H
