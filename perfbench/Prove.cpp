//===- Prove.cpp - Workload `prove`: cold soundness checking --------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Cold `cobaltc check`: the checker does nearly all the work and the
/// engine none. Every iteration builds a fresh service (in-memory verdict
/// cache, so nothing is cached across iterations) holding the 21 sound
/// definitions and the 10 buggy variants, then sends two check requests:
/// op A = the sound suite (every verdict must be Sound), op B = the buggy
/// suite (no verdict may be Sound). The buggy half exercises
/// counterexample search. The prover budget is an rlimit (provePolicy);
/// under the default 2 s/10 s/30 s ladder the buggy suite takes ~90 s,
/// almost all of it timeout escalation.
///
/// The seed permutes the registration order of the definitions.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <algorithm>
#include <cstdio>
#include <random>

using namespace cobalt;

namespace perfbench {
namespace {

/// A Z3 rlimit per attempt, no retries, and wall timeouts far above what
/// the cap takes: the deterministic form of the `cobalt-fuzz --validate`
/// adversary policy. Under that policy itself (500 ms first attempt, 2 s
/// cap, 10 s per definition) the buggy suite took 7.3 s or 8.4–10.3 s
/// from run to run, depending on whether const_prop_no_guard's
/// obligations beat the first 500 ms on a loaded machine.
checker::ProverPolicy provePolicy() {
  checker::ProverPolicy P;
  P.RLimit = 2'000'000;
  P.Retries = 0;
  P.InitialTimeoutMs = 60000;
  P.TimeoutMs = 60000;
  return P;
}

struct ProveSetup {
  std::shared_ptr<api::CobaltService> Svc;
  std::vector<std::string> Sound, Buggy; ///< Definition names, by suite.
};

ProveSetup setUp(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<Optimization> Sound = opts::allOptimizations();
  std::vector<Optimization> Buggy;
  for (opts::BuggyCase &C : opts::allBuggyOptimizations())
    Buggy.push_back(std::move(C.Opt));
  std::shuffle(Sound.begin(), Sound.end(), Rng);
  std::shuffle(Buggy.begin(), Buggy.end(), Rng);

  ProveSetup S;
  api::CobaltConfig Config = baseConfig();
  Config.Prover = provePolicy();
  api::CobaltService::Builder B;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  for (PureAnalysis &A : opts::allAnalyses()) {
    S.Sound.push_back(A.Name);
    B.addAnalysis(std::move(A));
  }
  for (Optimization &O : Sound) {
    S.Sound.push_back(O.Name);
    B.addOptimization(std::move(O));
  }
  for (Optimization &O : Buggy) {
    S.Buggy.push_back(O.Name);
    B.addOptimization(std::move(O));
  }
  S.Svc = B.build();
  return S;
}

/// Checks one verdict against its known answer.
bool verdictOk(const checker::CheckReport &R, bool ExpectSound) {
  return ExpectSound ? R.V == checker::CheckReport::Verdict::V_Sound
                     : R.V != checker::CheckReport::Verdict::V_Sound;
}

/// The traced form: one definition at a time on a fresh checker at jobs
/// 1, so that each definition's wall minus its solver seconds is the
/// checker's own (non-solver) time.
void tracedProve(const ProveSetup &S, support::Telemetry &Tel, Result &R) {
  auto CheckSuites = [&](std::vector<checker::CheckReport> &Reports,
                         std::vector<double> &Walls) {
    checker::SoundnessChecker C(S.Svc->registry(), S.Svc->analyses());
    C.setPolicy(S.Svc->config().Prover);
    for (const auto *Suite : {&S.Sound, &S.Buggy}) {
      support::TraceIdScope Id(support::mintTraceId());
      support::TraceSpan Op("bench", Suite == &S.Sound ? "op.sound_suite"
                                                       : "op.buggy_suite");
      for (const std::string &Name : *Suite) {
        const auto &As = S.Svc->analyses();
        const auto &Os = S.Svc->optimizations();
        auto A = std::find_if(As.begin(), As.end(),
                              [&](const PureAnalysis &X) { return X.Name == Name; });
        auto O = std::find_if(Os.begin(), Os.end(),
                              [&](const Optimization &X) { return X.Name == Name; });
        Walls.push_back(timed("checker.check_definition", [&] {
          Reports.push_back(A != As.end() ? C.checkAnalysis(*A)
                                          : C.checkOptimization(*O));
        }));
        if (!verdictOk(Reports.back(), Suite == &S.Sound))
          ++R.Failed;
        ++R.Attempted;
      }
    }
    R.Values["support.cache_hit_ratio"] =
        static_cast<double>(C.cacheHits()) / static_cast<double>(Reports.size());
  };

  // Untraced reference pass, then the traced pass over the same work.
  std::vector<checker::CheckReport> Reports;
  std::vector<double> Walls;
  auto Start = Clock::now();
  CheckSuites(Reports, Walls);
  double Untraced = secondsSince(Start);
  Reports.clear();
  Walls.clear();
  double Traced;
  {
    support::TelemetryScope On(&Tel);
    Start = Clock::now();
    CheckSuites(Reports, Walls);
    Traced = secondsSince(Start);
  }

  addCheckerLayers(Reports, Walls, R);
  R.Values["checker.context_setup_ms"] = contextSetupMs(*S.Svc);
  R.Values["trace.overhead_frac"] = (Traced - Untraced) / Untraced;
}

} // namespace

Result runProve(const Options &Opts, support::Telemetry &Tel) {
  Result R;
  auto SetUp = [&](int) {
    R.Values["core.parse_cobalt_s"] = parseStdlib();
    return setUp(Opts.Seed);
  };
  // Set-up is cheap here (parse + registration), so it is repeated 51
  // times now and 25 times after every operation, so that the samples
  // span the whole run and not just its first milliseconds. The last
  // build is the one the first iteration uses.
  ProveSetup S = repeatSetUp(51, R, SetUp);
  if (Opts.Trace) {
    tracedProve(S, Tel, R);
    return R;
  }

  // A run completes at least three iterations, so that each median below
  // sets aside one slow iteration: with two, a stretch of a few seconds
  // in which the machine ran slow moved the run's figures by half its
  // excess, and op_b_p50_ms spread by 0.32 over ten runs.
  Samples SoundMs, BuggyMs;
  PerInput ObligationMs; ///< By position in the sound suite's reports.
  double Obligations = 0, Definitions = 0, Decided = 0;
  auto Start = Clock::now();
  for (int Iteration = 0;
       Iteration < 3 || secondsSince(Start) < Opts.Seconds; ++Iteration) {
    if (Iteration > 0)
      S = repeatSetUp(1, R, [&](int) { return setUp(Opts.Seed); });
    for (bool Sound : {true, false}) {
      api::CheckRequest Req;
      Req.Only = Sound ? S.Sound : S.Buggy;
      auto OpStart = Clock::now();
      api::CheckResponse Resp = S.Svc->check(Req);
      (Sound ? SoundMs : BuggyMs).add(secondsSince(OpStart) * 1e3);
      repeatSetUp(25, R, SetUp);
      releaseFreedMemory();
      ++R.Attempted;
      bool Ok = Resp.ok() && Resp.Suite.Reports.size() == Req.Only.size();
      size_t Position = 0;
      for (const checker::CheckReport &Rep : Resp.Suite.Reports) {
        Ok = Ok && verdictOk(Rep, Sound);
        Obligations += static_cast<double>(Rep.Obligations.size());
        ++Definitions;
        if (Rep.V != checker::CheckReport::Verdict::V_Unproven)
          ++Decided;
        if (!verdictOk(Rep, Sound))
          std::printf("prove: wrong verdict for %s: %s\n", Rep.Name.c_str(),
                      Rep.str().c_str());
        if (Sound)
          for (const checker::ObligationResult &Ob : Rep.Obligations)
            ObligationMs.add(Position++, Ob.Seconds * 1e3);
      }
      if (!Ok)
        ++R.Failed;
    }
  }
  double Wall = secondsSince(Start);
  R.Values["op_a_p50_ms"] = SoundMs.median();
  R.Values["op_b_p50_ms"] = BuggyMs.median();
  // A run holds only a few suite checks, too few for a tail with ten
  // samples above it; the tail is taken over the sound suite's 335
  // obligations instead, each at its median prove time over the run, as
  // `cobaltc check --report=json` reports them.
  setTail(R, ObligationMs.medians(), 0.95,
          "p95 of the sound suite's per-obligation median prove times");
  R.OpASamples = SoundMs.size();
  R.OpBSamples = BuggyMs.size();
  R.Values["quality"] = Definitions > 0 ? Decided / Definitions : 0;
  std::printf("prove: %zu sound-suite checks (p50 %.1f ms; obligation p95 "
              "%.1f ms), %zu buggy-suite checks (p50 %.1f ms), %.1f "
              "obligations/s, %.0f/%.0f verdicts definitive\n",
              SoundMs.size(), SoundMs.median(), R.Values["op_a_tail_ms"],
              BuggyMs.size(), BuggyMs.median(), Obligations / Wall, Decided,
              Definitions);
  return R;
}

} // namespace perfbench
