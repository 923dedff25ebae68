//===- Optimize.cpp - Workload `optimize`: the `cobaltc opt` path ---------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The engine does nearly all the work and the checker none: run() does
/// not prove. Each operation is program text → parseProgram →
/// CobaltService::run over the 21 registered definitions (default
/// transactional policy, interpreter spot-check on) → printed text. The
/// corpus holds generated programs (pointers, three helper procedures,
/// calls) of ~150 statements (op A) and ~600 statements (op B); the seed
/// sets the order in which the run visits them. Every output
/// must show no divergence under fuzz::diffPrograms and no degraded pass.
///
/// The traced run replays each procedure's passes in PassManager order
/// through runPureAnalysis / solveGuard / the Δ match / applySites, and
/// requires the replay to print byte-identically to run()'s output, so
/// the per-layer split describes the same work.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Match.h"
#include "engine/Dataflow.h"
#include "engine/Engine.h"
#include "fuzz/Oracle.h"
#include "ir/Cfg.h"
#include "ir/Generator.h"
#include "ir/Interp.h"
#include "ir/Printer.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>

using namespace cobalt;

namespace perfbench {
namespace {

/// The corpus: large programs, then small ones. A run goes in rounds of
/// one large program followed by every small one, so each small program
/// is optimized once per large one and its median damps the scheduling
/// noise of a ~150 ms operation. A run ends on a round boundary after at
/// least MinRounds rounds, so every small program weighs the same in the
/// tail and at least 48 small-program timings lie under it.
constexpr unsigned NumLarge = 3;
constexpr unsigned NumSmall = 12;
constexpr unsigned RoundLength = 1 + NumSmall;
constexpr unsigned MinRounds = 4;
/// Generator seed of the corpus. Runs on different --seed values visit
/// the same programs: with a few seconds per large program, a run sees
/// too few programs for a fresh draw per seed to give steady medians.
constexpr uint64_t CorpusSeed = 2003;

/// The corpus index of a run's \p I-th operation.
size_t visit(size_t I) {
  size_t Round = I / RoundLength, Slot = I % RoundLength;
  return Slot == 0 ? Round % NumLarge : NumLarge + Slot - 1;
}

/// Dynamic cost of main() over the oracle's probe inputs: executed
/// statements other than skip, plus one per operator evaluated. Raw →π
/// steps would not do: the engine's deletions leave skips, which still
/// take a step. \p Steps receives the raw →π step count.
double dynamicCost(const ir::Program &Prog, double &Steps) {
  std::map<std::string, const ir::Procedure *> Procs;
  for (const ir::Procedure &P : Prog.Procs)
    Procs[P.Name] = &P;
  fuzz::OracleOptions Probe;
  ir::Interpreter Interp(Prog);
  double Cost = 0;
  std::vector<std::pair<std::string, int>> Trace;
  for (int64_t In : Probe.Inputs) {
    Trace.clear();
    Steps += static_cast<double>(
        Interp.runWithTrace(In, Trace, Probe.FuelOptimized).Steps);
    for (const auto &[Proc, Index] : Trace) {
      const ir::Stmt &S = Procs.at(Proc)->stmtAt(Index);
      if (S.is<ir::SkipStmt>())
        continue;
      ++Cost;
      if (S.is<ir::AssignStmt>() && S.as<ir::AssignStmt>().Value.is<ir::OpExpr>())
        ++Cost;
    }
  }
  return Cost;
}

struct Program {
  std::string Text;
  unsigned Statements = 0;
  bool Large = false;
};

/// The corpus, drawn once from CorpusSeed; each program is within 10% of
/// its target size. \p Seed only shuffles the order within each size.
std::vector<Program> drawPrograms(uint64_t Seed) {
  std::mt19937_64 Rng(CorpusSeed);
  std::vector<Program> Small, Large;
  while (Small.size() < NumSmall || Large.size() < NumLarge) {
    bool IsLarge = Large.size() < NumLarge;
    ir::GenOptions G;
    G.WithPointers = true;
    G.NumHelperProcs = 3;
    G.WithCalls = true;
    G.NumStmts = IsLarge ? 65 : 12;
    ir::Program Prog = ir::generateProgram(G, Rng());
    unsigned N = statementCount(Prog);
    unsigned Target = IsLarge ? 600 : 150;
    if (N * 10 < Target * 9 || N * 10 > Target * 11)
      continue;
    (IsLarge ? Large : Small).push_back({ir::toString(Prog), N, IsLarge});
  }
  std::mt19937_64 Order(Seed);
  std::shuffle(Large.begin(), Large.end(), Order);
  std::shuffle(Small.begin(), Small.end(), Order);
  Large.insert(Large.end(), Small.begin(), Small.end());
  return Large;
}

/// One operation: text in, optimized text out.
struct OpOutcome {
  ir::Program Original, Optimized;
  std::string Text;
  bool Degraded = false;
  double ParseS = 0, RunS = 0; ///< parseProgram and run() wall.
};

OpOutcome optimize(api::CobaltService &Svc, const std::string &Text,
                   unsigned Jobs) {
  OpOutcome Out;
  Out.ParseS = timed("ir.parse", [&] {
    support::Expected<ir::Program> P = Svc.parseProgram(Text);
    if (!P)
      fatal("generated program does not parse: " + P.error().Message);
    Out.Original = P.take();
  });
  api::PipelineRequest PR;
  PR.Prog = Out.Original;
  PR.Jobs = Jobs;
  PR.TraceId = support::TraceRecorder::currentTraceId();
  api::PipelineResponse Resp;
  Out.RunS = timed("api.run", [&] { Resp = Svc.run(std::move(PR)); });
  Out.Degraded = !Resp.ok() || Resp.Result.Degraded;
  Out.Optimized = std::move(Resp.Prog);
  timed("ir.print", [&] { Out.Text = ir::toString(Out.Optimized); });
  return Out;
}

/// Per-layer sums of the replay.
struct EngineLayers {
  double Label = 0, Solve = 0, Match = 0, Apply = 0;
  double Iters = 0, Facts = 0, Delta = 0, Applied = 0;
  std::map<std::string, double> PassSeconds;
};

/// Re-executes run()'s work on \p Prog one layer call at a time, in the
/// PassManager's order: analyses label, optimizations solve their guard,
/// match Δ, and apply; a rewrite invalidates the labeling, which is
/// recomputed by replaying the analyses before the next pass.
void replay(const api::CobaltService &Svc, ir::Program &Prog,
            EngineLayers &L) {
  const LabelRegistry &Registry = Svc.registry();
  auto Timed = [&](const char *Name, double &Sum, auto &&Fn) {
    double Sec = timed(Name, Fn);
    Sum += Sec;
    return Sec;
  };
  for (ir::Procedure &P : Prog.Procs) {
    Labeling Labels(P.size());
    bool LabelsValid = true;
    auto Relabel = [&](size_t Upto) {
      Labels.assign(P.size(), {});
      for (size_t I = 0; I < Upto && I < Svc.analyses().size(); ++I)
        Timed("engine.label", L.Label, [&] {
          engine::runPureAnalysis(Svc.analyses()[I], P, Registry, Labels);
        });
      LabelsValid = true;
    };
    for (size_t AI = 0; AI < Svc.analyses().size(); ++AI) {
      const PureAnalysis &A = Svc.analyses()[AI];
      if (!LabelsValid)
        Relabel(AI);
      L.PassSeconds[A.Name] += Timed("engine.label", L.Label, [&] {
        engine::runPureAnalysis(A, P, Registry, Labels);
      });
    }
    for (const Optimization &O : Svc.optimizations()) {
      if (!LabelsValid)
        Relabel(Svc.analyses().size());
      bool Backward = O.Pat.Dir == Direction::D_Backward;
      double &Pass = L.PassSeconds[O.Name];
      engine::GuardSolution Sol;
      Pass += Timed("engine.solve", L.Solve, [&] {
        ir::Cfg G(P);
        Sol = engine::solveGuard(O.Pat.Dir, O.Pat.G, G, Registry,
                                 Backward ? nullptr : &Labels);
      });
      L.Iters += Sol.Iterations;
      for (const auto &AtNode : Sol.AtNode)
        L.Facts += static_cast<double>(AtNode.size());
      std::vector<MatchSite> Delta;
      Pass += Timed("engine.match", L.Match, [&] {
        for (int I = 0; I < P.size(); ++I) {
          std::set<Substitution> Seen;
          for (const Substitution &Theta : Sol.AtNode[I]) {
            Substitution Extended = Theta;
            if (matchStmt(O.Pat.From, P.stmtAt(I), Extended) &&
                Seen.insert(Extended).second)
              Delta.push_back({I, Extended});
          }
        }
      });
      L.Delta += static_cast<double>(Delta.size());
      unsigned Applied = 0;
      Pass += Timed("engine.apply", L.Apply, [&] {
        std::set<MatchSite> Legal(Delta.begin(), Delta.end());
        std::vector<MatchSite> ToApply;
        for (MatchSite &Site : O.Choose(Delta, P))
          if (Legal.count(Site))
            ToApply.push_back(std::move(Site));
        Applied = engine::applySites(O.Pat.To, P, ToApply);
      });
      L.Applied += Applied;
      if (Applied > 0)
        LabelsValid = false;
    }
  }
}

struct OptSetup {
  std::shared_ptr<api::CobaltService> Svc;
  std::vector<Program> Pool;
};

OptSetup setUp(uint64_t Seed, Result &R) {
  OptSetup S;
  R.Values["core.parse_cobalt_s"] = parseStdlib();
  S.Svc = buildService(baseConfig());
  S.Pool = drawPrograms(Seed);
  return S;
}

/// Checks one output; returns false (and says why) on a wrong one.
bool outputOk(const OpOutcome &O) {
  if (O.Degraded) {
    std::printf("optimize: a pass degraded (failed, rolled back or "
                "quarantined)\n");
    return false;
  }
  if (auto D = fuzz::diffPrograms(O.Original, O.Optimized)) {
    std::printf("optimize: output diverges: %s\n", D->str().c_str());
    return false;
  }
  return true;
}

void tracedOptimize(const OptSetup &S, support::Telemetry &Tel, Result &R) {
  // Untraced reference at jobs 1 (the traced pass runs at jobs 1 so that
  // the replay's layer times can be subtracted from run()'s wall).
  auto Start = Clock::now();
  for (const Program &P : S.Pool)
    optimize(*S.Svc, P.Text, 1);
  double Untraced = secondsSince(Start);

  support::TelemetryScope On(&Tel);
  EngineLayers L;
  Samples RunSeconds;
  double Parse = 0, Steps = 0, Traced = 0;
  for (const Program &P : S.Pool) {
    support::TraceIdScope Id(support::mintTraceId());
    OpOutcome O;
    Traced += timed("op.program", [&] { O = optimize(*S.Svc, P.Text, 1); });
    RunSeconds.add(O.RunS);
    Parse += O.ParseS;
    ++R.Attempted;
    if (!outputOk(O))
      ++R.Failed;
    ir::Program Replayed = O.Original;
    timed("replay.program", [&] { replay(*S.Svc, Replayed, L); });
    if (ir::toString(Replayed) != O.Text)
      fatal("the traced replay does not reproduce CobaltService::run's "
            "output");
    dynamicCost(O.Optimized, Steps);
  }
  double EngineSeconds = L.Label + L.Solve + L.Match + L.Apply;
  R.Values["engine.label_s"] = L.Label;
  R.Values["engine.solve_s"] = L.Solve;
  R.Values["engine.solve_iters"] = L.Iters;
  R.Values["engine.facts"] = L.Facts;
  R.Values["engine.match_s"] = L.Match;
  R.Values["engine.delta"] = L.Delta;
  R.Values["engine.apply_s"] = L.Apply;
  R.Values["engine.applied"] = L.Applied;
  R.Values["engine.apply_ratio"] = L.Delta > 0 ? L.Applied / L.Delta : 0;
  R.Values["engine.tx_s"] = RunSeconds.sum() - EngineSeconds;
  for (const auto &[Pass, Sec] : L.PassSeconds)
    R.Values["engine.pass_s." + Pass] = Sec;
  R.Values["api.run_s"] = RunSeconds.median();
  R.Values["ir.parse_s"] = Parse;
  R.Values["ir.interp_steps"] = Steps;
  R.Values["trace.overhead_frac"] = (Traced - Untraced) / Untraced;
}

} // namespace

Result runOptimize(const Options &Opts, support::Telemetry &Tel) {
  Result R;
  auto SetUp = [&](int) { return setUp(Opts.Seed, R); };
  // Set-up is repeated 31 times now and once after every operation, so
  // that the samples span the whole run.
  OptSetup S = repeatSetUp(31, R, SetUp);
  if (Opts.Trace) {
    tracedOptimize(S, Tel, R);
    return R;
  }

  PerInput SmallMs, LargeMs;
  Samples SmallAll, LargePeakMb;
  double Statements = 0, CostIn = 0, CostOut = 0;
  std::vector<std::string> FirstOutput(S.Pool.size());
  auto Start = Clock::now();
  for (size_t I = 0; I < MinRounds * RoundLength || I % RoundLength != 0 ||
                     secondsSince(Start) < Opts.Seconds;
       ++I) {
    size_t Index = visit(I);
    const Program &P = S.Pool[Index];
    if (P.Large)
      resetPeakRss();
    auto OpStart = Clock::now();
    OpOutcome O = optimize(*S.Svc, P.Text, 0);
    double Ms = secondsSince(OpStart) * 1e3;
    (P.Large ? LargeMs : SmallMs).add(Index, Ms);
    if (P.Large)
      LargePeakMb.add(peakRssMb());
    else
      SmallAll.add(Ms);
    repeatSetUp(1, R, SetUp);
    releaseFreedMemory();
    Statements += P.Statements;
    ++R.Attempted;
    // The first output of each program is checked against the original;
    // later visits must reproduce it byte for byte.
    std::string &First = FirstOutput[Index];
    if (!First.empty()) {
      if (O.Text != First) {
        std::printf("optimize: output differs from an earlier run of the "
                    "same program\n");
        ++R.Failed;
      }
      continue;
    }
    First = O.Text;
    if (!outputOk(O))
      ++R.Failed;
    double Steps = 0;
    CostIn += dynamicCost(O.Original, Steps);
    CostOut += dynamicCost(O.Optimized, Steps);
  }
  double Wall = secondsSince(Start);
  Samples Small = SmallMs.medians(), Large = LargeMs.medians();
  R.Values["op_a_p50_ms"] = Small.median();
  // The mean over the three large programs of each one's median: a run
  // visits them only four to six times in all, and the median of three
  // per-program values swapped between two programs of similar size
  // from run to run.
  R.Values["op_b_p50_ms"] = Large.sum() / static_cast<double>(Large.size());
  // The peak resident set of a large-program operation, averaged over
  // the run's visits. The process-wide peak moved between 325 and 450 MB
  // from run to run: it is set by one visit, and how high a visit peaks
  // (by up to 25% for the same program) depends on which procedures the
  // two jobs happen to work on at the same time.
  R.Values["peak_rss_mb"] =
      LargePeakMb.sum() / static_cast<double>(LargePeakMb.size());
  setTail(R, SmallAll, 0.75, "p75 of the small-program timings");
  R.OpASamples = SmallMs.size();
  R.OpBSamples = LargeMs.size();
  R.Values["quality"] = CostOut > 0 ? CostIn / CostOut : 0;
  std::printf("optimize: %zu small programs (p50 %.1f ms, p75 %.1f ms), %zu "
              "large (mean of medians %.1f ms), %.0f statements/s, dynamic "
              "cost %.0f -> %.0f\n",
              SmallMs.size(), Small.median(), R.Values["op_a_tail_ms"],
              LargeMs.size(), R.Values["op_b_p50_ms"], Statements / Wall,
              CostIn, CostOut);
  return R;
}

} // namespace perfbench
