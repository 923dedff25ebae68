//===- Validate.cpp - Workload `validate`: translation validation ---------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Uses the checker differently from `prove`: many small ground
/// simulation obligations instead of quantified rule obligations, plus
/// alignment, path enumeration, fact mining and probes; the engine does
/// little. The corpus holds pairs (P, P') of pointer-free programs P of
/// 50–70 statements; the seed sets the order the run visits them in:
///
///   op A  P' = one sound pass (dead_assign_elim, const_prop, copy_prop or
///         cse) run with SelectedOnly; kept when it rewrote something.
///         Inequivalent is a wrong answer; Unknown is allowed.
///   op B  P' = a buggy rule applied raw (fuzz::applyRule), kept when
///         fuzz::diffPrograms sees the miscompile. Equivalent here is a
///         blessed miscompile and aborts the run.
///
/// Each operation is one CobaltService::validate on a service whose memo
/// has not seen the pair. The prover budget is a Z3 rlimit with no
/// retries and wall timeouts far above what the cap takes, so verdicts
/// repeat exactly instead of tracking the machine's load.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "fuzz/Oracle.h"
#include "ir/Generator.h"
#include "opts/Buggy.h"
#include "opts/Optimizations.h"

#include <algorithm>
#include <cstdio>
#include <random>

using namespace cobalt;

namespace perfbench {
namespace {

constexpr unsigned PoolSize = 40; ///< Pairs per run.
/// A run ends on a pass boundary after at least MinPasses passes over the
/// corpus, so every pair weighs the same in the tail and at least 60
/// sound-pair timings lie under it.
constexpr unsigned MinPasses = 2;
/// Generator seed of the pair corpus; --seed sets the visiting order. A
/// fresh draw per seed moved the median pair time by 25% between seeds:
/// pairs range from milliseconds to seconds and a run sees only ~50.
constexpr uint64_t CorpusSeed = 2003;
constexpr unsigned BuggyEvery = 4; ///< Every 4th pair is a miscompile.
constexpr unsigned BuggyRepeats = 9; ///< Validations per miscompile visit.
/// Validation gives up on a cut with more paths than this (Unknown). The
/// default of 64 lets one pair of the draw cost 40 s of obligations that
/// all end at the rlimit; 16 keeps every pair within a few seconds.
constexpr unsigned MaxPathsPerCut = 16;

struct Pair {
  ir::Program Original, Candidate;
  std::string Rule;
  bool Buggy = false;
  unsigned Statements = 0;
};

api::CobaltConfig validateConfig() {
  api::CobaltConfig C = baseConfig();
  C.Prover.RLimit = 1'000'000;
  C.Prover.Retries = 0;
  C.Prover.InitialTimeoutMs = 60000;
  C.Prover.TimeoutMs = 60000;
  return C;
}

/// A pointer-free program of 50–70 statements.
ir::Program drawProgram(std::mt19937_64 &Rng) {
  for (;;) {
    ir::GenOptions G;
    G.NumHelperProcs = 1;
    G.WithCalls = true;
    G.NumStmts = 6 + static_cast<unsigned>(Rng() % 8);
    ir::Program P = ir::generateProgram(G, Rng());
    unsigned N = statementCount(P);
    if (N >= 50 && N <= 70)
      return P;
  }
}

std::vector<Pair> drawPairs(api::CobaltService &Svc, uint64_t Seed) {
  static const char *SoundPasses[] = {"dead_assign_elim", "const_prop",
                                      "copy_prop", "cse"};
  std::vector<opts::BuggyCase> Buggy;
  for (opts::BuggyCase &C : opts::allBuggyOptimizations())
    if (C.Observable)
      Buggy.push_back(std::move(C));
  std::mt19937_64 Rng(CorpusSeed);
  std::vector<Pair> Pairs;
  while (Pairs.size() < PoolSize) {
    Pair P;
    P.Original = drawProgram(Rng);
    P.Statements = statementCount(P.Original);
    P.Buggy = Pairs.size() % BuggyEvery == BuggyEvery - 1;
    if (P.Buggy) {
      const opts::BuggyCase &C = Buggy[Rng() % Buggy.size()];
      fuzz::ApplyOutcome A =
          fuzz::applyRule(C.Opt, Svc.analyses(), P.Original);
      if (A.Applied == 0 || !fuzz::diffPrograms(P.Original, A.Prog))
        continue;
      P.Rule = C.Opt.Name;
      P.Candidate = std::move(A.Prog);
    } else {
      P.Rule = SoundPasses[(Pairs.size() - Pairs.size() / BuggyEvery) % 4];
      api::PipelineRequest PR;
      PR.Prog = P.Original;
      PR.PassNames = {P.Rule};
      PR.SelectedOnly = true;
      api::PipelineResponse Resp = Svc.run(std::move(PR));
      if (!Resp.ok() || Resp.Result.Degraded || Resp.Result.Applied == 0)
        continue;
      P.Candidate = std::move(Resp.Prog);
    }
    Pairs.push_back(std::move(P));
  }
  std::mt19937_64 Order(Seed);
  std::shuffle(Pairs.begin(), Pairs.end(), Order);
  return Pairs;
}

/// One operation. Returns false on a wrong answer; aborts the run on a
/// blessed miscompile.
bool validateOne(api::CobaltService &Svc, const Pair &P, unsigned Jobs,
                 validate::ValidationReport &Out) {
  api::ValidateRequest Req;
  Req.Original = P.Original;
  Req.Candidate = P.Candidate;
  Req.Jobs = Jobs;
  Req.TraceId = support::TraceRecorder::currentTraceId();
  Req.Options.MaxPathsPerCut = MaxPathsPerCut;
  api::ValidateResponse Resp = Svc.validate(std::move(Req));
  Out = std::move(Resp.Report);
  if (!Resp.ok()) {
    std::printf("validate: request failed: %s\n", Resp.Err.Message.c_str());
    return false;
  }
  if (P.Buggy && Out.V == validate::Verdict::V_Equivalent)
    fatal("blessed miscompile: validator called the " + P.Rule +
          " pair Equivalent although its probes diverge");
  if (!P.Buggy && Out.V == validate::Verdict::V_Inequivalent) {
    std::printf("validate: sound %s pair called Inequivalent: %s\n",
                P.Rule.c_str(), Out.Witness.c_str());
    return false;
  }
  return true;
}

struct ValidateSetup {
  std::shared_ptr<api::CobaltService> Svc;
  std::vector<Pair> Pairs;
};

ValidateSetup setUp(uint64_t Seed, Result &R) {
  ValidateSetup S;
  R.Values["core.parse_cobalt_s"] = parseStdlib();
  S.Svc = buildService(validateConfig());
  S.Pairs = drawPairs(*S.Svc, Seed);
  return S;
}

void tracedValidate(const ValidateSetup &S, support::Telemetry &Tel,
                    Result &R) {
  // Untraced reference at jobs 1 on a fresh service, then the traced pass
  // on another fresh one, so neither sees the other's memo.
  validate::ValidationReport Rep;
  auto Start = Clock::now();
  {
    std::shared_ptr<api::CobaltService> Svc = buildService(validateConfig());
    for (const Pair &P : S.Pairs)
      validateOne(*Svc, P, 1, Rep);
  }
  double Untraced = secondsSince(Start);

  std::shared_ptr<api::CobaltService> Svc = buildService(validateConfig());
  support::TelemetryScope On(&Tel);
  double Traced = 0, Prover = 0, NonProver = 0, Probe = 0, UnknownS = 0;
  double Equivalent = 0, Inequivalent = 0, Unknown = 0, Alpha = 0, Sim = 0;
  double Obligations = 0, Proven = 0, Failed = 0, Unproven = 0;
  for (const Pair &P : S.Pairs) {
    support::TraceIdScope Id(support::mintTraceId());
    ++R.Attempted;
    double Wall = timed("op.pair", [&] {
      support::TraceSpan Call("bench", "api.validate");
      if (!validateOne(*Svc, P, 1, Rep))
        ++R.Failed;
    });
    Traced += Wall;
    double PairProver = 0;
    for (const validate::ProcOutcome &O : Rep.Procs) {
      PairProver += O.Seconds;
      Alpha += O.Method == "alpha";
      Sim += O.Method == "simulation";
      Obligations += O.Obligations;
      Proven += O.Proven;
      Failed += O.Failed;
      Unproven += O.Unproven;
    }
    Prover += PairProver;
    NonProver += Wall - PairProver;
    Equivalent += Rep.V == validate::Verdict::V_Equivalent;
    Inequivalent += Rep.V == validate::Verdict::V_Inequivalent;
    if (Rep.V == validate::Verdict::V_Unknown) {
      ++Unknown;
      UnknownS += Wall;
    }
    Probe += timed("fuzz.diff_programs", [&] {
      fuzz::diffPrograms(P.Original, P.Candidate);
    });
  }
  R.Values["validate.equivalent"] = Equivalent;
  R.Values["validate.inequivalent"] = Inequivalent;
  R.Values["validate.unknown"] = Unknown;
  R.Values["validate.procs_alpha"] = Alpha;
  R.Values["validate.procs_sim"] = Sim;
  R.Values["validate.prover_s"] = Prover;
  R.Values["validate.nonprover_s"] = NonProver;
  R.Values["validate.probe_s"] = Probe;
  R.Values["validate.unknown_s"] = UnknownS;
  R.Values["checker.obligations"] = Obligations;
  R.Values["checker.proven"] = Proven;
  R.Values["checker.failed"] = Failed;
  R.Values["checker.unknown"] = Unproven;
  R.Values["checker.solve_s"] = Prover;
  R.Values["checker.context_setup_ms"] = contextSetupMs(*Svc);
  R.Values["support.cache_hit_ratio"] =
      static_cast<double>(Svc->cacheHits()) /
      static_cast<double>(S.Pairs.size());
  R.Values["trace.overhead_frac"] = (Traced - Untraced) / Untraced;
}

} // namespace

Result runValidate(const Options &Opts, support::Telemetry &Tel) {
  Result R;
  auto SetUp = [&](int) { return setUp(Opts.Seed, R); };
  // Set-up is repeated five times now and twice at the end of every
  // pass, so that the samples span the whole run.
  ValidateSetup S = repeatSetUp(5, R, SetUp);
  if (Opts.Trace) {
    tracedValidate(S, Tel, R);
    return R;
  }

  PerInput SoundMs, BuggyMs;
  Samples SoundAll;
  double Statements = 0, SoundPairs = 0, Proved = 0;
  double Obligations = 0, ObligationsProven = 0;
  auto Start = Clock::now();
  for (size_t I = 0; I < MinPasses * S.Pairs.size() ||
                     I % S.Pairs.size() != 0 ||
                     secondsSince(Start) < Opts.Seconds;
       ++I) {
    // A fresh service for every pass over the pool: no pair is ever
    // served from the validation memo.
    if (I > 0 && I % S.Pairs.size() == 0) {
      repeatSetUp(2, R, SetUp);
      S.Svc = buildService(validateConfig());
    }
    const Pair &P = S.Pairs[I % S.Pairs.size()];
    validate::ValidationReport Rep;
    // A miscompiled pair is refuted by the probe in ~0.1 ms, too little
    // for one sample per visit to be steady, so it is validated several
    // times, each on a fresh service: the Inequivalent verdict is
    // memoized, and a repeat on the same service would time the memo. The
    // services are built first, so that starting their worker threads
    // does not overlap the timed calls, and the heap is not trimmed
    // between the repeats, so that they do not time page faults.
    std::vector<std::shared_ptr<api::CobaltService>> Svcs = {S.Svc};
    if (P.Buggy) {
      Svcs.clear();
      for (unsigned K = 0; K < BuggyRepeats; ++K)
        Svcs.push_back(buildService(validateConfig()));
    }
    for (const std::shared_ptr<api::CobaltService> &Svc : Svcs) {
      auto OpStart = Clock::now();
      bool Ok = validateOne(*Svc, P, 0, Rep);
      double Ms = secondsSince(OpStart) * 1e3;
      (P.Buggy ? BuggyMs : SoundMs).add(I % S.Pairs.size(), Ms);
      if (!P.Buggy)
        SoundAll.add(Ms);
      ++R.Attempted;
      R.Failed += !Ok;
      Statements += P.Statements;
    }
    Svcs.clear();
    releaseFreedMemory();
    // Verdicts repeat exactly, so the quality counts each pair once however
    // often this run visits it.
    if (!P.Buggy && I < S.Pairs.size()) {
      ++SoundPairs;
      Proved += Rep.V == validate::Verdict::V_Equivalent;
      for (const validate::ProcOutcome &O : Rep.Procs) {
        Obligations += O.Obligations;
        ObligationsProven += O.Proven;
      }
    }
  }
  double Wall = secondsSince(Start);
  repeatSetUp(2, R, SetUp);
  Samples Sound = SoundMs.medians(), Buggy = BuggyMs.medians();
  R.Values["op_a_p50_ms"] = Sound.median();
  R.Values["op_b_p50_ms"] = Buggy.median();
  setTail(R, SoundAll, 0.8, "p80 of the sound-pair timings");
  R.OpASamples = SoundMs.size();
  R.OpBSamples = BuggyMs.size();
  R.Values["quality"] = Obligations > 0 ? ObligationsProven / Obligations : 0;
  std::printf("validate: %zu sound-pass pairs (p50 %.1f ms, p80 %.1f ms, "
              "%.0f/%.0f Equivalent, %.0f/%.0f obligations proven), %zu "
              "miscompiled pairs (p50 %.1f ms), %.2f pairs/s, %.0f "
              "statements/s\n",
              SoundMs.size(), Sound.median(), R.Values["op_a_tail_ms"],
              Proved, SoundPairs, ObligationsProven, Obligations,
              BuggyMs.size(), Buggy.median(),
              static_cast<double>(R.Attempted) / Wall, Statements / Wall);
  return R;
}

} // namespace perfbench
