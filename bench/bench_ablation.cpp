//===- bench_ablation.cpp - Checker design-choice ablations ---------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Ablates the two encoding decisions DESIGN.md calls out:
///
///  A. Statement-kind case splitting. The region obligations (F2 etc.)
///     quantify over an arbitrary statement. Monolithic encoding (one
///     symbolic Stmt constant) sends Z3 into quantifier/array reasoning it
///     does not finish; splitting into the seven constructor shapes makes
///     each sub-obligation near-instant. This mirrors how the paper's
///     hand proofs case-split on statement kinds.
///
///  B. Domain closure for counterexample search. With the quantified
///     well-formedness hypotheses, Z3 cannot build models for falsifiable
///     obligations (buggy optimizations yield "unknown"). Closing the
///     uninterpreted domains over the named constants and bounding the
///     allocator turns those into genuine sat counterexamples.
///
//===----------------------------------------------------------------------===//

#include "checker/Encoder.h"
#include "checker/Obligations.h"
#include "checker/PatternEncoder.h"
#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <chrono>
#include <cstdio>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

const char *resultName(z3::check_result R) {
  if (R == z3::unsat)
    return "unsat (proved)";
  if (R == z3::sat)
    return "sat (counterexample)";
  return "unknown";
}

/// Builds the F2 obligation of \p O for the statement \p St (or a fully
/// symbolic statement when null) and checks it.
z3::check_result checkF2(const Optimization &O, const LabelRegistry &Registry,
                         const char *KindTag, unsigned TimeoutMs,
                         bool CexMode, double &Seconds) {
  std::map<std::string, const PureAnalysis *> NoAnalyses;
  z3::context C;
  Encoder Enc(C);
  PatternEncoder PE(Enc, Registry, NoAnalyses);
  MetaEnv Env;
  std::vector<z3::expr> Hyps;

  ZState Eta = Enc.freshState("eta");
  z3::expr St = Enc.freshStmt("st");
  if (KindTag) {
    std::string K = KindTag;
    if (K == "assign")
      St = Enc.SAssign(Enc.freshLhs("kl"), Enc.freshExpr("kr"));
    else if (K == "decl")
      St = Enc.SDecl(Enc.freshVar("kd"));
    else if (K == "skip")
      St = Enc.SSkip();
    else if (K == "new")
      St = Enc.SNew(Enc.freshVar("kn"));
    else if (K == "call")
      St = Enc.SCall(Enc.freshVar("kt"), Enc.freshProc("kp"),
                     Enc.freshBase("ka"));
    else if (K == "branch")
      St = Enc.SBranch(Enc.freshBase("kb"), Enc.freshInt("ki"),
                       Enc.freshInt("kj"));
    else
      St = Enc.SReturn(Enc.freshVar("kv"));
  }

  Hyps.push_back(PE.witness(*O.Pat.W, &Eta, nullptr, nullptr, Env));
  Hyps.push_back(PE.formula(*O.Pat.G.Psi2, St, Eta, Env, Hyps));
  ZStep Step = Enc.encodeStep(Eta, St, "p");
  Hyps.push_back(Step.Defined);
  for (const z3::expr &E : Step.Constraints)
    Hyps.push_back(E);
  z3::expr Goal = PE.witness(*O.Pat.W, &Step.Post, nullptr, nullptr, Env);

  z3::solver S = makeObligationSolver(C);
  z3::params P(C);
  P.set("timeout", TimeoutMs);
  S.set(P);
  for (const z3::expr &H : Hyps)
    S.add(H);
  if (CexMode) {
    S.add(Enc.wfBounded(Eta));
    S.add(Enc.wfBounded(Step.Post));
  } else {
    S.add(Enc.wf(Eta));
    S.add(Enc.wf(Step.Post));
  }
  S.add(!Goal);
  if (CexMode) {
    Enc.addDistinctnessAxioms(S);
    for (const z3::expr &E : Enc.domainClosure())
      S.add(E);
  } else {
    Enc.addBackgroundAxioms(S);
  }

  auto T0 = std::chrono::steady_clock::now();
  z3::check_result R = S.check();
  auto T1 = std::chrono::steady_clock::now();
  Seconds = std::chrono::duration<double>(T1 - T0).count();
  return R;
}

} // namespace

int main() {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");

  const char *Kinds[] = {"decl",   "skip", "assign", "new",
                         "call",   "branch", "return"};

  std::printf("Ablation A: monolithic vs per-statement-kind split "
              "(F2 obligations)\n");
  std::printf("  -- valid obligation (shipped const_prop): both modes "
              "prove it --\n");
  {
    Optimization O = opts::constProp();
    double Seconds = 0;
    z3::check_result R =
        checkF2(O, Registry, nullptr, 10000, false, Seconds);
    std::printf("  %-26s %-22s %8.3f s\n", "monolithic", resultName(R),
                Seconds);
    double SplitTotal = 0;
    bool AllProved = true;
    for (const char *Kind : Kinds) {
      R = checkF2(O, Registry, Kind, 10000, false, Seconds);
      SplitTotal += Seconds;
      AllProved = AllProved && R == z3::unsat;
    }
    std::printf("  %-26s %-22s %8.3f s\n", "split (7 kinds, total)",
                AllProved ? "unsat (proved)" : "NOT PROVED", SplitTotal);
  }
  std::printf("  -- falsifiable obligation (buggy const_prop_no_guard): "
              "split localizes the bug --\n");
  {
    for (const LabelDef &Def : opts::constPropNoGuard().Opt.Labels)
      Registry.define(Def);
    Optimization O = opts::constPropNoGuard().Opt;
    double Seconds = 0;
    z3::check_result R =
        checkF2(O, Registry, nullptr, 8000, false, Seconds);
    std::printf("  %-26s %-22s %8.3f s   (no bug location)\n",
                "monolithic", resultName(R), Seconds);
    for (const char *Kind : Kinds) {
      R = checkF2(O, Registry, Kind, 8000, false, Seconds);
      if (R != z3::unsat)
        std::printf("  split[%-7s]             %-22s %8.3f s   <- "
                    "localized\n",
                    Kind, resultName(R), Seconds);
    }
  }

  std::printf("\nAblation B: counterexample search for the buggy "
              "const_prop_no_guard (F2[assign])\n");
  {
    for (const LabelDef &Def :
         opts::constPropNoGuard().Opt.Labels)
      Registry.define(Def);
    Optimization O = opts::constPropNoGuard().Opt;
    double Seconds = 0;
    z3::check_result R =
        checkF2(O, Registry, "assign", 8000, false, Seconds);
    std::printf("  %-34s %-22s %8.3f s\n",
                "quantified wf, full axioms", resultName(R), Seconds);
    R = checkF2(O, Registry, "assign", 8000, true, Seconds);
    std::printf("  %-34s %-22s %8.3f s\n",
                "domain closure + bounded wf", resultName(R), Seconds);
  }
  return 0;
}
