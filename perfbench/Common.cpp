//===- Common.cpp - Set-up shared by the workloads ------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "checker/Obligations.h"
#include "core/CobaltParser.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "opts/StdlibCobalt.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <cstdlib>

using namespace cobalt;

namespace perfbench {

void fatal(const std::string &Message) {
  std::fprintf(stderr, "perfbench: %s\n", Message.c_str());
  // _Exit: daemon and client threads may still be running, and static
  // destructors must not race them.
  std::fflush(nullptr);
  std::_Exit(2);
}

double parseStdlib() {
  auto Start = Clock::now();
  DiagnosticEngine Diags;
  std::optional<CobaltModule> M = parseCobalt(opts::StdlibCobaltSource, Diags);
  double Seconds = secondsSince(Start);
  if (!M || M->Optimizations.empty())
    fatal("the bundled stdlib Cobalt text does not parse");
  return Seconds;
}

api::CobaltConfig baseConfig() {
  api::CobaltConfig C;
  C.Jobs = 2;
  return C;
}

std::shared_ptr<api::CobaltService>
buildService(const api::CobaltConfig &Config) {
  api::CobaltService::Builder B;
  B.config(Config);
  for (const LabelDef &Def : opts::standardLabels())
    B.defineLabel(Def);
  for (PureAnalysis &A : opts::allAnalyses())
    B.addAnalysis(std::move(A));
  for (Optimization &O : opts::allOptimizations())
    B.addOptimization(std::move(O));
  return B.build();
}

unsigned statementCount(const ir::Program &Prog) {
  unsigned N = 0;
  for (const ir::Procedure &P : Prog.Procs)
    N += static_cast<unsigned>(P.size());
  return N;
}

void addCheckerLayers(const std::vector<checker::CheckReport> &Reports,
                      const std::vector<double> &WallSeconds, Result &R) {
  Samples ObligationMs, Rlimits;
  double Obligations = 0, Proven = 0, Failed = 0, Unknown = 0, Attempts = 0;
  double Solve = 0, Cex = 0, Wall = 0, Rlimit = 0;
  for (size_t I = 0; I < Reports.size(); ++I) {
    Wall += WallSeconds[I];
    for (const checker::ObligationResult &Ob : Reports[I].Obligations) {
      ++Obligations;
      Attempts += Ob.Attempts;
      Solve += Ob.Seconds;
      Rlimit += static_cast<double>(Ob.RlimitSpent);
      ObligationMs.add(Ob.Seconds * 1e3);
      Rlimits.add(static_cast<double>(Ob.RlimitSpent));
      if (Ob.proven())
        ++Proven;
      else if (Ob.unknown())
        ++Unknown;
      else {
        ++Failed;
        Cex += Ob.Seconds;
      }
    }
  }
  R.Values["checker.obligations"] = Obligations;
  R.Values["checker.proven"] = Proven;
  R.Values["checker.failed"] = Failed;
  R.Values["checker.unknown"] = Unknown;
  R.Values["checker.attempts"] = Attempts;
  R.Values["checker.retry_ratio"] = Attempts > 0 ? Obligations / Attempts : 0;
  R.Values["checker.solve_s"] = Solve;
  R.Values["checker.cex_s"] = Cex;
  R.Values["checker.nonsolver_s"] = Wall - Solve;
  R.Values["checker.obligation_p50_ms"] = ObligationMs.quantile(0.5);
  R.Values["checker.obligation_p90_ms"] = ObligationMs.quantile(0.9);
  R.Values["checker.rlimit"] = Rlimit;
  R.Values["checker.rlimit_p90"] = Rlimits.quantile(0.9);
}

double contextSetupMs(const api::CobaltService &Svc) {
  std::map<std::string, const PureAnalysis *> ByLabel;
  for (const PureAnalysis &A : Svc.analyses())
    ByLabel[A.LabelName] = &A;
  Samples Ms;
  for (int I = 0; I < 21; ++I) {
    auto Start = Clock::now();
    checker::ObligationBuilder B(Svc.registry(), ByLabel);
    Ms.add(secondsSince(Start) * 1e3);
  }
  return Ms.median();
}

} // namespace perfbench
