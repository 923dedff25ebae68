//===- extensible_compiler.cpp - Paper §1: user-extensible compilers ------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's motivating vision: an extensible compiler that accepts
/// user-written optimizations — in Cobalt's *textual* syntax here — and
/// protects itself by proving each one sound before admitting it. A buggy
/// submission is rejected with the failing obligation and a
/// counterexample context; the trusted computing base never grows (§6).
///
/// The whole compiler is a thin shell around an immutable
/// `api::CobaltService`: a submission is proven by a check request on a
/// candidate service that registers it next to the admitted passes, and
/// once admitted that candidate becomes the compiler's pipeline.
///
//===----------------------------------------------------------------------===//

#include "api/Service.h"
#include "ir/Interp.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <cctype>
#include <cstdio>

using namespace cobalt;

namespace {

/// The "compiler": admits an optimization only if the checker proves it.
class ExtensibleCompiler {
public:
  bool submit(const std::string &CobaltSource) {
    auto Module = api::CobaltService::parseModule(CobaltSource);
    if (!Module) {
      std::printf("  parse error:\n%s\n", Module.error().Message.c_str());
      return false;
    }
    for (Optimization &O : Module->Optimizations) {
      // Registering the rule brings its labels into the candidate's
      // registry; only the rule itself is checked.
      std::shared_ptr<api::CobaltService> Candidate = withPass(O);
      api::CheckRequest Req;
      Req.Only = {O.Name};
      api::CheckResponse Resp = Candidate->check(Req);
      if (!Resp.ok()) { // e.g. the name of an admitted pass
        std::printf("  REJECTED %s: %s\n", O.Name.c_str(),
                    Resp.Err.Message.c_str());
        return false;
      }
      checker::CheckReport &Report = Resp.Suite.Reports.front();
      if (!Report.Sound) {
        std::printf("  REJECTED %s:\n", O.Name.c_str());
        for (const auto &Ob : Report.Obligations) {
          if (Ob.proven())
            continue;
          // Z3 prints array values across several lines; show the model's
          // first 160 characters on one line.
          std::string Model;
          for (char Ch : Ob.Counterexample)
            if (!std::isspace(static_cast<unsigned char>(Ch)))
              Model += Ch;
            else if (!Model.empty() && Model.back() != ' ')
              Model += ' ';
          std::printf("    obligation %s failed%s%s\n", Ob.Name.c_str(),
                      Model.empty() ? "" : ": ",
                      Model.substr(0, 160).c_str());
        }
        return false;
      }
      std::printf("  ADMITTED %s (%zu obligations, %.2f s)\n",
                  O.Name.c_str(), Report.Obligations.size(),
                  Report.TotalSeconds);
      Admitted.push_back(std::move(O));
      Pipeline = std::move(Candidate);
    }
    return true;
  }

  void compile(ir::Program &Prog) {
    if (!Pipeline)
      return;
    api::PipelineRequest Req;
    Req.Prog = std::move(Prog);
    Prog = Pipeline->run(std::move(Req)).Prog;
  }

private:
  /// A service registering the admitted passes, then \p Candidate.
  std::shared_ptr<api::CobaltService>
  withPass(const Optimization &Candidate) const {
    api::CobaltConfig Config;
    Config.Prover.TimeoutMs = 4000;
    api::CobaltService::Builder B;
    B.config(Config);
    for (const Optimization &O : Admitted)
      B.addOptimization(O);
    B.addOptimization(Candidate);
    return B.build();
  }

  std::vector<Optimization> Admitted;
  std::shared_ptr<api::CobaltService> Pipeline; ///< Admitted passes only.
};

} // namespace

int main() {
  ExtensibleCompiler Compiler;

  std::printf("user submits a correct copy-propagation pass:\n");
  Compiler.submit(R"(
    label syntacticDef(X) :=
      case currStmt of
        decl X => true | X := E9 => true | X := new => true
      else => false endcase;

    label mayDef(X) :=
      case currStmt of
        *Y9 := E9 => true | Y9 := P9(_) => true
      else => syntacticDef(X) endcase;

    optimization user_copy_prop :=
      forward
      stmt(Y := Z)
      followed by !mayDef(Y) && !mayDef(Z)
      until X := Y => X := Z
      with witness eta(Y) = eta(Z);
  )");

  std::printf("\nuser submits a buggy variant (forgot !mayDef(Z)):\n");
  bool Admitted = Compiler.submit(R"(
    label syntacticDef(X) :=
      case currStmt of
        decl X => true | X := E9 => true | X := new => true
      else => false endcase;

    label mayDef(X) :=
      case currStmt of
        *Y9 := E9 => true | Y9 := P9(_) => true
      else => syntacticDef(X) endcase;

    optimization user_copy_prop_buggy :=
      forward
      stmt(Y := Z)
      followed by !mayDef(Y)
      until X := Y => X := Z
      with witness eta(Y) = eta(Z);
  )");
  std::printf("  (the compiler %s it)\n\n",
              Admitted ? "!!! wrongly admitted" : "correctly refused");

  // Only the proven pass runs.
  ir::Program Prog = ir::parseProgramOrDie(R"(
    proc main(n) {
      decl y;
      decl r;
      y := n;
      r := y;
      return r;
    }
  )");
  std::printf("compiling with the admitted pass:\nbefore:\n%s\n",
              ir::toString(Prog).c_str());
  Compiler.compile(Prog);
  std::printf("after:\n%s\n", ir::toString(Prog).c_str());

  ir::Interpreter Interp(Prog);
  std::printf("main(41) = %s\n", Interp.run(41).str().c_str());
  return 0;
}
