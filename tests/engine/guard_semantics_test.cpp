//===- guard_semantics_test.cpp - Definition 1 oracle ("Figure 1") --------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E4: the engine's dataflow solution must coincide with the
/// path-quantified semantics of guards (Definition 1 / Figure 1). On
/// acyclic CFGs the oracle enumerates every path explicitly; the
/// framework is distributive, so agreement there extends to cyclic CFGs
/// (meet-over-paths = maximal fixed point).
///
//===----------------------------------------------------------------------===//

#include "core/Builder.h"
#include "engine/Dataflow.h"
#include "ir/Generator.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "opts/Labels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

/// Enumerates all paths of an acyclic CFG from the entry to \p Target
/// (forward) or from \p Target to any exit (backward), invoking \p Sink
/// with each node sequence (in execution order, Target exclusive).
void forEachPathTo(const Cfg &G, int Target, std::vector<int> &Prefix,
                   int At, const std::function<void(
                                const std::vector<int> &)> &Sink) {
  if (At == Target) {
    Sink(Prefix);
    return;
  }
  Prefix.push_back(At);
  for (int S : G.succs(At))
    forEachPathTo(G, Target, Prefix, S, Sink);
  Prefix.pop_back();
}

void forEachPathFrom(const Cfg &G, int From, std::vector<int> &Suffix,
                     const std::function<void(const std::vector<int> &)>
                         &Sink) {
  if (G.succs(From).empty()) {
    Sink(Suffix);
    return;
  }
  for (int S : G.succs(From)) {
    Suffix.push_back(S);
    forEachPathFrom(G, S, Suffix, Sink);
    Suffix.pop_back();
  }
}

/// Literal Definition 1: (ι, θ) ∈ [[ψ1 followed by ψ2]](p) iff on every
/// entry→ι path there is a ψ1 node followed by only-ψ2 nodes before ι.
/// The backward variant mirrors it on ι→exit paths.
bool oracleHolds(Direction Dir, const Guard &Gd, const Cfg &G, int Iota,
                 const Substitution &Theta, const LabelRegistry &Registry,
                 const Universe &Univ) {
  const Procedure &P = G.proc();
  auto Sat = [&](int Node, const FormulaPtr &F) {
    NodeContext Ctx{&P, Node, &Registry, nullptr, &Univ};
    auto R = evalFormula(*F, Ctx, Theta);
    return R.has_value() && *R;
  };

  bool AllPathsOk = true;
  auto CheckPath = [&](const std::vector<int> &Nodes) {
    if (!AllPathsOk)
      return;
    // Forward: Nodes = ι1..ιj in execution order; scan from the end for
    // the nearest ψ1 node with ψ2 holding after it.
    // Backward: Nodes = ιj..ι1 in execution order (after ι); the nearest
    // ψ1 node is scanned from the *front*, ψ2 must hold before it.
    bool Ok = false;
    if (Dir == Direction::D_Forward) {
      bool Psi2Suffix = true;
      for (int K = static_cast<int>(Nodes.size()) - 1; K >= 0; --K) {
        if (Psi2Suffix && Sat(Nodes[K], Gd.Psi1)) {
          Ok = true;
          break;
        }
        Psi2Suffix = Psi2Suffix && Sat(Nodes[K], Gd.Psi2);
        if (!Psi2Suffix)
          break;
      }
    } else {
      bool Psi2Prefix = true;
      for (size_t K = 0; K < Nodes.size(); ++K) {
        if (Psi2Prefix && Sat(Nodes[K], Gd.Psi1)) {
          Ok = true;
          break;
        }
        Psi2Prefix = Psi2Prefix && Sat(Nodes[K], Gd.Psi2);
        if (!Psi2Prefix)
          break;
      }
    }
    if (!Ok)
      AllPathsOk = false;
  };

  std::vector<int> Scratch;
  if (Dir == Direction::D_Forward) {
    if (!G.isReachable(Iota))
      return false; // engine's conservative choice for unreachable nodes
    forEachPathTo(G, Iota, Scratch, G.entry(), CheckPath);
  } else {
    forEachPathFrom(G, Iota, Scratch, CheckPath);
  }
  return AllPathsOk;
}

/// Compares the dataflow solution with the oracle for every node and
/// every candidate substitution.
void compareWithOracle(Direction Dir, const Guard &Gd, const Procedure &P,
                       const LabelRegistry &Registry) {
  Cfg G(P);
  Universe Univ = buildUniverse(P);
  GuardSolution Sol = solveGuard(Dir, Gd, G, Registry, nullptr);

  // Candidate substitutions: everything any node generates.
  std::set<Substitution> Candidates;
  for (int I = 0; I < G.size(); ++I) {
    NodeContext Ctx{&P, I, &Registry, nullptr, &Univ};
    for (Substitution &S : satisfyFormula(*Gd.Psi1, Ctx, {}))
      Candidates.insert(std::move(S));
  }

  for (int I = 0; I < G.size(); ++I) {
    // Backward guards on forward-unreachable nodes are outside the
    // engine's supported surface (it never transforms them); skip.
    if (!G.isReachable(I))
      continue;
    bool BackwardLive = !G.succs(I).empty();
    for (const Substitution &Theta : Candidates) {
      bool Engine = Sol.AtNode[I].count(Theta) != 0;
      bool Oracle =
          Dir == Direction::D_Forward
              ? oracleHolds(Dir, Gd, G, I, Theta, Registry, Univ)
              : (BackwardLive &&
                 oracleHolds(Dir, Gd, G, I, Theta, Registry, Univ));
      EXPECT_EQ(Engine, Oracle)
          << "node " << I << " theta " << Theta.str() << "\n"
          << toString(P);
    }
  }
}

class GuardSemanticsTest : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override {
    for (const LabelDef &Def : cobalt::opts::standardLabels())
      Registry.define(Def);
  }
  LabelRegistry Registry;
};

TEST_P(GuardSemanticsTest, ConstPropGuardMatchesOracle) {
  GenOptions Options{.NumVars = 3, .NumStmts = 8, .WithLoops = false};
  Program Prog = generateProgram(Options, GetParam());
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  compareWithOracle(Direction::D_Forward, Gd, *Prog.findProc("main"),
                    Registry);
}

TEST_P(GuardSemanticsTest, DaeGuardMatchesOracle) {
  GenOptions Options{.NumVars = 3, .NumStmts = 8, .WithLoops = false};
  Program Prog = generateProgram(Options, GetParam());
  Guard Gd{fAnd(fOr(fOr(stmtIs("X := ..."), stmtIs("X := new")),
                    stmtIs("return ...")),
                fNot(labelF("mayUse", {tExpr("X")}))),
           fNot(labelF("mayUse", {tExpr("X")}))};
  compareWithOracle(Direction::D_Backward, Gd, *Prog.findProc("main"),
                    Registry);
}

TEST_P(GuardSemanticsTest, CseGuardMatchesOracle) {
  GenOptions Options{.NumVars = 3, .NumStmts = 6, .WithLoops = false};
  Program Prog = generateProgram(Options, GetParam());
  Guard Gd{fAnd(stmtIs("X := E"),
                fNot(labelF("exprUses", {tExpr("E"), tExpr("X")}))),
           fAnd(labelF("unchanged", {tExpr("E")}),
                fNot(labelF("mayDef", {tExpr("X")})))};
  compareWithOracle(Direction::D_Forward, Gd, *Prog.findProc("main"),
                    Registry);
}

/// A computes-only ψ1 takes the engine's shared-GEN path (satisfied once,
/// not per node). It must agree with the path oracle in both directions,
/// and node for node with the per-node evaluation of the same formula
/// (conjoining currStmt = currStmt makes it node-dependent without
/// changing its meaning).
TEST_P(GuardSemanticsTest, ComputesGuardMatchesOracleAndPerNodeGen) {
  GenOptions Options{.NumVars = 3, .NumStmts = 8, .WithLoops = false};
  Program Prog = generateProgram(Options, GetParam());
  const Procedure &P = *Prog.findProc("main");
  FormulaPtr Computes = labelF("computes", {tExpr("C1 + C2"), tExpr("C3")});
  FormulaPtr PerNode = fAnd(Computes, fEq(tCurrStmt(), tCurrStmt()));
  for (Direction Dir : {Direction::D_Forward, Direction::D_Backward}) {
    Guard Gd{Computes, fTrue()};
    compareWithOracle(Dir, Gd, P, Registry);
    Cfg G(P);
    GuardSolution Shared = solveGuard(Dir, Gd, G, Registry, nullptr);
    GuardSolution Each =
        solveGuard(Dir, Guard{PerNode, Gd.Psi2}, G, Registry, nullptr);
    for (int I = 0; I < G.size(); ++I)
      EXPECT_TRUE(std::equal(Shared.AtNode[I].begin(),
                             Shared.AtNode[I].end(), Each.AtNode[I].begin(),
                             Each.AtNode[I].end()))
          << "node " << I << "\n" << toString(P);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardSemanticsTest,
                         ::testing::Range<uint64_t>(0, 25));

/// The Figure 1 scenario as a directed example: the shaded witnessing
/// region is entered only through the enabling statement.
TEST(GuardSemanticsDirectedTest, Figure1Shape) {
  LabelRegistry Registry;
  for (const LabelDef &Def : cobalt::opts::standardLabels())
    Registry.define(Def);
  // Region entered through two different enablers on two legs; the
  // transformation point requires both.
  Program Prog = parseProgramOrDie(R"(
    proc main(x) {
      decl y;
      decl t;
      if x goto l else r;
    l:
      y := 3;
      if 1 goto join else join;
    r:
      y := 3;
    join:
      t := y;
      return t;
    }
  )");
  const Procedure &P = Prog.Procs[0];
  Cfg G(P);
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol =
      solveGuard(Direction::D_Forward, Gd, G, Registry, nullptr);
  Substitution Y3;
  Y3.bind("Y", Binding::var("y"));
  Y3.bind("C", Binding::constant(3));
  // Node 6 is `t := y`: both legs established y = 3.
  EXPECT_TRUE(Sol.AtNode[6].count(Y3));
}

} // namespace
