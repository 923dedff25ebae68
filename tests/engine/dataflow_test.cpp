//===- dataflow_test.cpp - The substitution-set dataflow solver -----------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Dataflow.h"

#include "core/Builder.h"
#include "ir/Parser.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <string>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

class DataflowTest : public ::testing::Test {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }

  GuardSolution solve(const char *Text, const Guard &Gd, Direction Dir) {
    Prog = parseProgramOrDie(Text);
    G.emplace(Prog.Procs.back());
    return solveGuard(Dir, Gd, *G, Registry, nullptr);
  }

  Substitution subst(std::initializer_list<std::pair<const char *, Binding>>
                         Bindings) {
    Substitution Theta;
    for (const auto &[Name, B] : Bindings)
      Theta.bind(Name, B);
    return Theta;
  }

  LabelRegistry Registry;
  Program Prog;
  std::optional<Cfg> G;
};

/// The paper's §5.2 worked example: after S1: a := 2 and S2: b := 3 the
/// facts are [Y -> a, C -> 2] and [Y -> b, C -> 3].
TEST_F(DataflowTest, Section52ConstPropFacts) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      a := 2;
      b := 3;
      c := a;
      return c;
    }
  )",
                            Gd, Direction::D_Forward);

  // Before `b := 3` (node 4): exactly [Y->a, C->2].
  Substitution YA = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(2)}});
  Substitution YB = subst({{"Y", Binding::var("b")},
                           {"C", Binding::constant(3)}});
  EXPECT_EQ(Sol.AtNode[4].size(), 1u);
  EXPECT_TRUE(Sol.AtNode[4].count(YA));

  // Before `c := a` (node 5): both facts.
  EXPECT_EQ(Sol.AtNode[5].size(), 2u);
  EXPECT_TRUE(Sol.AtNode[5].count(YA));
  EXPECT_TRUE(Sol.AtNode[5].count(YB));

  // The entry node has no facts (no path has an earlier enabler).
  EXPECT_TRUE(Sol.AtNode[0].empty());
}

TEST_F(DataflowTest, FactsKilledByRedefinition) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      a := 2;
      a := x;
      x := a;
      return x;
    }
  )",
                            Gd, Direction::D_Forward);
  // After a := x (node 2) kills [Y->a,C->2]; node 3 sees nothing.
  EXPECT_TRUE(Sol.AtNode[3].empty());
}

TEST_F(DataflowTest, MergeIntersectsBranches) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      if x goto t else f;
    t:
      a := 1;
      if 1 goto join else join;
    f:
      a := 1;
      b := 2;
    join:
      return a;
    }
  )",
                            Gd, Direction::D_Forward);
  // At the join (node 7): a := 1 holds on both legs; b := 2 only on one.
  Substitution A1 = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(1)}});
  Substitution B2 = subst({{"Y", Binding::var("b")},
                           {"C", Binding::constant(2)}});
  EXPECT_TRUE(Sol.AtNode[7].count(A1));
  EXPECT_FALSE(Sol.AtNode[7].count(B2));
}

TEST_F(DataflowTest, LoopKillsFactsThatCrossBackEdge) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(n) {
      decl i;
      decl a;
      decl g;
      a := 7;
      i := 0;
    head:
      g := i < n;
      if g goto body else done;
    body:
      i := i + 1;
      if 1 goto head else head;
    done:
      return a;
    }
  )",
                            Gd, Direction::D_Forward);
  // [Y->a, C->7] survives the loop (a never redefined): it must hold at
  // the return (node 9) even though the loop's back edge merges in.
  Substitution A7 = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(7)}});
  EXPECT_TRUE(Sol.AtNode[9].count(A7));
  // [Y->i, C->0] must NOT survive into the loop body (i := i + 1 kills
  // it around the back edge).
  Substitution I0 = subst({{"Y", Binding::var("i")},
                           {"C", Binding::constant(0)}});
  EXPECT_FALSE(Sol.AtNode[7].count(I0));
  // But it does reach the loop head test on the first pass... the back
  // edge destroys it at the merge:
  EXPECT_FALSE(Sol.AtNode[5].count(I0));
}

TEST_F(DataflowTest, BackwardGuardFlowsFromExits) {
  // DAE-style guard: enabled by a later redefinition or return.
  Guard Gd{fAnd(fOr(fOr(stmtIs("X := ..."), stmtIs("X := new")),
                    stmtIs("return ...")),
                fNot(labelF("mayUse", {tExpr("X")}))),
           fNot(labelF("mayUse", {tExpr("X")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      a := 5;
      b := a;
      b := 7;
      return b;
    }
  )",
                            Gd, Direction::D_Backward);
  // At node 2 (`a := 5`): `a` is dead (b := a uses it... so NOT dead).
  Substitution XA = subst({{"X", Binding::var("a")}});
  EXPECT_FALSE(Sol.AtNode[2].count(XA));
  // At node 3 (`b := a`): b is redefined at node 4 without use: dead.
  Substitution XB = subst({{"X", Binding::var("b")}});
  EXPECT_TRUE(Sol.AtNode[3].count(XB));
  // Return nodes have no backward facts.
  EXPECT_TRUE(Sol.AtNode[5].empty());
}

TEST_F(DataflowTest, TrivialBackwardGuardHoldsAtNonExits) {
  Guard Gd{fTrue(), fFalse()};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      skip;
      x := x;
      return x;
    }
  )",
                            Gd, Direction::D_Backward);
  EXPECT_EQ(Sol.AtNode[0].size(), 1u); // the empty substitution
  EXPECT_EQ(Sol.AtNode[1].size(), 1u);
  EXPECT_TRUE(Sol.AtNode[2].empty()); // the return
}

TEST_F(DataflowTest, UnreachableNodesGetNoFacts) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(x) {
      decl a;
      a := 2;
      if 1 goto end else end;
      x := a;
    end:
      return x;
    }
  )",
                            Gd, Direction::D_Forward);
  EXPECT_TRUE(Sol.AtNode[3].empty()); // unreachable x := a
}

TEST_F(DataflowTest, FixpointIterationCountReported) {
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve("proc main(x) { decl a; a := 1; return a; }",
                            Gd, Direction::D_Forward);
  EXPECT_GE(Sol.Iterations, 3u);
}

/// The solve-shape counters are deterministic functions of the program
/// and the guard; pin them on the loop program above so a change of fact
/// representation cannot silently change what they count.
TEST_F(DataflowTest, SolveShapeCountersArePinned) {
  if (!support::telemetryCompiledIn())
    GTEST_SKIP() << "telemetry compiled out (-DCOBALT_TELEMETRY=OFF)";
  support::Telemetry T;
  support::TelemetryScope Scope(&T);
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(R"(
    proc main(n) {
      decl i;
      decl a;
      decl g;
      a := 7;
      i := 0;
    head:
      g := i < n;
      if g goto body else done;
    body:
      i := i + 1;
      if 1 goto head else head;
    done:
      return a;
    }
  )",
                            Gd, Direction::D_Forward);
  EXPECT_EQ(Sol.Iterations, 30u);
  EXPECT_EQ(T.Metrics.counter("dataflow.solves"), 1u);
  EXPECT_EQ(T.Metrics.counter("dataflow.fixpoint_iters"), 30u);
  EXPECT_EQ(T.Metrics.counter("dataflow.meet_dropped"), 2u);
  EXPECT_EQ(T.Metrics.counter("dataflow.psi2_dropped"), 1u);
  support::HistogramStats Sizes =
      T.Metrics.histogram("dataflow.subst_set_size");
  EXPECT_EQ(Sizes.Count, 10u);
  EXPECT_EQ(Sizes.Sum, 6.0);
  EXPECT_EQ(Sizes.Max, 1.0);

  // A backward (DAE-style) solve adds to the same counters.
  Guard Dae{fAnd(fOr(fOr(stmtIs("X := ..."), stmtIs("X := new")),
                     stmtIs("return ...")),
                 fNot(labelF("mayUse", {tExpr("X")}))),
            fNot(labelF("mayUse", {tExpr("X")}))};
  Sol = solve(R"(
    proc main(x) {
      decl a;
      decl b;
      a := 5;
      if x goto t else f;
    t:
      b := a;
      a := 1;
      if 1 goto join else join;
    f:
      b := 7;
    join:
      return b;
    }
  )",
              Dae, Direction::D_Backward);
  EXPECT_EQ(Sol.Iterations, 18u);
  EXPECT_EQ(T.Metrics.counter("dataflow.solves"), 2u);
  EXPECT_EQ(T.Metrics.counter("dataflow.fixpoint_iters"), 30u + 18u);
  EXPECT_EQ(T.Metrics.counter("dataflow.meet_dropped"), 2u + 0u);
  EXPECT_EQ(T.Metrics.counter("dataflow.psi2_dropped"), 1u + 2u);
  Sizes = T.Metrics.histogram("dataflow.subst_set_size");
  EXPECT_EQ(Sizes.Count, 10u + 9u);
  EXPECT_EQ(Sizes.Sum, 6.0 + 7.0);
}

/// More than 64 facts: fact ids span several bitset words, and the meet
/// and the ψ2 filter must drop facts in every word.
TEST_F(DataflowTest, UniverseSpanningSeveralWords) {
  // v0..v69 := 100..169 gives 70 facts [Y -> vK, C -> 100+K], ordered by
  // constant. One branch leg redefines v3 (word 0) and v66 (word 1).
  constexpr int NumVars = 70;
  std::string Text = "proc main(x) {\n";
  for (int K = 0; K < NumVars; ++K)
    Text += "  decl v" + std::to_string(K) + ";\n";
  for (int K = 0; K < NumVars; ++K)
    Text += "  v" + std::to_string(K) + " := " + std::to_string(100 + K) +
            ";\n";
  Text += "  if x goto t else f;\n"
          "t:\n"
          "  v3 := x;\n"
          "  v66 := x;\n"
          "  if 1 goto join else join;\n"
          "f:\n"
          "  skip;\n"
          "join:\n"
          "  return x;\n"
          "}\n";
  Guard Gd{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("Y")}))};
  GuardSolution Sol = solve(Text.c_str(), Gd, Direction::D_Forward);

  auto Fact = [&](int K) {
    return subst({{"Y", Binding::var("v" + std::to_string(K))},
                  {"C", Binding::constant(100 + K)}});
  };
  const int Branch = 2 * NumVars, Join = Branch + 5;
  EXPECT_EQ(Sol.AtNode[Branch].size(), 70u);
  EXPECT_EQ(Sol.AtNode[Join].size(), 68u);
  for (int K : {0, 3, 63, 64, 66, 69})
    EXPECT_EQ(Sol.AtNode[Join].count(Fact(K)), K == 3 || K == 66 ? 0u : 1u)
        << "v" << K;
  // Iteration yields the facts in ascending order across word borders.
  int Expected = 0;
  for (const Substitution &Theta : Sol.AtNode[Join]) {
    if (Expected == 3 || Expected == 66)
      ++Expected;
    EXPECT_EQ(Theta, Fact(Expected));
    ++Expected;
  }
  EXPECT_EQ(Expected, NumVars);
}

/// ψ2 reads only some of a fact's variables: facts with the same
/// projection share one memoized evaluation and must get the same
/// answer; a ψ2 variable no fact binds leaves the filter undeterminable,
/// which drops every fact.
TEST_F(DataflowTest, Psi2ProjectionMemo) {
  const char *Text = R"(
    proc main(x) {
      decl a;
      decl b;
      decl c;
      a := 1;
      b := 1;
      c := 2;
      skip;
      skip;
      return a;
    }
  )";
  Substitution A1 = subst({{"Y", Binding::var("a")},
                           {"C", Binding::constant(1)}});
  Substitution B1 = subst({{"Y", Binding::var("b")},
                           {"C", Binding::constant(1)}});
  Substitution C2 = subst({{"Y", Binding::var("c")},
                           {"C", Binding::constant(2)}});

  // ψ2 reads C only: [a, 1] and [b, 1] share the projection C = 1.
  Guard OnC{stmtIs("Y := C"), fNot(fEq(tExpr("C"), tExpr("2")))};
  GuardSolution Sol = solve(Text, OnC, Direction::D_Forward);
  EXPECT_EQ(Sol.AtNode[6].size(), 3u); // c := 2 generated it; no ψ2 yet
  EXPECT_TRUE(Sol.AtNode[6].count(C2));
  EXPECT_EQ(Sol.AtNode[7].size(), 2u); // the first skip dropped [c, 2]
  EXPECT_TRUE(Sol.AtNode[7].count(A1));
  EXPECT_TRUE(Sol.AtNode[7].count(B1));
  EXPECT_FALSE(Sol.AtNode[7].count(C2));

  // ψ2 reads W, which no fact binds: every fact dies at its first ψ2 node.
  Guard Unbound{stmtIs("Y := C"), fNot(labelF("mayDef", {tExpr("W")}))};
  Sol = solve(Text, Unbound, Direction::D_Forward);
  EXPECT_EQ(Sol.AtNode[4].size(), 1u); // [a, 1], generated just before
  EXPECT_TRUE(Sol.AtNode[4].count(A1));
  EXPECT_EQ(Sol.AtNode[5].size(), 1u); // [b, 1]; b := 1 dropped [a, 1]
  EXPECT_TRUE(Sol.AtNode[5].count(B1));
  EXPECT_EQ(Sol.AtNode[6].size(), 1u); // [c, 2]
  EXPECT_TRUE(Sol.AtNode[7].empty());
}

/// A computes-only ψ1 is node-independent: GEN is evaluated once and
/// shared by every live node, so the facts hold at every node but the
/// roots — the entry forward, the exits backward.
TEST_F(DataflowTest, NodeIndependentGuardHoldsEverywhereButRoots) {
  const char *Text = R"(
    proc main(x) {
      decl a;
      a := 2 + 3;
      if x goto t else f;
    t:
      a := 4 * 5;
      return a;
    f:
      return x;
    }
  )";
  Guard Gd{labelF("computes", {tExpr("C1 + C2"), tExpr("C3")}), fTrue()};
  Substitution TwoPlusFive = subst({{"C1", Binding::constant(2)},
                                    {"C2", Binding::constant(5)},
                                    {"C3", Binding::constant(7)}});
  for (Direction Dir : {Direction::D_Forward, Direction::D_Backward}) {
    SCOPED_TRACE(Dir == Direction::D_Forward ? "forward" : "backward");
    GuardSolution Sol = solve(Text, Gd, Dir);
    for (int I = 0; I < 6; ++I) {
      bool Root = Dir == Direction::D_Forward ? I == 0 : I == 4 || I == 5;
      // Constants {2, 3, 4, 5} give 16 (C1, C2) pairs, each folded to C3.
      EXPECT_EQ(Sol.AtNode[I].size(), Root ? 0u : 16u) << "node " << I;
      EXPECT_EQ(Sol.AtNode[I].count(TwoPlusFive), Root ? 0u : 1u);
    }
  }
}

} // namespace
