//===- cobalt_parser_test.cpp - The textual Cobalt front-end --------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CobaltParser.h"

#include "core/Builder.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::ir;

namespace {

TEST(CobaltParserTest, ConstPropFromText) {
  CobaltModule M = parseCobaltOrDie(R"(
    label syntacticDef(X) :=
      case currStmt of
        decl X => true
      | X := E9 => true
      | X := new => true
      else => false
      endcase;

    label mayDef(X) :=
      case currStmt of
        *Y9 := E9 => true
      | Y9 := P9(_) => true
      else => syntacticDef(X)
      endcase;

    optimization const_prop :=
      forward
      stmt(Y := C)
      followed by !mayDef(Y)
      until X := Y => X := C
      with witness eta(Y) = eta(C);
  )");
  ASSERT_EQ(M.Optimizations.size(), 1u);
  ASSERT_EQ(M.Labels.size(), 2u);
  const Optimization &O = M.Optimizations[0];
  EXPECT_EQ(O.Name, "const_prop");
  EXPECT_EQ(O.Pat.Dir, Direction::D_Forward);
  EXPECT_EQ(O.Pat.From, parseStmtPatternOrDie("X := Y"));
  EXPECT_EQ(O.Pat.To, parseStmtPatternOrDie("X := C"));
  EXPECT_EQ(validateOptimization(O), std::nullopt);
  // The guard structure matches the builder version.
  EXPECT_EQ(O.Pat.G.Psi1->str(), stmtIs("Y := C")->str());
  EXPECT_EQ(O.Pat.G.Psi2->str(),
            fNot(labelF("mayDef", {tExpr("Y")}))->str());
  EXPECT_EQ(O.Pat.W->str(), wEq(curEval("Y"), curEval("C"))->str());
}

TEST(CobaltParserTest, BackwardDaeFromText) {
  CobaltModule M = parseCobaltOrDie(R"(
    label mayUse(X) := case currStmt of Y9 := X => true
                       else => true endcase;

    optimization dae :=
      backward
      (stmt(X := ...) || stmt(X := new) || stmt(return ...)) && !mayUse(X)
      preceded by !mayUse(X) && !stmt(decl X)
      since X := E => skip
      with witness eta_old/X = eta_new/X;
  )");
  ASSERT_EQ(M.Optimizations.size(), 1u);
  const Optimization &O = M.Optimizations[0];
  EXPECT_EQ(O.Pat.Dir, Direction::D_Backward);
  EXPECT_TRUE(O.Pat.To.is<SkipStmt>());
  EXPECT_EQ(O.Pat.W->str(), eqUpTo("X")->str());
}

TEST(CobaltParserTest, AnalysisFromText) {
  CobaltModule M = parseCobaltOrDie(R"(
    analysis taint_analysis :=
      stmt(decl X)
      followed by !stmt(_ := &X)
      defines notTainted(X)
      with witness notPointedTo(X);
  )");
  ASSERT_EQ(M.Analyses.size(), 1u);
  const PureAnalysis &A = M.Analyses[0];
  EXPECT_EQ(A.LabelName, "notTainted");
  ASSERT_EQ(A.LabelArgs.size(), 1u);
  EXPECT_EQ(validateAnalysis(A), std::nullopt);
}

TEST(CobaltParserTest, StateEqualityWitness) {
  CobaltModule M = parseCobaltOrDie(R"(
    optimization self_assign :=
      backward
      true
      preceded by false
      since X := X => skip
      with witness eta_old = eta_new;
  )");
  EXPECT_EQ(M.Optimizations[0].Pat.W->str(), wStateEq()->str());
}

TEST(CobaltParserTest, TermEqualityInFormulas) {
  CobaltModule M = parseCobaltOrDie(R"(
    optimization load_cse :=
      forward
      stmt(X := *P) && !(X = P)
      followed by !mayDefAny(X)
      until Y := *P => Y := X
      with witness eta(X) = eta(*P);
  )");
  const Optimization &O = M.Optimizations[0];
  std::string Psi1 = O.Pat.G.Psi1->str();
  EXPECT_NE(Psi1.find("?X = ?P"), std::string::npos) << Psi1;
}

TEST(CobaltParserTest, ErrorsAreReportedWithLocations) {
  DiagnosticEngine Diags;
  auto M = parseCobalt("optimization broken := forwards stmt(Y := C)",
                       Diags);
  EXPECT_FALSE(M.has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(CobaltParserTest, ValidationErrorsSurface) {
  DiagnosticEngine Diags;
  // ψ2 uses a variable ψ1 does not bind.
  auto M = parseCobalt(R"(
    optimization broken :=
      forward
      stmt(Y := C)
      followed by !stmt(Q := ...)
      until X := Y => X := C
      with witness eta(Y) = eta(C);
  )",
                       Diags);
  EXPECT_FALSE(M.has_value());
  EXPECT_NE(Diags.str().find("Q"), std::string::npos);
}

TEST(CobaltParserTest, MultipleDefinitionsShareLabels) {
  CobaltModule M = parseCobaltOrDie(R"(
    label isSkip() := case currStmt of skip => true else => false endcase;

    optimization a := forward stmt(Y := C) followed by !isSkip()
      until X := Y => X := C with witness eta(Y) = eta(C);

    optimization b := forward stmt(Y := C) followed by true
      until X := Y => X := C with witness eta(Y) = eta(C);
  )");
  EXPECT_EQ(M.Optimizations.size(), 2u);
  EXPECT_EQ(M.Optimizations[0].Labels.size(), 1u);
  EXPECT_EQ(M.Optimizations[1].Labels.size(), 1u);
}

TEST(CobaltParserTest, DuplicateDefinitionNamesRejected) {
  // Requests name the definition to prove, so analyses and optimizations
  // share one namespace and a second use of a name is an input error.
  for (const char *Text : {R"(
    optimization a := forward stmt(Y := C) followed by true
      until X := Y => X := C with witness eta(Y) = eta(C);
    optimization a := backward true preceded by false
      since X := C => skip with witness eta_old = eta_new;
  )",
                           R"(
    analysis a := stmt(decl X) followed by !stmt(_ := &X)
      defines notTainted(X) with witness notPointedTo(X);
    optimization a := forward stmt(Y := C) followed by true
      until X := Y => X := C with witness eta(Y) = eta(C);
  )"}) {
    DiagnosticEngine Diags;
    EXPECT_FALSE(parseCobalt(Text, Diags).has_value()) << Text;
    EXPECT_NE(Diags.str().find("a definition named 'a' already exists"),
              std::string::npos)
        << Diags.str();
  }
}

} // namespace
