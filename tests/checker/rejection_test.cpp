//===- rejection_test.cpp - Buggy variants are rejected (E2) --------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E2 ("debugging benefit", §6): every deliberately broken
/// optimization variant must fail its soundness check, and the failing
/// obligation must localize the bug. A rejection is a Failed (Z3 found a
/// counterexample state) or an Unknown (conservatively rejected) — both
/// keep the unsound pass out of the compiler; the TCB never grows.
///
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"

#include "opts/Buggy.h"
#include "opts/Labels.h"
#include "opts/Optimizations.h"

#include <gtest/gtest.h>

using namespace cobalt;
using namespace cobalt::checker;

namespace {

class RejectionTest : public ::testing::TestWithParam<size_t> {
protected:
  void SetUp() override {
    for (const LabelDef &Def : opts::standardLabels())
      Registry.define(Def);
    Registry.declareAnalysisLabel("notTainted");
  }
  LabelRegistry Registry;
};

TEST_P(RejectionTest, BuggyVariantIsRejectedAtTheRightObligation) {
  opts::BuggyCase Case = opts::allBuggyOptimizations()[GetParam()];
  for (const LabelDef &Def : Case.Opt.Labels)
    Registry.define(Def); // custom labels carried by the variant
  SoundnessChecker SC(Registry, opts::allAnalyses());
  // Rejections may surface as "unknown" when the counterexample needs a
  // model over quantified arrays; a short timeout keeps the suite fast
  // and a conservative checker treats unknown as rejection anyway.
  SC.setTimeoutMs(4000);
  CheckReport R = SC.checkOptimization(Case.Opt);

  EXPECT_FALSE(R.Sound) << Case.Opt.Name
                        << " should have been rejected: "
                        << Case.Explanation;

  bool ExpectedObligationFailed = false;
  for (const ObligationResult &Ob : R.Obligations)
    if (!Ob.proven() &&
        Ob.Name.rfind(Case.FailingObligation, 0) == 0)
      ExpectedObligationFailed = true;
  EXPECT_TRUE(ExpectedObligationFailed)
      << Case.Opt.Name << ": expected a failure at "
      << Case.FailingObligation << "; got " << R.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllBuggyVariants, RejectionTest,
    ::testing::Range<size_t>(0, 10),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return cobalt::opts::allBuggyOptimizations()[Info.param].Opt.Name;
    });

TEST(RejectionAnalysisTest, BuggyTaintAnalysisIsRejected) {
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  opts::BuggyAnalysisCase Case = opts::buggyTaintAnalysis();
  for (const LabelDef &Def : Case.Analysis.Labels)
    Registry.define(Def);
  SoundnessChecker SC(Registry);
  SC.setTimeoutMs(4000);
  CheckReport R = SC.checkAnalysis(Case.Analysis);
  EXPECT_FALSE(R.Sound) << Case.Explanation;
  bool ExpectedObligationFailed = false;
  for (const ObligationResult &Ob : R.Obligations)
    if (!Ob.proven() && Ob.Name.rfind(Case.FailingObligation, 0) == 0)
      ExpectedObligationFailed = true;
  EXPECT_TRUE(ExpectedObligationFailed) << R.str();
}

TEST(RejectionDetailTest, CounterexampleContextIsProducedWhenSat) {
  // At least some rejections should come back as genuine sat results
  // with a model (the §7 "counterexample context"). Collect across the
  // suite and require one.
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  //
  // The solver's preamble (solve-eqs, elim-uncnstr) eliminates constants;
  // its model converter must bring them back, so the model has to name
  // a pattern variable or a state component, not only solver leftovers.
  SoundnessChecker SC(Registry, opts::allAnalyses());
  SC.setTimeoutMs(4000);
  bool SawModel = false;
  std::string Model;
  for (const opts::BuggyCase &Case : opts::allBuggyOptimizations()) {
    for (const LabelDef &Def : Case.Opt.Labels)
      Registry.define(Def);
    CheckReport R = SC.checkOptimization(Case.Opt);
    for (const ObligationResult &Ob : R.Obligations)
      if (Ob.St == ObligationResult::Status::OS_Failed &&
          !Ob.Counterexample.empty()) {
        SawModel = true;
        Model = Ob.Counterexample;
      }
    if (SawModel)
      break;
  }
  ASSERT_TRUE(SawModel);
  // The model reads "name = value; name = value; ...".
  bool NamesPatternOrState = false;
  for (const char *Prefix : {"mv!", "mi!", "mc!", "me!", "mp!"})
    NamesPatternOrState |= Model.rfind(Prefix, 0) == 0 ||
                           Model.find(std::string("; ") + Prefix) !=
                               std::string::npos;
  for (const char *Part : {".ix = ", ".env = ", ".scope = ", ".sto = ",
                           ".alloc = "})
    NamesPatternOrState |= Model.find(Part) != std::string::npos;
  EXPECT_TRUE(NamesPatternOrState) << Model;
}

TEST(RejectionDetailTest, FixedVersionsOfEveryBuggyVariantAreSound) {
  // The pairing that makes E2 meaningful: each bug has a shipped, fixed
  // counterpart that *is* proven sound (checked exhaustively in
  // soundness_test; spot-check the two §6-style stars here).
  LabelRegistry Registry;
  for (const LabelDef &Def : opts::standardLabels())
    Registry.define(Def);
  Registry.declareAnalysisLabel("notTainted");
  SoundnessChecker SC(Registry, opts::allAnalyses());
  EXPECT_TRUE(SC.checkOptimization(opts::loadCse()).Sound);
  EXPECT_TRUE(SC.checkOptimization(opts::storeForward()).Sound);
}

} // namespace
