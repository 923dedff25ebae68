//===- Soundness.cpp ------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "checker/Soundness.h"

#include "checker/Encoder.h"
#include "checker/Obligations.h"
#include "checker/PatternEncoder.h"
#include "checker/ProverWorkerPool.h"
#include "ir/Printer.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

using namespace cobalt;
using namespace cobalt::checker;
using namespace cobalt::ir;
using support::ErrorKind;

std::string CheckReport::str() const {
  std::ostringstream Out;
  Out << Name << ": ";
  switch (V) {
  case Verdict::V_Sound:
    Out << "SOUND";
    break;
  case Verdict::V_Unsound:
    Out << "UNSOUND";
    break;
  case Verdict::V_Unproven:
    Out << "NOT PROVEN [" << support::errorKindName(Degradation) << "]";
    break;
  }
  if (CacheHit)
    Out << " (cached)";
  Out << " (";
  for (size_t I = 0; I < Obligations.size(); ++I) {
    if (I)
      Out << ", ";
    const ObligationResult &R = Obligations[I];
    Out << R.Name << "=";
    switch (R.St) {
    case ObligationResult::Status::OS_Proven:
      Out << "ok";
      break;
    case ObligationResult::Status::OS_Failed:
      Out << "FAIL";
      break;
    case ObligationResult::Status::OS_Unknown:
      Out << (R.Err.Kind == ErrorKind::EK_ProverTimeout ? "TIMEOUT"
              : R.Err.Kind == ErrorKind::EK_ProverResourceOut
                  ? "RESOURCE"
                  : "UNKNOWN");
      break;
    }
  }
  Out << ")";
  if (!AssumedAnalyses.empty()) {
    Out << " assuming sound:";
    for (const std::string &A : AssumedAnalyses)
      Out << " " << A;
  }
  return Out.str();
}

namespace {

/// Progress of a statement independent of its index: "the statement can
/// execute from this state".
z3::expr stepDefinedOnly(Encoder &Enc, const ZState &S, const z3::expr &St,
                         const std::string &Prefix) {
  return Enc.encodeStep(S, St, Prefix).Defined;
}

/// The statement-kind case split. Obligations over an arbitrary region
/// statement are checked once per kind with a statement of that shape
/// (fresh fields). This mirrors how the paper's hand proofs proceed, lets
/// Z3 discharge each case without a top-level datatype split, and makes
/// failures self-localizing ("F2[assign] failed").
const char *StmtKindTags[] = {"decl", "skip",   "assign", "new",
                              "call", "branch", "return"};

/// The result recorded for obligations skipped because the check's total
/// wall-clock budget ran out before they were attempted.
ObligationResult budgetExhausted(const std::string &Name) {
  ObligationResult R;
  R.Name = Name;
  R.St = ObligationResult::Status::OS_Unknown;
  R.Err = support::Error(ErrorKind::EK_ProverTimeout,
                         "total budget exhausted before this obligation");
  return R;
}

/// Derives the three-valued verdict and the degradation kind from the
/// per-obligation results.
void finalizeVerdict(CheckReport &Report) {
  bool AnyFailed = false;
  ErrorKind Deg = ErrorKind::EK_None;
  for (const ObligationResult &R : Report.Obligations) {
    if (R.St == ObligationResult::Status::OS_Failed)
      AnyFailed = true;
    else if (R.St == ObligationResult::Status::OS_Unknown &&
             Deg == ErrorKind::EK_None)
      Deg = R.Err.Kind == ErrorKind::EK_None ? ErrorKind::EK_ProverUnknown
                                             : R.Err.Kind;
  }
  Report.Degradation = Deg;
  if (AnyFailed)
    Report.V = CheckReport::Verdict::V_Unsound;
  else if (Deg != ErrorKind::EK_None || Report.Obligations.empty())
    Report.V = CheckReport::Verdict::V_Unproven;
  else
    Report.V = CheckReport::Verdict::V_Sound;
  Report.Sound = Report.V == CheckReport::Verdict::V_Sound;
}

//===----------------------------------------------------------------------===//
// Fingerprinting (verdict cache keys).
//===----------------------------------------------------------------------===//

/// FNV-1a over the bytes of \p S plus a separator, folded into \p H.
/// Definitions are fingerprinted through their printed forms — the
/// printers are total over the formula/witness/IR languages, so two
/// definitions collide only if they are structurally identical (or on a
/// genuine 64-bit hash collision, which at a dozen optimizations is
/// negligible).
void hashStr(uint64_t &H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  H ^= 0x1f;
  H *= 0x100000001b3ull;
}

void hashLabelDefs(uint64_t &H, const std::vector<LabelDef> &Defs) {
  for (const LabelDef &D : Defs) {
    hashStr(H, D.Name);
    for (const auto &Param : D.Params) {
      hashStr(H, Param.first);
      hashStr(H, std::string(1, static_cast<char>(
                                    'A' + static_cast<int>(Param.second))));
    }
    hashStr(H, D.Body ? D.Body->str() : "<null>");
  }
}

void hashGuardWitness(uint64_t &H, const Guard &G, const WitnessPtr &W) {
  hashStr(H, G.Psi1 ? G.Psi1->str() : "<null>");
  hashStr(H, G.Psi2 ? G.Psi2->str() : "<null>");
  hashStr(H, W ? W->str() : "<null>");
}

void hashAnalysisDef(uint64_t &H, const PureAnalysis &A) {
  hashStr(H, A.Name);
  hashStr(H, A.LabelName);
  for (const Term &T : A.LabelArgs)
    hashStr(H, toString(T));
  hashGuardWitness(H, A.G, A.W);
  hashLabelDefs(H, A.Labels);
}

z3::expr makeStmtOfKind(Encoder &Enc, const std::string &Tag) {
  if (Tag == "decl")
    return Enc.SDecl(Enc.freshVar("kd"));
  if (Tag == "skip")
    return Enc.SSkip();
  if (Tag == "assign")
    return Enc.SAssign(Enc.freshLhs("kl"), Enc.freshExpr("kr"));
  if (Tag == "new")
    return Enc.SNew(Enc.freshVar("kn"));
  if (Tag == "call")
    return Enc.SCall(Enc.freshVar("kt"), Enc.freshProc("kp"),
                     Enc.freshBase("ka"));
  if (Tag == "branch")
    return Enc.SBranch(Enc.freshBase("kb"), Enc.freshInt("ki"),
                       Enc.freshInt("kj"));
  return Enc.SReturn(Enc.freshVar("kv"));
}

//===----------------------------------------------------------------------===//
// Cached-verdict serialization helpers.
//===----------------------------------------------------------------------===//

std::string escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\r')
      Out += "\\r";
    else
      Out += C;
  }
  return Out;
}

std::string unescapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I < S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    char N = S[++I];
    Out += N == 'n' ? '\n' : N == 'r' ? '\r' : N;
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cached-verdict serialization (the persistent cache's value format).
//===----------------------------------------------------------------------===//

std::string checker::serializeCheckReport(const CheckReport &R) {
  std::ostringstream Out;
  Out << "report 2\n";
  Out << "name " << escapeLine(R.Name) << "\n";
  Out << "verdict "
      << (R.V == CheckReport::Verdict::V_Sound     ? "sound"
          : R.V == CheckReport::Verdict::V_Unsound ? "unsound"
                                                   : "unproven")
      << "\n";
  Out << "degradation " << support::errorKindName(R.Degradation) << "\n";
  for (const std::string &A : R.AssumedAnalyses)
    Out << "assumed " << escapeLine(A) << "\n";
  for (const ObligationResult &Ob : R.Obligations) {
    Out << "obligation " << escapeLine(Ob.Name) << "\n";
    Out << " status "
        << (Ob.St == ObligationResult::Status::OS_Proven   ? "proven"
            : Ob.St == ObligationResult::Status::OS_Failed ? "failed"
                                                           : "unknown")
        << "\n";
    Out << " errkind " << support::errorKindName(Ob.Err.Kind) << "\n";
    if (!Ob.Err.Message.empty())
      Out << " errmsg " << escapeLine(Ob.Err.Message) << "\n";
    Out << " attempts " << Ob.Attempts << "\n";
    Out << " rlimit " << Ob.RlimitSpent << "\n";
    if (!Ob.Counterexample.empty())
      Out << " cex " << escapeLine(Ob.Counterexample) << "\n";
  }
  return Out.str();
}

std::optional<CheckReport>
checker::deserializeCheckReport(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "report 2")
    return std::nullopt;

  CheckReport R;
  ObligationResult *Cur = nullptr;
  bool SawName = false, SawVerdict = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.front() == ' ')
      Line.erase(Line.begin());
    size_t Sp = Line.find(' ');
    std::string Key = Line.substr(0, Sp);
    std::string Val = Sp == std::string::npos ? "" : Line.substr(Sp + 1);

    if (Key == "name") {
      R.Name = unescapeLine(Val);
      SawName = true;
    } else if (Key == "verdict") {
      if (Val == "sound")
        R.V = CheckReport::Verdict::V_Sound;
      else if (Val == "unsound")
        R.V = CheckReport::Verdict::V_Unsound;
      else if (Val == "unproven")
        R.V = CheckReport::Verdict::V_Unproven;
      else
        return std::nullopt;
      SawVerdict = true;
    } else if (Key == "degradation") {
      R.Degradation = support::errorKindFromName(Val);
    } else if (Key == "assumed") {
      R.AssumedAnalyses.push_back(unescapeLine(Val));
    } else if (Key == "obligation") {
      R.Obligations.emplace_back();
      Cur = &R.Obligations.back();
      Cur->Name = unescapeLine(Val);
      Cur->St = ObligationResult::Status::OS_Unknown;
    } else if (!Cur) {
      return std::nullopt; // sub-field outside any obligation
    } else if (Key == "status") {
      if (Val == "proven")
        Cur->St = ObligationResult::Status::OS_Proven;
      else if (Val == "failed")
        Cur->St = ObligationResult::Status::OS_Failed;
      else if (Val == "unknown")
        Cur->St = ObligationResult::Status::OS_Unknown;
      else
        return std::nullopt;
    } else if (Key == "errkind") {
      Cur->Err.Kind = support::errorKindFromName(Val);
    } else if (Key == "errmsg") {
      Cur->Err.Message = unescapeLine(Val);
    } else if (Key == "attempts") {
      Cur->Attempts =
          static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
    } else if (Key == "rlimit") {
      Cur->RlimitSpent = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Key == "cex") {
      Cur->Counterexample = unescapeLine(Val);
    } else {
      return std::nullopt; // unknown field: treat the entry as a miss
    }
  }
  if (!SawName || !SawVerdict)
    return std::nullopt;
  R.Sound = R.V == CheckReport::Verdict::V_Sound;
  return R;
}

//===----------------------------------------------------------------------===//
// Obligation-result serialization (the worker pool's response frames).
//===----------------------------------------------------------------------===//

std::string checker::serializeObligationResult(const ObligationResult &R) {
  std::ostringstream Out;
  Out << "obresult 1\n";
  Out << "name " << escapeLine(R.Name) << "\n";
  Out << "status "
      << (R.St == ObligationResult::Status::OS_Proven   ? "proven"
          : R.St == ObligationResult::Status::OS_Failed ? "failed"
                                                        : "unknown")
      << "\n";
  Out << "errkind " << support::errorKindName(R.Err.Kind) << "\n";
  if (!R.Err.Message.empty())
    Out << "errmsg " << escapeLine(R.Err.Message) << "\n";
  Out << "seconds " << R.Seconds << "\n";
  Out << "attempts " << R.Attempts << "\n";
  Out << "rlimit " << R.RlimitSpent << "\n";
  if (!R.Counterexample.empty())
    Out << "cex " << escapeLine(R.Counterexample) << "\n";
  return Out.str();
}

std::optional<ObligationResult>
checker::deserializeObligationResult(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "obresult 1")
    return std::nullopt;

  ObligationResult R;
  R.St = ObligationResult::Status::OS_Unknown;
  bool SawName = false, SawStatus = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Sp = Line.find(' ');
    std::string Key = Line.substr(0, Sp);
    std::string Val = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    if (Key == "name") {
      R.Name = unescapeLine(Val);
      SawName = true;
    } else if (Key == "status") {
      if (Val == "proven")
        R.St = ObligationResult::Status::OS_Proven;
      else if (Val == "failed")
        R.St = ObligationResult::Status::OS_Failed;
      else if (Val == "unknown")
        R.St = ObligationResult::Status::OS_Unknown;
      else
        return std::nullopt;
      SawStatus = true;
    } else if (Key == "errkind") {
      R.Err.Kind = support::errorKindFromName(Val);
    } else if (Key == "errmsg") {
      R.Err.Message = unescapeLine(Val);
    } else if (Key == "seconds") {
      R.Seconds = std::strtod(Val.c_str(), nullptr);
    } else if (Key == "attempts") {
      R.Attempts =
          static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
    } else if (Key == "rlimit") {
      R.RlimitSpent = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Key == "cex") {
      R.Counterexample = unescapeLine(Val);
    } else {
      return std::nullopt; // unknown field: the frame is not trusted
    }
  }
  if (!SawName || !SawStatus)
    return std::nullopt;
  return R;
}

//===----------------------------------------------------------------------===//
// SoundnessChecker: prepared checks and their execution.
//===----------------------------------------------------------------------===//

/// One independent prover job: a named obligation whose Z3 query is built
/// lazily (on whichever thread executes it) from a fresh ObligationBuilder.
struct SoundnessChecker::ObligationTask {
  std::string Name;
  /// Stable job fingerprint (definition key ⊕ obligation name) used to
  /// key fault-injection decisions; see ScopedFaultKey.
  uint64_t FaultKey = 0;
  std::function<z3::expr(ObligationBuilder &)> Build;
  ObligationResult Result;
};

/// One definition's obligations plus its report skeleton. The closures in
/// Tasks capture pointers into the caller's definition (which outlives
/// the check call) and read the shared analysis table through ByLabel.
struct SoundnessChecker::PreparedCheck {
  uint64_t Key = 0;
  bool CacheHit = false;
  /// Rule/analysis fingerprints cover everything their obligations read,
  /// so those verdicts always cache; caller-assembled ObligationSets opt
  /// in only when their fingerprint makes the same promise.
  bool Cacheable = true;
  CheckReport Report;
  std::shared_ptr<std::map<std::string, const PureAnalysis *>> ByLabel;
  std::vector<ObligationTask> Tasks;
  std::chrono::steady_clock::time_point Start;
};

SoundnessChecker::SoundnessChecker(const LabelRegistry &Registry,
                                   std::vector<PureAnalysis> Analyses)
    : Registry(Registry), Analyses(std::move(Analyses)),
      Disk(std::make_shared<support::PersistentCache>()) {}

uint64_t
SoundnessChecker::fingerprintOptimization(const Optimization &O) const {
  uint64_t H = 0xcbf29ce484222325ull;
  hashStr(H, "optimization");
  hashStr(H, O.Name);
  hashStr(H, O.Pat.Dir == Direction::D_Forward ? "fwd" : "bwd");
  hashStr(H, ir::toString(O.Pat.From));
  hashStr(H, ir::toString(O.Pat.To));
  hashGuardWitness(H, O.Pat.G, O.Pat.W);
  hashLabelDefs(H, O.Labels);
  // Obligations also depend on every registered predicate and on the
  // analysis witnesses, so fold the whole context in.
  hashLabelDefs(H, Registry.predicates());
  for (const PureAnalysis &A : Analyses)
    hashAnalysisDef(H, A);
  return H;
}

uint64_t SoundnessChecker::fingerprintAnalysis(const PureAnalysis &A) const {
  uint64_t H = 0xcbf29ce484222325ull;
  hashStr(H, "analysis");
  hashAnalysisDef(H, A);
  hashLabelDefs(H, Registry.predicates());
  for (const PureAnalysis &Other : Analyses)
    hashAnalysisDef(H, Other);
  return H;
}

bool SoundnessChecker::setCacheDir(const std::string &Dir) {
  // Version bumps orphan (rather than misread) old entries; bump it when
  // serializeCheckReport's format, the fingerprint recipe, or the
  // PersistentCache entry layout changes.
  // v2: per-obligation rlimit spend.
  // v3: checksummed self-healing cache entries — pre-checksum entries
  //     would all be quarantined as corrupt, so orphan them instead.
  return Disk->open(Dir, "verdict", /*Version=*/3);
}

void SoundnessChecker::setSharedCache(
    std::shared_ptr<support::PersistentCache> Cache) {
  Disk = Cache ? std::move(Cache)
               : std::make_shared<support::PersistentCache>();
}

void SoundnessChecker::clearCache() {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  Cache.clear();
}

bool SoundnessChecker::cacheLookup(uint64_t Key, CheckReport &Out) {
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      Out = It->second;
      ++CacheHits;
      support::metricAdd("checker.cache.hits");
      return true;
    }
  }
  if (Disk->enabled()) {
    if (std::optional<std::string> Blob = Disk->load(Key)) {
      if (std::optional<CheckReport> R = deserializeCheckReport(*Blob)) {
        std::lock_guard<std::mutex> Lock(CacheMutex);
        Cache[Key] = *R;
        ++CacheHits;
        support::metricAdd("checker.cache.hits");
        Out = std::move(*R);
        return true;
      }
    }
  }
  support::metricAdd("checker.cache.misses");
  return false;
}

void SoundnessChecker::cacheStore(uint64_t Key, const CheckReport &R) {
  // Only definitive verdicts are cacheable: an unproven verdict reflects
  // transient prover limits, and a rerun (possibly with a larger budget)
  // may well decide it.
  if (R.V == CheckReport::Verdict::V_Unproven)
    return;
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    Cache[Key] = R;
  }
  if (Disk->enabled())
    Disk->store(Key, serializeCheckReport(R));
}

//===----------------------------------------------------------------------===//
// Optimization obligations.
//===----------------------------------------------------------------------===//

SoundnessChecker::PreparedCheck
SoundnessChecker::prepareOptimization(const Optimization &O) {
  PreparedCheck PC;
  PC.Key = fingerprintOptimization(O);
  PC.Report.Name = O.Name;
  if (Policy.CacheVerdicts && cacheLookup(PC.Key, PC.Report)) {
    PC.Report.CacheHit = true;
    PC.Report.TotalSeconds = 0.0;
    PC.CacheHit = true;
    return PC;
  }

  PC.ByLabel =
      std::make_shared<std::map<std::string, const PureAnalysis *>>();
  for (const PureAnalysis &A : Analyses)
    (*PC.ByLabel)[A.LabelName] = &A;

  // Record the analysis labels the guard mentions: the soundness
  // guarantee is conditional on those analyses (checked separately).
  {
    auto Scan = [&](const FormulaPtr &F, auto &&ScanRef) -> void {
      if (!F)
        return;
      if (F->K == Formula::Kind::FK_Label &&
          Registry.isAnalysisLabel(F->LabelName)) {
        auto It = PC.ByLabel->find(F->LabelName);
        std::string Dep = It != PC.ByLabel->end()
                              ? It->second->Name
                              : F->LabelName + " (unknown)";
        if (std::find(PC.Report.AssumedAnalyses.begin(),
                      PC.Report.AssumedAnalyses.end(),
                      Dep) == PC.Report.AssumedAnalyses.end())
          PC.Report.AssumedAnalyses.push_back(Dep);
      }
      for (const FormulaPtr &Kid : F->Kids)
        ScanRef(Kid, ScanRef);
      for (const CaseArm &Arm : F->Arms)
        ScanRef(Arm.Body, ScanRef);
      if (F->ElseBody)
        ScanRef(F->ElseBody, ScanRef);
      // Recurse through predicate-label bodies for indirect uses.
      if (F->K == Formula::Kind::FK_Label)
        if (const LabelDef *Def = Registry.findPredicate(F->LabelName))
          ScanRef(Def->Body, ScanRef);
    };
    Scan(O.Pat.G.Psi1, Scan);
    Scan(O.Pat.G.Psi2, Scan);
  }

  // The task closures capture this pointer: the definition lives in the
  // caller and must outlive runPrepared (checkOptimization/checkSuite
  // take it by reference for exactly this duration).
  const TransformationPattern *Pat = &O.Pat;
  bool Forward = Pat->Dir == Direction::D_Forward;
  bool Insertion = Pat->From.is<SkipStmt>() && !Pat->To.is<SkipStmt>();

  auto AddTask = [&](const std::string &Name,
                     std::function<z3::expr(ObligationBuilder &)> Build) {
    ObligationTask T;
    T.Name = Name;
    T.FaultKey = PC.Key;
    hashStr(T.FaultKey, Name);
    T.FaultKey ^= FaultKeySalt;
    T.Build = std::move(Build);
    PC.Tasks.push_back(std::move(T));
  };

  // Obligations quantifying over an arbitrary region statement run once
  // per statement kind (see makeStmtOfKind).
  auto AddSplitTask =
      [&](const std::string &Name,
          const std::function<z3::expr(ObligationBuilder &,
                                       const z3::expr &)> &Build) {
        for (const char *Tag : StmtKindTags) {
          std::string TagStr = Tag;
          AddTask(Name + "[" + Tag + "]",
                  [Build, TagStr](ObligationBuilder &B) {
                    z3::expr St = makeStmtOfKind(B.Enc, TagStr);
                    return Build(B, St);
                  });
        }
      };

  if (Forward) {
    // F1: the enabling statement establishes the witness.
    AddSplitTask("F1", [Pat](ObligationBuilder &B, const z3::expr &St) {
      ZState Eta = B.Enc.freshState("eta");
      B.wfHyp(Eta);
      B.hyp(B.PE.formula(*Pat->G.Psi1, St, Eta, B.Env, B.Hyps));
      ZState Post = B.stepHyp(Eta, St, "p1");
      B.wfHyp(Post);
      return B.PE.witness(*Pat->W, &Post, nullptr, nullptr, B.Env);
    });

    // F2: innocuous statements preserve the witness.
    AddSplitTask("F2", [Pat](ObligationBuilder &B, const z3::expr &St) {
      ZState Eta = B.Enc.freshState("eta");
      B.wfHyp(Eta);
      B.hyp(B.PE.witness(*Pat->W, &Eta, nullptr, nullptr, B.Env));
      B.hyp(B.PE.formula(*Pat->G.Psi2, St, Eta, B.Env, B.Hyps));
      ZState Post = B.stepHyp(Eta, St, "p2");
      B.wfHyp(Post);
      return B.PE.witness(*Pat->W, &Post, nullptr, nullptr, B.Env);
    });

    // F3: under the witness, s' steps exactly like s (and cannot be
    // stuck when s is not — the footnote-6 progress side).
    AddTask("F3", [Pat](ObligationBuilder &B) {
      ZState Eta = B.Enc.freshState("eta");
      z3::expr StS = B.Enc.buildStmt(Pat->From, B.Env);
      z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
      B.wfHyp(Eta);
      B.hyp(B.PE.witness(*Pat->W, &Eta, nullptr, nullptr, B.Env));
      ZState Post = B.stepHyp(Eta, StS, "ps");
      ZStep StepT = B.Enc.encodeStep(Eta, StT, "pt");
      B.hypAll(StepT.Constraints);
      return StepT.Defined && B.Enc.stateEq(StepT.Post, Post);
    });
  } else {
    // B1: executing s and s' from a common state establishes the witness.
    AddTask("B1", [Pat](ObligationBuilder &B) {
      ZState Eta = B.Enc.freshState("eta");
      z3::expr StS = B.Enc.buildStmt(Pat->From, B.Env);
      z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
      B.wfHyp(Eta);
      ZState Old = B.stepHyp(Eta, StS, "old");
      ZState New = B.stepHyp(Eta, StT, "new");
      return B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env);
    });

    // B2: innocuous statements preserve the witness, and the transformed
    // trace can always step along (progress of the simulation).
    AddSplitTask("B2", [Pat](ObligationBuilder &B, const z3::expr &St) {
      ZState Old = B.Enc.freshState("old");
      ZState New = B.Enc.freshState("new");
      B.wfHyp(Old);
      B.wfHyp(New);
      B.hyp(B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env));
      B.hyp(B.PE.formula(*Pat->G.Psi2, St, Old, B.Env, B.Hyps));
      ZState OldPost = B.stepHyp(Old, St, "oldp");
      B.wfHyp(OldPost);
      ZStep NewStep = B.Enc.encodeStep(New, St, "newp");
      B.hypAll(NewStep.Constraints);
      return NewStep.Defined &&
             B.PE.witness(*Pat->W, nullptr, &OldPost, &NewStep.Post,
                          B.Env);
    });

    // B3: the enabling statement re-unifies the traces.
    AddSplitTask("B3", [Pat](ObligationBuilder &B, const z3::expr &St) {
      ZState Old = B.Enc.freshState("old");
      ZState New = B.Enc.freshState("new");
      B.wfHyp(Old);
      B.wfHyp(New);
      B.hyp(B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env));
      B.hyp(B.PE.formula(*Pat->G.Psi1, St, Old, B.Env, B.Hyps));
      ZState OldPost = B.stepHyp(Old, St, "oldp");
      ZStep NewStep = B.Enc.encodeStep(New, St, "newp");
      B.hypAll(NewStep.Constraints);
      return NewStep.Defined && B.Enc.stateEq(NewStep.Post, OldPost);
    });

    if (!Insertion) {
      // B4: s' cannot get stuck when s steps.
      AddTask("B4", [Pat](ObligationBuilder &B) {
        ZState Eta = B.Enc.freshState("eta");
        z3::expr StS = B.Enc.buildStmt(Pat->From, B.Env);
        z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
        B.wfHyp(Eta);
        B.hyp(stepDefinedOnly(B.Enc, Eta, StS, "ps"));
        return stepDefinedOnly(B.Enc, Eta, StT, "pt");
      });
    } else {
      // Insertions (s = skip) cannot establish progress locally; instead
      // the hand-proven meta-theorem walks the complete original trace:
      // on a returning run the enabler executes, so (I2) s' can step
      // there, and (I1) pushes that fact backwards through the region.
      AddSplitTask("I1", [Pat](ObligationBuilder &B, const z3::expr &St) {
        ZState Eta = B.Enc.freshState("eta");
        z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
        B.wfHyp(Eta);
        B.hyp(B.PE.formula(*Pat->G.Psi2, St, Eta, B.Env, B.Hyps));
        ZState Post = B.stepHyp(Eta, St, "p");
        B.wfHyp(Post);
        B.hyp(stepDefinedOnly(B.Enc, Post, StT, "pa"));
        return stepDefinedOnly(B.Enc, Eta, StT, "pb");
      });
      AddSplitTask("I2", [Pat](ObligationBuilder &B, const z3::expr &St) {
        ZState Eta = B.Enc.freshState("eta");
        z3::expr StT = B.Enc.buildStmt(Pat->To, B.Env);
        B.wfHyp(Eta);
        B.hyp(B.PE.formula(*Pat->G.Psi1, St, Eta, B.Env, B.Hyps));
        B.hyp(stepDefinedOnly(B.Enc, Eta, St, "p"));
        return stepDefinedOnly(B.Enc, Eta, StT, "pt");
      });
    }

    // B5: a return enabler ends the procedure's activation with both
    // traces agreeing on the return value and on every location the
    // caller could observe (cells differing between the traces must be
    // unreachable). Catches escaped-local bugs.
    AddTask("B5", [Pat](ObligationBuilder &B) {
      ZState Old = B.Enc.freshState("old");
      ZState New = B.Enc.freshState("new");
      z3::expr St = B.Enc.SReturn(B.Enc.freshVar("rv"));
      B.wfHyp(Old);
      B.wfHyp(New);
      B.hyp(B.PE.witness(*Pat->W, nullptr, &Old, &New, B.Env));
      B.hyp(B.PE.formula(*Pat->G.Psi1, St, Old, B.Env, B.Hyps));

      z3::expr RetVar = B.Enc.SReturnVar(St);
      z3::expr OldDef = z3::select(Old.Scope, RetVar);
      z3::expr OldVal =
          z3::select(Old.Sto, z3::select(Old.Env, RetVar));
      z3::expr NewDef = z3::select(New.Scope, RetVar);
      z3::expr NewVal =
          z3::select(New.Sto, z3::select(New.Env, RetVar));

      z3::expr L = B.C.int_const("b5L");
      z3::expr StoresAgreeOrUnreachable = z3::forall(
          L, z3::implies(z3::select(Old.Sto, L) != z3::select(New.Sto, L),
                         B.Enc.notPointedToLoc(Old, L) &&
                             L != z3::select(Old.Env, RetVar)));
      return z3::implies(OldDef,
                         NewDef && OldVal == NewVal &&
                             Old.Alloc == New.Alloc &&
                             StoresAgreeOrUnreachable);
    });
  }

  return PC;
}

CheckReport SoundnessChecker::checkOptimization(const Optimization &O) {
  std::vector<PreparedCheck> Checks;
  Checks.push_back(prepareOptimization(O));
  return std::move(runPrepared(std::move(Checks)).front());
}

//===----------------------------------------------------------------------===//
// Pure-analysis obligations.
//===----------------------------------------------------------------------===//

SoundnessChecker::PreparedCheck
SoundnessChecker::prepareAnalysis(const PureAnalysis &A) {
  PreparedCheck PC;
  PC.Key = fingerprintAnalysis(A);
  PC.Report.Name = A.Name;
  if (Policy.CacheVerdicts && cacheLookup(PC.Key, PC.Report)) {
    PC.Report.CacheHit = true;
    PC.Report.TotalSeconds = 0.0;
    PC.CacheHit = true;
    return PC;
  }

  PC.ByLabel =
      std::make_shared<std::map<std::string, const PureAnalysis *>>();
  for (const PureAnalysis &Other : Analyses)
    if (Other.Name != A.Name)
      (*PC.ByLabel)[Other.LabelName] = &Other;

  const PureAnalysis *AP = &A;

  auto AddSplitTask =
      [&](const std::string &Name,
          const std::function<z3::expr(ObligationBuilder &,
                                       const z3::expr &)> &Build) {
        for (const char *Tag : StmtKindTags) {
          std::string TagStr = Tag;
          ObligationTask T;
          T.Name = Name + "[" + Tag + "]";
          T.FaultKey = PC.Key;
          hashStr(T.FaultKey, T.Name);
          T.FaultKey ^= FaultKeySalt;
          T.Build = [Build, TagStr](ObligationBuilder &B) {
            z3::expr St = makeStmtOfKind(B.Enc, TagStr);
            return Build(B, St);
          };
          PC.Tasks.push_back(std::move(T));
        }
      };

  AddSplitTask("F1", [AP](ObligationBuilder &B, const z3::expr &St) {
    ZState Eta = B.Enc.freshState("eta");
    B.wfHyp(Eta);
    B.hyp(B.PE.formula(*AP->G.Psi1, St, Eta, B.Env, B.Hyps));
    ZState Post = B.stepHyp(Eta, St, "p1");
    B.wfHyp(Post);
    return B.PE.witness(*AP->W, &Post, nullptr, nullptr, B.Env);
  });

  AddSplitTask("F2", [AP](ObligationBuilder &B, const z3::expr &St) {
    ZState Eta = B.Enc.freshState("eta");
    B.wfHyp(Eta);
    B.hyp(B.PE.witness(*AP->W, &Eta, nullptr, nullptr, B.Env));
    B.hyp(B.PE.formula(*AP->G.Psi2, St, Eta, B.Env, B.Hyps));
    ZState Post = B.stepHyp(Eta, St, "p2");
    B.wfHyp(Post);
    return B.PE.witness(*AP->W, &Post, nullptr, nullptr, B.Env);
  });

  return PC;
}

CheckReport SoundnessChecker::checkAnalysis(const PureAnalysis &A) {
  std::vector<PreparedCheck> Checks;
  Checks.push_back(prepareAnalysis(A));
  return std::move(runPrepared(std::move(Checks)).front());
}

//===----------------------------------------------------------------------===//
// Caller-assembled obligation sets (translation validation and friends).
//===----------------------------------------------------------------------===//

SoundnessChecker::PreparedCheck
SoundnessChecker::prepareObligationSet(const ObligationSet &Set) {
  PreparedCheck PC;
  PC.Key = Set.Fingerprint;
  PC.Cacheable = Set.Cacheable;
  PC.Report.Name = Set.Name;
  if (Policy.CacheVerdicts && Set.Cacheable &&
      cacheLookup(PC.Key, PC.Report)) {
    PC.Report.CacheHit = true;
    PC.Report.TotalSeconds = 0.0;
    PC.CacheHit = true;
    return PC;
  }

  PC.ByLabel =
      std::make_shared<std::map<std::string, const PureAnalysis *>>();
  for (const PureAnalysis &A : Analyses)
    (*PC.ByLabel)[A.LabelName] = &A;

  for (const ObligationSpec &S : Set.Obligations) {
    ObligationTask T;
    T.Name = S.Name;
    T.FaultKey = PC.Key;
    hashStr(T.FaultKey, S.Name);
    T.FaultKey ^= FaultKeySalt;
    T.Build = S.Build;
    PC.Tasks.push_back(std::move(T));
  }
  return PC;
}

CheckReport SoundnessChecker::checkObligationSet(const ObligationSet &Set) {
  std::vector<PreparedCheck> Checks;
  Checks.push_back(prepareObligationSet(Set));
  return std::move(runPrepared(std::move(Checks)).front());
}

std::vector<CheckReport> SoundnessChecker::checkObligationSets(
    const std::vector<ObligationSet> &Sets) {
  std::vector<PreparedCheck> Checks;
  Checks.reserve(Sets.size());
  for (const ObligationSet &Set : Sets)
    Checks.push_back(prepareObligationSet(Set));
  return runPrepared(std::move(Checks));
}

//===----------------------------------------------------------------------===//
// Execution: sequential or fanned into the thread pool.
//===----------------------------------------------------------------------===//

namespace {

/// Finalizes one obligation's telemetry: outcome args on its span plus
/// the checker.* counters. All values are deterministic except the
/// prover_seconds histogram (wall time, humans-only).
void recordObligation(const ObligationResult &R, support::TraceSpan &Span) {
  const char *Verdict = R.proven()              ? "proven"
                        : R.St == ObligationResult::Status::OS_Failed
                            ? "failed"
                            : "unknown";
  if (Span.enabled()) {
    Span.arg("verdict", std::string(Verdict));
    Span.arg("attempts", static_cast<uint64_t>(R.Attempts));
    Span.arg("rlimit", R.RlimitSpent);
  }
  if (support::Telemetry *T = support::Telemetry::active()) {
    T->Metrics.add("checker.obligations");
    T->Metrics.add(std::string("checker.obligations.") + Verdict);
    if (R.Attempts > 1)
      T->Metrics.add("checker.retries", R.Attempts - 1);
    if (R.RlimitSpent)
      T->Metrics.add("checker.rlimit_spent", R.RlimitSpent);
    T->Metrics.observe("checker.prover_seconds", R.Seconds);
  }
}

} // namespace

std::vector<CheckReport>
SoundnessChecker::runPrepared(std::vector<PreparedCheck> Checks) {
  support::TraceSpan SuiteSpan("checker", "checkSuite");
  if (SuiteSpan.enabled())
    SuiteSpan.arg("definitions", static_cast<uint64_t>(Checks.size()));
  // Pool threads do not inherit this thread's trace-ID TLS, so capture
  // the ambient request trace ID here and re-establish it inside every
  // task body (and ship it across the worker fork).
  const uint64_t SuiteTraceId = support::TraceRecorder::currentTraceId();
  // Flatten every definition's tasks into one job list so one slow
  // obligation does not serialize the definitions behind it.
  std::vector<std::pair<size_t, size_t>> Flat;
  auto Now = std::chrono::steady_clock::now();
  for (size_t CI = 0; CI < Checks.size(); ++CI) {
    Checks[CI].Start = Now;
    if (Checks[CI].CacheHit) {
      // A definition served from the verdict cache still shows up in the
      // trace (as an instant-ish span) so cached and fresh runs have
      // recognizably different span sets.
      support::TraceSpan Cached("checker", "check.cached");
      if (Cached.enabled())
        Cached.arg("def", Checks[CI].Report.Name);
      continue;
    }
    for (size_t TI = 0; TI < Checks[CI].Tasks.size(); ++TI)
      Flat.emplace_back(CI, TI);
  }

  // The discharge path proper: build the query in a fresh context and
  // run the solver. In-process mode runs it on the checker's threads
  // (under the job's fault scope); subprocess mode runs the *same
  // closure* inside a worker child, so the two modes cannot drift.
  auto Discharge = [&](size_t Idx, int64_t Left) -> ObligationResult {
    auto [CI, TI] = Flat[Idx];
    PreparedCheck &PC = Checks[CI];
    ObligationTask &T = PC.Tasks[TI];
    ObligationBuilder B(Registry, *PC.ByLabel);
    z3::expr Goal = T.Build(B);
    return B.check(T.Name, Goal, Policy, Left);
  };

  // Out-of-process mode: fork the workers *now*, before any task fans
  // onto the thread pool — its threads are idle (condvar wait), so no
  // lock can be mid-flight in the forked image. Later respawn forks are
  // safe for the same reason in a different guise: while the pool is
  // live no parent thread ever enters Z3 (only children do), so parent
  // threads hold nothing a child's solver run would need.
  std::unique_ptr<ProverWorkerPool> Workers;
  if (Policy.Isolation == WorkerIsolation::WI_Subprocess &&
      !Flat.empty()) {
    ProverWorkerPool::Config WC;
    // parallelFor runs bodies on the pool's threads and on the submitting
    // thread, so up to jobs() + 1 obligations are in flight at once; one
    // worker per in-flight obligation keeps the worker path as wide as
    // the in-process one instead of parking a thread in acquire().
    WC.Workers = Pool && !Pool->inlineMode() ? Pool->jobs() + 1 : 1;
    WC.WallMs = Policy.WorkerWallMs
                    ? Policy.WorkerWallMs
                    : 2 * Policy.TimeoutMs + 30000;
    WC.RssMb = Policy.WorkerRssMb;
    WC.MaxRestarts = Policy.WorkerRestarts;
    Workers = std::make_unique<ProverWorkerPool>(WC, Discharge);
    if (!Workers->start()) {
      // Cannot fork at all (process/fd limits): an availability problem,
      // not a soundness one — degrade to in-process and keep going.
      support::metricAdd("worker.start_failed");
      Workers.reset();
    }
  }

  // Wall budget left for the obligation's definition: -1 = unlimited,
  // 0 = exhausted (skip without dispatching).
  auto BudgetLeft = [this](const PreparedCheck &PC) -> int64_t {
    if (Policy.BudgetMs == 0)
      return -1;
    int64_t Elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - PC.Start)
            .count();
    return std::max<int64_t>(
        0, static_cast<int64_t>(Policy.BudgetMs) - Elapsed);
  };

  // Under DM_InProcess, obligations quarantined by the pool are deferred
  // here and rerun in-process *after* the pool stops: running Z3 on a
  // parent thread while the pool can still fork replacements would let a
  // forked child inherit a mid-flight allocator or solver lock and
  // wedge until the watchdog reaps it.
  std::mutex DeferredMutex;
  std::vector<size_t> Deferred;

  // One obligation, start to finish: trace ID, span, budget, discharge,
  // record. Only the discharge step depends on where it runs.
  auto RunOne = [&](size_t Idx, bool InProcess) {
    auto [CI, TI] = Flat[Idx];
    PreparedCheck &PC = Checks[CI];
    ObligationTask &T = PC.Tasks[TI];
    support::TraceIdScope IdScope(SuiteTraceId);
    // Per-obligation span: one lane-local event per prover job, with
    // deterministic args only (verdict, attempts, rlimit — wall time
    // lives in the span duration, which equivalence tests ignore).
    support::TraceSpan Span("checker", "obligation");
    if (Span.enabled()) {
      Span.arg("def", PC.Report.Name);
      Span.arg("ob", T.Name);
    }
    int64_t Left = BudgetLeft(PC);
    if (Left == 0) {
      T.Result = budgetExhausted(T.Name);
    } else if (InProcess) {
      // Fault decisions inside this job are keyed on its stable
      // fingerprint, so `--jobs 8` fires exactly the faults `--jobs 1`
      // does regardless of scheduling.
      support::ScopedFaultKey JobKey(T.FaultKey);
      T.Result = Discharge(Idx, Left);
    } else {
      // The worker child opens the fault scope (per request, so retried
      // obligations redraw the same decisions); the parent only
      // supervises.
      T.Result = Workers->run(Idx, T.Name, T.FaultKey, Left, SuiteTraceId);
      if (T.Result.Err.Kind == ErrorKind::EK_WorkerCrash &&
          Policy.Degraded == DegradedMode::DM_InProcess) {
        // Opt-in last resort: answer beats isolation. Deferred past the
        // pool's lifetime (see above); the final result is recorded
        // there.
        std::lock_guard<std::mutex> Lock(DeferredMutex);
        Deferred.push_back(Idx);
        return;
      }
    }
    recordObligation(T.Result, Span);
  };
  auto RunTask = [&](size_t Idx) { RunOne(Idx, /*InProcess=*/!Workers); };

  // Inline-mode pools and the no-pool case both run the flat list in
  // index order on this thread — exactly the pre-parallel sequential
  // checker.
  if (Pool && !Pool->inlineMode())
    Pool->parallelFor(Flat.size(), RunTask);
  else
    for (size_t I = 0; I < Flat.size(); ++I)
      RunTask(I);

  if (Workers) {
    Workers->stop();
    if (!Deferred.empty()) {
      // worker.* fault sites live only in the worker loop, so injected
      // crashes do not re-fire in-process — but a genuinely crashing
      // prover now takes the pipeline down, which is what DM_InProcess
      // trades for an answer.
      std::sort(Deferred.begin(), Deferred.end());
      support::metricAdd("worker.fallback_inprocess", Deferred.size());
      auto RunDeferred = [&](size_t I) {
        RunOne(Deferred[I], /*InProcess=*/true);
      };
      if (Pool && !Pool->inlineMode())
        Pool->parallelFor(Deferred.size(), RunDeferred);
      else
        for (size_t I = 0; I < Deferred.size(); ++I)
          RunDeferred(I);
    }
  }

  // Reassemble reports in input order: collection order never depends on
  // which thread finished first.
  std::vector<CheckReport> Out;
  Out.reserve(Checks.size());
  for (PreparedCheck &PC : Checks) {
    if (!PC.CacheHit) {
      for (ObligationTask &T : PC.Tasks) {
        PC.Report.TotalSeconds += T.Result.Seconds;
        PC.Report.Obligations.push_back(std::move(T.Result));
      }
      finalizeVerdict(PC.Report);
      if (Policy.CacheVerdicts && PC.Cacheable)
        cacheStore(PC.Key, PC.Report);
    }
    Out.push_back(std::move(PC.Report));
  }
  return Out;
}

std::vector<CheckReport> SoundnessChecker::checkSuite(
    const std::vector<PureAnalysis> &SuiteAnalyses,
    const std::vector<Optimization> &SuiteOptimizations) {
  std::vector<PreparedCheck> Checks;
  Checks.reserve(SuiteAnalyses.size() + SuiteOptimizations.size());
  for (const PureAnalysis &A : SuiteAnalyses)
    Checks.push_back(prepareAnalysis(A));
  for (const Optimization &O : SuiteOptimizations)
    Checks.push_back(prepareOptimization(O));
  return runPrepared(std::move(Checks));
}
