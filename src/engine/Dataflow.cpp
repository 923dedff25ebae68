//===- Dataflow.cpp -------------------------------------------------------===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Dataflow.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <bit>
#include <map>
#include <string>

using namespace cobalt;
using namespace cobalt::engine;
using namespace cobalt::ir;

namespace {

using Word = uint64_t;
using Bits = std::vector<Word>;
constexpr size_t WordBits = 64;

size_t wordsFor(size_t NumIds) { return (NumIds + WordBits - 1) / WordBits; }

bool hasId(const Bits &B, size_t Id) {
  return (B[Id / WordBits] >> (Id % WordBits)) & 1;
}

void setId(Bits &B, size_t Id) {
  B[Id / WordBits] |= Word(1) << (Id % WordBits);
}

size_t popcount(const Bits &B) {
  size_t N = 0;
  for (Word W : B)
    N += static_cast<size_t>(std::popcount(W));
  return N;
}

/// Calls \p Fn with every member id of \p B, in ascending order.
template <typename FnT> void forEachId(const Bits &B, FnT &&Fn) {
  for (size_t W = 0; W < B.size(); ++W)
    for (Word Rest = B[W]; Rest; Rest &= Rest - 1)
      Fn(W * WordBits + static_cast<size_t>(std::countr_zero(Rest)));
}

/// The set of ids [0, NumIds).
Bits fullSet(size_t NumIds) {
  Bits B(wordsFor(NumIds), ~Word(0));
  if (size_t Tail = NumIds % WordBits)
    B.back() = (Word(1) << Tail) - 1;
  return B;
}

/// Whether ψ is known to hold under the same substitutions at every
/// node: it is built from computes, =, true/false and ¬/∧/∨ only, and no
/// term names currStmt. stmt, predicate labels, analysis labels and case
/// are treated as node-dependent.
bool nodeIndependent(const Formula &F) {
  auto NotCurrStmt = [](const Term &T) {
    return !std::holds_alternative<CurrStmtTerm>(T);
  };
  switch (F.K) {
  case Formula::Kind::FK_True:
  case Formula::Kind::FK_False:
    return true;
  case Formula::Kind::FK_Not:
  case Formula::Kind::FK_And:
  case Formula::Kind::FK_Or:
    return std::all_of(F.Kids.begin(), F.Kids.end(),
                       [](const FormulaPtr &K) { return nodeIndependent(*K); });
  case Formula::Kind::FK_Eq:
    return NotCurrStmt(F.LhsT) && NotCurrStmt(F.RhsT);
  case Formula::Kind::FK_Label:
    return F.LabelName == "computes" &&
           std::all_of(F.Args.begin(), F.Args.end(), NotCurrStmt);
  case Formula::Kind::FK_Case:
    return false;
  }
  return false;
}

/// Direction-abstracted view of the CFG: "pred"/"succ" follow the guard's
/// flow direction, and "roots" are the nodes whose IN fact is empty by
/// definition (the entry for forward guards — no path has a ψ1 node
/// before the entry; the exits for backward guards).
struct DirectedView {
  const Cfg &G;
  Direction Dir;

  const std::vector<int> &flowPreds(int I) const {
    return Dir == Direction::D_Forward ? G.preds(I) : G.succs(I);
  }
  const std::vector<int> &flowSuccs(int I) const {
    return Dir == Direction::D_Forward ? G.succs(I) : G.preds(I);
  }
  bool isRoot(int I) const {
    return Dir == Direction::D_Forward ? I == G.entry() : G.isExit(I);
  }

  /// Nodes that participate: reachable along the flow direction from a
  /// root (others have no constraining paths; the engine skips them).
  std::vector<bool> liveNodes() const {
    std::vector<bool> Live(G.size(), false);
    std::vector<int> Work;
    for (int I = 0; I < G.size(); ++I)
      if (isRoot(I)) {
        Live[I] = true;
        Work.push_back(I);
      }
    while (!Work.empty()) {
      int I = Work.back();
      Work.pop_back();
      for (int T : flowSuccs(I))
        if (!Live[T]) {
          Live[T] = true;
          Work.push_back(T);
        }
    }
    return Live;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// FactSet.
//===----------------------------------------------------------------------===//

size_t FactSet::size() const { return popcount(Words); }

bool FactSet::empty() const {
  return std::all_of(Words.begin(), Words.end(),
                     [](Word W) { return W == 0; });
}

size_t FactSet::count(const Substitution &Theta) const {
  if (!Facts)
    return 0;
  auto It = std::lower_bound(Facts->begin(), Facts->end(), Theta);
  if (It == Facts->end() || Theta < *It)
    return 0;
  size_t Id = static_cast<size_t>(It - Facts->begin());
  return Id / WordBits < Words.size() && hasId(Words, Id);
}

size_t FactSet::nextId(size_t From) const {
  size_t W = From / WordBits;
  if (W >= Words.size())
    return Words.size() * WordBits;
  Word Rest = Words[W] & (~Word(0) << (From % WordBits));
  while (!Rest) {
    if (++W == Words.size())
      return W * WordBits;
    Rest = Words[W];
  }
  return W * WordBits + static_cast<size_t>(std::countr_zero(Rest));
}

//===----------------------------------------------------------------------===//
// The solver.
//===----------------------------------------------------------------------===//

GuardSolution engine::solveGuard(Direction Dir, const Guard &Gd,
                                 const Cfg &G,
                                 const LabelRegistry &Registry,
                                 const Labeling *AnalysisLabeling) {
  const Procedure &P = G.proc();
  int N = G.size();
  DirectedView View{G, Dir};
  std::vector<bool> Live = View.liveNodes();

  Universe Univ = buildUniverse(P);
  auto makeCtx = [&](int I) {
    return NodeContext{&P, I, &Registry, AnalysisLabeling, &Univ};
  };

  // GEN(n): substitutions making ψ1 true at n. A node-independent ψ1 is
  // satisfied once, and that GEN is shared by every live node.
  const bool SharedGen = nodeIndependent(*Gd.Psi1);
  std::vector<std::vector<Substitution>> GenFacts(SharedGen ? 1 : N);
  auto Table = std::make_shared<FactSet::Table>();
  for (int I = 0; I < N; ++I) {
    if (!Live[I])
      continue;
    std::vector<Substitution> &Gen = GenFacts[SharedGen ? 0 : I];
    Gen = satisfyFormula(*Gd.Psi1, makeCtx(I), {});
    Table->insert(Table->end(), Gen.begin(), Gen.end());
    if (SharedGen)
      break;
  }

  // Interning: U = ∪ GEN in Substitution order is the fact table, and a
  // fact's id is its position in it. OUT starts at U (optimistic greatest
  // fixed point for the ∩ meet). Duplicates are dropped by the ordering's
  // equivalence, as a std::set would.
  std::sort(Table->begin(), Table->end());
  Table->erase(std::unique(Table->begin(), Table->end(),
                           [](const Substitution &A, const Substitution &B) {
                             return !(A < B);
                           }),
               Table->end());
  const FactSet::Table &Facts = *Table;
  const size_t NumWords = wordsFor(Facts.size());
  std::vector<Bits> Gen(GenFacts.size());
  for (size_t I = 0; I < GenFacts.size(); ++I) {
    if (GenFacts[I].empty())
      continue;
    Gen[I].assign(NumWords, 0);
    for (const Substitution &S : GenFacts[I])
      setId(Gen[I], static_cast<size_t>(
                        std::lower_bound(Facts.begin(), Facts.end(), S) -
                        Facts.begin()));
  }
  GenFacts.clear();

  // ψ2 filter, memoized per (node, projection id): a fact's projection is
  // θ restricted to ψ2's free variables, so facts differing only in
  // variables ψ2 does not mention share one evaluation. Projection ids
  // are computed once per solve.
  std::vector<std::pair<std::string, MetaKind>> Psi2Frees;
  collectFreeMetas(*Gd.Psi2, Psi2Frees);
  std::vector<size_t> ProjOf(Facts.size());
  size_t NumProj = 0;
  {
    std::map<std::string, size_t> ProjIds;
    for (size_t F = 0; F < Facts.size(); ++F) {
      std::string Key;
      for (const auto &[Name, Kind] : Psi2Frees) {
        (void)Kind;
        const Binding *B = Facts[F].lookup(Name);
        Key += B ? B->str() : "?";
        Key += '\x1f';
      }
      ProjOf[F] = ProjIds.emplace(std::move(Key), NumProj).first->second;
      NumProj = ProjIds.size();
    }
  }
  struct Psi2Memo {
    Bits Known, Keep;
  };
  std::vector<Psi2Memo> Memo(N);
  auto survivesPsi2 = [&](int I, size_t F) {
    Psi2Memo &M = Memo[I];
    if (M.Known.empty()) {
      M.Known.assign(wordsFor(NumProj), 0);
      M.Keep.assign(wordsFor(NumProj), 0);
    }
    size_t Proj = ProjOf[F];
    if (!hasId(M.Known, Proj)) {
      setId(M.Known, Proj);
      auto R = evalFormula(*Gd.Psi2, makeCtx(I), Facts[F]);
      if (R.has_value() && *R) // undeterminable => conservatively drop
        setId(M.Keep, Proj);
    }
    return hasId(M.Keep, Proj);
  };

  std::vector<Bits> In(N), Out(N);
  const Bits All = fullSet(Facts.size());
  for (int I = 0; I < N; ++I)
    if (Live[I])
      Out[I] = All;

  // Evaluation order: reverse post-order over the flow direction.
  // Round-robin sweeps in RPO converge in O(loop-nesting-depth) passes
  // for reducible CFGs (a FIFO worklist revisits nodes an order of
  // magnitude more often on loop-heavy code).
  std::vector<int> Rpo;
  {
    std::vector<int> State(N, 0); // 0 = unvisited, 1 = open, 2 = done
    std::vector<std::pair<int, size_t>> Stack;
    for (int R = 0; R < N; ++R) {
      if (!Live[R] || !View.isRoot(R) || State[R])
        continue;
      Stack.emplace_back(R, 0);
      State[R] = 1;
      while (!Stack.empty()) {
        auto &[I, Next] = Stack.back();
        const std::vector<int> &Succs = View.flowSuccs(I);
        bool Descended = false;
        while (Next < Succs.size()) {
          int S = Succs[Next++];
          if (Live[S] && State[S] == 0) {
            State[S] = 1;
            Stack.emplace_back(S, 0);
            Descended = true;
            break;
          }
        }
        if (Descended)
          continue;
        State[I] = 2;
        Rpo.push_back(I);
        Stack.pop_back();
      }
    }
    std::reverse(Rpo.begin(), Rpo.end());
  }

  // Deterministic solve-shape counters (identical across --jobs widths):
  // facts dropped by the ∩ meet vs the first predecessor's OUT, and
  // facts dropped because ψ2 failed to hold.
  uint64_t MeetDropped = 0;
  uint64_t Psi2Dropped = 0;

  GuardSolution Sol;
  Bits NewOut;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int I : Rpo) {
      ++Sol.Iterations;

      // IN = ∩ over flow-predecessors' OUT; roots have IN = ∅.
      Bits &InI = In[I];
      if (View.isRoot(I)) {
        InI.assign(NumWords, 0);
      } else {
        bool First = true;
        size_t InitialIn = 0;
        for (int Pd : View.flowPreds(I)) {
          if (!Live[Pd])
            continue; // no constraining path through a dead node
          if (First) {
            InI = Out[Pd];
            InitialIn = popcount(InI);
            First = false;
          } else {
            for (size_t W = 0; W < NumWords; ++W)
              InI[W] &= Out[Pd][W];
          }
        }
        // A live non-root node always has at least one live flow-pred
        // (it was reached from a root), so First is false here.
        MeetDropped += InitialIn - popcount(InI);
      }

      // OUT = GEN ∪ {θ ∈ IN : ψ2 holds}.
      NewOut.assign(NumWords, 0);
      forEachId(InI, [&](size_t F) {
        if (survivesPsi2(I, F))
          setId(NewOut, F);
        else
          ++Psi2Dropped;
      });
      const Bits &GenI = Gen[SharedGen ? 0 : I];
      for (size_t W = 0; W < GenI.size(); ++W)
        NewOut[W] |= GenI[W];

      if (NewOut != Out[I]) {
        std::swap(Out[I], NewOut);
        Changed = true;
      }
    }
  }

  Sol.AtNode.resize(N);
  for (int I = 0; I < N; ++I)
    if (Live[I])
      Sol.AtNode[I] = FactSet(Table, std::move(In[I]));

  if (support::Telemetry *T = support::Telemetry::active()) {
    T->Metrics.add("dataflow.solves");
    T->Metrics.add("dataflow.fixpoint_iters", Sol.Iterations);
    T->Metrics.add("dataflow.meet_dropped", MeetDropped);
    T->Metrics.add("dataflow.psi2_dropped", Psi2Dropped);
    for (int I = 0; I < N; ++I)
      if (Live[I])
        T->Metrics.observe("dataflow.subst_set_size",
                           static_cast<double>(Sol.AtNode[I].size()));
  }

  return Sol;
}
