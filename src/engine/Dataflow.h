//===- Dataflow.h - Substitution-set dataflow for guards --------*- C++ -*-===//
//
// Part of the Cobalt reproduction (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's dataflow analysis (paper §5.2): facts are sets of
/// substitutions, each representing a potential witnessing region. The
/// flow function at a statement
///
/// * adds the substitutions that make ψ1 true at the statement
///   (generative satisfaction), and
/// * propagates an incoming substitution θ iff θ(ψ2) holds at the
///   statement, dropping it otherwise;
///
/// merge nodes intersect (the guard quantifies over *all* paths,
/// Definition 1). Backward guards run the same analysis over the reversed
/// CFG. The framework is a distributive gen/kill analysis, so the fixed
/// point equals the meet-over-paths solution that Definition 1 specifies;
/// tests/engine/guard_semantics_test.cpp checks this against a direct
/// path-enumeration oracle on acyclic CFGs.
///
/// This solver computes, for every node ι, the set of substitutions θ
/// with (ι, θ) ∈ [[ψ1 followed by ψ2]](p) — evaluating all "instances" of
/// the guard simultaneously, exactly as §5.2 describes.
///
/// Representation. Every fact is interned once per solve: the universe
/// U = ∪ GEN, in Substitution order, is the solve's fact table, and a
/// fact's id is its position in it. IN, OUT and GEN are word bitsets over
/// those ids, so the ∩ meet is a word-wise AND, OUT = GEN | filter(IN),
/// and the change test compares words. The ψ2 filter is memoized per
/// (node, projection id), where a fact's projection id — θ restricted
/// to ψ2's free variables — is computed once per solve. When ψ1 cannot
/// tell nodes apart (it is built from computes, =, true/false and ¬/∧/∨
/// only, and no term names currStmt), GEN is evaluated once and shared
/// by every live node. The fixed point is swept in reverse post-order
/// until nothing changes.
///
//===----------------------------------------------------------------------===//

#ifndef COBALT_ENGINE_DATAFLOW_H
#define COBALT_ENGINE_DATAFLOW_H

#include "core/Formula.h"
#include "core/Optimization.h"
#include "ir/Cfg.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace cobalt {
namespace engine {

/// The facts of one node: a bitset over the solve's shared, sorted fact
/// table. Iterates as `const Substitution &` in ascending order.
class FactSet {
public:
  using Table = std::vector<Substitution>;

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Substitution;
    using difference_type = std::ptrdiff_t;
    using pointer = const Substitution *;
    using reference = const Substitution &;

    iterator() = default;
    reference operator*() const { return (*Set->Facts)[Id]; }
    pointer operator->() const { return &**this; }
    iterator &operator++() {
      Id = Set->nextId(Id + 1);
      return *this;
    }
    iterator operator++(int) {
      iterator Old = *this;
      ++*this;
      return Old;
    }
    friend bool operator==(const iterator &A, const iterator &B) {
      return A.Id == B.Id;
    }

  private:
    friend class FactSet;
    iterator(const FactSet *Set, size_t Id) : Set(Set), Id(Id) {}
    const FactSet *Set = nullptr;
    size_t Id = 0;
  };

  FactSet() = default;
  FactSet(std::shared_ptr<const Table> Facts, std::vector<uint64_t> Words)
      : Facts(std::move(Facts)), Words(std::move(Words)) {}

  iterator begin() const { return {this, nextId(0)}; }
  iterator end() const { return {this, Words.size() * 64}; }

  size_t size() const;
  bool empty() const;
  /// 1 if \p Theta is in the set, else 0.
  size_t count(const Substitution &Theta) const;

private:
  /// The least member id >= \p From, or Words.size() * 64 if none.
  size_t nextId(size_t From) const;

  std::shared_ptr<const Table> Facts;
  std::vector<uint64_t> Words;
};

/// The per-node result of guard solving: the substitutions valid at the
/// *matching point* of each node (the IN fact in guard direction).
/// Unreachable nodes (forward: from the entry; backward: to any exit)
/// have empty sets — the engine conservatively never transforms them.
struct GuardSolution {
  std::vector<FactSet> AtNode;

  /// Node visits until the fixed point, for the benchmarks.
  unsigned Iterations = 0;
};

/// Solves [[ψ1 followed by ψ2]] (Dir == D_Forward) or
/// [[ψ1 preceded by ψ2]] (Dir == D_Backward) over \p G's procedure.
/// \p Registry and \p AnalysisLabeling supply label semantics (the
/// labeling may be null when no pure analyses ran).
GuardSolution solveGuard(Direction Dir, const Guard &Gd, const ir::Cfg &G,
                         const LabelRegistry &Registry,
                         const Labeling *AnalysisLabeling);

} // namespace engine
} // namespace cobalt

#endif // COBALT_ENGINE_DATAFLOW_H
