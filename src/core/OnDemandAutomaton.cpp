//===- core/OnDemandAutomaton.cpp - The paper's contribution --------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "core/OnDemandAutomaton.h"

#include "support/Compiler.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <vector>

using namespace odburg;

OnDemandAutomaton::OnDemandAutomaton(const Grammar &G, const DynCostTable *Dyn)
    : OnDemandAutomaton(G, Dyn, Options()) {}

OnDemandAutomaton::OnDemandAutomaton(const Grammar &G, const DynCostTable *Dyn,
                                     Options Opts)
    : G(G), Dyn(Dyn), Computer(G), States(G.numNonterminals()), Opts(Opts) {
  assert(G.isFinalized() && "grammar must be finalized");
  assert((!G.hasDynCosts() || Dyn) &&
         "grammar has dynamic costs but no hook table was supplied");
  // Keep the safety bound reachable: leave one block of headroom below the
  // table's hard capacity so concurrent interners hit the MaxStates
  // diagnostic, never the table's capacity abort.
  this->Opts.MaxStates =
      std::min(this->Opts.MaxStates, StateTable::maxCapacity() - 4096);
}

namespace {

/// Resolves one node through the offline-partition tables: a direct
/// leaf-state read or one dense table index over representer maps.
/// Returns InvalidState when the node is outside the partition's
/// coverage — operator not in the partition, or a child labeled by a
/// state the offline enumeration never saw (id >= NumStates, i.e. a
/// dyn-cost subtree's state) — in which case the caller falls through
/// to the normal on-demand probe, which resolves to the exact same
/// state the tables would have (delta normalization makes offline and
/// on-demand states bit-equal; the seeded id space makes ids agree).
template <typename GetChild>
inline StateId offlineResolve(const OfflinePartitionView &PV, OperatorId Op,
                              unsigned NumChildren, GetChild &&Child) {
  const OfflinePartitionView::OpEntry &E = PV.Ops[Op];
  if (!E.InPartition)
    return InvalidState;
  if (NumChildren == 0)
    return E.Leaf;
  std::size_t Index = 0;
  for (unsigned P = 0; P < NumChildren; ++P) {
    StateId C = Child(P);
    if (C >= PV.NumStates)
      return InvalidState;
    Index = Index * E.Dims[P] + E.RepMaps[P][C];
  }
  return E.Table[Index];
}

} // namespace

void OnDemandAutomaton::seedStatesFrom(const StateTable &Src) {
  assert(States.size() == 0 && "seeding requires an empty state table");
  assert(Src.numNonterminals() == G.numNonterminals() &&
         "seed states must have this grammar's nonterminal count");
  unsigned K = Src.size();
  unsigned NumNts = G.numNonterminals();
  std::vector<Cost> Costs(NumNts);
  std::vector<RuleId> Rules(NumNts);
  for (StateId Id = 0; Id < K; ++Id) {
    const State *S = Src.byId(Id);
    for (NonterminalId Nt = 0; Nt < NumNts; ++Nt) {
      Costs[Nt] = S->costOf(Nt);
      Rules[Nt] = S->ruleOf(Nt);
    }
    const State *NS = States.intern(S->Op, Costs.data(), Rules.data());
    // A canonical source table has no duplicates, so interning in id
    // order must reproduce the ids exactly — the offline dispatch would
    // silently mislabel otherwise, so check for real, not just in
    // asserts-on builds.
    if (NS->Id != Id)
      reportFatalError("seeding the on-demand automaton did not reproduce "
                       "the source state ids (duplicate states in source)");
  }
}

const State *OnDemandAutomaton::computeState(OperatorId Op,
                                             const State *const *ChildStates,
                                             const Cost *DynOutcomes,
                                             SelectionStats &Stats) {
  ++Stats.StatesComputed;
  SmallVector<Cost, 32> Costs;
  SmallVector<RuleId, 32> Rules;
  Computer.compute(
      Op,
      [&](unsigned Pos, NonterminalId Nt) {
        return ChildStates[Pos]->costOf(Nt);
      },
      [&](unsigned J) { return DynOutcomes[J]; }, Costs, Rules, &Stats);
  const State *S = States.intern(Op, Costs.data(), Rules.data());
  if (States.size() > Opts.MaxStates)
    reportFatalError("on-demand automaton exceeded its state limit; the "
                     "grammar's relative costs likely diverge (missing chain "
                     "rules)");
  return S;
}

StateId OnDemandAutomaton::labelNode(ir::Node &N, SelectionStats &Stats) {
  ++Stats.NodesLabeled;
  OperatorId Op = N.op();
  unsigned NumChildren = N.numChildren();

  // Hybrid dispatch: a static-partition node over offline-known child
  // states is one table index, no key, no hashing.
  if (Partition) {
    StateId Hit = offlineResolve(*Partition, Op, NumChildren, [&](unsigned P) {
      return N.child(P)->label();
    });
    if (Hit != InvalidState) {
      ++Stats.OfflineHits;
      N.setLabel(Hit);
      return Hit;
    }
  }

  const auto &DynRules = G.dynRulesFor(Op);
  unsigned NumDyn = DynRules.size();

  // Build the transition key: header, child states, dynamic-cost outcomes.
  SmallVector<std::uint32_t, 20> Key;
  Key.push_back(TransitionCache::packHeader(Op, NumChildren, NumDyn));
  for (unsigned I = 0; I < NumChildren; ++I)
    Key.push_back(N.child(I)->label());
  SmallVector<Cost, 16> DynOutcomes;
  for (unsigned J = 0; J < NumDyn; ++J) {
    ++Stats.DynCostEvals;
    DynOutcomes.push_back(Dyn->evaluate(G.normRule(DynRules[J]).DynHook, N));
    Key.push_back(DynOutcomes.back().raw());
  }

  // Child State pointers are fetched only on the slow path: a warm probe
  // resolves from the key's state *ids* alone, so the per-child
  // StateTable shard chase would be pure waste on every hit.
  SmallVector<const State *, 4> ChildStates;
  auto FetchChildStates = [&] {
    for (unsigned I = 0; I < NumChildren; ++I)
      ChildStates.push_back(States.byId(Key[1 + I]));
    return ChildStates.data();
  };

  if (ODBURG_LIKELY(Opts.UseTransitionCache)) {
    // Fast path: one lock-free seqlock probe of the shared hashed cache.
    std::uint64_t H = TransitionCache::hashKey(Key.data(), Key.size());
    ++Stats.CacheProbes;
    StateId Hit = Cache.lookupHashed(Key.data(), Key.size(), H);
    if (ODBURG_LIKELY(Hit != InvalidState)) {
      ++Stats.CacheHits;
      N.setLabel(Hit);
      return Hit;
    }

    // Slow path: compute, hash-cons, memoize.
    const State *S =
        computeState(Op, FetchChildStates(), DynOutcomes.data(), Stats);
    Cache.insertHashed(Key.data(), Key.size(), H, S->Id);
    N.setLabel(S->Id);
    return S->Id;
  }

  // Cache-ablated path: recompute the state at every node.
  const State *S =
      computeState(Op, FetchChildStates(), DynOutcomes.data(), Stats);
  N.setLabel(S->Id);
  return S->Id;
}

void OnDemandAutomaton::labelFunction(ir::IRFunction &F,
                                      SelectionStats *Stats) {
  SelectionStats Local;
  SelectionStats &S = Stats ? *Stats : Local;
  for (ir::Node *N : F.nodes())
    labelNode(*N, S);
}
