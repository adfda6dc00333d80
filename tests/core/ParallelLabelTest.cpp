//===- tests/core/ParallelLabelTest.cpp --------------------------------------===//
//
// Part of the odburg project.
//
// Concurrent labeling over one shared automaton, driven through the
// compile service's worker pool. The contract: the worker count is a pure
// throughput knob — fired rules, cover costs, and asm are byte-identical
// to a one-worker pass, per-node labels are bit-identical, and the state
// table converges to the same set of states (hash consing is
// order-independent).
//
// Run these under -fsanitize=thread (cmake -DODBURG_SANITIZE=thread) to
// validate the sharded tables' synchronization.
//
//===----------------------------------------------------------------------===//

#include "pipeline/CompileService.h"

#include "select/DPLabeler.h"
#include "targets/Target.h"
#include "workload/Synthetic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <vector>

using namespace odburg;
using namespace odburg::pipeline;
using namespace odburg::targets;
using namespace odburg::workload;

namespace {

/// A mixed corpus: three profiles with different operator mixes and RMW
/// rates, several functions each, small enough to keep the suite fast.
std::vector<ir::IRFunction> makeCorpus(const Grammar &G) {
  std::vector<ir::IRFunction> Corpus;
  for (const char *Name : {"gzip-like", "mcf-like", "art-like"}) {
    const Profile *P = findProfile(Name);
    EXPECT_NE(P, nullptr);
    std::vector<ir::IRFunction> Fns =
        cantFail(generateBatch(*P, G, /*Count=*/4, /*TargetNodes=*/1500));
    for (ir::IRFunction &F : Fns)
      Corpus.push_back(std::move(F));
  }
  return Corpus;
}

std::vector<ir::IRFunction *> pointers(std::vector<ir::IRFunction> &Fns) {
  std::vector<ir::IRFunction *> Ptrs;
  for (ir::IRFunction &F : Fns)
    Ptrs.push_back(&F);
  return Ptrs;
}

/// The corpus-wide labeling, one labelingSnapshot per function, so a
/// later relabeling can be compared against it bit for bit.
using Snapshot = std::vector<std::vector<std::pair<RuleId, std::uint32_t>>>;

/// An on-demand compile service over one target's grammar with \p Workers
/// workers (0 = hardware concurrency).
std::unique_ptr<CompileService> makeService(const Target &T,
                                            unsigned Workers) {
  CompileService::Options Opts;
  Opts.Backend = BackendKind::OnDemand;
  Opts.Workers = Workers;
  return cantFail(CompileService::create(T.G, &T.Dyn, std::move(Opts)));
}

/// The service's shared automaton — the Labeling every worker wrote the
/// corpus's node labels against.
const OnDemandAutomaton &automaton(const CompileService &Svc) {
  return static_cast<const OnDemandBackend &>(Svc.backend()).automaton();
}

/// One pass over the corpus: every result, in submission order.
std::vector<CompileResult> compileAll(CompileService &Svc,
                                      std::vector<ir::IRFunction> &Corpus) {
  std::vector<std::future<CompileResult>> Futures =
      cantFail(Svc.submitBatch(pointers(Corpus)));
  std::vector<CompileResult> Results;
  for (std::future<CompileResult> &F : Futures)
    Results.push_back(F.get());
  return Results;
}

/// What a pass produced, in a form two passes can be compared by: the
/// per-node labels, and per function the fired rules, cover cost and asm.
struct PassOutput {
  Snapshot Labels;
  std::vector<std::vector<RuleId>> Rules;
  std::vector<Cost> Costs;
  std::vector<std::string> Asm;
  unsigned States = 0;
  std::size_t Transitions = 0;
  std::uint64_t NodesLabeled = 0;
};

PassOutput compileCorpus(const Target &T, std::vector<ir::IRFunction> &Corpus,
                         unsigned Workers) {
  std::unique_ptr<CompileService> Svc = makeService(T, Workers);
  std::vector<CompileResult> Results = compileAll(*Svc, Corpus);
  PassOutput Out;
  for (std::size_t I = 0; I < Corpus.size(); ++I) {
    const CompileResult &R = Results[I];
    EXPECT_TRUE(R.ok()) << R.Diagnostic;
    Out.Labels.push_back(
        labelingSnapshot(Corpus[I], T.G.numNonterminals(), automaton(*Svc)));
    std::vector<RuleId> Fired;
    for (const Match &M : R.Sel.Matches)
      Fired.push_back(M.Source);
    Out.Rules.push_back(std::move(Fired));
    Out.Costs.push_back(R.Sel.TotalCost);
    Out.Asm.push_back(R.Asm);
    Out.NodesLabeled += R.Stats.NodesLabeled;
  }
  Out.States = automaton(*Svc).numStates();
  Out.Transitions = automaton(*Svc).numTransitions();
  return Out;
}

void expectSamePass(const PassOutput &Ref, const PassOutput &Got) {
  EXPECT_EQ(Ref.Labels, Got.Labels);
  EXPECT_EQ(Ref.Rules, Got.Rules);
  EXPECT_EQ(Ref.Costs, Got.Costs);
  EXPECT_EQ(Ref.Asm, Got.Asm);
  // Same corpus, same content-addressed states: the tables converge to the
  // same size regardless of interleaving.
  EXPECT_EQ(Ref.States, Got.States);
  EXPECT_EQ(Ref.Transitions, Got.Transitions);
  EXPECT_EQ(Ref.NodesLabeled, Got.NodesLabeled);
}

} // namespace

TEST(ParallelLabel, FourThreadsBitIdenticalToSerial) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  PassOutput Serial = compileCorpus(*T, Corpus, 1);
  expectSamePass(Serial, compileCorpus(*T, Corpus, 4));
  expectSamePass(Serial, compileCorpus(*T, Corpus, 8));
}

TEST(ParallelLabel, MatchesDPLabelerPerFunction) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  // DP references first: DPLabeling owns its table (indexed by node id),
  // so the automaton relabeling the nodes afterwards does not disturb it.
  std::vector<DPLabeling> Refs;
  for (ir::IRFunction &F : Corpus)
    Refs.push_back(DPLabeler(T->G, &T->Dyn).label(F));

  std::unique_ptr<CompileService> Svc = makeService(*T, 4);
  compileAll(*Svc, Corpus);
  for (std::size_t I = 0; I < Corpus.size(); ++I)
    test::expectEquivalent(T->G, Corpus[I], Refs[I], automaton(*Svc));
}

TEST(ParallelLabel, WarmSecondPassIsAllHitsUnderThreads) {
  auto T = cantFail(makeTarget("x86"));
  std::vector<ir::IRFunction> Corpus = makeCorpus(T->G);

  std::unique_ptr<CompileService> Svc = makeService(*T, 4);
  compileAll(*Svc, Corpus);
  unsigned ColdStates = automaton(*Svc).numStates();
  std::size_t ColdTransitions = automaton(*Svc).numTransitions();

  SelectionStats Warm;
  for (const CompileResult &R : compileAll(*Svc, Corpus))
    Warm += R.Stats;
  EXPECT_EQ(automaton(*Svc).numStates(), ColdStates);
  EXPECT_EQ(automaton(*Svc).numTransitions(), ColdTransitions);
  EXPECT_EQ(Warm.StatesComputed, 0u);
  EXPECT_EQ(Warm.CacheHits, Warm.CacheProbes);
  EXPECT_EQ(Warm.CacheProbes, Warm.NodesLabeled);
}

TEST(ParallelLabel, ManySmallFunctionsStress) {
  // Lots of tiny functions maximize hand-out churn and shard contention;
  // eight workers on the shared automaton must still converge to the same
  // state set and output as a one-worker pass.
  auto T = cantFail(makeTarget("vm64"));
  const Profile *P = findProfile("gzip-like");
  ASSERT_NE(P, nullptr);
  std::vector<ir::IRFunction> Corpus =
      cantFail(generateBatch(*P, T->G, /*Count=*/64, /*TargetNodes=*/120));

  PassOutput Serial = compileCorpus(*T, Corpus, 1);
  expectSamePass(Serial, compileCorpus(*T, Corpus, 8));
}

// Workers=0 resolves to hardware concurrency inside the service; the
// resolved count is only checked to be positive, and the contract's
// outcome is asserted: the auto-selected pool labels the whole corpus.
TEST(ParallelLabel, ZeroThreadsAutoSelectsAndLabelsWholeCorpus) {
  auto T = cantFail(makeTarget("mips"));
  const Profile *P = findProfile("art-like");
  ASSERT_NE(P, nullptr);
  std::vector<ir::IRFunction> Corpus =
      cantFail(generateBatch(*P, T->G, /*Count=*/3, /*TargetNodes=*/400));

  std::unique_ptr<CompileService> Svc = makeService(*T, 0);
  EXPECT_GE(Svc->workers(), 1u);
  SelectionStats Stats;
  for (const CompileResult &R : compileAll(*Svc, Corpus))
    Stats += R.Stats;
  std::uint64_t Total = 0;
  for (const ir::IRFunction &F : Corpus)
    Total += F.size();
  EXPECT_EQ(Stats.NodesLabeled, Total);
}
