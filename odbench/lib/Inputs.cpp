//===- odbench/lib/Inputs.cpp - Seeded inputs and their references --------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "select/LabelerBackend.h"
#include "select/Reducer.h"
#include "support/Hashing.h"
#include "support/RNG.h"
#include "targets/AsmEmitter.h"
#include "workload/Synthetic.h"

using namespace odburg;
using namespace odbench;

std::vector<ir::IRFunction *> Corpus::pointers() {
  std::vector<ir::IRFunction *> Ps;
  Ps.reserve(Fns.size());
  for (ir::IRFunction &F : Fns)
    Ps.push_back(&F);
  return Ps;
}

std::uint64_t odbench::fingerprint(const std::vector<ir::IRFunction> &Fns,
                                   const Grammar &G) {
  std::uint64_t H = hashMix(Fns.size());
  for (const ir::IRFunction &F : Fns)
    H = hashCombine(H, hashString(toWire(F, G)));
  return H;
}

std::string odbench::toWire(const ir::IRFunction &F, const Grammar &G) {
  std::string Out;
  for (const ir::Node *Root : F.roots()) {
    Out += ir::toSExpr(Root, G);
    Out += '\n';
  }
  Out += '\n';
  return Out;
}

Expected<Corpus> odbench::x86Corpus(const Grammar &G, std::uint64_t Seed,
                                    unsigned Count, unsigned Nodes) {
  const std::vector<workload::Profile> &Profiles = workload::specProfiles();
  RNG Rand(hashCombine(Seed, 0x86));
  Corpus C;
  C.Fns.reserve(Count);
  for (unsigned I = 0; I < Count; ++I) {
    workload::Profile P = Profiles[I % Profiles.size()];
    P.Seed = Rand.next();
    P.TargetNodes = Nodes;
    Expected<ir::IRFunction> F = workload::generate(P, G);
    if (!F)
      return F.takeError();
    C.Nodes += F->size();
    C.Fns.push_back(std::move(*F));
  }
  C.Fingerprint = fingerprint(C.Fns, G);
  return C;
}

SynthesisParams odbench::synthParams(std::uint64_t Seed) {
  SynthesisParams P;
  P.NumLeafOps = 12;
  P.NumUnaryOps = 16;
  P.NumBinaryOps = 32;
  P.NumNts = 6;
  P.RulesPerOp = 16;
  P.Seed = hashCombine(Seed, 0x5e);
  return P;
}

Corpus odbench::synthCorpus(const Grammar &G, std::uint64_t Seed,
                            unsigned Count, unsigned Nodes) {
  RNG Rand(hashCombine(Seed, 0xc0));
  Corpus C;
  C.Fns.resize(Count);
  for (ir::IRFunction &F : C.Fns) {
    // Statement trees of up to 200 nodes until the function reaches its
    // size: deep enough to reach the states a large working set needs.
    while (F.size() < Nodes)
      F.addRoot(workload::synthesizeTree(G, F, Rand, 200));
    C.Nodes += F.size();
  }
  C.Fingerprint = fingerprint(C.Fns, G);
  return C;
}

std::vector<std::uint64_t> odbench::firedOf(const Selection &S) {
  std::vector<std::uint64_t> Out;
  Out.reserve(S.Matches.size());
  for (const Match &M : S.Matches)
    Out.push_back((static_cast<std::uint64_t>(M.Where->id()) << 32) ^
                  (static_cast<std::uint64_t>(M.Source) << 8) ^ M.Lhs);
  return Out;
}

Expected<std::vector<Reference>>
odbench::dpReference(const Grammar &G, const DynCostTable *Dyn, Corpus &C) {
  Expected<std::unique_ptr<LabelerBackend>> B =
      LabelerBackend::create(BackendKind::DP, G, Dyn);
  if (!B)
    return B.takeError();
  LabelerScratch LS;
  ReductionScratch RS;
  std::vector<Reference> Refs;
  Refs.reserve(C.Fns.size());
  for (ir::IRFunction &F : C.Fns) {
    const Labeling &L = (*B)->labelFunction(F, LS);
    Expected<Selection> S = reduce(G, F, L, Dyn, RS);
    if (!S)
      return S.takeError();
    targets::AsmBuffer Buf;
    if (Error E = targets::emitAsm(G, F, *S, Buf))
      return E;
    Reference R;
    R.Asm = std::move(Buf.Text);
    R.Cost = S->TotalCost.raw();
    R.Fired = firedOf(*S);
    Refs.push_back(std::move(R));
  }
  return Refs;
}

bool odbench::checkResult(Gate &G, CheckKind K, const Reference &Ref,
                          const pipeline::CompileResult &R, std::size_t Fn) {
  G.attempt();
  std::string Where = "function " + std::to_string(Fn);
  if (!R.ok()) {
    if (R.Kind == ErrorKind::DeadlineExceeded)
      G.deadline(Where + ": " + R.Diagnostic);
    else if (R.Kind == ErrorKind::ResourceExhausted)
      G.shed(Where + ": " + R.Diagnostic);
    else
      G.fail(Where + ": " + R.Diagnostic);
    return false;
  }
  bool Same = R.Sel.TotalCost.raw() == Ref.Cost &&
              (K == CheckKind::AsmAndCost ? R.Asm == Ref.Asm
                                          : firedOf(R.Sel) == Ref.Fired);
  if (!Same)
    G.mismatch(Where + " differs from the dp reference");
  return Same;
}

void odbench::corruptReference(std::vector<Reference> &Refs, CheckKind K) {
  if (Refs.empty())
    return;
  // Length-preserving for asm: a reader on the socket splits responses by
  // the reference's lengths, and must stay in step after the mismatch.
  if (K == CheckKind::AsmAndCost && !Refs.front().Asm.empty())
    Refs.front().Asm[0] ^= 0x20;
  else if (K == CheckKind::AsmAndCost)
    Refs.front().Cost += 1;
  else
    Refs.front().Fired.push_back(0);
}
