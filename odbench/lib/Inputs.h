//===- odbench/lib/Inputs.h - Seeded inputs and their references ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything a workload feeds the program is generated here from the run's
/// seed: grammars, corpora, wire frames. The reference every output is
/// checked against is computed here too, before timing starts, by the
/// serial dp backend — a different labeling engine from the ones measured.
///
//===----------------------------------------------------------------------===//

#ifndef ODBENCH_INPUTS_H
#define ODBENCH_INPUTS_H

#include "Harness.h"

#include "grammar/Synthesize.h"
#include "ir/Node.h"
#include "pipeline/CompileService.h"
#include "select/DynCost.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace odbench {

struct Corpus {
  std::vector<odburg::ir::IRFunction> Fns;
  std::uint64_t Nodes = 0;
  /// Hash of every function's s-expression text: equal seeds must give
  /// equal fingerprints.
  std::uint64_t Fingerprint = 0;

  std::vector<odburg::ir::IRFunction *> pointers();
};

/// \p Count functions of about \p Nodes nodes each, from the SPEC-like
/// synthetic profiles in turn, each with its own seeded generator stream.
/// Every profile gets an equal share, so that the corpora of different
/// seeds differ in their functions but not in their mix of profiles,
/// which sets most of what a corpus costs to compile.
odburg::Expected<Corpus> x86Corpus(const odburg::Grammar &G,
                                   std::uint64_t Seed, unsigned Count,
                                   unsigned Nodes);

/// The synth-cold grammar: 60 operators (12 leaves, 16 unary, 32 binary),
/// 6 nonterminals, 16 rules per interior operator, 786 normalized rules.
odburg::SynthesisParams synthParams(std::uint64_t Seed);

/// Random trees over any grammar, about \p Nodes nodes per function.
Corpus synthCorpus(const odburg::Grammar &G, std::uint64_t Seed,
                   unsigned Count, unsigned Nodes);

std::uint64_t fingerprint(const std::vector<odburg::ir::IRFunction> &Fns,
                          const odburg::Grammar &G);

/// The serve wire format: one s-expression line per root, then a blank
/// line.
std::string toWire(const odburg::ir::IRFunction &F, const odburg::Grammar &G);

/// One function's expected output.
struct Reference {
  std::string Asm;
  std::uint64_t Cost = 0;
  /// (node id, source rule, nonterminal) per fired rule, in order.
  std::vector<std::uint64_t> Fired;
};

/// What a workload checks: the asm bytes (x86) or the fired-rule sequence
/// (synthesized grammars, which carry no emit templates), and always the
/// cover cost.
enum class CheckKind { AsmAndCost, FiredAndCost };

std::vector<std::uint64_t> firedOf(const odburg::Selection &S);

/// Serial dp label, reduce and emit of every function.
odburg::Expected<std::vector<Reference>>
dpReference(const odburg::Grammar &G, const odburg::DynCostTable *Dyn,
            Corpus &C);

/// Checks one compile result against \p Ref and counts it in \p G.
/// Returns whether it passed.
bool checkResult(Gate &G, CheckKind K, const Reference &Ref,
                 const odburg::pipeline::CompileResult &R, std::size_t Fn);

/// Test seam for the gate: alters one reference entry so every output of
/// that function must be reported as a mismatch.
void corruptReference(std::vector<Reference> &Refs, CheckKind K);

} // namespace odbench

#endif // ODBENCH_INPUTS_H
