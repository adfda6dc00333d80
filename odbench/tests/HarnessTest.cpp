//===- odbench/tests/HarnessTest.cpp - The benchmark's own tests ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the measurement rules the benchmark's numbers rest on: the
/// percentile rule, unique metric and workload names, self times from
/// nested spans, seed determinism of the inputs, and that the correctness
/// gate fails a run whose output differs from the reference; every run
/// also has to report every metric of its kind. The name
/// rules themselves are checked by test_benchmark_json.py.
///
//===----------------------------------------------------------------------===//

#include "lib/Workloads.h"

#include "targets/Target.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

using namespace odbench;

namespace {

std::vector<double> oneTo(std::size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
  EXPECT_EQ(samplesBeyond(999, 99), 9u);
  EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(samplesBeyond(0, 50), 0u);

  std::vector<double> V = oneTo(1000);
  ASSERT_TRUE(tailPercentile(V, 99).has_value());
  EXPECT_EQ(*tailPercentile(V, 99), 990.0);
  EXPECT_FALSE(tailPercentile(V, 99.9).has_value());
  EXPECT_FALSE(tailPercentile(oneTo(999), 99).has_value());
  EXPECT_FALSE(tailPercentile({}, 50).has_value());
}

TEST(Percentiles, SummaryPicksHighestSupportedTail) {
  Summary S = summarize(oneTo(1000));
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.Median, 500.5);
  EXPECT_EQ(S.TailPct, 99.0);
  EXPECT_EQ(S.Tail, 990.0);

  S = summarize(oneTo(10000));
  EXPECT_EQ(S.TailPct, 99.9);
  EXPECT_EQ(S.Tail, 9990.0);

  S = summarize(oneTo(100)); // p90 has exactly 10 beyond it.
  EXPECT_EQ(S.TailPct, 90.0);
  EXPECT_EQ(S.Tail, 90.0);

  S = summarize(oneTo(50)); // Too few for any tail.
  EXPECT_EQ(S.Count, 50u);
  EXPECT_EQ(S.TailPct, 0.0);
  EXPECT_EQ(S.Median, 25.5);
}

TEST(Names, TablesAreUnique) {
  std::set<std::string> Seen;
  for (const WorkloadDef &W : workloadDefs()) {
    EXPECT_TRUE(Seen.insert(W.Name).second) << W.Name;
  }
  bool HasSetup = false;
  for (const MetricDef &M : metricDefs()) {
    EXPECT_TRUE(Seen.insert(M.Name).second) << M.Name;
    HasSetup |= std::string(M.Name) == "setup_s" && M.EndToEnd &&
                std::string(M.Unit) == "s" && !M.HigherIsBetter;
  }
  EXPECT_TRUE(HasSetup);
}

TEST(Report, RefusesForeignMetrics) {
  Report R(/*Traced=*/false);
  R.set("setup_s", 1.0);
  EXPECT_DEATH(R.set("select.label_share", 1.0), "does not belong");
  EXPECT_DEATH(R.set("setup_s", std::nan("")), "does not belong");
  EXPECT_DEATH(R.set("no_such_metric", 1.0), "does not belong");
  std::vector<std::string> Missing = R.missing();
  EXPECT_EQ(std::count(Missing.begin(), Missing.end(), "setup_s"), 0);
  EXPECT_EQ(std::count(Missing.begin(), Missing.end(), "warm_nodes_per_s"), 1);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> S = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},   // Overlaps a: the union counts once.
      {"a.x", 15, 20, 1, 1}, // Grandchild: only a loses it.
      {"c", 90, 120, 0, 1},  // Outlives the root: clipped.
      {"other", 0, 50, -1, 2},
  };
  std::vector<std::uint64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 100u - 50u - 10u);
  EXPECT_EQ(Self[1], 30u - 5u);
  EXPECT_EQ(Self[2], 30u);
  EXPECT_EQ(Self[3], 5u);
  EXPECT_EQ(Self[4], 30u);
  EXPECT_EQ(Self[5], 50u);

  std::map<std::string, NameTotals> Under = totalsByName(S, "root");
  EXPECT_EQ(Under.count("other"), 0u);
  EXPECT_EQ(Under["root"].TotalNs, 100u);
  EXPECT_EQ(Under["a.x"].SelfNs, 5u);
  EXPECT_EQ(totalsByName(S).size(), 6u);
}

TEST(Spans, DisabledTracerRecordsNothing) {
  Tracer Off(false);
  Tracer::SpanId Id = Off.begin("x", Tracer::None, 0);
  EXPECT_EQ(Id, Tracer::None);
  Off.end(Id);
  Off.endAt(Off.begin("y", Tracer::None, 0, 1), 2);
  EXPECT_TRUE(Off.spans().empty());

  Tracer On(true);
  {
    Tracer::Scope Outer(On, "outer", Tracer::None, 7);
    Tracer::Scope Inner(On, "inner", Outer.id(), 7);
  }
  On.endAt(On.begin("given", Tracer::None, 8, 5), 9);
  std::vector<Span> S = On.spans();
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[2].Start, 5u);
  EXPECT_EQ(S[2].End, 9u);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[1].Req, 7u);
  EXPECT_LE(S[0].Start, S[1].Start);
  EXPECT_GE(S[0].End, S[1].End);
}

TEST(Inputs, SameSeedSameFingerprint) {
  odburg::Expected<std::unique_ptr<odburg::targets::Target>> T =
      odburg::targets::makeTarget("x86");
  ASSERT_TRUE(static_cast<bool>(T));
  const odburg::Grammar &G = (*T)->G;
  odburg::Expected<Corpus> A = x86Corpus(G, 7, 4, 300);
  odburg::Expected<Corpus> B = x86Corpus(G, 7, 4, 300);
  odburg::Expected<Corpus> C = x86Corpus(G, 8, 4, 300);
  ASSERT_TRUE(A && B && C);
  EXPECT_EQ(A->Fingerprint, B->Fingerprint);
  EXPECT_EQ(A->Nodes, B->Nodes);
  EXPECT_NE(A->Fingerprint, C->Fingerprint);

  odburg::Expected<odburg::Grammar> SG1 =
      odburg::synthesizeGrammar(synthParams(3));
  odburg::Expected<odburg::Grammar> SG2 =
      odburg::synthesizeGrammar(synthParams(3));
  ASSERT_TRUE(SG1 && SG2);
  EXPECT_EQ(SG1->fingerprint(), SG2->fingerprint());
  EXPECT_EQ(SG1->numNormRules(), 786u);
  EXPECT_EQ(synthCorpus(*SG1, 3, 3, 500).Fingerprint,
            synthCorpus(*SG2, 3, 3, 500).Fingerprint);
  EXPECT_NE(synthCorpus(*SG1, 3, 3, 500).Fingerprint,
            synthCorpus(*SG1, 4, 3, 500).Fingerprint);
}

/// Runs \p Workload briefly and returns the gate's counts. Every run must
/// report every metric of its kind.
GateCounts smallRun(const std::string &Workload, bool Inject, double Seconds,
                    bool Traced = false) {
  RunConfig Cfg;
  Cfg.Workload = Workload;
  Cfg.Seed = 5;
  Cfg.Seconds = Seconds;
  Cfg.Trace = Traced;
  Cfg.InjectMismatch = Inject;
  Report R(Traced);
  Gate G;
  Tracer T(Traced);
  std::string Err;
  EXPECT_TRUE(runWorkload(Cfg, R, G, T, Err)) << Err;
  for (const std::string &M : R.missing())
    ADD_FAILURE() << Workload << " did not report " << M;
  return G.counts();
}

// The gate must fail a run whose output differs from the reference; the
// same run without the injected difference must pass. One per path the
// outputs travel: the compile service, the batch service with snapshot
// restore, and the socket.
TEST(Gate, JitX86MismatchFailsTheRun) {
  GateCounts Clean = smallRun("jit-x86", false, 2);
  EXPECT_GT(Clean.Attempted, 0u);
  EXPECT_EQ(Clean.bad(), 0u);
  GateCounts Bad = smallRun("jit-x86", true, 2);
  EXPECT_GT(Bad.Mismatched, 0u);
  EXPECT_GT(Bad.errorRatio(), 0.0);
}

TEST(Gate, SynthColdMismatchFailsTheRun) {
  EXPECT_EQ(smallRun("synth-cold", false, 1).bad(), 0u);
  EXPECT_GT(smallRun("synth-cold", true, 1).Mismatched, 0u);
}

TEST(Gate, ServeOpenMismatchFailsTheRun) {
  EXPECT_EQ(smallRun("serve-open", false, 1).bad(), 0u);
  EXPECT_GT(smallRun("serve-open", true, 1).Mismatched, 0u);
}

// The traced runs report every per-layer metric. synth-cold's is left to
// the benchmark's own runs: its offline tables alone take seconds.
TEST(Report, TracedRunsReportEveryLayer) {
  EXPECT_EQ(smallRun("jit-x86", false, 1, true).bad(), 0u);
  EXPECT_EQ(smallRun("serve-open", false, 1, true).bad(), 0u);
}

} // namespace
