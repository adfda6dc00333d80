//===- odbench/lib/Compile.cpp - jit-x86, synth-cold and their layers -----===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "ir/SExprParser.h"
#include "registry/WarmSnapshot.h"
#include "select/Reducer.h"
#include "support/StringUtil.h"
#include "targets/AsmEmitter.h"
#include "targets/Target.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

using namespace odburg;
using namespace odbench;

bool odbench::runWorkload(const RunConfig &Cfg, Report &R, Gate &G, Tracer &T,
                          std::string &Err) {
  bool Ran = false;
  if (Cfg.Workload == "jit-x86")
    Ran = runJitX86(Cfg, R, G, T, Err);
  else if (Cfg.Workload == "synth-cold")
    Ran = runSynthCold(Cfg, R, G, T, Err);
  else if (Cfg.Workload == "serve-open")
    Ran = runServeOpen(Cfg, R, G, T, Err);
  else
    Err = "unknown workload '" + Cfg.Workload + "'";
  if (!Ran)
    return false;
  if (Cfg.Trace)
    R.set("error_ratio", G.counts().errorRatio());
  else
    R.set("peak_rss_mb", peakRssMb());
  return true;
}

static double ratio(std::uint64_t Num, std::uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

//===-- Lanes and their life cycle ------------------------------------------===//

Expected<std::unique_ptr<LabelerBackend>>
odbench::createBackend(const Engine &E, Tracer &T, Tracer::SpanId Parent,
                       std::uint64_t Req) {
  Tracer::Scope Create(T, "select.create", Parent, Req);
  return LabelerBackend::create(E.Kind, E.G, E.Dyn);
}

std::unique_ptr<Lane> odbench::startLane(const Engine &E,
                                         std::unique_ptr<LabelerBackend> B,
                                         Tracer &T, Tracer::SpanId Parent,
                                         std::uint64_t Req) {
  auto L = std::make_unique<Lane>();
  L->B = std::move(B);
  pipeline::CompileService::Options Opts;
  Opts.Workers = E.Workers;
  std::atomic<std::uint64_t> *Delivered = &L->DeliveredNs;
  Opts.OnResult = [Delivered](std::size_t, const pipeline::CompileResult &) {
    Delivered->store(nowNs(), std::memory_order_relaxed);
  };
  Tracer::Scope Start(T, "pipeline.start", Parent, Req);
  L->Svc = std::make_unique<pipeline::CompileService>(E.G, E.Dyn, *L->B,
                                                      std::move(Opts));
  return L;
}

void odbench::closedLoopPass(Lane &L, Corpus &C,
                             const std::vector<Reference> &Refs, CheckKind K,
                             Gate &G, Tracer &T, std::uint64_t &NextReq,
                             ClosedLoop &Out, bool Record) {
  std::uint64_t PassStart = nowNs();
  for (std::size_t I = 0; I < C.Fns.size(); ++I) {
    std::uint64_t Req = NextReq++;
    std::uint64_t Sub = nowNs();
    Tracer::SpanId Request = T.begin("pipeline.request", Tracer::None, Req, Sub);
    Tracer::SpanId Id = T.begin("pipeline.submit", Request, Req);
    Expected<std::future<pipeline::CompileResult>> F = L.Svc->submit(C.Fns[I]);
    T.end(Id);
    if (!F) {
      T.end(Request);
      G.attempt();
      G.fail("submit: " + F.message());
      continue;
    }
    pipeline::CompileResult R = F->get();
    // The promise is fulfilled after the sink ran, so this load sees this
    // submission's delivery time.
    std::uint64_t Del = L.DeliveredNs.load(std::memory_order_relaxed);
    T.endAt(Request, Del);
    checkResult(G, K, Refs[I], R, I);
    Out.Stats += R.Stats;
    if (!Record)
      continue;
    double Lat = static_cast<double>(Del - Sub) / 1e3;
    double Compute = static_cast<double>(R.LabelNs + R.ReduceNs + R.EmitNs) /
                     1e3;
    Out.LatencyUs.push_back(Lat);
    Out.ComputeUs.push_back(Compute);
    Out.WaitUs.push_back(std::max(0.0, Lat - Compute));
  }
  if (Record)
    Out.PassNodesPerS.push_back(static_cast<double>(C.Nodes) * 1e9 /
                                static_cast<double>(nowNs() - PassStart));
}

static bool requireTail(const std::vector<double> &Samples, double P,
                        double &Out, const char *What, std::string &Err) {
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  std::optional<double> V = tailPercentile(Sorted, P);
  if (!V) {
    Err = formatf("%s: %zu samples do not support p%g (need %zu beyond it)",
                  What, Samples.size(), P, MinSamplesBeyond);
    return false;
  }
  Out = *V;
  return true;
}

bool odbench::reportClosedLoop(const ClosedLoop &L, Report &R, bool Traced,
                               bool Pipeline, std::string &Err) {
  // fn_latency_p99_us: the p99 of each window of 1000 consecutive
  // functions (ten beyond each), and the median of those: see windowTails.
  std::vector<double> Windows = windowTails(L.LatencyUs, MinLatencySamples, 99);
  if (!Traced) {
    R.set("fn_latency_p50_us", median(L.LatencyUs));
    R.note(formatf("LATENCY {\"fn_latency_p99_us\":%.4f}", median(Windows)));
    R.detail("fn_latency_us", summarize(L.LatencyUs), "us");
    return true;
  }
  if (Windows.empty()) {
    Err = formatf("fn_latency_p99_us: %zu samples make no window of %zu",
                  L.LatencyUs.size(), MinLatencySamples);
    return false;
  }
  R.set("fn_latency_p99_us", median(Windows));
  if (!Pipeline)
    return true;
  double WaitP99 = 0;
  if (!requireTail(L.WaitUs, 99, WaitP99, "pipeline.wait_us_p99", Err))
    return false;
  R.set("pipeline.compute_us_p50", median(L.ComputeUs));
  R.set("pipeline.wait_us_p50", median(L.WaitUs));
  R.set("pipeline.wait_us_p99", WaitP99);
  return true;
}

/// Compiles the whole batch through \p L (closed loop on the batch: all
/// submitted, all delivered) and checks every result. Returns the wall
/// time from the first submit to the last delivery.
static std::uint64_t batchPass(Lane &L, Corpus &C,
                               const std::vector<Reference> &Refs,
                               CheckKind K, Gate &G, Tracer &T,
                               const char *Name, std::uint64_t Req,
                               SelectionStats *Stats) {
  std::vector<ir::IRFunction *> Ps = C.pointers();
  std::uint64_t Start = nowNs();
  Tracer::SpanId Id = T.begin(Name, Tracer::None, Req);
  Expected<std::vector<std::future<pipeline::CompileResult>>> Futs =
      L.Svc->submitBatch(Ps);
  L.Svc->drain();
  T.end(Id);
  std::uint64_t Wall = nowNs() - Start;
  if (!Futs) {
    G.attempt(C.Fns.size());
    for (std::size_t I = 0; I < C.Fns.size(); ++I)
      G.fail("submit: " + Futs.message());
    return Wall;
  }
  for (std::size_t I = 0; I < Futs->size(); ++I) {
    pipeline::CompileResult R = (*Futs)[I].get();
    if (Stats)
      *Stats += R.Stats;
    checkResult(G, K, Refs[I], R, I);
  }
  return Wall;
}

/// Gives a fresh service's worker threads time to start and block on
/// their queue, so that a cold or restored pass times the backend's first
/// labeling and not thread start-up, which on a virtual machine with
/// stolen CPU time can take milliseconds.
static void settle() {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

bool odbench::lifeCycle(const Engine &E, Corpus &C,
                        const std::vector<Reference> &Refs,
                        unsigned WarmPasses, ClosedLoop *Latency, Gate &G,
                        Tracer &T, std::uint64_t &NextReq, LifeCycle &Out,
                        std::string &Err) {
  std::uint64_t Req = NextReq++;
  Out.Warm.reset();
  Expected<std::unique_ptr<LabelerBackend>> B =
      createBackend(E, T, Tracer::None, Req);
  if (!B) {
    Err = "backend: " + B.message();
    return false;
  }
  Out.Warm = startLane(E, std::move(*B), T, Tracer::None, Req);
  settle();
  Lane &W = *Out.Warm;
  Out.ColdStats.reset();
  Out.ColdMs.push_back(ms(batchPass(W, C, Refs, E.Check, G, T, "pass.cold",
                                    Req, &Out.ColdStats)));
  for (unsigned P = 0; P < WarmPasses; ++P)
    Out.WarmNodesPerS.push_back(
        static_cast<double>(C.Nodes) * 1e9 /
        static_cast<double>(batchPass(W, C, Refs, E.Check, G, T, "pass.warm",
                                      Req, nullptr)));
  if (Latency)
    closedLoopPass(W, C, Refs, E.Check, G, T, NextReq, *Latency, true);

  // Snapshot the warm automaton and restore it into a fresh backend: a
  // restarted process skipping its re-warm. The service is idle, so the
  // automaton is quiescent.
  std::ostringstream Dump;
  std::uint64_t T0 = nowNs();
  Tracer::SpanId Id = T.begin("registry.snapshot_dump", Tracer::None, Req);
  Error DumpErr = registry::dumpWarmSnapshot(
      static_cast<OnDemandBackend &>(*W.B).automaton(), E.G, Dump);
  T.end(Id);
  Out.DumpMs.push_back(ms(nowNs() - T0));
  if (DumpErr) {
    Err = "snapshot dump: " + DumpErr.message();
    return false;
  }
  std::string Bytes = Dump.str();
  Out.SnapshotKb = static_cast<double>(Bytes.size()) / 1e3;
  Expected<std::unique_ptr<LabelerBackend>> RB =
      createBackend(E, T, Tracer::None, Req);
  if (!RB) {
    Err = "backend: " + RB.message();
    return false;
  }
  std::istringstream In(Bytes);
  T0 = nowNs();
  Id = T.begin("registry.snapshot_load", Tracer::None, Req);
  Expected<registry::WarmSnapshotStats> Loaded = registry::loadWarmSnapshot(
      static_cast<OnDemandBackend &>(**RB).automaton(), E.G, In);
  T.end(Id);
  Out.LoadMs.push_back(ms(nowNs() - T0));
  if (!Loaded) {
    Err = "snapshot load: " + Loaded.message();
    return false;
  }
  std::unique_ptr<Lane> Restored =
      startLane(E, std::move(*RB), T, Tracer::None, Req);
  settle();
  Out.RestoredMs.push_back(ms(batchPass(*Restored, C, Refs, E.Check, G, T,
                                        "pass.restored", Req, nullptr)));
  return true;
}

void odbench::reportLifeCycle(const LifeCycle &L, Report &R, bool Traced) {
  if (!Traced) {
    R.set("cold_pass_ms", median(L.ColdMs));
    R.set("restored_pass_ms", median(L.RestoredMs));
    R.detail("cold_pass_ms", summarize(L.ColdMs), "ms");
    R.detail("restored_pass_ms", summarize(L.RestoredMs), "ms");
    return;
  }
  R.set("registry.snapshot_dump_ms", median(L.DumpMs));
  R.set("registry.snapshot_load_ms", median(L.LoadMs));
  R.set("registry.snapshot_kb", L.SnapshotKb);
  R.set("core.states_computed", static_cast<double>(L.ColdStats.StatesComputed));
  const auto &A = static_cast<const OnDemandBackend &>(*L.Warm->B).automaton();
  R.set("core.states", A.numStates());
  R.set("core.transitions", static_cast<double>(A.numTransitions()));
}

//===-- Direct passes and the per-layer split -------------------------------===//

DirectPass odbench::directPass(const Grammar &Gr, const DynCostTable *Dyn,
                               LabelerBackend &B, Corpus &C,
                               const std::vector<Reference> &Refs,
                               CheckKind K, Gate &G, Tracer &T,
                               const char *RootName, std::uint64_t &NextReq) {
  // Like a service worker's, this thread's scratch lives across passes
  // (and backends: the L1 micro-cache is invalidated on rebind).
  static thread_local LabelerScratch LS;
  static thread_local ReductionScratch RS;
  DirectPass P;
  pipeline::CompileResult Out;
  targets::AsmBuffer Buf;
  std::uint64_t Start = nowNs();
  for (std::size_t I = 0; I < C.Fns.size(); ++I) {
    ir::IRFunction &F = C.Fns[I];
    std::uint64_t Req = NextReq++;
    Tracer::SpanId Root = T.begin(RootName, Tracer::None, Req);
    Tracer::SpanId Id = T.begin("select.label", Root, Req);
    const Labeling &L = B.labelFunction(F, LS, &Out.Stats);
    T.end(Id);
    Id = T.begin("select.reduce", Root, Req);
    Expected<Selection> S = reduce(Gr, F, L, Dyn, RS);
    T.end(Id);
    Buf.clear();
    if (!S) {
      Out.Diagnostic = S.message();
    } else {
      Out.Sel = std::move(*S);
      Id = T.begin("targets.emit", Root, Req);
      Error E = targets::emitAsm(Gr, F, Out.Sel, Buf);
      T.end(Id);
      if (E)
        Out.Diagnostic = E.message();
    }
    T.end(Root);
    P.Stats += Out.Stats;
    Out.Stats.reset();
    P.AsmBytes += Buf.sizeBytes();
    P.Insns += Buf.Instructions;
    // Outside the compile span but inside the pass: checking against a
    // prepared reference costs far less than the compile it checks.
    Out.Asm.swap(Buf.Text);
    checkResult(G, K, Refs[I], Out, I);
    Out.Asm.swap(Buf.Text);
    Out.Diagnostic.clear();
  }
  P.WallNs = nowNs() - Start;
  return P;
}

namespace {
struct LayerSplit {
  double LabelNs = 0, ReduceNs = 0, EmitNs = 0, CompileNs = 0;
  double share(double X) const { return CompileNs > 0 ? X / CompileNs : 0; }
  double coverage() const {
    return CompileNs > 0 ? (LabelNs + ReduceNs + EmitNs) / CompileNs : 0;
  }
};
} // namespace

static LayerSplit splitUnder(const std::vector<Span> &Spans,
                             const char *RootName) {
  std::map<std::string, NameTotals> Tot = totalsByName(Spans, RootName);
  LayerSplit S;
  S.LabelNs = static_cast<double>(Tot["select.label"].SelfNs);
  S.ReduceNs = static_cast<double>(Tot["select.reduce"].SelfNs);
  S.EmitNs = static_cast<double>(Tot["targets.emit"].SelfNs);
  S.CompileNs = static_cast<double>(Tot[RootName].TotalNs);
  return S;
}

void odbench::measureLayers(const Grammar &Gr, const DynCostTable *Dyn,
                            LabelerBackend &B, Corpus &C,
                            const std::vector<Reference> &Refs, CheckKind K,
                            Gate &G, Tracer &T, double Seconds,
                            std::uint64_t &NextReq, Report &R) {
  Tracer Off(false);
  std::vector<double> PlainNs, TracedNs;
  SelectionStats Stats;
  std::uint64_t Nodes = 0, AsmBytes = 0, Insns = 0;
  std::uint64_t Deadline = nowNs() + static_cast<std::uint64_t>(Seconds * 1e9);
  // Alternating passes put both sides under the same drift, so their
  // ratio is the tracing overhead rather than the machine's mood.
  do {
    PlainNs.push_back(static_cast<double>(
        directPass(Gr, Dyn, B, C, Refs, K, G, Off, "compile", NextReq)
            .WallNs));
    DirectPass P = directPass(Gr, Dyn, B, C, Refs, K, G, T, "compile", NextReq);
    TracedNs.push_back(static_cast<double>(P.WallNs));
    Stats += P.Stats;
    Nodes += C.Nodes;
    AsmBytes += P.AsmBytes;
    Insns += P.Insns;
  } while (nowNs() < Deadline);

  LayerSplit S = splitUnder(T.spans(), "compile");
  double N = static_cast<double>(Nodes);
  R.set("select.label_ns_per_node", S.LabelNs / N);
  R.set("select.reduce_ns_per_node", S.ReduceNs / N);
  R.set("targets.emit_ns_per_node", S.EmitNs / N);
  R.set("select.label_share", S.share(S.LabelNs));
  R.set("select.reduce_share", S.share(S.ReduceNs));
  R.set("targets.emit_share", S.share(S.EmitNs));
  R.set("bench.span_coverage", S.coverage());
  R.set("bench.trace_overhead_pct",
        100.0 * (median(TracedNs) / median(PlainNs) - 1.0));
  std::uint64_t Probes = Stats.L1Probes + Stats.DenseProbes + Stats.CacheProbes;
  R.set("core.probes_per_node", static_cast<double>(Probes) / N);
  R.set("core.l1_hit_ratio", ratio(Stats.L1Hits, Stats.L1Probes));
  R.set("core.dense_hit_ratio", ratio(Stats.DenseHits, Stats.DenseProbes));
  R.set("core.l2_hit_ratio", ratio(Stats.CacheHits, Stats.CacheProbes));
  // Exact counts that guard code quality; not metrics, since synthesized
  // grammars carry no emit templates and emit nothing.
  R.note(formatf("LAYERS passes=%zu label/reduce/emit = %.1f / %.1f / %.1f "
                 "%% of the compile span, coverage %.4f, "
                 "asm_bytes_per_node %.4f, insns_per_node %.4f",
                 TracedNs.size(), 100 * S.share(S.LabelNs),
                 100 * S.share(S.ReduceNs), 100 * S.share(S.EmitNs),
                 S.coverage(), static_cast<double>(AsmBytes) / N,
                 static_cast<double>(Insns) / N));
}

bool odbench::compareBackends(const Grammar &Gr, const DynCostTable *Dyn,
                              const Grammar &FixedG, Corpus &C,
                              const std::vector<Reference> &Refs,
                              Corpus &FixedC,
                              const std::vector<Reference> &FixedRefs,
                              CheckKind K, Gate &G, Tracer &T, double Seconds,
                              std::uint64_t &NextReq, Report &R,
                              std::string &Err) {
  struct Row {
    BackendKind Kind;
    const char *Root;
  };
  const Row Rows[] = {{BackendKind::DP, "compile.dp"},
                      {BackendKind::Offline, "compile.offline"},
                      {BackendKind::OnDemand, "compile.ondemand"},
                      {BackendKind::Hybrid, "compile.hybrid"}};
  std::string Table =
      formatf("TABLE where the time goes: warm, 1 thread, %zu functions / "
              "%llu nodes (offline: fixed-cost grammar)\n"
              "TABLE %-9s %9s %9s  %-22s %14s",
              C.Fns.size(), static_cast<unsigned long long>(C.Nodes),
              "backend", "pass ms", "create ms", "label / reduce / emit %",
              "label ns/node");
  for (const Row &Row : Rows) {
    bool Fixed = Row.Kind == BackendKind::Offline;
    const Grammar &RG = Fixed ? FixedG : Gr;
    const DynCostTable *RDyn = Fixed ? nullptr : Dyn;
    Corpus &RC = Fixed ? FixedC : C;
    const std::vector<Reference> &RRefs = Fixed ? FixedRefs : Refs;

    std::uint64_t CreateStart = nowNs();
    Tracer::SpanId Create = T.begin("select.create", Tracer::None, NextReq);
    Expected<std::unique_ptr<LabelerBackend>> B =
        LabelerBackend::create(Row.Kind, RG, RDyn);
    T.end(Create);
    std::uint64_t CreateNs = nowNs() - CreateStart;
    if (!B) {
      Err = std::string("creating the ") + backendName(Row.Kind) +
            " backend: " + B.message();
      return false;
    }
    if (Fixed) {
      R.set("offline.gen_ms", ms(CreateNs));
      R.set("offline.states", (*B)->numStates());
    }
    Tracer Off(false);
    directPass(RG, RDyn, **B, RC, RRefs, K, G, Off, Row.Root, NextReq);
    std::vector<double> PassNs;
    std::uint64_t Nodes = 0;
    SelectionStats Stats;
    std::uint64_t Deadline =
        nowNs() + static_cast<std::uint64_t>(Seconds / 4 * 1e9);
    do {
      DirectPass P =
          directPass(RG, RDyn, **B, RC, RRefs, K, G, T, Row.Root, NextReq);
      PassNs.push_back(static_cast<double>(P.WallNs));
      Stats += P.Stats;
      Nodes += RC.Nodes;
    } while (nowNs() < Deadline);
    if (Row.Kind == BackendKind::Hybrid)
      R.set("select.offline_hit_ratio", ratio(Stats.OfflineHits, Nodes));
    LayerSplit S = splitUnder(T.spans(), Row.Root);
    double LabelPerNode = S.LabelNs / static_cast<double>(Nodes);
    if (Row.Kind != BackendKind::OnDemand)
      R.set(std::string("select.label_ns_per_node.") + backendName(Row.Kind),
            LabelPerNode);
    Table += formatf("\nTABLE %-9s %9.2f %9.3f  %5.1f / %5.1f / %5.1f %7s "
                     "%14.1f",
                     backendName(Row.Kind), median(PassNs) / 1e6,
                     ms(CreateNs), 100 * S.share(S.LabelNs),
                     100 * S.share(S.ReduceNs), 100 * S.share(S.EmitNs), "",
                     LabelPerNode);
  }
  R.note(Table);
  return true;
}

bool odbench::measureParse(const Grammar &Gr, Corpus &C, Tracer &T,
                           std::uint64_t &NextReq, Report &R,
                           std::string &Err) {
  std::vector<std::string> Wire;
  for (const ir::IRFunction &F : C.Fns)
    Wire.push_back(toWire(F, Gr));
  std::uint64_t ParseNs = 0, ParsedNodes = 0;
  for (unsigned Rep = 0; Rep < 5; ++Rep) {
    for (const std::string &W : Wire) {
      ir::IRFunction F;
      std::uint64_t P0 = nowNs();
      Tracer::SpanId Id = T.begin("ir.parse", Tracer::None, NextReq++);
      Error E = ir::parseSExprProgram(W, Gr, F);
      T.end(Id);
      ParseNs += nowNs() - P0;
      if (E) {
        Err = "parsing a generated frame: " + E.message();
        return false;
      }
      ParsedNodes += F.size();
    }
  }
  R.set("ir.parse_ns_per_node", static_cast<double>(ParseNs) /
                                    static_cast<double>(ParsedNodes));
  return true;
}

//===-- jit-x86 -------------------------------------------------------------===//

namespace {
constexpr unsigned JitFunctions = 64;
constexpr unsigned JitNodes = 2000;
constexpr unsigned JitSetupReps = 101;
/// Closed-loop passes per life cycle (cold pass + restored pass) in the
/// untraced run: about a third of the time goes to the life cycles.
constexpr unsigned JitPassesPerCycle = 4;

/// The JIT's compile stack: grammar, backend, one-worker service. Member
/// order is destruction order in reverse: lane, then target.
struct JitStack {
  std::unique_ptr<targets::Target> T;
  std::unique_ptr<Lane> L;
  std::uint64_t GrammarNs = 0;
  std::uint64_t SetupNs = 0;
};

Engine jitEngine(const targets::Target &Tgt) {
  return Engine{Tgt.G, &Tgt.Dyn, BackendKind::OnDemand, 1,
                CheckKind::AsmAndCost};
}
} // namespace

static Expected<std::unique_ptr<JitStack>> buildJit(Tracer &T) {
  auto S = std::make_unique<JitStack>();
  std::uint64_t Start = nowNs();
  Tracer::Scope Setup(T, "setup", Tracer::None, 0);
  Tracer::SpanId Id = T.begin("grammar.build", Setup.id(), 0);
  Expected<std::unique_ptr<targets::Target>> Tgt = targets::makeTarget("x86");
  T.end(Id);
  if (!Tgt)
    return Tgt.takeError();
  S->T = std::move(*Tgt);
  S->GrammarNs = nowNs() - Start;
  Engine E = jitEngine(*S->T);
  Expected<std::unique_ptr<LabelerBackend>> B =
      createBackend(E, T, Setup.id(), 0);
  if (!B)
    return B.takeError();
  S->L = startLane(E, std::move(*B), T, Setup.id(), 0);
  S->SetupNs = nowNs() - Start;
  return S;
}

bool odbench::runJitX86(const RunConfig &Cfg, Report &R, Gate &G, Tracer &T,
                        std::string &Err) {
  SetupSampler<JitStack> Setups(JitSetupReps, buildJit);
  Expected<std::unique_ptr<JitStack>> Built = Setups.first(T);
  if (!Built) {
    Err = "setup: " + Built.message();
    return false;
  }
  JitStack &S = **Built;
  const targets::Target &Tgt = *S.T;
  Engine E = jitEngine(Tgt);

  Expected<Corpus> C = x86Corpus(Tgt.G, Cfg.Seed, JitFunctions, JitNodes);
  if (!C) {
    Err = "corpus: " + C.message();
    return false;
  }
  R.note(formatf("INPUT {\"corpus_fingerprint\":\"%016llx\",\"functions\":"
                 "%zu,\"nodes\":%llu}",
                 static_cast<unsigned long long>(C->Fingerprint),
                 C->Fns.size(), static_cast<unsigned long long>(C->Nodes)));
  Expected<std::vector<Reference>> Refs = dpReference(Tgt.G, &Tgt.Dyn, *C);
  if (!Refs) {
    Err = "reference: " + Refs.message();
    return false;
  }
  if (Cfg.InjectMismatch)
    corruptReference(*Refs, CheckKind::AsmAndCost);

  std::uint64_t NextReq = 1;
  Tracer Off(false);
  // Warm-up: the first pass on the fresh backend computes its states.
  ClosedLoop Cold;
  closedLoopPass(*S.L, *C, *Refs, E.Check, G, Off, NextReq, Cold, false);

  ClosedLoop L;
  LifeCycle Life;
  if (!Cfg.Trace) {
    // Closed-loop passes on the warm stack, a life cycle on fresh lanes
    // after every few, until the time is up and there is a latency window.
    Setups.spread(Cfg.Seconds);
    unsigned Passes = 0;
    bool Ok = repeatFor(
        Cfg.Seconds,
        [&] {
          closedLoopPass(*S.L, *C, *Refs, E.Check, G, Off, NextReq, L, true);
          if (++Passes % JitPassesPerCycle == 0 &&
              !lifeCycle(E, *C, *Refs, 0, nullptr, G, Off, NextReq, Life,
                         Err))
            return false;
          return Setups.poll(T, Err);
        },
        [&] {
          return L.LatencyUs.size() >= MinLatencySamples &&
                 !Life.ColdMs.empty();
        });
    if (!Ok || !Setups.finish(R, T, Err) ||
        !reportClosedLoop(L, R, false, false, Err))
      return false;
    R.set("warm_nodes_per_s", median(L.PassNodesPerS));
    R.detail("warm_nodes_per_s", summarize(L.PassNodesPerS), "nodes/s");
    reportLifeCycle(Life, R, false);
    R.set("backend_mb", static_cast<double>(S.L->B->memoryBytes()) / 1e6);
    return true;
  }

  // Traced: the set-up samples back to back, the service path with
  // request spans, life cycles, then the layer split on the same warm
  // backend, then the four-backend comparison.
  if (!Setups.finish(R, T, Err))
    return false;
  repeatFor(
      0.25 * Cfg.Seconds,
      [&] {
        closedLoopPass(*S.L, *C, *Refs, E.Check, G, T, NextReq, L, true);
        return true;
      },
      [&] { return L.LatencyUs.size() >= MinLatencySamples; });
  if (!reportClosedLoop(L, R, true, true, Err))
    return false;
  if (!repeatFor(
          0.1 * Cfg.Seconds,
          [&] {
            return lifeCycle(E, *C, *Refs, 0, nullptr, G, T, NextReq, Life,
                             Err);
          },
          [] { return true; }))
    return false;
  reportLifeCycle(Life, R, true);
  Life.Warm.reset();

  measureLayers(Tgt.G, &Tgt.Dyn, *S.L->B, *C, *Refs, E.Check, G, T,
                0.3 * Cfg.Seconds, NextReq, R);
  if (!measureParse(Tgt.G, *C, T, NextReq, R, Err))
    return false;

  Expected<Corpus> FixedC =
      x86Corpus(Tgt.Fixed, Cfg.Seed, JitFunctions, JitNodes);
  if (!FixedC) {
    Err = "fixed-grammar corpus: " + FixedC.message();
    return false;
  }
  Expected<std::vector<Reference>> FixedRefs =
      dpReference(Tgt.Fixed, nullptr, *FixedC);
  if (!FixedRefs) {
    Err = "fixed-grammar reference: " + FixedRefs.message();
    return false;
  }
  return compareBackends(Tgt.G, &Tgt.Dyn, Tgt.Fixed, *C, *Refs, *FixedC,
                         *FixedRefs, E.Check, G, T, 0.35 * Cfg.Seconds,
                         NextReq, R, Err);
}

//===-- synth-cold ----------------------------------------------------------===//

namespace {
constexpr unsigned SynthFunctions = 64;
constexpr unsigned SynthNodes = 2000;
constexpr unsigned SynthWorkers = 2;
constexpr unsigned SynthWarmPasses = 3;
constexpr unsigned SynthSetupReps = 51;

struct SynthStack {
  std::unique_ptr<Grammar> G;
  std::unique_ptr<Lane> L;
  std::uint64_t GrammarNs = 0;
  std::uint64_t SetupNs = 0;
};

Engine synthEngine(const Grammar &G) {
  return Engine{G, nullptr, BackendKind::OnDemand, SynthWorkers,
                CheckKind::FiredAndCost};
}
} // namespace

bool odbench::runSynthCold(const RunConfig &Cfg, Report &R, Gate &G,
                           Tracer &T, std::string &Err) {
  auto Build = [&Cfg](Tracer &T) -> Expected<std::unique_ptr<SynthStack>> {
    auto S = std::make_unique<SynthStack>();
    std::uint64_t Start = nowNs();
    Tracer::Scope Setup(T, "setup", Tracer::None, 0);
    Tracer::SpanId Id = T.begin("grammar.build", Setup.id(), 0);
    Expected<Grammar> Gr = synthesizeGrammar(synthParams(Cfg.Seed));
    T.end(Id);
    if (!Gr)
      return Gr.takeError();
    S->G = std::make_unique<Grammar>(std::move(*Gr));
    S->GrammarNs = nowNs() - Start;
    Engine E = synthEngine(*S->G);
    Expected<std::unique_ptr<LabelerBackend>> B =
        createBackend(E, T, Setup.id(), 0);
    if (!B)
      return B.takeError();
    S->L = startLane(E, std::move(*B), T, Setup.id(), 0);
    S->SetupNs = nowNs() - Start;
    return S;
  };
  SetupSampler<SynthStack> Setups(SynthSetupReps, Build);
  Expected<std::unique_ptr<SynthStack>> Built = Setups.first(T);
  if (!Built) {
    Err = "setup: " + Built.message();
    return false;
  }
  // Keep the first set-up's grammar; its lane goes, since every life
  // cycle below starts from a fresh backend.
  SynthStack &Setup = **Built;
  Setup.L.reset();
  std::unique_ptr<Grammar> Owner = std::move(Setup.G);
  const Grammar &SG = *Owner;
  Engine E = synthEngine(SG);

  Corpus C = synthCorpus(SG, Cfg.Seed, SynthFunctions, SynthNodes);
  R.note(formatf("INPUT {\"corpus_fingerprint\":\"%016llx\",\"functions\":"
                 "%zu,\"nodes\":%llu,\"grammar_fingerprint\":\"%016llx\","
                 "\"normalized_rules\":%u}",
                 static_cast<unsigned long long>(C.Fingerprint), C.Fns.size(),
                 static_cast<unsigned long long>(C.Nodes),
                 static_cast<unsigned long long>(SG.fingerprint()),
                 SG.numNormRules()));
  Expected<std::vector<Reference>> Refs = dpReference(SG, nullptr, C);
  if (!Refs) {
    Err = "reference: " + Refs.message();
    return false;
  }
  if (Cfg.InjectMismatch)
    corruptReference(*Refs, CheckKind::FiredAndCost);

  // Life cycles until the time is up. Traced, they only feed the
  // pipeline, registry and core figures; the rest of the time goes to the
  // layer split and the backend comparison.
  LifeCycle Life;
  ClosedLoop L;
  std::uint64_t NextReq = 1;
  if (!Cfg.Trace)
    Setups.spread(Cfg.Seconds);
  bool Ok = repeatFor(
      Cfg.Trace ? 0.3 * Cfg.Seconds : Cfg.Seconds,
      [&] {
        return lifeCycle(E, C, *Refs, SynthWarmPasses, &L, G, T, NextReq,
                         Life, Err) &&
               Setups.poll(T, Err);
      },
      [&] {
        return !Cfg.Trace || L.LatencyUs.size() >= MinLatencySamples;
      });
  if (!Ok || !Setups.finish(R, T, Err) ||
      !reportClosedLoop(L, R, Cfg.Trace, true, Err))
    return false;
  reportLifeCycle(Life, R, Cfg.Trace);
  if (!Cfg.Trace) {
    R.set("warm_nodes_per_s", median(Life.WarmNodesPerS));
    R.detail("warm_nodes_per_s", summarize(Life.WarmNodesPerS), "nodes/s");
    R.set("backend_mb",
          static_cast<double>(Life.Warm->B->memoryBytes()) / 1e6);
    return true;
  }

  Life.Warm->Svc.reset();
  measureLayers(SG, nullptr, *Life.Warm->B, C, *Refs, E.Check, G, T,
                0.3 * Cfg.Seconds, NextReq, R);
  Life.Warm.reset();
  if (!measureParse(SG, C, T, NextReq, R, Err))
    return false;
  // Synthesized grammars carry no dynamic costs: the fixed-cost grammar
  // is the grammar itself.
  return compareBackends(SG, nullptr, SG, C, *Refs, C, *Refs, E.Check, G, T,
                         0.4 * Cfg.Seconds, NextReq, R, Err);
}
