//===- odbench/lib/Workloads.h - The benchmark's three workloads ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jit-x86, synth-cold and serve-open, plus the pieces they share: a lane
/// (backend + CompileService) and its life cycle (cold pass, warm passes,
/// snapshot restore), closed-loop passes, label→reduce→emit passes on the
/// benchmark's own thread with each call under its own span, and the
/// four-backend comparison that regenerates the "where the time goes"
/// table. Every workload reports every metric of its run's kind.
///
//===----------------------------------------------------------------------===//

#ifndef ODBENCH_WORKLOADS_H
#define ODBENCH_WORKLOADS_H

#include "Harness.h"
#include "Inputs.h"

#include "select/LabelerBackend.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace odbench {

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Measurement time; set-up and reference computation come on top.
  double Seconds = 10;
  bool Trace = false;
  /// Corrupts one reference entry after it is computed, so the run must
  /// fail its gate (the benchmark's own tests use it).
  bool InjectMismatch = false;
};

/// Runs \p Cfg's workload, filling \p R and counting into \p G. Returns
/// false with \p Err set when the harness itself could not run (as opposed
/// to the program producing wrong output, which \p G records).
bool runWorkload(const RunConfig &Cfg, Report &R, Gate &G, Tracer &T,
                 std::string &Err);

bool runJitX86(const RunConfig &Cfg, Report &R, Gate &G, Tracer &T,
               std::string &Err);
bool runSynthCold(const RunConfig &Cfg, Report &R, Gate &G, Tracer &T,
                  std::string &Err);
bool runServeOpen(const RunConfig &Cfg, Report &R, Gate &G, Tracer &T,
                  std::string &Err);

/// The set-up samples of one run. Set-up takes from a tenth of a
/// millisecond to a few milliseconds, far too little for one sample, and
/// on a shared machine a burst of co-tenant load lasting about a second
/// moves back-to-back samples all alike. So the stack is built \p Reps
/// times: once before the measurement (the stack the workload runs on),
/// and, in untraced runs, the rest spread evenly over the measured time,
/// each built and torn down between units of measured work. setup_s
/// (traced: grammar.build_ms) is their median. \p Build returns a Stack
/// with SetupNs and GrammarNs filled.
template <typename Stack> class SetupSampler {
public:
  using BuildFn =
      std::function<odburg::Expected<std::unique_ptr<Stack>>(Tracer &)>;

  SetupSampler(unsigned Reps, BuildFn Build)
      : Reps(Reps), Build(std::move(Build)) {}

  /// Builds the stack the workload runs on, the first sample.
  odburg::Expected<std::unique_ptr<Stack>> first(Tracer &T) {
    return take(T);
  }

  /// Spreads the remaining samples evenly over the next \p Seconds.
  void spread(double Seconds) {
    Start = nowNs();
    StepNs = Seconds * 1e9 / Reps;
  }

  /// Between units of measured work: builds and drops the samples due.
  /// False with \p Err set when a set-up failed.
  bool poll(Tracer &T, std::string &Err) {
    while (StepNs > 0 && SetupS.size() < Reps &&
           static_cast<double>(nowNs() - Start) >=
               StepNs * static_cast<double>(SetupS.size()))
      if (!sample(T, Err))
        return false;
    return true;
  }

  /// Builds the samples still owed and reports the median.
  bool finish(Report &R, Tracer &T, std::string &Err) {
    while (SetupS.size() < Reps)
      if (!sample(T, Err))
        return false;
    if (T.enabled())
      R.set("grammar.build_ms", median(GrammarMs));
    else
      R.set("setup_s", median(SetupS));
    R.detail("setup_s", summarize(SetupS), "s");
    return true;
  }

private:
  /// One sample, torn down at once.
  bool sample(Tracer &T, std::string &Err) {
    odburg::Expected<std::unique_ptr<Stack>> S = take(T);
    if (!S)
      Err = "setup: " + S.message();
    return static_cast<bool>(S);
  }

  odburg::Expected<std::unique_ptr<Stack>> take(Tracer &T) {
    odburg::Expected<std::unique_ptr<Stack>> S = Build(T);
    if (S) {
      SetupS.push_back(static_cast<double>((*S)->SetupNs) / 1e9);
      GrammarMs.push_back(ms((*S)->GrammarNs));
    }
    return S;
  }

  unsigned Reps;
  BuildFn Build;
  std::uint64_t Start = 0;
  double StepNs = 0; ///< 0 until spread().
  std::vector<double> SetupS, GrammarMs;
};

/// Runs \p Step at least once, and until \p Seconds have passed and
/// \p Enough holds; false as soon as a step fails.
template <typename StepFn, typename EnoughFn>
bool repeatFor(double Seconds, StepFn Step, EnoughFn Enough) {
  std::uint64_t Deadline = nowNs() + static_cast<std::uint64_t>(Seconds * 1e9);
  do
    if (!Step())
      return false;
  while (nowNs() < Deadline || !Enough());
  return true;
}

//===-- Lanes --------------------------------------------------------------===//

/// What a lane runs, and how its outputs are checked.
struct Engine {
  const odburg::Grammar &G;
  const odburg::DynCostTable *Dyn;
  odburg::BackendKind Kind;
  unsigned Workers;
  CheckKind Check;
};

/// A backend and the CompileService running it. Members die in reverse
/// order: the service before the backend it labels with.
struct Lane {
  std::unique_ptr<odburg::LabelerBackend> B;
  /// When the latest submission reached its ordered delivery slot.
  std::atomic<std::uint64_t> DeliveredNs{0};
  std::unique_ptr<odburg::pipeline::CompileService> Svc;
};

/// Creates \p E's backend under a select.create span.
odburg::Expected<std::unique_ptr<odburg::LabelerBackend>>
createBackend(const Engine &E, Tracer &T, Tracer::SpanId Parent,
              std::uint64_t Req);

/// Starts \p E's service on \p B under a pipeline.start span.
std::unique_ptr<Lane> startLane(const Engine &E,
                                std::unique_ptr<odburg::LabelerBackend> B,
                                Tracer &T, Tracer::SpanId Parent,
                                std::uint64_t Req);

/// Closed-loop samples: one client submits, waits for the ordered
/// delivery, checks the result, submits the next.
struct ClosedLoop {
  std::vector<double> LatencyUs;
  std::vector<double> ComputeUs;
  std::vector<double> WaitUs;
  std::vector<double> PassNodesPerS;
  odburg::SelectionStats Stats;
};

/// Traced closed loops run until they have at least this many samples,
/// so that fn_latency_p99_us has a window and pipeline.wait_us_p99 its
/// ten samples beyond.
inline constexpr std::size_t MinLatencySamples = 1000;

/// One closed-loop pass over \p C; with \p Record, its samples go into
/// \p Out.
void closedLoopPass(Lane &L, Corpus &C, const std::vector<Reference> &Refs,
                    CheckKind K, Gate &G, Tracer &T, std::uint64_t &NextReq,
                    ClosedLoop &Out, bool Record);

/// The untraced run's fn_latency_p50_us, or the traced run's
/// fn_latency_p99_us; with \p Pipeline, the traced run's pipeline.* too.
bool reportClosedLoop(const ClosedLoop &L, Report &R, bool Traced,
                      bool Pipeline, std::string &Err);

/// Samples of a lane's life cycle: a fresh backend's cold pass, warm
/// passes, a WarmSnapshot dump restored into another fresh backend, and
/// that backend's first pass. Each pass is the whole corpus submitted as
/// one batch, timed from the first submit to the last delivery.
struct LifeCycle {
  std::vector<double> ColdMs, WarmNodesPerS, RestoredMs, DumpMs, LoadMs;
  double SnapshotKb = 0;
  /// Of the latest cycle.
  odburg::SelectionStats ColdStats;
  /// The latest cycle's warm lane.
  std::unique_ptr<Lane> Warm;
};

/// One life cycle of \p E over \p C with \p WarmPasses warm passes and,
/// when \p Latency is given, one closed-loop pass on the warm lane.
bool lifeCycle(const Engine &E, Corpus &C, const std::vector<Reference> &Refs,
               unsigned WarmPasses, ClosedLoop *Latency, Gate &G, Tracer &T,
               std::uint64_t &NextReq, LifeCycle &Out, std::string &Err);

/// Untraced: cold_pass_ms and restored_pass_ms. Traced: the registry.*
/// and core.* counters of the cycles.
void reportLifeCycle(const LifeCycle &L, Report &R, bool Traced);

//===-- Traced layers ------------------------------------------------------===//

/// One label→reduce→emit pass over \p C on the calling thread. With \p T
/// enabled, each function gets a \p RootName span with select.label,
/// select.reduce and targets.emit children.
struct DirectPass {
  std::uint64_t WallNs = 0;
  odburg::SelectionStats Stats;
  std::uint64_t AsmBytes = 0;
  std::uint64_t Insns = 0;
};
DirectPass directPass(const odburg::Grammar &Gr,
                      const odburg::DynCostTable *Dyn,
                      odburg::LabelerBackend &B, Corpus &C,
                      const std::vector<Reference> &Refs, CheckKind K,
                      Gate &G, Tracer &T, const char *RootName,
                      std::uint64_t &NextReq);

/// Per-layer metrics of the workload's own backend: alternates untraced
/// and traced direct passes for \p Seconds, reports label/reduce/emit
/// self times and shares, the tier counters, the span coverage and the
/// tracing overhead.
void measureLayers(const odburg::Grammar &Gr, const odburg::DynCostTable *Dyn,
                   odburg::LabelerBackend &B, Corpus &C,
                   const std::vector<Reference> &Refs, CheckKind K, Gate &G,
                   Tracer &T, double Seconds, std::uint64_t &NextReq,
                   Report &R);

/// The paper's comparison: the same corpus through dp, offline, ondemand
/// and hybrid, fresh backend each, one warm-up pass then traced passes for
/// \p Seconds in all. Offline runs on \p FixedG (with its own corpus and
/// reference). Prints the label / reduce / emit table and reports
/// select.label_ns_per_node.<backend>, select.offline_hit_ratio (hybrid)
/// and offline.gen_ms / offline.states.
bool compareBackends(const odburg::Grammar &Gr,
                     const odburg::DynCostTable *Dyn,
                     const odburg::Grammar &FixedG, Corpus &C,
                     const std::vector<Reference> &Refs, Corpus &FixedC,
                     const std::vector<Reference> &FixedRefs, CheckKind K,
                     Gate &G, Tracer &T, double Seconds,
                     std::uint64_t &NextReq, Report &R, std::string &Err);

/// ir.parse_ns_per_node: \p C's functions in the serve wire format,
/// parsed back with ir::parseSExprProgram five times over.
bool measureParse(const odburg::Grammar &Gr, Corpus &C, Tracer &T,
                  std::uint64_t &NextReq, Report &R, std::string &Err);

} // namespace odbench

#endif // ODBENCH_WORKLOADS_H
