//===- odbench/lib/Harness.cpp - Measurement protocol primitives ----------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#ifndef ODBENCH_BUILD_TYPE
#define ODBENCH_BUILD_TYPE "unknown"
#endif

using namespace odbench;

//===-- Percentiles --------------------------------------------------------===//

static std::size_t nearestRank(std::size_t N, double P) {
  // Rank in 1..N; the epsilon keeps 0.99 * 1000 from rounding up to 991.
  double R = std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(R, 1.0)),
                                 1, N);
}

std::size_t odbench::samplesBeyond(std::size_t N, double P) {
  if (N == 0)
    return 0;
  return N - nearestRank(N, P);
}

std::optional<double> odbench::tailPercentile(const std::vector<double> &Sorted,
                                              double P) {
  if (Sorted.empty() || samplesBeyond(Sorted.size(), P) < MinSamplesBeyond)
    return std::nullopt;
  return Sorted[nearestRank(Sorted.size(), P) - 1];
}

double odbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  std::size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

std::vector<double> odbench::windowTails(const std::vector<double> &InOrder,
                                         std::size_t Window, double P) {
  std::vector<double> Out;
  for (std::size_t I = 0; Window && I + Window <= InOrder.size(); I += Window) {
    std::vector<double> W(InOrder.begin() + I, InOrder.begin() + I + Window);
    std::sort(W.begin(), W.end());
    if (std::optional<double> V = tailPercentile(W, P))
      Out.push_back(*V);
  }
  return Out;
}

Summary odbench::summarize(std::vector<double> Samples) {
  Summary S;
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  S.Median = median(Samples);
  std::sort(Samples.begin(), Samples.end());
  for (double P : {99.9, 99.0, 90.0}) {
    if (std::optional<double> V = tailPercentile(Samples, P)) {
      S.TailPct = P;
      S.Tail = *V;
      break;
    }
  }
  return S;
}

//===-- Names and the metric table -----------------------------------------===//

const std::vector<WorkloadDef> &odbench::workloadDefs() {
  static const std::vector<WorkloadDef> Defs = {
      {"jit-x86"},
      {"synth-cold"},
      {"serve-open"},
  };
  return Defs;
}

const WorkloadDef *odbench::findWorkload(std::string_view Name) {
  for (const WorkloadDef &W : workloadDefs())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

const std::vector<MetricDef> &odbench::metricDefs() {
  constexpr bool Hi = true, Lo = false, E2E = true, Layer = false;
  static const std::vector<MetricDef> Defs = {
      // End to end: what a JIT embedding the selector, or a client of the
      // served product, sees. Every workload reports each one (see
      // README.md for what each means on serve-open).
      {"setup_s", "s", Lo, E2E},
      {"warm_nodes_per_s", "nodes/s", Hi, E2E},
      {"fn_latency_p50_us", "us", Lo, E2E},
      {"cold_pass_ms", "ms", Lo, E2E},
      {"restored_pass_ms", "ms", Lo, E2E},
      {"backend_mb", "MB", Lo, E2E},
      {"peak_rss_mb", "MB", Lo, E2E},
      // Per layer, from the traced run. The first two are end-to-end in
      // kind but carry no bound: error_ratio is 0 on a correct run (the
      // gate fails the run on any error), and the tail latency swings with
      // the machine's scheduling noise by more than any bound a regression
      // check could use (see README.md).
      {"error_ratio", "ratio", Lo, Layer},
      {"fn_latency_p99_us", "us", Lo, Layer},
      {"select.label_ns_per_node", "ns/node", Lo, Layer},
      {"select.label_share", "ratio", Lo, Layer},
      {"select.reduce_ns_per_node", "ns/node", Lo, Layer},
      {"select.reduce_share", "ratio", Lo, Layer},
      {"targets.emit_ns_per_node", "ns/node", Lo, Layer},
      {"targets.emit_share", "ratio", Lo, Layer},
      {"core.probes_per_node", "probes/node", Lo, Layer},
      {"core.l1_hit_ratio", "ratio", Hi, Layer},
      {"core.dense_hit_ratio", "ratio", Hi, Layer},
      {"core.l2_hit_ratio", "ratio", Hi, Layer},
      {"select.label_ns_per_node.dp", "ns/node", Lo, Layer},
      {"select.label_ns_per_node.offline", "ns/node", Lo, Layer},
      {"select.label_ns_per_node.hybrid", "ns/node", Lo, Layer},
      {"select.offline_hit_ratio", "ratio", Hi, Layer},
      {"core.states", "count", Lo, Layer},
      {"core.transitions", "count", Lo, Layer},
      {"core.states_computed", "count", Lo, Layer},
      {"registry.snapshot_dump_ms", "ms", Lo, Layer},
      {"registry.snapshot_load_ms", "ms", Lo, Layer},
      {"registry.snapshot_kb", "KB", Lo, Layer},
      {"grammar.build_ms", "ms", Lo, Layer},
      {"offline.gen_ms", "ms", Lo, Layer},
      {"offline.states", "count", Lo, Layer},
      {"pipeline.compute_us_p50", "us", Lo, Layer},
      {"pipeline.wait_us_p50", "us", Lo, Layer},
      {"pipeline.wait_us_p99", "us", Lo, Layer},
      {"ir.parse_ns_per_node", "ns/node", Lo, Layer},
      {"bench.span_coverage", "ratio", Hi, Layer},
      {"bench.trace_overhead_pct", "%", Lo, Layer},
  };
  return Defs;
}

const MetricDef *odbench::findMetric(std::string_view Name) {
  for (const MetricDef &M : metricDefs())
    if (Name == M.Name)
      return &M;
  return nullptr;
}

std::string odbench::metricTableJson() {
  std::string Out = "{";
  for (bool E2E : {true, false}) {
    Out += E2E ? "\"end_to_end\": [" : ", \"per_layer\": [";
    bool First = true;
    for (const MetricDef &M : metricDefs()) {
      if (M.EndToEnd != E2E)
        continue;
      Out += First ? "" : ", ";
      First = false;
      Out += "{\"name\": \"" + std::string(M.Name) + "\", \"unit\": \"" +
             M.Unit + "\", \"better\": \"" +
             (M.HigherIsBetter ? "higher" : "lower") + "\"}";
    }
    Out += "]";
  }
  return Out + "}";
}

//===-- Spans --------------------------------------------------------------===//

Tracer::SpanId Tracer::begin(const char *Name, SpanId Parent,
                             std::uint64_t Req, std::uint64_t StartNs) {
  if (!On)
    return None;
  std::uint64_t Start = StartNs ? StartNs : nowNs();
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(Span{Name, Start, 0, Parent, Req});
  return static_cast<SpanId>(Spans.size() - 1);
}

void Tracer::endAt(SpanId Id, std::uint64_t EndNs) {
  if (Id == None)
    return;
  std::lock_guard<std::mutex> L(M);
  Spans[static_cast<std::size_t>(Id)].End = EndNs;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Spans;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  std::vector<Span> All = spans();
  std::vector<std::uint64_t> Self = selfTimes(All);
  for (std::size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    OS << "{\"id\":" << I << ",\"name\":\"" << S.Name
       << "\",\"start_ns\":" << S.Start << ",\"end_ns\":" << S.End
       << ",\"parent\":" << S.Parent << ",\"req\":" << S.Req
       << ",\"self_ns\":" << Self[I] << "}\n";
  }
  return static_cast<bool>(OS);
}

std::vector<std::uint64_t> odbench::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::size_t>> Children(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    std::int64_t P = Spans[I].Parent;
    if (P >= 0 && static_cast<std::size_t>(P) < Spans.size())
      Children[static_cast<std::size_t>(P)].push_back(I);
  }
  std::vector<std::uint64_t> Self(Spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> Iv;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.End <= S.Start)
      continue; // Unclosed or empty.
    // Union of the children's intervals, clipped to the parent: children
    // on other threads may overlap each other or outlive the parent.
    Iv.clear();
    for (std::size_t C : Children[I]) {
      std::uint64_t Lo = std::max(Spans[C].Start, S.Start);
      std::uint64_t Hi = std::min(Spans[C].End, S.End);
      if (Hi > Lo)
        Iv.emplace_back(Lo, Hi);
    }
    std::sort(Iv.begin(), Iv.end());
    std::uint64_t Covered = 0, CurLo = 0, CurHi = 0;
    bool Open = false;
    for (auto [Lo, Hi] : Iv) {
      if (Open && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[I] = (S.End - S.Start) - Covered;
  }
  return Self;
}

std::map<std::string, NameTotals>
odbench::totalsByName(const std::vector<Span> &Spans, const char *RootName) {
  std::vector<std::uint64_t> Self = selfTimes(Spans);
  std::map<std::string, NameTotals> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    if (RootName) {
      // Parents always precede their children, so this walk terminates.
      std::size_t Root = I;
      while (Spans[Root].Parent >= 0 &&
             static_cast<std::size_t>(Spans[Root].Parent) < Root)
        Root = static_cast<std::size_t>(Spans[Root].Parent);
      if (std::string_view(Spans[Root].Name) != RootName)
        continue;
    }
    NameTotals &T = Out[Spans[I].Name];
    T.SelfNs += Self[I];
    if (Spans[I].End > Spans[I].Start)
      T.TotalNs += Spans[I].End - Spans[I].Start;
    ++T.Count;
  }
  return Out;
}

//===-- Correctness gate ---------------------------------------------------===//

void Gate::attempt(std::uint64_t N) {
  std::lock_guard<std::mutex> L(M);
  C.Attempted += N;
}

void Gate::note(const std::string &Why) {
  if (Problems.size() < 8)
    Problems.push_back(Why);
}

void Gate::fail(const std::string &Why) {
  std::lock_guard<std::mutex> L(M);
  ++C.Failed;
  note("failed: " + Why);
}

void Gate::shed(const std::string &Why) {
  std::lock_guard<std::mutex> L(M);
  ++C.Shed;
  note("shed: " + Why);
}

void Gate::deadline(const std::string &Why) {
  std::lock_guard<std::mutex> L(M);
  ++C.Deadline;
  note("deadline: " + Why);
}

void Gate::mismatch(const std::string &Why) {
  std::lock_guard<std::mutex> L(M);
  ++C.Mismatched;
  note("mismatch: " + Why);
}

GateCounts Gate::counts() const {
  std::lock_guard<std::mutex> L(M);
  return C;
}

std::vector<std::string> Gate::problems() const {
  std::lock_guard<std::mutex> L(M);
  return Problems;
}

//===-- Report -------------------------------------------------------------===//

HostInfo odbench::detectHost(const std::string &Workload, std::uint64_t Seed,
                             bool Traced, const std::string &Commit) {
  HostInfo H;
  H.Nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  H.Compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  H.Compiler = std::string("gcc ") + __VERSION__;
#else
  H.Compiler = "unknown";
#endif
  H.BuildType = ODBENCH_BUILD_TYPE;
  H.Commit = Commit.empty() ? "unknown" : Commit;
  H.Seed = Seed;
  H.Traced = Traced;
  H.Workload = Workload;
  return H;
}

void Report::set(const std::string &Name, double Value) {
  const MetricDef *M = findMetric(Name);
  if (!M || M->EndToEnd == Traced || !std::isfinite(Value)) {
    std::fprintf(stderr, "odbench: internal error: metric '%s' = %g does not "
                         "belong to this run\n",
                 Name.c_str(), Value);
    std::abort();
  }
  Values[Name] = Value;
}

void Report::detail(const std::string &Name, const Summary &S,
                    const char *Unit) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "TIMING {\"name\":\"%s\",\"unit\":\"%s\",\"median\":%.6g,"
                "\"tail_pct\":%g,\"tail\":%.6g,\"samples\":%zu}",
                Name.c_str(), Unit, S.Median, S.TailPct, S.Tail, S.Count);
  Notes.push_back(Buf);
}

std::vector<std::string> Report::missing() const {
  std::vector<std::string> Out;
  for (const MetricDef &M : metricDefs()) {
    if (M.EndToEnd != Traced && !Values.count(M.Name))
      Out.push_back(M.Name);
  }
  return Out;
}

std::string Report::json(const GateCounts &C, bool Correct) const {
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << C.Attempted << ", \"failed\": " << C.bad()
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Values) {
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << Value
       << ", \"unit\": \"" << findMetric(Name)->Unit << "\"}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

double odbench::peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  // ru_maxrss is in KiB; MB here is 10^6 bytes, like backend_mb.
  return static_cast<double>(U.ru_maxrss) * 1024.0 / 1e6;
}
