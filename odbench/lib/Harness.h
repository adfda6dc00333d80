//===- odbench/lib/Harness.h - Measurement protocol primitives ------------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every odbench workload shares: the percentile rule, the
/// metric table (the single source of the names BENCHMARK.json lists),
/// the span recorder and its self-time reduction, the correctness gate's
/// counters, and the report that prints the host row and the final JSON
/// line. Nothing here knows about a particular workload.
///
//===----------------------------------------------------------------------===//

#ifndef ODBENCH_HARNESS_H
#define ODBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace odbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ms(std::uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

//===-- Percentiles --------------------------------------------------------===//

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; fewer make the figure one outlier's value.
inline constexpr std::size_t MinSamplesBeyond = 10;

/// Samples strictly above the nearest-rank \p P-th percentile of \p N.
std::size_t samplesBeyond(std::size_t N, double P);

/// Nearest-rank \p P-th percentile of \p Sorted (ascending), or nullopt
/// when fewer than MinSamplesBeyond samples lie beyond it.
std::optional<double> tailPercentile(const std::vector<double> &Sorted,
                                     double P);

/// Median plus the highest of {99.9, 99, 90} that the sample supports.
struct Summary {
  double Median = 0;
  /// 0 when even p90 lacks MinSamplesBeyond samples beyond it.
  double TailPct = 0;
  double Tail = 0;
  std::size_t Count = 0;
};
Summary summarize(std::vector<double> Samples);

double median(std::vector<double> Samples);

/// The \p P-th percentile of each consecutive window of \p Window samples
/// (a short last window is dropped; windows too small for \p P give
/// none). The median of these is a tail that a burst of scheduling delay
/// on a shared machine moves only when it spans most of the run.
std::vector<double> windowTails(const std::vector<double> &InOrder,
                                std::size_t Window, double P);

//===-- Names and the metric table -----------------------------------------===//

struct WorkloadDef {
  const char *Name;
};
const std::vector<WorkloadDef> &workloadDefs();
const WorkloadDef *findWorkload(std::string_view Name);

struct MetricDef {
  const char *Name;
  const char *Unit;
  bool HigherIsBetter;
  /// End-to-end metrics come from the untraced run; per-layer ones from
  /// the traced run. Every workload reports every metric of its run's
  /// kind.
  bool EndToEnd;
};
const std::vector<MetricDef> &metricDefs();
const MetricDef *findMetric(std::string_view Name);

/// The table as JSON ({"end_to_end": [...], "per_layer": [...]}), for the
/// check that BENCHMARK.json lists exactly these names and units.
std::string metricTableJson();

//===-- Spans --------------------------------------------------------------===//

struct Span {
  const char *Name = nullptr;
  std::uint64_t Start = 0;
  std::uint64_t End = 0;
  /// Index of the causing span in the same recording, or -1.
  std::int64_t Parent = -1;
  /// The function (request) this span works for; shared by its children.
  std::uint64_t Req = 0;
};

/// Records spans around the benchmark's own calls into odburg. Disabled, it
/// reads no clock and stores nothing, so untraced runs pay one branch.
/// Thread-safe: server reader threads and service delivery callbacks
/// record alongside the driving thread.
class Tracer {
public:
  using SpanId = std::int64_t;
  static constexpr SpanId None = -1;

  explicit Tracer(bool Enabled) : On(Enabled) {}

  bool enabled() const { return On; }
  /// Opens a span starting now, or at \p StartNs when given (a request
  /// timed from its scheduled send); close it with end() or endAt(), from
  /// any thread.
  SpanId begin(const char *Name, SpanId Parent, std::uint64_t Req,
               std::uint64_t StartNs = 0);
  void end(SpanId Id) { endAt(Id, nowNs()); }
  void endAt(SpanId Id, std::uint64_t EndNs);

  std::vector<Span> spans() const;
  /// Writes one JSON object per span; false on I/O failure.
  bool writeJsonl(const std::string &Path) const;

  /// Scoped begin()/end().
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, SpanId Parent, std::uint64_t Req)
        : T(T), Id(T.begin(Name, Parent, Req)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    SpanId id() const { return Id; }

  private:
    Tracer &T;
    SpanId Id;
  };

private:
  bool On;
  mutable std::mutex M;
  std::vector<Span> Spans; ///< Guarded by M.
};

/// Each span's self time: its duration minus the union of its children's
/// intervals clipped to it. Indexed like \p Spans.
std::vector<std::uint64_t> selfTimes(const std::vector<Span> &Spans);

/// Total self time and count per span name.
struct NameTotals {
  std::uint64_t SelfNs = 0;
  std::uint64_t TotalNs = 0;
  std::uint64_t Count = 0;
};
/// Sums per name. With \p RootName, only spans whose outermost ancestor
/// (or themselves, at the top) carries that name count.
std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &Spans, const char *RootName = nullptr);

//===-- Correctness gate ---------------------------------------------------===//

/// Counts every attempted function and every way it can go wrong. A run
/// is correct only when nothing but attempts was counted.
struct GateCounts {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;     ///< Compile errors and transport errors.
  std::uint64_t Shed = 0;       ///< ResourceExhausted refusals.
  std::uint64_t Deadline = 0;   ///< DeadlineExceeded records.
  std::uint64_t Mismatched = 0; ///< Output differs from the reference.

  std::uint64_t bad() const { return Failed + Shed + Deadline + Mismatched; }
  double errorRatio() const {
    return Attempted ? static_cast<double>(bad()) /
                           static_cast<double>(Attempted)
                     : 1.0;
  }
};

class Gate {
public:
  void attempt(std::uint64_t N = 1);
  void fail(const std::string &Why);
  void shed(const std::string &Why);
  void deadline(const std::string &Why);
  void mismatch(const std::string &Why);
  GateCounts counts() const;
  /// The first few problems, for the run's diagnostics.
  std::vector<std::string> problems() const;

private:
  void note(const std::string &Why);
  mutable std::mutex M;
  GateCounts C;
  std::vector<std::string> Problems;
};

//===-- Report -------------------------------------------------------------===//

/// The run's identity: what the host row prints.
struct HostInfo {
  unsigned Nproc = 0;
  std::string Compiler;
  std::string BuildType;
  std::string Commit;
  std::uint64_t Seed = 0;
  bool Traced = false;
  std::string Workload;
};
HostInfo detectHost(const std::string &Workload, std::uint64_t Seed,
                    bool Traced, const std::string &Commit);

/// Collects the run's metrics and prints them in the contract's shape.
class Report {
public:
  explicit Report(bool Traced) : Traced(Traced) {}

  /// Records \p Value for \p Name. The name must be in the metric table
  /// and belong to this run's kind (end-to-end or per-layer), and the
  /// value must be finite; a violation is a harness bug and aborts.
  void set(const std::string &Name, double Value);
  /// Records a timing's median, supported tail and sample count as a
  /// DETAIL line (the JSON line carries only the metric's value).
  void detail(const std::string &Name, const Summary &S,
              const char *Unit);
  void note(const std::string &Line) { Notes.push_back(Line); }

  /// Names this run must report but has not.
  std::vector<std::string> missing() const;

  /// The final line: {"correct","attempted","failed","metrics"}.
  std::string json(const GateCounts &C, bool Correct) const;
  const std::vector<std::string> &notes() const { return Notes; }

private:
  bool Traced;
  std::map<std::string, double> Values;
  std::vector<std::string> Notes;
};

/// Peak resident set of this process so far, in MB.
double peakRssMb();

} // namespace odbench

#endif // ODBENCH_HARNESS_H
