//===- odbench/lib/Serve.cpp - serve-open: the served product, open loop --===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process TcpServer on loopback serves the full x86 grammar on the
/// hybrid lane. One sender thread paces Poisson arrivals over two
/// connections, each with its own reader thread that byte-compares every
/// function's assembly against the dp reference and stamps the arrival of
/// its last byte. Latency runs from the *scheduled* send time, so a
/// stalled sender or a full socket shows up as latency instead of hiding
/// as a lower offered rate.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "offline/OfflineTables.h"
#include "select/Partition.h"
#include "serve/Socket.h"
#include "serve/TcpServer.h"
#include "support/Hashing.h"
#include "support/RNG.h"
#include "support/StringUtil.h"
#include "targets/Target.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <thread>

using namespace odburg;
using namespace odbench;

namespace {

constexpr unsigned ServePool = 256;
constexpr unsigned ServeNodes = 300;
constexpr unsigned ServeWorkers = 2;
constexpr unsigned ServeConns = 2;
constexpr unsigned ServeSetupReps = 41;
/// Warm passes in each life cycle of the lane's engine.
constexpr unsigned ServeWarmPasses = 3;
/// Life cycles after each pair of fixed-rate sub-phases: a cycle's passes
/// are short (~20 ms), so its medians need more of them than the other
/// workloads' do.
constexpr unsigned ServeCyclesPerPair = 2;
/// The latency limit serve_max_fn_per_s is held to. On a shared 4-core
/// virtual machine the p99 of a lightly loaded server already swings
/// between 1 and 20 ms with scheduling delay, so a tighter limit measures
/// that noise rather than the knee.
constexpr double P99LimitMs = 20.0;
/// Rates in functions per second. The fixed rates sit at 1/6 and 1/3 of
/// the median serve_max_fn_per_s of a quiet 4-core virtual machine
/// (12000): when co-tenants' load halves the machine's capacity, the knee
/// comes down to 4000-7000, and a higher rate would sit on it.
constexpr double LowRate = 2000, HighRate = 4000;
/// Geometric-ish steps of about 10%; every rate below the first passes.
constexpr double Ladder[] = {4000,  5000,  6000,  7000,  8000,  9000,  10000,
                             11000, 12000, 13500, 15000, 16500, 18000, 20000};
/// The share of the run's time the ladder walks may start in; the rest
/// goes to the fixed rates. A rate meets the limit when it passed in most
/// walks.
constexpr double LadderShare = 0.4;
/// A ladder step lasts this long (and sends at least SubPhase functions),
/// long enough for a 10% overload to build a backlog that breaks the limit.
constexpr double StepSeconds = 0.25;
/// Every measured phase is cut into sub-phases of this many functions,
/// the fewest whose p99 has ten samples beyond it, and a rate's p99 is
/// the median of its sub-phases' p99s. Tail latency on a shared machine
/// swings with bursts of scheduling delay lasting about a second, far
/// more than with the offered rate below the knee; interleaving short
/// sub-phases makes a burst spoil a few sub-phases of every rate alike
/// instead of one rate's whole phase.
constexpr unsigned SubPhase = 1000;

enum Phase : unsigned { Warmup, LadderStep, Low, High, NumPhases };

/// One connection: the sender enqueues what it sends, the reader thread
/// matches arriving bytes against the queue front.
class Client {
public:
  Client(serve::Socket S, const std::vector<Reference> &Refs, Gate &G,
         Tracer &T, std::atomic<std::uint64_t> &Completed)
      : Sock(std::move(S)), Refs(Refs), G(G), T(T), Completed(Completed) {
    Reader = std::thread([this] { readLoop(); });
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client() { finish(); }

  bool sendRaw(std::string_view Bytes) { return Sock.writeAll(Bytes); }

  /// Sends function \p Fn; \p Scheduled is when it was due.
  bool send(std::uint32_t Fn, std::string_view Wire, std::uint64_t Scheduled,
            Phase Ph, std::uint64_t Req) {
    std::uint64_t Sent = nowNs();
    // The request span runs from the scheduled send to the last byte; the
    // reader thread closes it.
    Tracer::SpanId Request = T.begin("serve.request", Tracer::None, Req,
                                     Scheduled);
    {
      std::lock_guard<std::mutex> L(M);
      Q.push_back(Pending{Fn, Scheduled, Sent, Ph, Request});
      ++SentCount;
    }
    G.attempt();
    Tracer::SpanId Id = T.begin("serve.send", Request, Req);
    bool Ok = Sock.writeAll(Wire);
    T.end(Id);
    return Ok;
  }

  /// Waits until every sent function has been answered (or the reader
  /// died). False on timeout.
  bool drain(std::uint64_t DeadlineNs) {
    std::unique_lock<std::mutex> L(M);
    return Cv.wait_until(L, toTimePoint(DeadlineNs),
                         [&] { return Q.empty() || Dead; }) &&
           Q.empty();
  }

  /// Requests one STATS line. Only valid when drained: the reply is
  /// out-of-band and must not interleave with result bytes.
  bool stats(std::string &Line, std::uint64_t DeadlineNs) {
    {
      std::lock_guard<std::mutex> L(M);
      StatsLine.clear();
      WantStats = true;
    }
    if (!Sock.writeAll("STATS\n"))
      return false;
    std::unique_lock<std::mutex> L(M);
    bool Got = Cv.wait_until(L, toTimePoint(DeadlineNs),
                             [&] { return !WantStats || Dead; }) &&
               !WantStats;
    Line = StatsLine;
    return Got;
  }

  /// Half-closes, waits for the server's orderly close, joins the reader.
  void finish() {
    if (!Reader.joinable())
      return;
    Sock.shutdownWrite();
    Reader.join();
    std::lock_guard<std::mutex> L(M);
    for (const Pending &P : Q)
      G.fail("function " + std::to_string(P.Fn) + " never answered");
    Q.clear();
  }

  /// Moves out the samples of \p Ph: (scheduled send, milliseconds from
  /// it), and microseconds from the actual send.
  void take(Phase Ph,
            std::vector<std::pair<std::uint64_t, double>> &FromScheduledMs,
            std::vector<double> &FromSentUs) {
    std::lock_guard<std::mutex> L(M);
    FromScheduledMs.insert(FromScheduledMs.end(), LatMs[Ph].begin(),
                           LatMs[Ph].end());
    FromSentUs.insert(FromSentUs.end(), SentLatUs[Ph].begin(),
                      SentLatUs[Ph].end());
    LatMs[Ph].clear();
    SentLatUs[Ph].clear();
  }

  std::uint64_t sentCount() {
    std::lock_guard<std::mutex> L(M);
    return SentCount;
  }

private:
  struct Pending {
    std::uint32_t Fn;
    std::uint64_t Scheduled;
    std::uint64_t Sent;
    Phase Ph;
    Tracer::SpanId Request;
  };

  static std::chrono::steady_clock::time_point toTimePoint(std::uint64_t Ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(Ns));
  }

  /// Consumes complete records from In[Pos..]; returns when more bytes are
  /// needed. Called with M held.
  void consume(std::uint64_t Now) {
    for (;;) {
      std::size_t Avail = In.size() - Pos;
      if (Q.empty()) {
        if (!WantStats || Avail == 0) {
          if (Avail) {
            G.fail("unexpected bytes after the last answer");
            Pos = In.size();
          }
          return;
        }
        std::size_t Nl = In.find('\n', Pos);
        if (Nl == std::string::npos)
          return;
        StatsLine = In.substr(Pos, Nl - Pos);
        Pos = Nl + 1;
        WantStats = false;
        Cv.notify_all();
        continue;
      }
      const Pending &P = Q.front();
      const std::string &Ref = Refs[P.Fn].Asm;
      static constexpr std::string_view ErrorTag = "ERROR ";
      if (Avail < std::min(Ref.size(), ErrorTag.size()))
        return;
      if (In.compare(Pos, ErrorTag.size(), ErrorTag) == 0) {
        std::size_t Nl = In.find('\n', Pos);
        if (Nl == std::string::npos)
          return;
        std::string Line = In.substr(Pos, Nl - Pos);
        Pos = Nl + 1;
        if (startsWith(Line, "ERROR ResourceExhausted"))
          G.shed(Line);
        else if (startsWith(Line, "ERROR DeadlineExceeded"))
          G.deadline(Line);
        else
          G.fail(Line);
      } else {
        if (Avail < Ref.size())
          return;
        if (In.compare(Pos, Ref.size(), Ref) != 0)
          G.mismatch("function " + std::to_string(P.Fn) +
                     " differs from the dp reference on the wire");
        Pos += Ref.size();
        LatMs[P.Ph].emplace_back(P.Scheduled,
                                 static_cast<double>(Now - P.Scheduled) / 1e6);
        SentLatUs[P.Ph].push_back(static_cast<double>(Now - P.Sent) / 1e3);
      }
      T.endAt(P.Request, Now);
      Q.pop_front();
      Completed.fetch_add(1, std::memory_order_relaxed);
      if (Q.empty())
        Cv.notify_all();
    }
  }

  void readLoop() {
    char Buf[1 << 16];
    for (;;) {
      long N = Sock.readSome(Buf, sizeof(Buf));
      std::uint64_t Now = nowNs();
      std::lock_guard<std::mutex> L(M);
      if (N <= 0) {
        Dead = true;
        Cv.notify_all();
        return;
      }
      In.append(Buf, static_cast<std::size_t>(N));
      consume(Now);
      if (Pos == In.size()) {
        In.clear();
        Pos = 0;
      } else if (Pos > (1u << 20)) {
        In.erase(0, Pos);
        Pos = 0;
      }
    }
  }

  serve::Socket Sock;
  const std::vector<Reference> &Refs;
  Gate &G;
  Tracer &T;
  std::atomic<std::uint64_t> &Completed;

  std::mutex M;
  std::condition_variable Cv;
  std::deque<Pending> Q;           ///< Guarded by M.
  std::uint64_t SentCount = 0;     ///< Guarded by M.
  std::string In;                  ///< Reader-owned bytes; guarded by M.
  std::size_t Pos = 0;             ///< Guarded by M.
  bool WantStats = false;          ///< Guarded by M.
  std::string StatsLine;           ///< Guarded by M.
  bool Dead = false;               ///< Guarded by M.
  std::vector<std::pair<std::uint64_t, double>> LatMs[NumPhases]; ///< By M.
  std::vector<double> SentLatUs[NumPhases]; ///< Guarded by M.
  std::thread Reader; ///< Last: started after every member it uses.
};

/// The served stack. Members die in reverse order: clients first (they
/// half-close and wait for the server's orderly close), then the server,
/// then the target it serves.
struct ServeStack {
  std::unique_ptr<targets::Target> T;
  std::unique_ptr<serve::TcpServer> Srv;
  std::atomic<std::uint64_t> Completed{0};
  std::vector<std::unique_ptr<Client>> Clients;
  std::uint64_t GrammarNs = 0;
  std::uint64_t SetupNs = 0;
};

/// A numeric field of the one-line STATS JSON, or NaN.
double statsField(const std::string &Json, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  std::size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return std::nan("");
  return std::strtod(Json.c_str() + At + Needle.size(), nullptr);
}

/// Everything the sender needs, built before timing.
struct Traffic {
  std::vector<std::string> Wire;
  std::vector<Reference> Refs;
};

struct PhaseResult {
  /// From the scheduled send, in scheduled-send order.
  std::vector<double> LatMs;
  std::vector<double> SentLatUs; ///< From the actual send.
  std::vector<double> GenLagMs;
  std::uint64_t BacklogMax = 0;
  double BacklogFirstQuarter = 0;
  double BacklogLastQuarter = 0;
  bool Drained = false;
};
} // namespace

static Expected<std::unique_ptr<ServeStack>>
buildServe(Tracer &T, const std::vector<Reference> &Refs, Gate &G) {
  auto S = std::make_unique<ServeStack>();
  std::uint64_t Start = nowNs();
  Tracer::Scope Setup(T, "setup", Tracer::None, 0);
  Tracer::SpanId Id = T.begin("grammar.build", Setup.id(), 0);
  Expected<std::unique_ptr<targets::Target>> Tgt = targets::makeTarget("x86");
  T.end(Id);
  if (!Tgt)
    return Tgt.takeError();
  S->T = std::move(*Tgt);
  S->GrammarNs = nowNs() - Start;

  serve::TcpServer::Options Opts;
  Opts.Workers = ServeWorkers;
  Opts.DefaultBackend = BackendKind::Hybrid;
  // BackendOpts stay the product's defaults (odburg-serve's too): offline
  // tables are generated on one thread per core.
  Id = T.begin("serve.start", Setup.id(), 0);
  Expected<std::unique_ptr<serve::TcpServer>> Srv =
      serve::TcpServer::start(*S->T, std::move(Opts));
  T.end(Id);
  if (!Srv)
    return Srv.takeError();
  S->Srv = std::move(*Srv);

  // Ready means the hybrid lane exists: the server builds it (offline
  // tables for the static partition included) on the first BACKEND, and
  // from then on a function can be accepted. Polling for it, instead of
  // waiting for a reply, keeps client-side thread wake-ups out of the
  // figure; the STATS exchange after it confirms both connections bound.
  Id = T.begin("serve.handshake", Setup.id(), 0);
  for (unsigned I = 0; I < ServeConns; ++I) {
    Expected<serve::Socket> Sock =
        serve::Socket::connectTo("127.0.0.1", S->Srv->port());
    if (!Sock)
      return Sock.takeError();
    S->Clients.push_back(
        std::make_unique<Client>(std::move(*Sock), Refs, G, T, S->Completed));
    if (!S->Clients.back()->sendRaw("BACKEND hybrid\n"))
      return Error::make("BACKEND handshake write failed");
  }
  std::uint64_t Deadline = nowNs() + 10'000'000'000ull;
  while (!S->Srv->laneService(BackendKind::Hybrid)) {
    if (nowNs() > Deadline)
      return Error::make("the hybrid lane did not come up within 10 s");
  }
  T.end(Id);
  S->SetupNs = nowNs() - Start;
  for (auto &C : S->Clients) {
    std::string Line;
    if (!C->stats(Line, Deadline) || !startsWith(Line, "STATS "))
      return Error::make("no STATS answer after the handshake: '" + Line +
                         "'");
  }
  return S;
}

/// Sends \p Count functions as a Poisson process of \p Rate per second,
/// alternating connections, then waits for every answer.
static PhaseResult runPhase(ServeStack &S, const Traffic &Tr, double Rate,
                            unsigned Count, Phase Ph, RNG &Rand,
                            std::uint64_t &NextReq) {
  PhaseResult Out;
  std::uint64_t SentBefore = 0;
  for (auto &C : S.Clients)
    SentBefore += C->sentCount();
  std::uint64_t Start = nowNs() + 1'000'000; // 1 ms to get going.
  double Offset = 0;
  std::vector<std::uint64_t> Depth;
  Depth.reserve(Count);
  for (unsigned K = 0; K < Count; ++K) {
    // Exponential inter-arrival times; 53 random bits, never exactly 0.
    double U = (static_cast<double>(Rand.next() >> 11) + 1.0) * 0x1p-53;
    Offset += -std::log(U) / Rate;
    std::uint64_t Due = Start + static_cast<std::uint64_t>(Offset * 1e9);
    // Spin to the due time. A timed sleep on a virtual machine wakes up
    // milliseconds late at its p99, and that lag would count as latency
    // (timed from Due); spinning costs one core and keeps gen_lag small.
    while (nowNs() < Due) {
    }
    auto Fn = static_cast<std::uint32_t>(Rand.nextBelow(Tr.Wire.size()));
    Client &C = *S.Clients[K % S.Clients.size()];
    // The previous phase drained, so everything sent before it is done.
    std::uint64_t InFlight =
        SentBefore + K - S.Completed.load(std::memory_order_relaxed);
    Depth.push_back(InFlight);
    Out.BacklogMax = std::max(Out.BacklogMax, InFlight);
    std::uint64_t Sent = nowNs();
    Out.GenLagMs.push_back(static_cast<double>(Sent - Due) / 1e6);
    if (!C.send(Fn, Tr.Wire[Fn], Due, Ph, NextReq++))
      break; // The reader sees the dead socket and fails what is queued.
  }
  std::uint64_t Deadline = nowNs() + 30'000'000'000ull;
  Out.Drained = true;
  for (auto &C : S.Clients)
    Out.Drained &= C->drain(Deadline);
  std::vector<std::pair<std::uint64_t, double>> Timed;
  for (auto &C : S.Clients)
    C->take(Ph, Timed, Out.SentLatUs);
  std::sort(Timed.begin(), Timed.end());
  for (const auto &[Due, Ms] : Timed)
    Out.LatMs.push_back(Ms);
  if (!Depth.empty()) {
    std::size_t Q = std::max<std::size_t>(1, Depth.size() / 4);
    double First = 0, Last = 0;
    for (std::size_t I = 0; I < Q; ++I) {
      First += static_cast<double>(Depth[I]);
      Last += static_cast<double>(Depth[Depth.size() - 1 - I]);
    }
    Out.BacklogFirstQuarter = First / static_cast<double>(Q);
    Out.BacklogLastQuarter = Last / static_cast<double>(Q);
  }
  return Out;
}

static double p99(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::optional<double> P = tailPercentile(V, 99);
  return P ? *P : std::nan("");
}

static std::string join(const std::vector<double> &V) {
  std::string Out;
  for (double X : V)
    Out += formatf("%s%.3f", Out.empty() ? "" : ",", X);
  return Out;
}

/// STATS on every connection; checks the server's counts against the
/// client's own. Returns the first connection's line.
static bool checkStats(ServeStack &S, Gate &G, std::string &First,
                       std::string &Err) {
  std::uint64_t Deadline = nowNs() + 10'000'000'000ull;
  std::uint64_t Total = 0;
  std::string Line;
  for (std::size_t I = 0; I < S.Clients.size(); ++I) {
    Client &C = *S.Clients[I];
    if (!C.stats(Line, Deadline) || !startsWith(Line, "STATS ")) {
      Err = "no STATS answer: '" + Line + "'";
      return false;
    }
    if (I == 0)
      First = Line;
    double Sent = static_cast<double>(C.sentCount());
    Total += C.sentCount();
    if (statsField(Line, "connSubmitted") != Sent ||
        statsField(Line, "connDelivered") != Sent)
      G.fail(formatf("connection %zu: server counts disagree with the "
                     "client's %.0f sent: %s",
                     I, Sent, Line.c_str()));
  }
  double T = static_cast<double>(Total);
  if (statsField(Line, "submitted") != T || statsField(Line, "delivered") != T)
    G.fail(formatf("lane counts disagree with the clients' %.0f sent: %s", T,
                   Line.c_str()));
  if (statsField(Line, "shedSubmits") != 0 ||
      statsField(Line, "deadlineExpired") != 0)
    G.fail("server reports sheds or expired deadlines: " + Line);
  return true;
}

bool odbench::runServeOpen(const RunConfig &Cfg, Report &R, Gate &G,
                           Tracer &T, std::string &Err) {
  // Inputs first: the reference must exist before the stack that checks
  // against it. A private target instance generates them; the measured
  // set-up builds its own.
  Expected<std::unique_ptr<targets::Target>> InTgt = targets::makeTarget("x86");
  if (!InTgt) {
    Err = "target: " + InTgt.message();
    return false;
  }
  const Grammar &InG = (*InTgt)->G;
  Expected<Corpus> C = x86Corpus(InG, Cfg.Seed, ServePool, ServeNodes);
  if (!C) {
    Err = "corpus: " + C.message();
    return false;
  }
  Traffic Tr;
  for (const ir::IRFunction &F : C->Fns)
    Tr.Wire.push_back(toWire(F, InG));
  R.note(formatf("INPUT {\"corpus_fingerprint\":\"%016llx\",\"functions\":"
                 "%zu,\"nodes\":%llu}",
                 static_cast<unsigned long long>(C->Fingerprint),
                 C->Fns.size(), static_cast<unsigned long long>(C->Nodes)));
  Expected<std::vector<Reference>> Refs =
      dpReference(InG, &(*InTgt)->Dyn, *C);
  if (!Refs) {
    Err = "reference: " + Refs.message();
    return false;
  }
  Tr.Refs = std::move(*Refs);
  if (Cfg.InjectMismatch)
    corruptReference(Tr.Refs, CheckKind::AsmAndCost);

  // Each set-up sample starts a whole server; the first one is measured.
  SetupSampler<ServeStack> Setups(
      ServeSetupReps, [&](Tracer &T) { return buildServe(T, Tr.Refs, G); });
  Expected<std::unique_ptr<ServeStack>> Built = Setups.first(T);
  if (!Built) {
    Err = "setup: " + Built.message();
    return false;
  }
  std::unique_ptr<ServeStack> S = std::move(*Built);
  if (Cfg.Trace && !Setups.finish(R, T, Err))
    return false;

  // The lane's engine in process — the hybrid backend and a 2-worker
  // CompileService on the served grammar — runs life cycles after every
  // pair of fixed-rate sub-phases, while the server is idle. Served
  // latency on a shared machine follows co-tenants' load (see README.md);
  // these give serve-open compile figures steady enough to bound.
  const targets::Target &Tgt = **InTgt;
  Engine E{Tgt.G, &Tgt.Dyn, BackendKind::Hybrid, ServeWorkers,
           CheckKind::AsmAndCost};
  LifeCycle Life;
  ClosedLoop L;

  RNG Rand(hashCombine(Cfg.Seed, 0x5e7e));
  std::uint64_t NextReq = 1;
  // Traced, the served traffic gets a share of the time and the layers
  // behind the lane the rest.
  double ServeSeconds = Cfg.Trace ? 0.3 * Cfg.Seconds : Cfg.Seconds;
  std::uint64_t RunStart = nowNs();
  std::uint64_t LadderEnd =
      RunStart + static_cast<std::uint64_t>(LadderShare * ServeSeconds * 1e9);
  std::uint64_t RunEnd =
      RunStart + static_cast<std::uint64_t>(ServeSeconds * 1e9);
  if (!Cfg.Trace)
    Setups.spread(Cfg.Seconds);

  runPhase(*S, Tr, LowRate, SubPhase, Warmup, Rand, NextReq);

  // serve_max_fn_per_s: ascending walks over the ladder, each stopped by
  // two failures in a row, while the ladder's share of the time lasts (at
  // least one walk); a rate meets the limit when it passed in most walks.
  std::vector<unsigned> Passes(std::size(Ladder), 0);
  unsigned Rounds = 0;
  for (; Rounds == 0 || nowNs() < LadderEnd; ++Rounds) {
    unsigned Fails = 0;
    for (std::size_t I = 0; I < std::size(Ladder) && Fails < 2; ++I) {
      unsigned Count = std::max(
          SubPhase, static_cast<unsigned>(Ladder[I] * StepSeconds));
      PhaseResult P =
          runPhase(*S, Tr, Ladder[I], Count, LadderStep, Rand, NextReq);
      if (!Setups.poll(T, Err))
        return false;
      double Tail = p99(P.LatMs);
      bool Growing = P.BacklogLastQuarter > 2 * P.BacklogFirstQuarter + 8;
      bool Ok = P.Drained && Tail <= P99LimitMs && !Growing;
      R.note(formatf("LADDER round=%u rate=%.0f p50_ms=%.3f p99_ms=%.3f "
                     "backlog_q1=%.1f backlog_q4=%.1f %s",
                     Rounds, Ladder[I], median(P.LatMs), Tail,
                     P.BacklogFirstQuarter, P.BacklogLastQuarter,
                     Ok ? "ok" : "over"));
      Fails = Ok ? 0 : Fails + 1;
      Passes[I] += Ok;
    }
  }
  double MaxRate = 0;
  for (std::size_t I = 0; I < std::size(Ladder); ++I)
    if (2 * Passes[I] > Rounds)
      MaxRate = Ladder[I];

  // The fixed rates, interleaved sub-phase by sub-phase, each pair
  // followed (untraced) by a life cycle of the lane's engine, until the
  // time is up (at least one cycle).
  std::vector<double> LowP99s, HighP99s, LowMs, HighMs, Lag;
  std::uint64_t BacklogMax = 0;
  unsigned Cycles = 0;
  do {
    ++Cycles;
    for (Phase Ph : {High, Low}) {
      PhaseResult P = runPhase(*S, Tr, Ph == High ? HighRate : LowRate,
                               SubPhase, Ph, Rand, NextReq);
      (Ph == High ? HighP99s : LowP99s).push_back(p99(P.LatMs));
      std::vector<double> &All = Ph == High ? HighMs : LowMs;
      All.insert(All.end(), P.LatMs.begin(), P.LatMs.end());
      Lag.insert(Lag.end(), P.GenLagMs.begin(), P.GenLagMs.end());
      if (Ph == High)
        BacklogMax = std::max(BacklogMax, P.BacklogMax);
      if (!P.Drained)
        G.fail("answers still missing 30 s after the last send");
      if (!Setups.poll(T, Err))
        return false;
    }
    for (unsigned I = 0; !Cfg.Trace && I < ServeCyclesPerPair; ++I)
      if (!lifeCycle(E, *C, Tr.Refs, ServeWarmPasses, &L, G, T, NextReq, Life,
                     Err))
        return false;
  } while (nowNs() < RunEnd);
  if (!Cfg.Trace && !Setups.finish(R, T, Err))
    return false;
  std::string StatsLine;
  if (!checkStats(*S, G, StatsLine, Err))
    return false;
  R.detail("serve_ms.low", summarize(LowMs), "ms");
  R.detail("serve_ms.high", summarize(HighMs), "ms");
  R.note("SUBPHASES p99_ms.low " + join(LowP99s));
  R.note("SUBPHASES p99_ms.high " + join(HighP99s));
  // The served latencies and the knee: measured in every run, printed
  // here, and no metrics, since only serve-open has them (see README.md).
  R.note(formatf("SERVE {\"serve_max_fn_per_s\":%.0f,\"serve_p50_ms.low\":"
                 "%.4f,\"serve_p50_ms.high\":%.4f,\"serve_p99_ms.low\":%.4f,"
                 "\"serve_p99_ms.high\":%.4f,\"serve.backlog_max\":%llu,"
                 "\"serve.gen_lag_ms_p99\":%.4f,\"ladder_walks\":%u,"
                 "\"subphases\":%u}",
                 MaxRate, median(LowMs), median(HighMs), median(LowP99s),
                 median(HighP99s), static_cast<unsigned long long>(BacklogMax),
                 p99(Lag), Rounds, Cycles));
  if (!Cfg.Trace) {
    if (!reportClosedLoop(L, R, false, false, Err))
      return false;
    reportLifeCycle(Life, R, false);
    R.set("warm_nodes_per_s", median(Life.WarmNodesPerS));
    R.detail("warm_nodes_per_s", summarize(Life.WarmNodesPerS), "nodes/s");
    R.set("backend_mb",
          static_cast<double>(Life.Warm->B->memoryBytes()) / 1e6);
    return true;
  }

  // The server reports lane latency only as percentiles over its last
  // 4096 deliveries, so each of these comes from a phase of one rate that
  // fills that window, followed by a STATS request.
  const unsigned Window = 4200;
  runPhase(*S, Tr, HighRate, Window, High, Rand, NextReq);
  std::string HighStats, LowStats;
  if (!checkStats(*S, G, HighStats, Err))
    return false;
  PhaseResult Lo = runPhase(*S, Tr, LowRate, Window, Low, Rand, NextReq);
  if (!checkStats(*S, G, LowStats, Err))
    return false;
  // Net: what the client saw beyond the lane's own submit-to-delivery
  // time (frame parse, socket, writer thread), at the low rate where
  // queueing is small. A difference of percentiles, not a percentile of
  // differences: the server does not report per-request times.
  R.note(formatf("NET {\"serve.net_us_p50\":%.4f,\"serve.net_us_p99\":%.4f,"
                 "\"lane_offline_hit_ratio\":%.4f}",
                 std::max(0.0, median(Lo.SentLatUs) -
                                   statsField(LowStats, "p50Us")),
                 std::max(0.0, p99(Lo.SentLatUs) -
                                   statsField(LowStats, "p99Us")),
                 statsField(LowStats, "offlineHitRate")));
  S.reset();

  // The layers behind the lane, timed through the benchmark's own calls:
  // the engine's life cycles and closed loop, the label/reduce/emit split,
  // frame parsing, the backend comparison, and the hybrid backend's
  // offline table generation.
  if (!repeatFor(
          0.1 * Cfg.Seconds,
          [&] {
            return lifeCycle(E, *C, Tr.Refs, ServeWarmPasses, &L, G, T,
                             NextReq, Life, Err);
          },
          [&] { return L.LatencyUs.size() >= MinLatencySamples; }))
    return false;
  if (!reportClosedLoop(L, R, true, false, Err))
    return false;
  reportLifeCycle(Life, R, true);
  // Compute: label + reduce + emit per function on the lane's engine.
  // Wait: the lane's submit-to-delivery time beyond it, at the high rate
  // (the STATS window covers the high phase's last deliveries).
  double ComputeP50 = median(L.ComputeUs), ComputeP99 = p99(L.ComputeUs);
  R.set("pipeline.compute_us_p50", ComputeP50);
  R.set("pipeline.wait_us_p50",
        std::max(0.0, statsField(HighStats, "p50Us") - ComputeP50));
  R.set("pipeline.wait_us_p99",
        std::max(0.0, statsField(HighStats, "p99Us") - ComputeP99));

  Life.Warm->Svc.reset();
  measureLayers(Tgt.G, &Tgt.Dyn, *Life.Warm->B, *C, Tr.Refs, E.Check, G, T,
                0.2 * Cfg.Seconds, NextReq, R);
  Life.Warm.reset();
  if (!measureParse(Tgt.G, *C, T, NextReq, R, Err))
    return false;

  Expected<Corpus> FixedC = x86Corpus(Tgt.Fixed, Cfg.Seed, ServePool,
                                      ServeNodes);
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
  if (!compareBackends(Tgt.G, &Tgt.Dyn, Tgt.Fixed, *C, Tr.Refs, *FixedC,
                       *FixedRefs, E.Check, G, T, 0.3 * Cfg.Seconds, NextReq,
                       R, Err))
    return false;

  // offline.gen_ms here is the served lane's own: the hybrid backend's
  // tables for the static partition, with the thread count its set-up
  // used. It replaces the comparison's full fixed-grammar generation.
  GrammarPartition Part = GrammarPartition::compute(Tgt.G);
  std::uint64_t T0 = nowNs();
  Tracer::SpanId Id = T.begin("offline.gen", Tracer::None, 0);
  Expected<CompiledTables> Tables = OfflineTableGen(Tgt.G).generateSubset(
      Part.InPartition, LabelerBackend::Options().OfflineGenThreads);
  T.end(Id);
  if (!Tables) {
    Err = "offline tables: " + Tables.message();
    return false;
  }
  R.set("offline.gen_ms", ms(nowNs() - T0));
  R.set("offline.states", Tables->stats().NumStates);
  return true;
}
