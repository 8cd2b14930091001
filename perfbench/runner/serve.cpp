//===- perfbench/runner/serve.cpp - The serve workload ----------*- C++ -*-===//
//
// `hiptnt --serve-socket <path> --serve-workers 4` receives salted
// corpus programs (gcd-like excluded) from one single-threaded client
// over 4 connections: first a closed loop (each connection waits for
// its reply), then an open loop of Poisson arrivals at a fixed rate,
// each request timed from its scheduled send time.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "api/AnalysisServer.h"
#include "api/BatchAnalyzer.h"
#include "support/Json.h"
#include "support/UnixSocket.h"

#include <poll.h>
#include <unistd.h>

#include <cmath>
#include <thread>

using namespace tnt;

namespace perfbench {

namespace {

/// Closed-loop requests per second the seed commit sustains on this
/// workload (4 workers, 4 connections, Release build, 4 shared cores:
/// 640-1300/s depending on the host's load). Request counts derive from
/// it, so a run lasts about --seconds at the seed commit.
constexpr double SeedCapacity = 900;
/// Open-loop arrival rate: a third of the seed's closed-loop capacity.
/// The host's speed drifts by up to 40% for minutes at a time; at half
/// the capacity such a stretch brings the server near saturation, where
/// open-loop latency grows tenfold and the default admission queue (64)
/// sheds (a shed reply fails the byte check).
constexpr double OpenRate = SeedCapacity / 3;
constexpr size_t ByteCheckSamples = 16, ClosedWindows = 10;
constexpr double PhaseTimeoutSec = 120;

struct Conn {
  int Fd = -1;
  std::string In;
  ~Conn() {
    if (Fd >= 0)
      close(Fd);
  }
};

bool sendLine(int Fd, const std::string &Line) {
  std::string S = Line + "\n";
  return writeAll(Fd, S.data(), S.size());
}

/// unixConnect, retried until the server has bound its socket.
int connectTo(const std::string &Path, double TimeoutSec) {
  double Deadline = nowSeconds() + TimeoutSec;
  while (nowSeconds() < Deadline) {
    int Fd = unixConnect(Path);
    if (Fd >= 0)
      return Fd;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

/// Reads whatever is available on \p C and returns complete lines.
bool readLines(Conn &C, std::vector<std::string> &Lines) {
  char Buf[65536];
  ssize_t N = ::read(C.Fd, Buf, sizeof Buf);
  if (N <= 0)
    return false;
  C.In.append(Buf, size_t(N));
  size_t Start = 0, Nl;
  while ((Nl = C.In.find('\n', Start)) != std::string::npos) {
    Lines.push_back(C.In.substr(Start, Nl - Start));
    Start = Nl + 1;
  }
  C.In.erase(0, Start);
  return true;
}

/// Sends \p Line on \p C and blocks for one reply line.
std::string roundTrip(Conn &C, const std::string &Line, double TimeoutSec) {
  if (!sendLine(C.Fd, Line))
    return "";
  std::vector<std::string> Lines;
  double Deadline = nowSeconds() + TimeoutSec;
  while (Lines.empty() && nowSeconds() < Deadline) {
    pollfd P{C.Fd, POLLIN, 0};
    if (poll(&P, 1, 100) > 0 && !readLines(C, Lines))
      break;
  }
  return Lines.empty() ? "" : Lines.front();
}

/// One hiptnt server process with its connections. The destructor
/// kills and reaps the process if it is still up, and removes the
/// socket, whatever path the run took.
struct Server {
  Child Proc;
  std::string Socket;
  std::vector<Conn> Conns = std::vector<Conn>(Threads);
  ChildUsage Usage;

  ~Server() {
    Conns.clear();
    Proc.wait(0);
    unlink(Socket.c_str());
  }

  /// Spawns the server and waits for its first health answer.
  bool start(const Args &A, const std::string &Dir, const std::string &Tag,
             const std::string &TracePath) {
    Socket = Dir + "/" + Tag + ".sock";
    std::vector<std::string> Argv = {A.Hiptnt, "--serve-socket", Socket,
                                     "--serve-workers",
                                     std::to_string(Threads)};
    if (!TracePath.empty()) {
      Argv.push_back("--trace-out");
      Argv.push_back(TracePath);
    }
    if (!Proc.spawn(Argv, Dir + "/" + Tag + ".log"))
      return false;
    for (Conn &C : Conns)
      if ((C.Fd = connectTo(Socket, 10)) < 0)
        return false;
    std::optional<json::Value> H = json::parse(
        roundTrip(Conns[0], "{\"id\":\"h\",\"verb\":\"health\"}", 10));
    return H && H->field("ok") && H->field("ok")->asBool();
  }

  /// Sends the shutdown verb and reaps the process.
  bool stop() {
    std::string Ack =
        roundTrip(Conns[0], "{\"id\":\"bye\",\"verb\":\"shutdown\"}", 30);
    Conns.clear();
    int RC = Proc.wait(30, &Usage);
    return Ack.find("\"shutdown\":true") != std::string::npos && RC == 0;
  }
};

/// Every request's reply, keyed by id, plus the timing samples.
struct Load {
  explicit Load(size_t Requests) : Replies(Requests), Answers(Requests, 0) {}
  std::vector<std::string> Replies;
  std::vector<unsigned> Answers; ///< Replies received per id.
  std::vector<double> LatencyMs; ///< Closed loop: in completion order.
  std::vector<double> DoneAt;    ///< Closed loop: completion times.
  std::vector<double> LateMs;    ///< Open loop: send lateness.
  double StartSec = 0, WallSec = 0;
};

/// Files reply lines against their ids; returns the ids answered.
std::vector<size_t> file(Load &L, const std::vector<std::string> &Lines) {
  std::vector<size_t> Ids;
  for (const std::string &Line : Lines) {
    std::optional<json::Value> V = json::parse(Line);
    const json::Value *Id = V && V->isObject() ? V->field("id") : nullptr;
    if (!Id || !Id->isNumber() || Id->asNumber() < 0 ||
        Id->asNumber() >= double(L.Replies.size()))
      continue;
    size_t I = size_t(Id->asNumber());
    if (L.Answers[I]++ == 0)
      L.Replies[I] = Line;
    Ids.push_back(I);
  }
  return Ids;
}

/// Closed loop: ids [First, First + N), one outstanding per connection.
void closedLoop(Server &S, const std::vector<std::string> &Requests,
                size_t First, size_t N, Load &L) {
  std::vector<double> SentAt(Requests.size(), 0);
  size_t Next = First, Done = 0, End = First + N;
  double T0 = nowSeconds(), Deadline = T0 + PhaseTimeoutSec;
  L.StartSec = T0;
  for (Conn &C : S.Conns)
    if (Next < End) {
      SentAt[Next] = nowSeconds();
      sendLine(C.Fd, Requests[Next++]);
    }
  std::vector<pollfd> Fds;
  for (Conn &C : S.Conns)
    Fds.push_back({C.Fd, POLLIN, 0});
  while (Done < N && nowSeconds() < Deadline) {
    if (poll(Fds.data(), Fds.size(), 100) <= 0)
      continue;
    for (size_t K = 0; K < Fds.size(); ++K) {
      if (!(Fds[K].revents & (POLLIN | POLLHUP)))
        continue;
      std::vector<std::string> Lines;
      if (!readLines(S.Conns[K], Lines)) {
        Fds[K].fd = -1;
        continue;
      }
      double Now = nowSeconds();
      for (size_t Id : file(L, Lines)) {
        ++Done;
        L.LatencyMs.push_back((Now - SentAt[Id]) * 1000);
        L.DoneAt.push_back(Now);
        if (Next < End) {
          SentAt[Next] = nowSeconds();
          sendLine(S.Conns[K].Fd, Requests[Next++]);
        }
      }
    }
  }
  L.WallSec = nowSeconds() - T0;
}

/// Open loop: ids [First, First + Due.size()) sent at their scheduled
/// times, round-robin over the connections, whatever is outstanding.
/// LatencyMs is indexed by schedule position; a missing reply stays
/// infinite, over any limit.
void openLoop(Server &S, const std::vector<std::string> &Requests,
              size_t First, const std::vector<double> &Due, Load &L) {
  const size_t N = Due.size();
  L.LatencyMs.assign(N, HUGE_VAL);
  size_t Next = 0, Done = 0;
  double T0 = nowSeconds(), Deadline = T0 + Due.back() + PhaseTimeoutSec;
  std::vector<pollfd> Fds;
  for (Conn &C : S.Conns)
    Fds.push_back({C.Fd, POLLIN, 0});
  while (Done < N && nowSeconds() < Deadline) {
    double Now = nowSeconds();
    while (Next < N && T0 + Due[Next] <= Now) {
      L.LateMs.push_back((Now - (T0 + Due[Next])) * 1000);
      sendLine(S.Conns[Next % S.Conns.size()].Fd, Requests[First + Next]);
      ++Next;
      Now = nowSeconds();
    }
    int WaitMs = 100;
    if (Next < N)
      WaitMs = std::max(0, int(std::ceil((T0 + Due[Next] - Now) * 1000)));
    if (poll(Fds.data(), Fds.size(), std::min(WaitMs, 100)) <= 0)
      continue;
    Now = nowSeconds();
    for (size_t K = 0; K < Fds.size(); ++K) {
      if (!(Fds[K].revents & (POLLIN | POLLHUP)))
        continue;
      std::vector<std::string> Lines;
      if (!readLines(S.Conns[K], Lines)) {
        Fds[K].fd = -1;
        continue;
      }
      for (size_t Id : file(L, Lines)) {
        ++Done;
        if (Id >= First && Id < First + N && L.Answers[Id] == 1)
          L.LatencyMs[Id - First] = (Now - (T0 + Due[Id - First])) * 1000;
      }
    }
  }
  L.WallSec = nowSeconds() - T0;
}

} // namespace

Report runServe(const Args &A) {
  Report R;
  TempDir Tmp(A.WorkDir, "serve");
  std::vector<const BenchProgram *> Pool = programPool();

  // Request plan: the closed phase (a third of the run at the seed's
  // capacity), then the open phase (the other two thirds, so it holds
  // several windows of 1000 requests). A failed or missing reply counts
  // as over any latency limit.
  const size_t Closed = size_t(SeedCapacity * A.Seconds / 3);
  const size_t Open =
      std::max<size_t>(1000, size_t(OpenRate * A.Seconds * 2 / 3));
  std::vector<ServeDraw> Draws = serveDraws(A.Seed, Closed + Open, Pool.size());
  std::vector<std::string> Sources, Requests;
  for (size_t I = 0; I < Draws.size(); ++I) {
    Sources.push_back(
        soakVariantSource(Pool[Draws[I].Program]->Source, Draws[I].Salt));
    Requests.push_back("{\"id\":" + std::to_string(I) +
                       ",\"program\":" + json::quoted(Sources.back()) + "}");
  }
  std::vector<double> Due = poissonSchedule(A.Seed, Open, OpenRate);

  Load ClosedLoad(Requests.size()), OpenLoad(Requests.size()),
      Untraced(Requests.size());
  std::vector<double> Setup;
  LayerInputs Layers;
  double CpuSec = 0, PeakRss = 0;

  if (!A.Trace) {
    // Set-up: spawn to first health answer. Four throwaway servers and
    // the measured one give five samples.
    for (int I = 0; I < 4; ++I) {
      Server S;
      double T0 = nowSeconds();
      if (!S.start(A, Tmp.path(), "setup" + std::to_string(I), "")) {
        R.fail("server did not come up");
        return R;
      }
      Setup.push_back(nowSeconds() - T0);
      if (!S.stop())
        R.fail("server did not shut down cleanly");
    }
  }
  if (A.Trace) {
    // Overhead baseline: half the closed phase on an untraced server.
    Server S;
    if (!S.start(A, Tmp.path(), "plain", "")) {
      R.fail("server did not come up");
      return R;
    }
    closedLoop(S, Requests, 0, Closed / 2, Untraced);
    if (!S.stop())
      R.fail("server did not shut down cleanly");
  }

  // The traced server repeats the untraced server's closed phase, so
  // the overhead ratio compares the same requests on two cold servers.
  const std::string TracePath = A.Trace ? Tmp.path() + "/trace.json" : "";
  const size_t ClosedN = A.Trace ? Closed / 2 : Closed;
  std::string MetricsLine, StatsLine;
  {
    Server S;
    double T0 = nowSeconds();
    if (!S.start(A, Tmp.path(), "main", TracePath)) {
      R.fail("server did not come up");
      return R;
    }
    Setup.push_back(nowSeconds() - T0);
    double Cpu0 = S.Proc.cpuSeconds();
    closedLoop(S, Requests, 0, ClosedN, ClosedLoad);
    openLoop(S, Requests, Closed, Due, OpenLoad);
    CpuSec = S.Proc.cpuSeconds() - Cpu0;
    if (A.Trace) {
      MetricsLine =
          roundTrip(S.Conns[0], "{\"id\":\"m\",\"verb\":\"metrics\"}", 30);
      StatsLine =
          roundTrip(S.Conns[0], "{\"id\":\"s\",\"verb\":\"stats\"}", 30);
    }
    if (!S.stop())
      R.fail("server did not shut down cleanly");
    PeakRss = S.Usage.PeakRssMb;
  }

  // Gates: every id answered exactly once; a seeded sample of replies
  // byte-identical to a fresh runProgramRequest of the same source.
  size_t Ok = 0, Decided = 0, Attempted = 0;
  auto gate = [&](const Load &L, size_t First, size_t N) {
    for (size_t I = First; I < First + N; ++I) {
      ++Attempted;
      if (L.Answers[I] != 1) {
        R.fail("request " + std::to_string(I) + " answered " +
               std::to_string(L.Answers[I]) + " times");
        continue;
      }
      std::optional<json::Value> V = json::parse(L.Replies[I]);
      if (!V || !V->field("ok") || !V->field("ok")->asBool())
        continue;
      ++Ok;
      const json::Value *Verdict = V->field("verdict");
      if (Verdict &&
          (Verdict->asString() == "Y" || Verdict->asString() == "N"))
        ++Decided;
    }
  };
  gate(ClosedLoad, 0, ClosedN);
  gate(OpenLoad, Closed, Open);
  R.Attempted = Attempted;
  R.Failed = Attempted - Ok;
  Rng Sample(A.Seed, 0x5e57e);
  for (size_t K = 0; K < ByteCheckSamples; ++K) {
    size_t I = Sample.below(ClosedN + Open);
    I = I < ClosedN ? I : Closed + (I - ClosedN); // Only ids that were sent.
    const Load &L = I < Closed ? ClosedLoad : OpenLoad;
    RequestOutcome Fresh =
        runProgramRequest(Sources[I], "main", batchProgramConfig(), nullptr);
    std::string Want = "{\"id\":" + std::to_string(I) + "," + Fresh.Body + "}";
    if (L.Replies[I] != Want)
      R.fail("reply to request " + std::to_string(I) +
             " differs from a fresh runProgramRequest");
  }
  // A failed reply is over any latency limit.
  std::vector<double> OpenLatency = OpenLoad.LatencyMs;
  for (size_t I = 0; I < Open; ++I)
    if (OpenLoad.Replies[Closed + I].find("\"ok\":true") == std::string::npos)
      OpenLatency[I] = HUGE_VAL;

  if (A.Trace) {
    std::string Err;
    if (!foldTrace(TracePath, Layers.Spans, Err))
      R.fail(Err);
    std::optional<json::Value> M = json::parse(MetricsLine);
    std::optional<json::Value> St = json::parse(StatsLine);
    const json::Value *Mx = M ? M->field("metrics") : nullptr;
    const json::Value *Sx = St ? St->field("stats") : nullptr;
    if (!Mx || !Sx)
      R.fail("metrics/stats verbs gave no answer");
    auto meanMs = [&](const char *Hist) {
      double N = field(Mx, {"histograms", Hist, "count"});
      return N > 0 ? field(Mx, {"histograms", Hist, "sum"}) / N / 1000 : 0;
    };
    Layers.Per = double(ClosedN + Open);
    Layers.PerNote = "per request";
    Layers.WallMs = (ClosedLoad.WallSec + OpenLoad.WallSec) * 1000;
    Layers.SatQueries = field(Mx, {"gauges", "solver.sat_queries"});
    Layers.CacheHits = field(Mx, {"gauges", "solver.cache_hits"});
    Layers.CacheMisses = field(Mx, {"gauges", "solver.cache_misses"});
    Layers.LpSolves = field(Mx, {"gauges", "solver.lp_solves"});
    Layers.IntervalAnswered = field(Mx, {"gauges", "solver.interval_sat"}) +
                              field(Mx, {"gauges", "solver.interval_unsat"});
    Layers.LemmaHits = field(Mx, {"gauges", "solver.lemma_hits"});
    Layers.GlobalLookups = field(Sx, {"global_tier", "sat_lookups"});
    Layers.GlobalHits = field(Sx, {"global_tier", "sat_hits"});
    Layers.QueueMsMean = meanMs("server.request.queue_us");
    Layers.ExecMsMean = meanMs("server.request.exec_us");
    Layers.Reclaims = field(Sx, {"reclaims"});
    Layers.Shed = field(Mx, {"counters", "server.shed"});
    Layers.ArenaBytes = field(Sx, {"intern", "arena_bytes"});
    Layers.Formulas = field(Sx, {"intern", "formulas"});
    Layers.LateP99Ms = percentile(OpenLoad.LateMs, 0.99).Value;
    Layers.TraceOverhead =
        Untraced.WallSec > 0 ? ClosedLoad.WallSec / Untraced.WallSec : 0;
    addLayers(R, Layers);
    return R;
  }

  // Closed-loop capacity: the median of per-window completion rates.
  std::vector<double> Rates;
  std::vector<std::vector<double>> RoundWindows;
  const std::vector<double> &Done = ClosedLoad.DoneAt;
  for (size_t W = 0, A0 = 0; W < ClosedWindows && !Done.empty(); ++W) {
    size_t B = (W + 1) * Done.size() / ClosedWindows;
    double From = A0 == 0 ? ClosedLoad.StartSec : Done[A0 - 1];
    if (B > A0 && Done[B - 1] > From)
      Rates.push_back(double(B - A0) / (Done[B - 1] - From));
    RoundWindows.emplace_back(ClosedLoad.LatencyMs.begin() + A0,
                              ClosedLoad.LatencyMs.begin() + B);
    A0 = B;
  }
  double Capacity = median(Rates);
  size_t OpenWindows = std::max<size_t>(1, Open / 1000);
  R.add("setup_s", "s", median(Setup), Setup.size(),
        "median: spawn hiptnt to first health answer");
  R.add("wall_s", "s", Capacity > 0 ? ClosedN / Capacity : 0, Rates.size(),
        "closed phase (" + std::to_string(ClosedN) +
            " requests) at the median window rate");
  R.add("cpu_s", "s", CpuSec, 1, "server user+sys CPU over both phases");
  R.add("peak_rss_mb", "MB", PeakRss, 1, "server peak RSS");
  R.add("ok_ratio", "ratio", Attempted ? double(Ok) / Attempted : 0, Attempted,
        "ok replies / requests");
  R.add("decided_ratio", "ratio", Attempted ? double(Decided) / Attempted : 0,
        Attempted, "entry verdicts Y or N / requests");
  R.add("programs_per_s", "1/s", Capacity, Rates.size(),
        "programs analysed / s in the closed loop (= capacity_per_s)");
  R.add("capacity_per_s", "1/s", Capacity, Rates.size(),
        "closed loop, 4 connections: median of " +
            std::to_string(ClosedWindows) + " window completion rates");
  R.addWindowedPercentile("latency_p50_ms", windows(OpenLatency, OpenWindows),
                          0.50,
                          "open loop at " + std::to_string(int(OpenRate)) +
                              "/s, from scheduled send");
  R.addWindowedPercentile("latency_p99_ms", windows(OpenLatency, OpenWindows),
                          0.99,
                          "open loop at " + std::to_string(int(OpenRate)) +
                              "/s, from scheduled send");
  R.addWindowedPercentile("round_p50_ms", RoundWindows, 0.50,
                          "closed-loop request round trip");
  R.addWindowedPercentile("round_p90_ms", RoundWindows, 0.90,
                          "closed-loop request round trip");
  return R;
}

} // namespace perfbench
