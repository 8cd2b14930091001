//===- perfbench/runner/fig11.cpp - The fig11 workload ----------*- C++ -*-===//
//
// Cold BatchAnalyzer::run at 4 threads over the paper's 221 loop-based
// programs, submission order shuffled by the seed. Each cold run is a
// fresh forked process; runs repeat until --seconds have passed (at
// least three, so every timing is a median).
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "api/BatchAnalyzer.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

using namespace tnt;

namespace perfbench {

namespace {

/// Runs repeat until --seconds have passed, at least MinRuns. The
/// per-group and per-program percentiles use the first MinRuns plain
/// runs only, so their sample size is the same on every commit however
/// fast a cold run is.
constexpr int MinRuns = 3, MaxRuns = 40, SetupPerRun = 14;
/// The fig11 golden table (Y / N / U / T-O) and program count.
constexpr unsigned GoldenYes = 171, GoldenNo = 38, GoldenUnknown = 12,
                   GoldenTimeout = 0, Programs = 221;

double cpuNow() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_utime.tv_sec) + RU.ru_utime.tv_usec * 1e-6 +
         double(RU.ru_stime.tv_sec) + RU.ru_stime.tv_usec * 1e-6;
}

/// The set-up a cold run pays: generate the inputs in the seeded
/// submission order and construct the analyzer.
std::vector<BatchItem> inputs(uint64_t Seed) {
  std::vector<BatchItem> Base = loopBasedBatchItems();
  std::vector<BatchItem> Items;
  for (size_t I : fig11Order(Seed, Base.size()))
    Items.push_back(Base[I]);
  return Items;
}

BatchOptions options() {
  BatchOptions Opt; // batchProgramConfig(): fuel 800, no deadline.
  Opt.Threads = Threads;
  Opt.Profile = true; // Per-group times; out of band like tracing.
  return Opt;
}

/// One cold run, in the forked child. Returns its summary as JSON.
std::string coldRun(uint64_t Seed, const std::string &TracePath) {
  std::vector<BatchItem> Items = inputs(Seed);
  BatchAnalyzer BA(options());

  if (!TracePath.empty())
    trace::start();
  double Cpu0 = cpuNow(), T1 = nowSeconds();
  BatchResult R = BA.run(Items);
  double Wall = nowSeconds() - T1, Cpu = cpuNow() - Cpu0;
  if (!TracePath.empty()) {
    trace::stop();
    std::string Err;
    if (!trace::writeJson(TracePath, &Err))
      throw std::runtime_error("trace: " + Err);
  }

  std::map<std::string, const BenchProgram *> Truth;
  for (const BenchProgram *P : loopBasedPrograms())
    Truth[P->Name] = P;
  unsigned Yes = 0, No = 0, Unk = 0, TO = 0, Unsound = 0, Ok = 0;
  for (const BatchProgramResult &P : R.Programs) {
    Ok += P.Result.Ok;
    Yes += P.Verdict == Outcome::Yes;
    No += P.Verdict == Outcome::No;
    Unk += P.Verdict == Outcome::Unknown;
    TO += P.Verdict == Outcome::Timeout;
    auto It = Truth.find(P.Name);
    if (It == Truth.end() || !soundAnswer(*It->second, P.Verdict))
      ++Unsound;
  }
  std::vector<double> GroupMs, ProgramMs(R.Programs.size(), 0.0);
  for (const GroupProfile &G : R.Profile) {
    GroupMs.push_back(G.Millis);
    ProgramMs[G.ProgramIdx] += G.Millis;
  }
  const SolverStats &S = R.Usage;
  std::ostringstream O;
  O.precision(17);
  O << "{\"wall\":" << Wall << ",\"cpu\":" << Cpu
    << ",\"programs\":" << R.Programs.size() << ",\"ok\":" << Ok
    << ",\"yes\":" << Yes << ",\"no\":" << No << ",\"unknown\":" << Unk
    << ",\"timeout\":" << TO << ",\"unsound\":" << Unsound
    << ",\"group_ms\":" << jsonNumbers(GroupMs)
    << ",\"program_ms\":" << jsonNumbers(ProgramMs)
    << ",\"sat\":" << S.SatQueries << ",\"hits\":" << S.CacheHits
    << ",\"misses\":" << S.CacheMisses << ",\"lp\":" << S.LpSolves
    << ",\"interval\":" << S.IntervalSat + S.IntervalUnsat
    << ",\"lemma\":" << S.LemmaHits << ",\"glookups\":" << R.Global.SatLookups
    << ",\"ghits\":" << R.Global.SatHits << "}";
  return O.str();
}

} // namespace

Report runFig11(const Args &A) {
  Report R;
  TempDir Tmp(A.WorkDir, "fig11");
  std::vector<double> Setup, Wall, Cpu, Rss, TracedWall, PooledGroupMs;
  // Best (smallest) time of each group and program over the first
  // MinRuns cold runs: every cold run of one seed submits the same
  // order, so rows align.
  std::vector<double> BestGroupMs, BestProgramMs;
  double Ok = 0, Decided = 0, Total = 0;
  std::vector<double> SatPerRun, LpPerRun;
  LayerInputs L;
  L.Per = 0;
  L.PerNote = "per cold run";

  // Set-up, in fresh processes of its own. It is under a millisecond,
  // so it is repeated far more often than the cold runs; the repeats
  // sit before each of the first MinRuns cold runs, so the samples see
  // the same machine as the runs they sit among.
  auto setUp = [&] {
    for (int I = 0; I < SetupPerRun; ++I) {
      std::string Out;
      ChildUsage U;
      if (!runForked(
              [&] {
                double T0 = nowSeconds();
                std::vector<BatchItem> Items = inputs(A.Seed);
                BatchAnalyzer BA(options());
                char Buf[32];
                std::snprintf(Buf, sizeof Buf, "%.17g", nowSeconds() - T0);
                return std::string(Buf);
              },
              Out, U)) {
        R.fail("set-up process failed");
        return false;
      }
      Setup.push_back(std::stod(Out));
    }
    return true;
  };

  double Start = nowSeconds();
  for (int Run = 0; Run < MaxRuns; ++Run) {
    if (Run >= MinRuns && nowSeconds() - Start >= A.Seconds)
      break;
    if (!A.Trace && Run < MinRuns && !setUp())
      return R;
    // The traced run alternates plain and traced cold runs, so the
    // overhead ratio compares runs of the same process state.
    bool Traced = A.Trace && Run % 2 == 1;
    std::string TracePath =
        Traced ? Tmp.path() + "/trace" + std::to_string(Run) + ".json" : "";
    std::string Out;
    ChildUsage U;
    if (!runForked([&] { return coldRun(A.Seed, TracePath); }, Out, U)) {
      R.fail("cold run " + std::to_string(Run) + " crashed or failed");
      R.Attempted += Programs;
      R.Failed += Programs;
      break;
    }
    std::optional<json::Value> V = json::parse(Out);
    if (!V || !V->isObject()) {
      R.fail("cold run " + std::to_string(Run) + " returned no summary");
      break;
    }
    auto at = [&V](const char *Key) { return field(&*V, {Key}); };
    double N = at("programs");
    R.Attempted += uint64_t(N);
    R.Failed += uint64_t(N - at("ok") + at("unsound"));
    Total += N;
    Ok += at("ok");
    Decided += at("yes") + at("no");
    if (at("unsound") != 0)
      R.fail("cold run " + std::to_string(Run) + ": " +
             std::to_string(int(at("unsound"))) + " unsound answers");
    if (N != Programs || at("yes") != GoldenYes ||
        at("no") != GoldenNo || at("unknown") != GoldenUnknown ||
        at("timeout") != GoldenTimeout)
      R.fail("cold run " + std::to_string(Run) + ": table " +
             std::to_string(int(at("yes"))) + "/" +
             std::to_string(int(at("no"))) + "/" +
             std::to_string(int(at("unknown"))) + "/" +
             std::to_string(int(at("timeout"))) +
             " differs from the golden 171/38/12/0");
    SatPerRun.push_back(at("sat"));
    LpPerRun.push_back(at("lp"));

    if (Traced) {
      TracedWall.push_back(at("wall"));
      std::string Err;
      if (!foldTrace(TracePath, L.Spans, Err))
        R.fail(Err);
      L.Per += 1;
      L.WallMs += at("wall") * 1000;
      L.SatQueries += at("sat");
      L.CacheHits += at("hits");
      L.CacheMisses += at("misses");
      L.LpSolves += at("lp");
      L.IntervalAnswered += at("interval");
      L.LemmaHits += at("lemma");
      L.GlobalLookups += at("glookups");
      L.GlobalHits += at("ghits");
      continue;
    }
    Wall.push_back(at("wall"));
    Cpu.push_back(at("cpu"));
    Rss.push_back(U.PeakRssMb);
    auto best = [](std::vector<double> &Best, const json::Value *Row) {
      const std::vector<json::Value> &Xs = Row->elements();
      if (Best.empty())
        Best.assign(Xs.size(), HUGE_VAL);
      for (size_t I = 0; I < Xs.size() && I < Best.size(); ++I)
        Best[I] = std::min(Best[I], Xs[I].asNumber());
    };
    if (Wall.size() > size_t(MinRuns))
      continue;
    best(BestGroupMs, V->field("group_ms"));
    best(BestProgramMs, V->field("program_ms"));
    for (const json::Value &X : V->field("group_ms")->elements())
      PooledGroupMs.push_back(X.asNumber());
  }
  for (size_t I = 1; I < SatPerRun.size(); ++I)
    if (SatPerRun[I] != SatPerRun[0] || LpPerRun[I] != LpPerRun[0])
      std::cerr << "perfbench: note: sat_queries/lp_solves differ between "
                   "cold runs\n";

  const size_t Runs = Wall.size();
  if (A.Trace) {
    L.TraceOverhead = median(Wall) > 0 ? median(TracedWall) / median(Wall) : 0;
    addLayers(R, L);
    return R;
  }
  R.add("setup_s", "s", median(Setup), Setup.size(),
        "median: generate inputs + construct the analyzer");
  R.add("wall_s", "s", median(Wall), Runs, "median cold-run wall-clock");
  R.add("cpu_s", "s", median(Cpu), Runs, "median user+sys CPU of a cold run");
  R.add("peak_rss_mb", "MB", median(Rss), Runs,
        "median peak RSS of a cold-run process");
  R.add("ok_ratio", "ratio", Total > 0 ? Ok / Total : 0, size_t(Total),
        "programs analysed ok / programs");
  R.add("decided_ratio", "ratio", Total > 0 ? Decided / Total : 0,
        size_t(Total), "entry verdicts Y or N / programs");
  R.add("programs_per_s", "1/s", median(Wall) > 0 ? Programs / median(Wall) : 0,
        Runs, "221 programs / median wall");
  R.add("capacity_per_s", "1/s",
        median(Wall) > 0 ? Programs / median(Wall) : 0, Runs,
        "a closed batch: its throughput is its capacity (= programs_per_s)");
  // Sub-millisecond groups share the cores with the gcd-like LPs, so a
  // single run's small-group times swing with contention; the best of
  // the first MinRuns cold runs per group or program is the steady
  // estimate.
  const std::string FirstRuns =
      "the first " + std::to_string(MinRuns) + " cold runs";
  R.addPercentile("latency_p50_ms", BestGroupMs, 0.50,
                  "per-group task latency, best of " + FirstRuns);
  // One cold run has too few groups for a p99 with ten samples beyond
  // it, so p99 pools the first MinRuns runs; today it lands on the
  // gcd-like groups.
  R.addPercentile("latency_p99_ms", PooledGroupMs, 0.99,
                  "per-group task latency, pooled over " + FirstRuns);
  R.addPercentile("round_p50_ms", BestProgramMs, 0.50,
                  "per-program analysis time (sum of its groups), best of " +
                      FirstRuns);
  R.addPercentile("round_p90_ms", BestProgramMs, 0.90,
                  "per-program analysis time (sum of its groups), best of " +
                      FirstRuns);
  return R;
}

} // namespace perfbench
