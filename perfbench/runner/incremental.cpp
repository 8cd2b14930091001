//===- perfbench/runner/incremental.cpp - Incremental workload -*- C++ -*-===//
//
// The edit-and-rerun loop of `hiptnt --batch <dir> --store <file>`:
// set-up writes the corpus (gcd-like excluded) as salted files and
// populates the store cold; every round applies seeded edits to a few
// programs and re-analyses the whole project in a fresh process (store
// load, analysis, save), exactly the calls the CLI makes.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "api/BatchAnalyzer.h"
#include "store/SpecStore.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <filesystem>
#include <set>
#include <sstream>

using namespace tnt;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/// Rounds per pass: a pass is the timed unit, and 100 rounds put ten
/// samples beyond round_p90 even when a run holds a single pass.
constexpr size_t RoundsPerPass = 100, MaxPasses = 6, EditsPerRound = 3;
constexpr size_t SetupRepeats = 7;
/// The cold populate runs at the CLI's default of one thread. At four,
/// its wall time rose 60% when two other processes competed for the
/// four cores, and 2.5x in a slow stretch of the shared host; at one it
/// did not move. Set-up is compared between runs only as a median, so
/// it must not swing with the host's load.
constexpr unsigned SetupThreads = 1;

std::string fileName(size_t I) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "p%03zu.t", I);
  return Buf;
}

/// The CLI's directory loader (hiptnt --batch <dir>): .t/.tnt files in
/// name order, category = directory name.
std::vector<BatchItem> loadProject(const std::string &Dir) {
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.is_regular_file() && (E.path().extension() == ".t" ||
                                E.path().extension() == ".tnt"))
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  std::vector<BatchItem> Items;
  for (const fs::path &F : Files) {
    BatchItem It;
    It.Name = F.filename().string();
    It.Category = F.parent_path().filename().string();
    if (!readFile(F.string(), It.Source))
      throw std::runtime_error("cannot read " + F.string());
    Items.push_back(std::move(It));
  }
  return Items;
}

/// One `hiptnt --batch <dir> --store <file> --threads <N>` round, in
/// the forked child: the same calls, in the same order, as the CLI's
/// runBatch.
std::string rerun(const std::string &Dir, const std::string &StorePath,
                  const std::string &TracePath, bool Render,
                  unsigned NThreads = Threads) {
  if (!TracePath.empty())
    trace::start();
  std::vector<BatchItem> Items = loadProject(Dir);
  BatchOptions Opt; // batchProgramConfig(): fuel 800, no deadline.
  Opt.Threads = NThreads;
  Opt.Profile = true;
  SpecStore Store(SpecStore::configFingerprint(Opt.Program));
  std::string Err;
  double T0 = nowSeconds();
  if (!Store.load(StorePath, &Err))
    throw std::runtime_error(Err);
  double LoadMs = (nowSeconds() - T0) * 1000;
  Opt.Store = &Store;
  BatchAnalyzer BA(Opt);
  BA.globalTier()->importSatSnapshot(Store.satSnapshot());
  BA.globalTier()->importLemmaSnapshot(Store.lemmaSnapshot());
  BatchResult R = BA.run(Items);
  std::string Rendered = R.renderOutcomes();
  Store.setOutcomesDigest(Items.size(), SpecStore::fnv1a(Rendered));
  Store.setSatSnapshot(BA.globalTier()->exportSatSnapshot());
  Store.setLemmaSnapshot(BA.globalTier()->exportLemmas());
  double T1 = nowSeconds();
  if (!Store.save(StorePath, &Err))
    throw std::runtime_error(Err);
  double SaveMs = (nowSeconds() - T1) * 1000;
  if (!TracePath.empty()) {
    trace::stop();
    if (!trace::writeJson(TracePath, &Err))
      throw std::runtime_error("trace: " + Err);
  }

  unsigned Ok = 0, Decided = 0;
  for (const BatchProgramResult &P : R.Programs) {
    Ok += P.Result.Ok;
    Decided += P.Verdict == Outcome::Yes || P.Verdict == Outcome::No;
  }
  // Store-served groups only: a round re-analyses a handful of groups
  // among a thousand hits, so a tail percentile over both would sit on
  // the boundary between the two and move with the seed's edit mix. The
  // re-analysed groups show in the round times.
  std::vector<double> HitMs;
  for (const GroupProfile &G : R.Profile)
    if (G.FromStore)
      HitMs.push_back(G.Millis);
  const SolverStats &S = R.Usage;
  SpecStoreStats SS = Store.stats();
  std::ostringstream O;
  O.precision(17);
  O << "{\"programs\":" << R.Programs.size() << ",\"ok\":" << Ok
    << ",\"decided\":" << Decided << ",\"load_ms\":" << LoadMs
    << ",\"save_ms\":" << SaveMs << ",\"hits\":" << R.StoreHits
    << ",\"misses\":" << R.StoreMisses << ",\"entries\":" << SS.Entries
    << ",\"sat\":" << S.SatQueries << ",\"chits\":" << S.CacheHits
    << ",\"cmisses\":" << S.CacheMisses << ",\"lp\":" << S.LpSolves
    << ",\"interval\":" << S.IntervalSat + S.IntervalUnsat
    << ",\"lemma\":" << S.LemmaHits << ",\"glookups\":" << R.Global.SatLookups
    << ",\"ghits\":" << R.Global.SatHits
    << ",\"analysis_ms\":" << R.Millis
    << ",\"hit_ms\":" << jsonNumbers(HitMs);
  if (Render)
    O << ",\"outcomes\":" << json::quoted(Rendered);
  O << "}";
  return O.str();
}

/// Splits --outcomes text into per-program blocks keyed by file name.
std::map<std::string, std::string> blocks(const std::string &Text) {
  std::map<std::string, std::string> Out;
  std::istringstream In(Text);
  std::string Line, Name;
  while (std::getline(In, Line)) {
    if (Line.rfind("Batch: ", 0) == 0)
      break;
    if (Line.rfind("== ", 0) == 0)
      Name = Line.substr(3, Line.find(" [") - 3);
    if (!Name.empty())
      Out[Name] += Line + "\n";
  }
  return Out;
}

/// The project on disk plus the edit state of every program.
struct Project {
  std::string Dir, StorePath;
  std::vector<std::string> Base; ///< Source without the salted helper.
  std::vector<uint64_t> Salt;

  void write(size_t I) const {
    writeFile(Dir + "/" + fileName(I), soakVariantSource(Base[I], Salt[I]));
  }
};

} // namespace

Report runIncremental(const Args &A) {
  Report R;
  TempDir Tmp(A.WorkDir, "incremental");
  std::vector<const BenchProgram *> Pool = programPool();
  const size_t N = Pool.size();

  // Set-up: write the salted project, then (timed) populate the store
  // cold and save it. The first set-up's project is the one edited; the
  // repeats run in throwaway directories between the passes, so the
  // set-up samples see the same machine as the passes they sit among.
  std::vector<double> Setup;
  auto setUp = [&](Project &Into, const std::string &Root) {
    Into.Dir = Root + "/project";
    Into.StorePath = Root + "/store.json";
    Into.Base.clear();
    for (const BenchProgram *Prog : Pool)
      Into.Base.push_back(Prog->Source);
    Into.Salt = initialSalts(A.Seed, N);
    fs::create_directories(Into.Dir);
    for (size_t I = 0; I < N; ++I)
      Into.write(I);
    std::string Out;
    ChildUsage U;
    double T0 = nowSeconds();
    if (!runForked(
            [&] {
              return rerun(Into.Dir, Into.StorePath, "", false, SetupThreads);
            },
            Out, U))
      return false;
    Setup.push_back(nowSeconds() - T0);
    return true;
  };
  auto repeatSetUp = [&] {
    Project Throwaway;
    std::string Root = Tmp.path() + "/setup" + std::to_string(Setup.size());
    bool Done = setUp(Throwaway, Root);
    fs::remove_all(Root);
    if (!Done)
      R.fail("cold populate failed");
    return Done;
  };
  Project P;
  if (!setUp(P, Tmp.path() + "/edited")) {
    R.fail("cold populate failed");
    return R;
  }

  std::vector<Edit> Script =
      editScript(A.Seed, RoundsPerPass * MaxPasses, EditsPerRound, N);
  std::set<size_t> Edited;
  std::vector<double> TracedRoundMs, PlainRoundMs, PassWall, PassCpu;
  std::vector<std::vector<double>> RoundMs, HitMs; // Per pass.
  double PeakRss = 0, Programs = 0, Ok = 0, Decided = 0;
  LayerInputs L;
  L.Per = 0;
  L.PerNote = "per round";
  size_t Round = 0;
  double Start = nowSeconds();
  for (size_t Pass = 0; Pass < MaxPasses; ++Pass) {
    if (Pass > 0 && nowSeconds() - Start >= A.Seconds)
      break;
    double PassT0 = nowSeconds(), Cpu = 0;
    RoundMs.emplace_back();
    HitMs.emplace_back();
    for (size_t K = 0; K < RoundsPerPass; ++K, ++Round) {
      for (size_t E = 0; E < EditsPerRound; ++E) {
        const Edit &Ed = Script[Round * EditsPerRound + E];
        if (!Ed.Literal || !editMainLiteral(P.Base[Ed.Program], Ed.Pick,
                                            Ed.Value))
          P.Salt[Ed.Program] = Ed.Salt;
        P.write(Ed.Program);
        Edited.insert(Ed.Program);
      }
      // The traced run alternates plain and traced rounds for the
      // overhead ratio.
      bool Traced = A.Trace && Round % 2 == 1;
      std::string TracePath =
          Traced ? Tmp.path() + "/trace" + std::to_string(Round) + ".json"
                 : "";
      std::string Out;
      ChildUsage U;
      double T0 = nowSeconds();
      bool Ran = runForked(
          [&] { return rerun(P.Dir, P.StorePath, TracePath, false); }, Out, U);
      double Ms = (nowSeconds() - T0) * 1000;
      std::optional<json::Value> V = Ran ? json::parse(Out) : std::nullopt;
      R.Attempted += N;
      if (!V || !V->isObject()) {
        R.fail("round " + std::to_string(Round) + " failed");
        R.Failed += N;
        Programs += N;
        break;
      }
      auto at = [&V](const char *Key) { return field(&*V, {Key}); };
      Programs += at("programs");
      Ok += at("ok");
      Decided += at("decided");
      R.Failed += uint64_t(at("programs") - at("ok"));
      Cpu += U.CpuSeconds;
      PeakRss = std::max(PeakRss, U.PeakRssMb);
      RoundMs.back().push_back(Ms);
      for (const json::Value &X : V->field("hit_ms")->elements())
        HitMs.back().push_back(X.asNumber());
      (Traced ? TracedRoundMs : PlainRoundMs).push_back(Ms);
      if (Traced) {
        std::string Err;
        if (!foldTrace(TracePath, L.Spans, Err))
          R.fail(Err);
        fs::remove(TracePath);
        L.Per += 1;
        L.WallMs += at("analysis_ms");
        L.SatQueries += at("sat");
        L.CacheHits += at("chits");
        L.CacheMisses += at("cmisses");
        L.LpSolves += at("lp");
        L.IntervalAnswered += at("interval");
        L.LemmaHits += at("lemma");
        L.GlobalLookups += at("glookups");
        L.GlobalHits += at("ghits");
        L.StoreHits += at("hits");
        L.StoreMisses += at("misses");
        L.LoadMs += at("load_ms");
        L.SaveMs += at("save_ms");
        L.Entries = at("entries");
      }
    }
    if (!R.Correct)
      break;
    PassWall.push_back(nowSeconds() - PassT0);
    PassCpu.push_back(Cpu);
    if (!A.Trace && Setup.size() < SetupRepeats && !repeatSetUp())
      break;
  }
  while (!A.Trace && R.Correct && Setup.size() < SetupRepeats)
    repeatSetUp();

  // Gate, outside the timed phase: every edited program's outcome
  // bytes from the store-backed round equal a fresh no-store CLI run.
  if (R.Correct) {
    std::string Out;
    ChildUsage U;
    std::optional<json::Value> V;
    if (runForked([&] { return rerun(P.Dir, P.StorePath, "", true); }, Out, U))
      V = json::parse(Out);
    const json::Value *Outcomes = V ? V->field("outcomes") : nullptr;
    std::string FreshDir = Tmp.path() + "/fresh/project";
    fs::create_directories(FreshDir);
    for (size_t I : Edited)
      fs::copy_file(P.Dir + "/" + fileName(I), FreshDir + "/" + fileName(I));
    Child Cli;
    std::string Log = Tmp.path() + "/fresh.out", Text;
    if (!Outcomes ||
        !Cli.spawn({A.Hiptnt, "--batch", FreshDir, "--outcomes", "--threads",
                    std::to_string(Threads)},
                   Log) ||
        Cli.wait(150) != 0 || !readFile(Log, Text)) {
      R.fail("outcome check could not run");
    } else {
      std::map<std::string, std::string> Stored = blocks(Outcomes->asString());
      std::map<std::string, std::string> Fresh = blocks(Text);
      for (size_t I : Edited)
        if (Stored[fileName(I)].empty() ||
            Stored[fileName(I)] != Fresh[fileName(I)])
          R.fail("store-backed outcome of edited " + fileName(I) +
                 " differs from a fresh no-store run");
    }
  }

  if (A.Trace) {
    std::uintmax_t Bytes = 0;
    std::error_code EC;
    Bytes = fs::file_size(P.StorePath, EC);
    L.FileBytes = EC ? 0 : double(Bytes);
    L.TraceOverhead = median(PlainRoundMs) > 0
                          ? median(TracedRoundMs) / median(PlainRoundMs)
                          : 0;
    addLayers(R, L);
    return R;
  }
  double Wall = median(PassWall);
  R.add("setup_s", "s", median(Setup), Setup.size(),
        "median: cold populate and first save, repeated between "
        "the passes");
  R.add("wall_s", "s", Wall, PassWall.size(),
        "median wall-clock of a pass of " + std::to_string(RoundsPerPass) +
            " rounds");
  R.add("cpu_s", "s", median(PassCpu), PassCpu.size(),
        "median user+sys CPU of a pass's round processes");
  R.add("peak_rss_mb", "MB", PeakRss, Round,
        "largest peak RSS of a round process");
  R.add("ok_ratio", "ratio", Programs > 0 ? Ok / Programs : 0,
        size_t(Programs), "programs analysed ok / programs");
  R.add("decided_ratio", "ratio", Programs > 0 ? Decided / Programs : 0,
        size_t(Programs), "entry verdicts Y or N / programs");
  R.add("programs_per_s", "1/s", Wall > 0 ? N * RoundsPerPass / Wall : 0,
        PassWall.size(), "programs analysed (store-served included) / s");
  R.add("capacity_per_s", "1/s", Wall > 0 ? RoundsPerPass / Wall : 0,
        PassWall.size(), "edit-and-rerun rounds / s");
  R.addWindowedPercentile("latency_p50_ms", HitMs, 0.50,
                          "per-group latency of store-served groups, "
                          "window = pass");
  R.addWindowedPercentile("latency_p99_ms", HitMs, 0.99,
                          "per-group latency of store-served groups, "
                          "window = pass");
  R.addWindowedPercentile("round_p50_ms", RoundMs, 0.50,
                          "per-round wall-clock, window = pass");
  R.addWindowedPercentile("round_p90_ms", RoundMs, 0.90,
                          "per-round wall-clock, window = pass");
  return R;
}

} // namespace perfbench
