//===- perfbench/runner/common.h - Benchmark runner support -----*- C++ -*-===//
//
// Shared pieces of the benchmark runner: the seeded input plans (the
// only place a workload's randomness comes from), sample statistics,
// the report printed on stdout, child-process helpers and the
// Chrome-trace folding that turns the program's spans into per-layer
// self times.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Json.h"
#include "workloads/Corpus.h"

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Run parameters from the command line.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 30;
  bool Trace = false;
  std::string Hiptnt;  ///< The CLI binary the serve workload spawns.
  std::string WorkDir; ///< Scratch root inside the checkout.
};

/// Worker threads of the analyzer and client connections of the load.
constexpr unsigned Threads = 4;

//===-- Seeded plans ------------------------------------------------------===//

/// splitmix64: a tiny, portable generator, so a seed means the same
/// inputs on every platform and standard library.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream);
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// fig11 submission order: a permutation of [0, N).
std::vector<size_t> fig11Order(uint64_t Seed, size_t N);

/// One serve request: a pool program and the soakVariantSource salt
/// that gives it a fresh helper group.
struct ServeDraw {
  size_t Program = 0;
  uint64_t Salt = 0;
};
std::vector<ServeDraw> serveDraws(uint64_t Seed, size_t N, size_t PoolSize);

/// Open-loop send times (seconds from phase start) of N Poisson
/// arrivals at \p Rate per second.
std::vector<double> poissonSchedule(uint64_t Seed, size_t N, double Rate);

/// One incremental edit: either re-salt the program's helper or set a
/// literal of main to \p Value (falls back to a re-salt when main has
/// no literal).
struct Edit {
  size_t Program = 0;
  bool Literal = false;
  uint64_t Pick = 0; ///< Which of main's literals (mod their count).
  unsigned Value = 0; ///< 0..100, the generator's literal range.
  uint64_t Salt = 0;
};
/// \p Rounds rounds of \p PerRound edits each, flattened round-major.
std::vector<Edit> editScript(uint64_t Seed, size_t Rounds, size_t PerRound,
                             size_t PoolSize);

/// The initial helper salt of each project program.
std::vector<uint64_t> initialSalts(uint64_t Seed, size_t PoolSize);

/// The corpus minus the gcd-like family: the serve and incremental
/// program pool.
std::vector<const tnt::BenchProgram *> programPool();

/// Applies a literal edit to main's body; false when main has none.
bool editMainLiteral(std::string &Source, uint64_t Pick, unsigned Value);

/// Checks that every plan is a pure function of the seed and differs
/// between seeds, and the percentile sample rule. Empty on success.
std::string selfCheck();

//===-- Statistics --------------------------------------------------------===//

double median(std::vector<double> V);

/// Splits \p V (in arrival order) into \p K windows of equal count.
std::vector<std::vector<double>> windows(const std::vector<double> &V,
                                         size_t K);

/// Nearest-rank percentile with the samples that lie beyond it. A
/// percentile is reportable only when Beyond >= 10.
struct Percentile {
  double Value = 0;
  size_t Beyond = 0;
  bool reportable() const { return Beyond >= 10; }
};
Percentile percentile(std::vector<double> V, double P);

//===-- Report ------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value = 0;
  size_t Samples = 0;
  std::string Note; ///< What the value is on this workload.
};

struct Report {
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Errors;

  void add(const std::string &Name, const std::string &Unit, double Value,
           size_t Samples, const std::string &Note);
  /// Adds a percentile metric, or records an error when fewer than ten
  /// samples lie beyond it.
  void addPercentile(const std::string &Name, const std::vector<double> &V,
                     double P, const std::string &Note);
  /// Adds the median, over windows, of each window's percentile: a
  /// slow stretch of the machine moves one window, not the metric.
  /// Every window must put ten samples beyond the percentile.
  void addWindowedPercentile(const std::string &Name,
                             const std::vector<std::vector<double>> &Windows,
                             double P, const std::string &Note);
  void fail(const std::string &Why);
  /// Human-readable table (name, value, unit, samples) on stdout, then
  /// the one-line JSON result as the last line.
  void print() const;
};

//===-- Processes and files -----------------------------------------------===//

double nowSeconds();

/// CPU seconds (user + sys) and peak RSS of a finished child.
struct ChildUsage {
  double CpuSeconds = 0;
  double PeakRssMb = 0;
};

/// Runs \p Work in a forked child (a fresh process, as a CLI user would
/// run the analyzer) and returns what it wrote. The parent must not
/// have started threads. False when the child failed or crashed.
bool runForked(const std::function<std::string()> &Work, std::string &Out,
               ChildUsage &Usage);

/// A spawned process that is killed and reaped when the guard dies, so
/// no early return can leak it.
class Child {
public:
  Child() = default;
  ~Child();
  Child(const Child &) = delete;
  Child &operator=(const Child &) = delete;

  /// posix_spawn with stdout/stderr redirected to \p OutFile.
  bool spawn(const std::vector<std::string> &Argv, const std::string &OutFile);
  /// Waits up to \p TimeoutSec, then kills. Returns the exit status
  /// (-1 when killed or failed) and the child's usage.
  int wait(double TimeoutSec, ChildUsage *Usage = nullptr);
  /// CPU seconds consumed so far (from /proc).
  double cpuSeconds() const;
  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
};

/// A scratch directory removed (with everything in it) on destruction.
class TempDir {
public:
  TempDir(const std::string &Root, const std::string &Name);
  ~TempDir();
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

bool writeFile(const std::string &Path, const std::string &Text);
bool readFile(const std::string &Path, std::string &Text);

/// \p V as a JSON array, every digit kept (child-to-parent payloads).
std::string jsonNumbers(const std::vector<double> &V);
/// The number at \p Path inside \p V; 0 when any step is missing.
double field(const tnt::json::Value *V,
             std::initializer_list<const char *> Path);

//===-- Trace folding -----------------------------------------------------===//

/// One span family of a Chrome trace: inclusive and self time (span
/// duration minus the part its same-thread child spans cover).
struct SpanFamily {
  uint64_t Count = 0;
  double InclMs = 0, SelfMs = 0, MaxMs = 0;
};
using SpanTable = std::map<std::string, SpanFamily>;

/// Folds the trace file at \p Path into \p Into (accumulating).
bool foldTrace(const std::string &Path, SpanTable &Into, std::string &Err);

/// Everything the per-layer table is computed from. Totals cover the
/// traced phase and are divided by Per (cold runs, rounds or requests)
/// unless noted; a layer the workload does not exercise stays 0.
struct LayerInputs {
  SpanTable Spans;
  double Per = 1;
  std::string PerNote;
  double WallMs = 0; ///< Wall-clock of the traced phase (pool busy ratio).
  // Solver counters (SolverStats / GlobalCacheStats / stats verb).
  double SatQueries = 0, CacheHits = 0, CacheMisses = 0;
  double GlobalLookups = 0, GlobalHits = 0, IntervalAnswered = 0;
  double LemmaHits = 0, LpSolves = 0;
  // Server engine (metrics / stats verbs); not divided.
  double QueueMsMean = 0, ExecMsMean = 0, Reclaims = 0, Shed = 0;
  double ArenaBytes = 0, Formulas = 0;
  // Spec store: hits/misses and load/save totals (benchmark-timed
  // calls); file size and entries after the last save, not divided.
  double StoreHits = 0, StoreMisses = 0, LoadMs = 0, SaveMs = 0;
  double FileBytes = 0, Entries = 0;
  // Benchmark validity.
  double LateP99Ms = 0, TraceOverhead = 0;
};

/// Adds every per-layer metric, in one fixed set for all workloads.
void addLayers(Report &R, const LayerInputs &L);

//===-- Workloads ---------------------------------------------------------===//

Report runFig11(const Args &A);
Report runServe(const Args &A);
Report runIncremental(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
