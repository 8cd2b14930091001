//===- perfbench/runner/common.cpp - Benchmark runner support ---*- C++ -*-===//

#include "common.h"

#include "support/Json.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

extern char **environ;

namespace perfbench {

//===-- Seeded plans ------------------------------------------------------===//

namespace {
uint64_t mix(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

// One stream per plan, so adding draws to one plan never shifts another.
enum : uint64_t {
  StreamFig11 = 1,
  StreamServe,
  StreamPoisson,
  StreamEdits,
  StreamSalts
};
} // namespace

Rng::Rng(uint64_t Seed, uint64_t Stream)
    : S(mix(Seed ^ mix(Stream * 0x9e3779b97f4a7c15ULL))) {}

uint64_t Rng::next() {
  S += 0x9e3779b97f4a7c15ULL;
  return mix(S);
}

std::vector<size_t> fig11Order(uint64_t Seed, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed, StreamFig11);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

std::vector<ServeDraw> serveDraws(uint64_t Seed, size_t N, size_t PoolSize) {
  Rng R(Seed, StreamServe);
  // Salts are unique within a run (base + index), so every request
  // carries a helper group no earlier request has seen.
  uint64_t Base = (R.below(1000000) + 1) * 1000000;
  std::vector<ServeDraw> Out(N);
  for (size_t I = 0; I < N; ++I) {
    Out[I].Program = R.below(PoolSize);
    Out[I].Salt = Base + I;
  }
  return Out;
}

std::vector<double> poissonSchedule(uint64_t Seed, size_t N, double Rate) {
  Rng R(Seed, StreamPoisson);
  std::vector<double> Out(N);
  double T = 0;
  for (size_t I = 0; I < N; ++I) {
    T += -std::log1p(-R.unit()) / Rate;
    Out[I] = T;
  }
  return Out;
}

std::vector<Edit> editScript(uint64_t Seed, size_t Rounds, size_t PerRound,
                             size_t PoolSize) {
  Rng R(Seed, StreamEdits);
  uint64_t SaltBase = (R.below(1000000) + 1) * 1000000;
  std::vector<Edit> Out(Rounds * PerRound);
  for (size_t I = 0; I < Out.size(); ++I) {
    Out[I].Program = R.below(PoolSize);
    Out[I].Literal = R.below(2) == 1;
    Out[I].Pick = R.next();
    Out[I].Value = static_cast<unsigned>(R.below(101));
    Out[I].Salt = SaltBase + I;
  }
  return Out;
}

std::vector<uint64_t> initialSalts(uint64_t Seed, size_t PoolSize) {
  Rng R(Seed, StreamSalts);
  std::vector<uint64_t> Out(PoolSize);
  for (uint64_t &S : Out)
    S = R.below(1000000);
  return Out;
}

std::vector<const tnt::BenchProgram *> programPool() {
  std::vector<const tnt::BenchProgram *> Out;
  for (const tnt::BenchProgram &P : tnt::corpus())
    if (P.Name.find("gcd-like") == std::string::npos)
      Out.push_back(&P);
  return Out;
}

bool editMainLiteral(std::string &Source, uint64_t Pick, unsigned Value) {
  size_t Main = Source.find(" main(");
  if (Main == std::string::npos)
    return false;
  size_t Open = Source.find('{', Main);
  if (Open == std::string::npos)
    return false;
  size_t Close = Open;
  for (int Depth = 0; Close < Source.size(); ++Close) {
    if (Source[Close] == '{')
      ++Depth;
    else if (Source[Close] == '}' && --Depth == 0)
      break;
  }
  auto ident = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::vector<std::pair<size_t, size_t>> Literals; // (offset, length)
  for (size_t I = Open; I < Close; ++I) {
    if (!std::isdigit(static_cast<unsigned char>(Source[I])) ||
        ident(Source[I - 1]))
      continue;
    size_t J = I;
    while (J < Close && std::isdigit(static_cast<unsigned char>(Source[J])))
      ++J;
    if (!ident(Source[J]))
      Literals.push_back({I, J - I});
    I = J;
  }
  if (Literals.empty())
    return false;
  auto [Off, Len] = Literals[Pick % Literals.size()];
  std::string New = std::to_string(Value);
  if (Source.compare(Off, Len, New) == 0)
    New = std::to_string((Value + 1) % 101);
  Source.replace(Off, Len, New);
  return true;
}

std::string selfCheck() {
  const uint64_t A = 7, B = 8;
  auto sameAndDistinct = [&](auto Plan) {
    return Plan(A) == Plan(A) && Plan(A) != Plan(B);
  };
  auto drawKey = [](const std::vector<ServeDraw> &D) {
    std::vector<uint64_t> K;
    for (const ServeDraw &X : D) {
      K.push_back(X.Program);
      K.push_back(X.Salt);
    }
    return K;
  };
  auto editKey = [](const std::vector<Edit> &E) {
    std::vector<uint64_t> K;
    for (const Edit &X : E)
      K.insert(K.end(), {X.Program, uint64_t(X.Literal), X.Pick,
                         uint64_t(X.Value), X.Salt});
    return K;
  };
  if (!sameAndDistinct([](uint64_t S) { return fig11Order(S, 221); }))
    return "fig11 shuffle is not a function of the seed";
  if (!sameAndDistinct(
          [&](uint64_t S) { return drawKey(serveDraws(S, 500, 300)); }))
    return "serve request draws are not a function of the seed";
  if (!sameAndDistinct([](uint64_t S) { return initialSalts(S, 300); }))
    return "project salts are not a function of the seed";
  if (!sameAndDistinct(
          [](uint64_t S) { return poissonSchedule(S, 500, 100.0); }))
    return "Poisson schedule is not a function of the seed";
  if (!sameAndDistinct(
          [&](uint64_t S) { return editKey(editScript(S, 50, 3, 300)); }))
    return "edit script is not a function of the seed";
  std::vector<size_t> Order = fig11Order(A, 221);
  std::sort(Order.begin(), Order.end());
  for (size_t I = 0; I < Order.size(); ++I)
    if (Order[I] != I)
      return "fig11 shuffle is not a permutation";

  // The sample rule: a percentile needs at least ten samples beyond it.
  auto ramp = [](size_t N) {
    std::vector<double> V(N);
    for (size_t I = 0; I < N; ++I)
      V[I] = double(I + 1);
    return V;
  };
  struct Case {
    size_t N;
    double P;
    bool Reportable;
  };
  for (Case C : {Case{19, 0.5, false}, Case{20, 0.5, true},
                 Case{99, 0.9, false}, Case{100, 0.9, true},
                 Case{999, 0.99, false}, Case{1000, 0.99, true}})
    if (percentile(ramp(C.N), C.P).reportable() != C.Reportable)
      return "percentile sample rule is wrong at n=" + std::to_string(C.N);
  if (percentile(ramp(100), 0.9).Value != 90 ||
      percentile(ramp(1000), 0.99).Value != 990)
    return "percentile value is wrong";

  std::string Src =
      "void main() { int x; x = 5; while (x > 0) { x = x - 1; } }";
  std::string E1 = Src, E2 = Src;
  if (!editMainLiteral(E1, 1, 42) || !editMainLiteral(E2, 1, 42) || E1 != E2 ||
      E1.find("x > 42") == std::string::npos)
    return "literal edit is wrong";
  return "";
}

//===-- Statistics --------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::vector<std::vector<double>> windows(const std::vector<double> &V,
                                         size_t K) {
  std::vector<std::vector<double>> Out(std::max<size_t>(K, 1));
  for (size_t I = 0; I < V.size(); ++I)
    Out[I * Out.size() / V.size()].push_back(V[I]);
  return Out;
}

Percentile percentile(std::vector<double> V, double P) {
  Percentile Out;
  if (V.empty())
    return Out;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(V.size()) - 1e-9));
  Rank = std::max<size_t>(Rank, 1);
  Out.Value = V[Rank - 1];
  Out.Beyond = V.size() - Rank;
  return Out;
}

//===-- Report ------------------------------------------------------------===//

void Report::add(const std::string &Name, const std::string &Unit,
                 double Value, size_t Samples, const std::string &Note) {
  if (!std::isfinite(Value)) {
    fail(Name + " is not a finite number");
    Value = 0;
  }
  Metrics.push_back({Name, Unit, Value, Samples, Note});
}

void Report::addPercentile(const std::string &Name,
                           const std::vector<double> &V, double P,
                           const std::string &Note) {
  Percentile Pc = percentile(V, P);
  if (!Pc.reportable())
    fail(Name + ": only " + std::to_string(Pc.Beyond) + " of " +
         std::to_string(V.size()) + " samples beyond the percentile");
  add(Name, "ms", Pc.Value, V.size(), Note);
}

void Report::addWindowedPercentile(
    const std::string &Name, const std::vector<std::vector<double>> &Windows,
    double P, const std::string &Note) {
  std::vector<double> Values;
  size_t Samples = 0;
  for (const std::vector<double> &W : Windows) {
    Percentile Pc = percentile(W, P);
    if (!Pc.reportable())
      fail(Name + ": a window of " + std::to_string(W.size()) +
           " samples has only " + std::to_string(Pc.Beyond) +
           " beyond the percentile");
    Values.push_back(Pc.Value);
    Samples += W.size();
  }
  add(Name, "ms", median(Values), Samples,
      Note + " (median of " + std::to_string(Windows.size()) + " windows)");
}

void Report::fail(const std::string &Why) {
  Correct = false;
  Errors.push_back(Why);
}

void Report::print() const {
  for (const std::string &E : Errors)
    std::cerr << "perfbench: FAIL: " << E << "\n";
  char Buf[64];
  for (const Metric &M : Metrics) {
    std::snprintf(Buf, sizeof Buf, "%.6g", M.Value);
    std::cout << "  " << M.Name << " = " << Buf << " " << M.Unit
              << "  (n=" << M.Samples << ")  " << M.Note << "\n";
  }
  std::ostringstream J;
  J << "{\"correct\":" << (Correct ? "true" : "false")
    << ",\"attempted\":" << Attempted << ",\"failed\":" << Failed
    << ",\"metrics\":{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    std::snprintf(Buf, sizeof Buf, "%.17g", Metrics[I].Value);
    J << (I ? "," : "") << tnt::json::quoted(Metrics[I].Name)
      << ":{\"value\":" << Buf
      << ",\"unit\":" << tnt::json::quoted(Metrics[I].Unit) << "}";
  }
  J << "}}";
  std::cout << J.str() << std::endl;
}

//===-- Processes and files -----------------------------------------------===//

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
ChildUsage usageOf(const struct rusage &RU) {
  ChildUsage U;
  U.CpuSeconds = double(RU.ru_utime.tv_sec) + RU.ru_utime.tv_usec * 1e-6 +
                 double(RU.ru_stime.tv_sec) + RU.ru_stime.tv_usec * 1e-6;
  U.PeakRssMb = double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
  return U;
}
} // namespace

bool runForked(const std::function<std::string()> &Work, std::string &Out,
               ChildUsage &Usage) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return false;
  std::cout.flush();
  std::cerr.flush();
  pid_t P = fork();
  if (P < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return false;
  }
  if (P == 0) {
    close(Fd[0]);
    int RC = 0;
    std::string S;
    try {
      S = Work();
    } catch (const std::exception &E) {
      std::cerr << "perfbench child: " << E.what() << "\n";
      RC = 3;
    }
    for (size_t Done = 0; Done < S.size();) {
      ssize_t W = ::write(Fd[1], S.data() + Done, S.size() - Done);
      if (W <= 0) {
        RC = 4;
        break;
      }
      Done += size_t(W);
    }
    close(Fd[1]);
    _exit(RC); // No static destructors: the parent owns shared state.
  }
  close(Fd[1]);
  Out.clear();
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(Fd[0], Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, size_t(N));
  }
  close(Fd[0]);
  int Status = 0;
  struct rusage RU {};
  while (wait4(P, &Status, 0, &RU) < 0 && errno == EINTR) {
  }
  Usage = usageOf(RU);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

Child::~Child() {
  if (Pid > 0)
    wait(0);
}

bool Child::spawn(const std::vector<std::string> &Argv,
                  const std::string &OutFile) {
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, OutFile.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  std::vector<char *> CArgs;
  for (const std::string &A : Argv)
    CArgs.push_back(const_cast<char *>(A.c_str()));
  CArgs.push_back(nullptr);
  int RC = posix_spawn(&Pid, CArgs[0], &FA, nullptr, CArgs.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (RC != 0)
    Pid = -1;
  return RC == 0;
}

int Child::wait(double TimeoutSec, ChildUsage *Usage) {
  if (Pid <= 0)
    return -1;
  int Status = 0;
  struct rusage RU {};
  double Deadline = nowSeconds() + TimeoutSec;
  pid_t R = 0;
  while ((R = wait4(Pid, &Status, WNOHANG, &RU)) == 0 &&
         nowSeconds() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  bool Killed = false;
  if (R == 0) {
    kill(Pid, SIGKILL);
    while (wait4(Pid, &Status, 0, &RU) < 0 && errno == EINTR) {
    }
    Killed = true;
  }
  Pid = -1;
  if (Usage)
    *Usage = usageOf(RU);
  if (Killed || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

double Child::cpuSeconds() const {
  std::string Stat;
  if (!readFile("/proc/" + std::to_string(Pid) + "/stat", Stat))
    return 0;
  size_t Paren = Stat.rfind(')');
  if (Paren == std::string::npos)
    return 0;
  std::istringstream In(Stat.substr(Paren + 2));
  std::string Field;
  double Ticks = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15 and cover every thread of the process.
  for (int F = 3; F <= 15 && In >> Field; ++F)
    if (F >= 14)
      Ticks += std::stod(Field);
  return Ticks / double(sysconf(_SC_CLK_TCK));
}

TempDir::TempDir(const std::string &Root, const std::string &Name)
    : Path(Root + "/" + Name + "-" + std::to_string(getpid())) {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
  std::filesystem::create_directories(Path, EC);
}

TempDir::~TempDir() {
  std::error_code EC;
  std::filesystem::remove_all(Path, EC);
  // Drop the shared root too once no other run uses it.
  std::filesystem::remove(std::filesystem::path(Path).parent_path(), EC);
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return bool(Out.flush());
}

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Text = Buf.str();
  return true;
}

std::string jsonNumbers(const std::vector<double> &V) {
  std::ostringstream O;
  O.precision(17);
  O << "[";
  for (size_t I = 0; I < V.size(); ++I)
    O << (I ? "," : "") << V[I];
  return O.str() + "]";
}

double field(const tnt::json::Value *V,
             std::initializer_list<const char *> Path) {
  for (const char *K : Path)
    V = V ? V->field(K) : nullptr;
  return V ? V->asNumber() : 0;
}

//===-- Trace folding -----------------------------------------------------===//

bool foldTrace(const std::string &Path, SpanTable &Into, std::string &Err) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Err = "cannot read trace " + Path;
    return false;
  }
  std::optional<tnt::json::Value> V = tnt::json::parse(Text, &Err);
  const tnt::json::Value *Events =
      V && V->isObject() ? V->field("traceEvents") : nullptr;
  if (Events == nullptr || !Events->isArray()) {
    Err = "trace " + Path + " has no traceEvents array";
    return false;
  }
  struct Ev {
    const std::string *Name;
    double Ts, Dur, Child = 0;
  };
  std::map<double, std::vector<Ev>> ByTid;
  for (const tnt::json::Value &E : Events->elements()) {
    const tnt::json::Value *Name = E.field("name"), *Ts = E.field("ts"),
                           *Dur = E.field("dur"), *Tid = E.field("tid");
    if (!Name || !Ts || !Dur || !Tid)
      continue;
    ByTid[Tid->asNumber()].push_back(
        {&Name->asString(), Ts->asNumber(), Dur->asNumber()});
  }
  for (auto &[Tid, Evs] : ByTid) {
    std::sort(Evs.begin(), Evs.end(), [](const Ev &A, const Ev &B) {
      return A.Ts != B.Ts ? A.Ts < B.Ts : A.Dur > B.Dur;
    });
    // Spans of one thread nest; a span's parent is the innermost open
    // span that contains it.
    std::vector<Ev *> Open;
    for (Ev &E : Evs) {
      while (!Open.empty() && E.Ts >= Open.back()->Ts + Open.back()->Dur)
        Open.pop_back();
      if (!Open.empty())
        Open.back()->Child += E.Dur;
      Open.push_back(&E);
    }
    for (const Ev &E : Evs) {
      SpanFamily &F = Into[*E.Name];
      ++F.Count;
      F.InclMs += E.Dur / 1000.0;
      F.SelfMs += std::max(0.0, E.Dur - E.Child) / 1000.0;
      F.MaxMs = std::max(F.MaxMs, E.Dur / 1000.0);
    }
  }
  return true;
}

void addLayers(Report &R, const LayerInputs &L) {
  auto span = [&](const char *Name) {
    auto It = L.Spans.find(Name);
    return It == L.Spans.end() ? SpanFamily() : It->second;
  };
  auto ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  const double Per = L.Per > 0 ? L.Per : 1;
  const std::string &P = L.PerNote;
  SpanFamily Group = span("group"), Solve = span("solveGroup");

  R.add("lang.prepare_ms", "ms", span("prepare").InclMs / Per,
        span("prepare").Count, "sum of prepare spans " + P);
  R.add("verify.ms", "ms",
        (span("verify").InclMs + span("reVerify").InclMs) / Per,
        span("verify").Count + span("reVerify").Count,
        "verify + reVerify spans " + P);
  R.add("infer.solve_self_ms", "ms", Solve.SelfMs / Per, Solve.Count,
        "solveGroup self time (Farkas/simplex runs here) " + P);
  R.add("infer.solve_self_share", "ratio", ratio(Solve.SelfMs, Group.InclMs),
        Solve.Count, "solveGroup self time / group time");
  R.add("synth.lp_solves", "count", L.LpSolves / Per, 1,
        "SolverStats.LpSolves " + P);
  R.add("synth.ms_per_lp", "ms", ratio(Solve.SelfMs, L.LpSolves),
        size_t(L.LpSolves), "solveGroup self time / LP solves");
  R.add("solver.sat_queries", "count", L.SatQueries / Per, 1,
        "SolverStats.SatQueries " + P);
  R.add("solver.local_hit_ratio", "ratio",
        ratio(L.CacheHits, L.CacheHits + L.CacheMisses), 1,
        "local LRU tier hits / lookups");
  R.add("solver.global_hit_ratio", "ratio",
        ratio(L.GlobalHits, L.GlobalLookups), 1,
        "global tier sat hits / lookups");
  R.add("solver.interval_answered", "count", L.IntervalAnswered / Per, 1,
        "interval prefilter answers " + P);
  R.add("solver.lemma_hits", "count", L.LemmaHits / Per, 1,
        "unsat-core lemma hits " + P);
  R.add("solver.omega_calls", "count", span("omegaSat").Count / Per, 1,
        "omegaSat spans " + P);
  R.add("solver.omega_ms", "ms", span("omegaSat").SelfMs / Per,
        span("omegaSat").Count, "omegaSat self time " + P);
  R.add("solver.interval_ms", "ms", span("interval").SelfMs / Per,
        span("interval").Count, "interval self time " + P);
  R.add("solver.dnf_ms", "ms", span("dnfExpand").SelfMs / Per,
        span("dnfExpand").Count, "dnfExpand self time " + P);
  R.add("solver.entails_ms", "ms", span("entails").SelfMs / Per,
        span("entails").Count, "entails self time " + P);
  R.add("api.group_ms_max", "ms", Group.MaxMs, Group.Count,
        "slowest group span (the critical path)");
  R.add("api.pool_busy_ratio", "ratio",
        ratio(Group.InclMs, L.WallMs * Threads), Group.Count,
        "sum of group time / (traced wall x threads)");
  R.add("api.finalize_ms", "ms",
        (span("finalize").SelfMs + span("promote").SelfMs) / Per,
        span("finalize").Count, "finalize + promote self time " + P);
  R.add("api.queue_ms_mean", "ms", L.QueueMsMean, 1,
        "server.request.queue_us sum/count");
  R.add("api.exec_ms_mean", "ms", L.ExecMsMean, 1,
        "server.request.exec_us sum/count");
  R.add("api.reclaims", "count", L.Reclaims, 1, "server reclaim passes");
  R.add("api.shed", "count", L.Shed, 1, "requests load-shed");
  R.add("arith.arena_bytes", "bytes", L.ArenaBytes, 1,
        "server intern arena after the load");
  R.add("arith.formulas", "count", L.Formulas, 1,
        "server interned formulas after the load");
  R.add("store.hit_ratio", "ratio",
        ratio(L.StoreHits, L.StoreHits + L.StoreMisses), 1,
        "store hits / (hits + misses)");
  R.add("store.load_ms", "ms", L.LoadMs / Per, 1,
        "SpecStore::load call " + P);
  R.add("store.save_ms", "ms", L.SaveMs / Per, 1,
        "SpecStore::save call " + P);
  R.add("store.prescan_ms", "ms", span("prescan").SelfMs / Per,
        span("prescan").Count, "prescan self time " + P);
  R.add("store.rehydrate_ms", "ms", span("rehydrate").SelfMs / Per,
        span("rehydrate").Count, "rehydrate self time " + P);
  R.add("store.serialize_ms", "ms", span("serialize").SelfMs / Per,
        span("serialize").Count, "serialize self time " + P);
  R.add("store.file_bytes", "bytes", L.FileBytes, 1,
        "store file after the last save");
  R.add("store.entries", "count", L.Entries, 1,
        "store group entries after the last save");
  R.add("bench.late_p99_ms", "ms", L.LateP99Ms, 1,
        "open-loop generator lateness p99");
  R.add("bench.trace_overhead", "ratio", L.TraceOverhead, 1,
        "traced / untraced wall");
}

} // namespace perfbench
