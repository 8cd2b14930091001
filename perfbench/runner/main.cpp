//===- perfbench/runner/main.cpp - Benchmark runner entry -------*- C++ -*-===//
//
//   perfbench_runner --workload <fig11|serve|incremental> --seed <n>
//                    --seconds <s> --trace <0|1> --hiptnt <path>
//                    --workdir <dir>
//
// Runs one workload and prints its metrics: a human-readable table,
// then one JSON object as the last stdout line. The exit code is 0 only
// when every correctness gate held.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cstdlib>
#include <iostream>

using namespace perfbench;

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      A.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      A.Trace = Val == "1";
    else if (Key == "--hiptnt")
      A.Hiptnt = Val;
    else if (Key == "--workdir")
      A.WorkDir = Val;
    else {
      std::cerr << "unknown option " << Key << "\n";
      return 2;
    }
  }
  if (A.Seconds <= 0 || A.Hiptnt.empty() || A.WorkDir.empty()) {
    std::cerr << "usage: perfbench_runner --workload <w> --seed <n> "
                 "--seconds <s> --trace <0|1> --hiptnt <path> --workdir "
                 "<dir>\n";
    return 2;
  }
  std::string Bad = selfCheck();
  if (!Bad.empty()) {
    std::cerr << "perfbench self-check failed: " << Bad << "\n";
    return 1;
  }

  Report R;
  if (A.Workload == "fig11")
    R = runFig11(A);
  else if (A.Workload == "serve")
    R = runServe(A);
  else if (A.Workload == "incremental")
    R = runIncremental(A);
  else {
    std::cerr << "unknown workload '" << A.Workload << "'\n";
    return 2;
  }
  std::cout << "perfbench " << A.Workload << " seed=" << A.Seed
            << " seconds=" << A.Seconds << " trace=" << A.Trace
            << " attempted=" << R.Attempted << " failed=" << R.Failed
            << "\n";
  R.print();
  return R.Correct ? 0 : 1;
}
