#!/usr/bin/env python3
"""Build the analyzer from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload <fig11|serve|incremental>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of the checkout. The first call configures and builds
perfbench/CMakeLists.txt (the analysis library, the hiptnt CLI and the
runner) into .bench_build/perfbench; later calls only rebuild what
changed. Build output is shown, on stderr, only when the build fails,
so the last stdout line is the runner's JSON result. Scratch files
live under .bench_tmp and are removed when the run ends. The exit code is the runner's: 0 only when
every correctness gate held.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKDIR = ".bench_tmp"


def build():
    """Configure once, then build; False (with the log on stderr) on failure."""
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=850)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig11", "serve", "incremental"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    runner = os.path.join(ROOT, BUILD, "perfbench_runner")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hiptnt", os.path.join(BUILD, "hiptnt"), "--workdir", WORKDIR]
    sys.stdout.flush()
    # Own process group: on a timeout the runner's children (forked
    # analyzer runs, the hiptnt server) are killed with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: runner timed out\n")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, WORKDIR), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
