#!/usr/bin/env python3
"""Regenerate the committed per-layer table, perfbench/BENCH_layers.json.

    python3 perfbench/layers.py

Runs the traced run (--trace 1) of every workload through run.py from the
root of the checkout and records its per-layer metrics next to the line
count of src/, the design-quality number. A change that moves a layer
commits the regenerated file, so its diff shows which layer moved. Seed,
run length and output path are fixed so the committed tables stay
comparable between commits.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig11", "serve", "incremental"]
SEED, SECONDS = 1, 30
OUT = os.path.join(HERE, "BENCH_layers.json")


def src_lines():
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".cpp", ".h")):
                with open(os.path.join(base, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def main():
    table = {
        "about": "per-layer metrics of the traced run (run.py --trace 1); "
                 "see perfbench/README.md for definitions",
        "build": "Release, 4 worker threads, 4 cores",
        "seed": SEED,
        "seconds": SECONDS,
        "src_lines": src_lines(),
        "workloads": {},
    }
    for w in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", str(SEED), "--seconds", str(SECONDS),
             "--trace", "1"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"layers: traced {w} run failed\n")
            return 1
        result = json.loads(lines[-1])
        table["workloads"][w] = result["metrics"]
    with open(OUT, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
