"""Regenerate the benchmark's reference figures from scratch.

    python3 perfbench/reference.py                          # seeds 1..10
    python3 perfbench/reference.py --seeds 11,12,13,14,15

Runs every workload in two sets of untraced runs on the same seeds, each
run in its own process for BENCHMARK.json's run_seconds.  The sets are
interleaved: for each seed, each workload runs twice in a row, once for
each set.  So the two runs of a pair differ only by run-to-run noise, on
the same inputs at the same time, while the spread within a set also holds
the change of seed and the machine's drift over the whole session.  Then
one traced run per workload on the first seed.  Prints the machine and
library versions, then markdown tables: per workload and end-to-end metric
each set's median over seeds, its spread (distance between the first and
third quartile over the median), the change of the second median against
the first, and the pair difference (median over seeds of |b / a - 1|);
and the traced runs' per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-sec6", "cli-sec6", "sweep-p100")
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"nproc {os.cpu_count()}, {platform.machine()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default=",".join(map(str, range(1, 11))))
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    print(environment())
    print(f"\n{len(seeds)} seeds ({args.seeds}), {SETS} interleaved sets, {seconds} s per run\n",
          flush=True)

    results = {(w, k): [] for w in WORKLOADS for k in range(SETS)}
    for seed in seeds:
        for w in WORKLOADS:
            for k in range(SETS):
                results[w, k].append(run(w, seed, seconds, 0))
        print(f"seed {seed} done", file=sys.stderr, flush=True)

    head = " | ".join(f"set {k + 1} median | spread" for k in range(SETS))
    print(f"| workload | metric | {head} | change | pair | unit |")
    print("|---|---|" + "---|---|" * SETS + "---|---|---|")
    for w in WORKLOADS:
        for name, m in results[w, 0][0]["metrics"].items():
            values = [[r["metrics"][name]["value"] for r in results[w, k]] for k in range(SETS)]
            medians = [statistics.median(v) for v in values]
            cells = " | ".join(f"{med:.4g} | {spread(v):.3f}" for med, v in zip(medians, values))
            pair = statistics.median(abs(b / a - 1) for a, b in zip(values[0], values[-1]))
            print(f"| {w} | {name} | {cells} | {medians[-1] / medians[0] - 1:+.3f} | "
                  f"{pair:.3f} | {m['unit']} |")

    print()
    for w in WORKLOADS:
        runs = [r for k in range(SETS) for r in results[w, k]]
        attempted = [r["attempted"] for r in runs]
        print(f"{w}: {sum(r['failed'] for r in runs)} of {sum(attempted)} operations failed "
              f"over {len(runs)} runs, {min(attempted)}-{max(attempted)} attempted per run; "
              f"correct in {sum(r['correct'] for r in runs)} of {len(runs)} runs")

    layers = {w: run(w, seeds[0], seconds, 1)["metrics"] for w in WORKLOADS}
    print(f"\n| per-layer metric (seed {seeds[0]}) | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for name, m in layers[WORKLOADS[0]].items():
        cells = " | ".join(f"{layers[w][name]['value']:.4g}" for w in WORKLOADS)
        print(f"| {name} ({m['unit']}) | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
