"""shortdot benchmark: coded serving, CLI round trip and straggler-model sweep.

    python3 perfbench/run.py --workload serve-sec6 --seed 1 --seconds 25 --trace 0

Runs one workload (see workloads.py and README.md) in this process, from
the package sources in ../src, with single-threaded BLAS and
SHORTDOT_THREADS unset.  Progress goes to stderr; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics from spans recorded around every call into the package, and
writes the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("serve-sec6", "cli-sec6", "sweep-p100")

# Spans whose time is reported as the per-layer metric "<span>_s": the
# median, over the requests that make the call, of the time spent in it.
LAYER_SPANS = (
    "generator.build", "coding.supports", "coding.encode", "coding.worker_tasks",
    "coding.run_workers", "coding.decode", "coding.decode_with_errors",
    "serialization.save_transform", "serialization.load_transform", "cli.transform",
    "latency.monte_carlo", "latency.sample_time", "strategies.finish_times",
    "latency.expected_time", "latency.optimize_k", "strategies.plan",
)
COUNTS = ("coding.decode_calls", "coding.correct_calls", "coding.correct_solves",
          "latency.mc_samples")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(w, seconds: float, tracer):
    """Run whole rounds until `seconds` have passed, with the set-ups spread
    evenly over the run so that they meet the same machine as the requests.

    In a traced run every other round is traced, so the run also gives the
    tracing overhead on the rounds' program time.
    """
    def traced(on: bool):
        return tracer.patched(w.targets) if on else nullcontext()

    setup, latency, round_s = [], [], {False: [], True: []}
    start = perf_counter()
    r = 0
    while r < 2 or perf_counter() < start + seconds or len(setup) < w.setup_reps:
        while len(setup) < w.setup_reps and perf_counter() >= start + seconds * len(setup) / w.setup_reps:
            with traced(tracer is not None):
                setup.append(w.setup(tracer))
            if setup == [None]:
                raise SystemExit("the first set-up failed; nothing to serve")
        on = tracer is not None and r % 2 == 1
        with traced(on):
            busy, lat = w.round(tracer if on else None)
        round_s[on].append(busy)
        if not on:
            latency += lat
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w.finish(tracer)
    return [t for t in setup if t is not None], latency, round_s, peak_rss_mb


def end_to_end(setup, latency, peak_rss_mb):
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "request_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(w, tracer, round_s):
    m = {span + "_s": (tracer.per_request(span), "s") for span in LAYER_SPANS}
    probes = {}
    for rec in tracer.spans:
        if rec["name"] in ("latency.mc_chunk", "latency.sample_time", "strategies.finish_times"):
            sign = 1.0 if rec["name"] == "latency.mc_chunk" else -1.0
            probes[rec["request"]] = probes.get(rec["request"], 0.0) + sign * (rec["end"] - rec["start"])
    # derived: a chunk's time less its inverse-CDF and order-statistic steps
    m["latency.rng_s"] = (statistics.median(probes.values()) if probes else 0.0, "s")
    counts = w.counts(tracer, len(round_s[True]))
    for name in COUNTS:
        m[name] = (counts.get(name, 0.0), "count")
    overhead = statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
    m["trace.overhead_pct"] = (100.0 * overhead, "%")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # must be set before numpy loads
    os.environ.pop("SHORTDOT_THREADS", None)
    if not (SRC / "shortdot" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shortdot
    import workloads
    from spans import Tracer

    if Path(shortdot.__file__).resolve().parent != SRC / "shortdot":
        print(f"error: imported shortdot from {shortdot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        w = workloads.make(args.workload, args.seed, workdir)
        setup, latency, round_s, peak_rss_mb = measure(w, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        metrics = per_layer(w, tracer, round_s)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(setup, latency, peak_rss_mb)
    s = w.stats
    print(f"{args.workload} seed={args.seed}: {len(setup)} set-ups, {len(latency)} untraced "
          f"requests, {len(round_s[False])}+{len(round_s[True])} rounds untraced+traced, "
          f"attempted={s.attempted} failed={s.failed} {dict(s.reasons)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": s.correct,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
