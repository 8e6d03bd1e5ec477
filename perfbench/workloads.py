"""The three workloads: what one set-up and one round of requests do.

Each workload is driven by a single closed-loop client: the next request
is issued only after the previous one returned.  Inputs come from the
benchmark's own seeded generators; the package sees only those inputs.
A program error (ConditioningError, DecodingError, a nonzero CLI exit) or
an output that fails its check counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import shortdot.cli as cli
import shortdot.coding as coding
from shortdot import (
    ConditioningError,
    DecodingError,
    DelayModel,
    WorkerOutput,
    build_generator,
    decode,
    decode_with_errors,
    encode,
    finish_times,
    monte_carlo,
    plan_short_dot,
    run_workers,
    sample_time,
    validate_params,
)

PROGRAM_ERRORS = (ConditioningError, DecodingError)
MU = 5.0  # straggling parameter of the simulated workers' finish times
SEC6 = (20, 18, 10, 785)
SWEEP_P, SWEEP_N, SWEEP_TRIALS = 100, 10_000, 2000
MC_CHUNK = 1 << 16  # the package's Monte Carlo chunk; a chunk probe is this size


class Stats:
    """Operations attempted and failed, by reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: Counter[str] = Counter()

    def record(self, error: str | None = None, wrong: bool = False, n: int = 1) -> None:
        self.attempted += n
        if error or wrong:
            self.failed += n
            self.reasons[error or "wrong output"] += n
        if wrong and not error:
            self.correct = False


def _span(tracer, name, **kw):
    return tracer.span(name, **kw) if tracer else contextlib.nullcontext()


def _stragglers(rng, P: int, s: int) -> np.ndarray:
    """1-based workers in finishing order under the shifted-exponential law."""
    finish = s * (1.0 + rng.exponential(size=P) / MU)
    return np.argsort(finish, kind="stable") + 1


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Workload:
    setup_reps = 1
    targets: list = []

    def __init__(self, seed: int):
        self.stats = Stats()
        ss = np.random.SeedSequence([seed, self.index])
        self.rng_input, self.rng_requests = (np.random.default_rng(s) for s in ss.spawn(2))

    def setup(self, tracer) -> float | None:
        """One timed set-up; its elapsed seconds, or None if it failed."""
        raise NotImplementedError

    def round(self, tracer) -> tuple[float, list[float]]:
        """One round of requests: program seconds, and each request's latency."""
        raise NotImplementedError

    def finish(self, tracer) -> None:
        """Untimed checks and probes after the measured rounds."""

    def counts(self, tracer, rounds: int) -> dict[str, float]:
        return {}


class Serve(Workload):
    """Library serving at the Sec. 6 size: encode A once, then rounds of 20
    erasure requests whose last request is error-corrected instead."""

    index = 0
    setup_reps = 50
    round_size = 20
    targets = [
        (coding.EncodedTransform, "worker_tasks", "coding.worker_tasks"),
        (coding, "supports_from_pattern", "coding.supports"),
        (coding, "guarded_solve", "generator.guarded_solve"),
    ]

    def __init__(self, seed):
        super().__init__(seed)
        self.params = validate_params(*SEC6)
        P, K, M, N_raw = SEC6
        self.A = self.rng_input.standard_normal((M, N_raw))
        B = checks.chebyshev_vandermonde(P, K)
        self.kappa = {
            rows: float(np.linalg.cond(B[np.asarray(rows) - 1]))
            for rows in itertools.combinations(range(1, P + 1), K)
        }
        self.kappa_max = max(self.kappa.values())
        self.code = None

    def setup(self, tracer):
        self.code = None  # free the previous transform before building the next
        p = self.params
        t0 = perf_counter()
        try:
            with _span(tracer, "setup", root=True):
                with _span(tracer, "generator.build"):
                    gen = build_generator(p)
                with _span(tracer, "coding.encode"):
                    code = encode(self.A, gen, p)
        except PROGRAM_ERRORS as exc:
            self.stats.record(type(exc).__name__)
            return None
        elapsed = perf_counter() - t0
        ok = checks.transform_ok(code.F, code.supports, p.P, p.K, p.M, p.N)
        self.stats.record(wrong=not ok)
        self.code = code
        return elapsed

    def _request(self, tracer, corrected: bool):
        p, code, rng = self.params, self.code, self.rng_requests
        x = rng.standard_normal(p.N_raw)
        order = _stragglers(rng, p.P, p.s)
        bad = int(rng.integers(p.P))
        t0 = perf_counter()
        try:
            with _span(tracer, "request.correct" if corrected else "request", root=True):
                with _span(tracer, "coding.run_workers"):
                    outs = run_workers(code, x)
                if corrected:
                    # one worker silently returns garbage
                    v = outs[bad].value
                    outs[bad] = WorkerOutput(bad + 1, v + 10.0 * (1.0 + abs(v)))
                    with _span(tracer, "coding.decode_with_errors"):
                        y = decode_with_errors(outs, 1, code.generator, p)
                else:
                    chosen = order[: p.K]
                    with _span(tracer, "coding.decode"):
                        y = decode([outs[i - 1] for i in chosen], code.generator, p)
        except PROGRAM_ERRORS as exc:
            self.stats.record(type(exc).__name__)
            return None
        elapsed = perf_counter() - t0
        kappa = self.kappa_max if corrected else self.kappa[tuple(sorted(order[: p.K].tolist()))]
        self.stats.record(wrong=not checks.decode_error_ok(y, self.A, x, kappa))
        return elapsed

    def round(self, tracer):
        lat = []
        for i in range(self.round_size):
            t = self._request(tracer, corrected=i == self.round_size - 1)
            if t is not None:
                lat.append(t)
        return sum(lat), lat

    def counts(self, tracer, rounds):
        return {
            "coding.decode_calls": tracer.total("coding.decode") / rounds,
            "coding.correct_calls": tracer.total("coding.decode_with_errors") / rounds,
            "coding.correct_solves": tracer.counts_per_request(
                "generator.guarded_solve", "request.correct"),
        }


class CliRoundTrip(Workload):
    """`shortdot encode` once, then `shortdot transform --responders` calls."""

    index = 1
    setup_reps = 30
    targets = [
        (cli, "build_generator", "generator.build"),
        (cli, "encode", "coding.encode"),
        (cli, "save_transform", "serialization.save_transform"),
        (cli, "load_transform", "serialization.load_transform"),
        (cli, "run_workers", "coding.run_workers"),
        (cli, "decode", "coding.decode"),
        (coding.EncodedTransform, "worker_tasks", "coding.worker_tasks"),
        (coding, "supports_from_pattern", "coding.supports"),
    ]

    def __init__(self, seed, workdir):
        super().__init__(seed)
        P, K, M, N_raw = SEC6
        self.params = validate_params(*SEC6)
        self.A = self.rng_input.standard_normal((M, N_raw))
        self.a_csv = workdir / "A.csv"
        np.savetxt(self.a_csv, self.A, fmt="%.17g", delimiter=",")
        self.code_dir = workdir / "code"
        self.x_csv, self.y_csv = workdir / "x.csv", workdir / "y.csv"
        self.B = checks.chebyshev_vandermonde(P, K)

    def setup(self, tracer):
        p = self.params
        t0 = perf_counter()
        with _span(tracer, "setup", root=True), _span(tracer, "cli.encode"):
            status = _quiet_main(["encode", self.a_csv, "--p", p.P, "--k", p.K,
                                  "--out", self.code_dir])
        elapsed = perf_counter() - t0
        if status != 0:
            self.stats.record(f"encode exit {status}")
            return None
        F = np.loadtxt(self.code_dir / "F.csv", delimiter=",", ndmin=2)
        lines = (self.code_dir / "supports.txt").read_text().splitlines()
        supports = [[int(tok) for tok in line.split()] for line in lines]
        self.stats.record(wrong=not checks.transform_ok(F, supports, p.P, p.K, p.M, p.N))
        return elapsed

    def round(self, tracer):
        p, rng = self.params, self.rng_requests
        x = rng.standard_normal(p.N_raw)
        order = _stragglers(rng, p.P, p.s)
        self.x_csv.write_text(",".join("%.17g" % v for v in x) + "\n")
        argv = ["transform", self.code_dir, self.x_csv,
                "--responders", ",".join(map(str, order)), "--out", self.y_csv]
        t0 = perf_counter()
        with _span(tracer, "request", root=True), _span(tracer, "cli.transform"):
            status = _quiet_main(argv)
        elapsed = perf_counter() - t0
        if status != 0:
            self.stats.record(f"transform exit {status}")
            return 0.0, []
        y = [float(line) for line in self.y_csv.read_text().split()]
        kappa = np.linalg.cond(self.B[np.sort(order[: p.K]) - 1])
        self.stats.record(wrong=len(y) != p.M or not checks.decode_error_ok(y, self.A, x, kappa))
        return elapsed, [elapsed]

    def counts(self, tracer, rounds):
        return {"coding.decode_calls": tracer.total("coding.decode") / rounds}


class Sweep(Workload):
    """`shortdot sweep --p 100` over M = 1..100 with Monte Carlo.

    A request is one Monte Carlo row of the sweep, timed at the call from
    the CLI into latency.monte_carlo; set-up is the same sweep without
    Monte Carlo (closed forms, numeric integration, optimize_k, plans).
    """

    index = 2
    setup_reps = 20
    targets = [
        (cli, "monte_carlo", "latency.monte_carlo", lambda a, k: a[2] * a[0].P),
        (cli, "optimize_k", "latency.optimize_k"),
        (cli, "expected_time_uncoded", "latency.expected_time"),
        (cli, "expected_time_repetition", "latency.expected_time"),
        (cli, "expected_time_mds", "latency.expected_time"),
        (cli, "expected_time_short_dot", "latency.expected_time"),
        (cli, "plan_short_dot", "strategies.plan"),
        (cli, "plan_by_name", "strategies.plan"),
    ]
    STRATEGIES = ("uncoded", "repetition", "mds", "short-dot")

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.ref, self.best_k = checks.sweep_reference(SWEEP_P, SWEEP_N, MU)
        self.keys = {(M, s) for M in range(1, SWEEP_P + 1) for s in self.STRATEGIES}
        self.out = workdir / "sweep.csv"
        self.row_latency: list[float] = []
        self._mc = cli.monte_carlo

        def timed_monte_carlo(*args, **kwargs):
            t0 = perf_counter()
            try:
                return self._mc(*args, **kwargs)
            finally:
                self.row_latency.append(perf_counter() - t0)

        cli.monte_carlo = timed_monte_carlo

    def _sweep(self, tracer, trials: int, seed: int):
        argv = ["sweep", "--p", SWEEP_P, "--n", SWEEP_N, "--mu", MU,
                "--trials", trials, "--seed", seed, "--out", self.out]
        t0 = perf_counter()
        with _span(tracer, "sweep", root=True):
            status = _quiet_main(argv)
        elapsed = perf_counter() - t0
        if status != 0:
            self.stats.record(f"sweep exit {status}", n=len(self.keys))
            return None
        with open(self.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if {(int(r["M"]), r["strategy"]) for r in rows} != self.keys or len(rows) != len(self.keys):
            self.stats.record(wrong=True, n=len(self.keys))
            return elapsed
        verdicts = checks.sweep_rows_ok(rows, self.ref, self.best_k, mc=trials > 0)
        bad = verdicts.count(False)
        self.stats.record(n=len(verdicts) - bad)
        if bad:
            self.stats.record(wrong=True, n=bad)
        return elapsed

    def setup(self, tracer):
        return self._sweep(tracer, 0, 0)

    def round(self, tracer):
        self.row_latency = []
        elapsed = self._sweep(tracer, SWEEP_TRIALS, int(self.rng_requests.integers(2**31)))
        if elapsed is None:
            return 0.0, []
        return elapsed, self.row_latency

    def finish(self, tracer):
        self._determinism()
        if tracer:
            for _ in range(3):
                self._chunk_probe(tracer)
        cli.monte_carlo = self._mc

    def _determinism(self):
        """Rerun two rows with SHORTDOT_THREADS=2; results must be bitwise equal.

        At the sweep's trial count every row is a single Monte Carlo chunk,
        where no thread pool starts.  The rerun uses three chunks: with two,
        a reduction in the wrong order would still be exact, since
        floating-point addition commutes.
        """
        seed = int(self.rng_requests.integers(2**31))
        argv = ["sweep", "--p", SWEEP_P, "--n", SWEEP_N, "--mu", MU, "--m-range", "37:37",
                "--strategy", "short-dot", "--strategy", "repetition",
                "--trials", 2 * MC_CHUNK + 4096, "--seed", seed, "--out", self.out]
        texts = []
        for threads in (None, "2"):
            if threads:
                os.environ["SHORTDOT_THREADS"] = threads
            try:
                status = _quiet_main(argv)
            finally:
                os.environ.pop("SHORTDOT_THREADS", None)
            texts.append(self.out.read_text() if status == 0 else None)
        if texts[0] is None or texts[1] is None:
            self.stats.record("determinism sweep exit")
        else:
            self.stats.record(wrong=texts[0] != texts[1] or texts[0].count("\n") != 3)

    def _chunk_probe(self, tracer):
        """One Monte Carlo chunk, then its inverse-CDF and order-statistic
        steps alone on a chunk of the same shape; the rest of the chunk is
        the RNG (reported as the derived latency.rng_s)."""
        M = 20
        plan = plan_short_dot(validate_params(SWEEP_P, self.best_k[M], M, SWEEP_N))
        model = DelayModel(MU)
        with tracer.span("probe", root=True):
            with tracer.span("latency.mc_chunk"):
                monte_carlo(plan, model, MC_CHUNK, 0)
            u = self.rng_requests.random((MC_CHUNK, plan.P))
            with tracer.span("latency.sample_time"):
                t = sample_time(plan.task_lengths[None, :], model, u)
            with tracer.span("strategies.finish_times"):
                finish_times(plan, t)

    def counts(self, tracer, rounds):
        return {"latency.mc_samples": tracer.total("latency.monte_carlo") / rounds}


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "serve-sec6":
        return Serve(seed)
    if name == "cli-sec6":
        return CliRoundTrip(seed, workdir)
    if name == "sweep-p100":
        return Sweep(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
