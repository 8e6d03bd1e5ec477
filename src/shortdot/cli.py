"""Command-line front end.

Subcommands: encode, transform, sweep, theorem4, bounds and
experiment-sec6; each declares only the flags it reads.  One parser
serves every call in a process: it is built on the first `main` call
(see build_parser).  Every setting comes from argv.  Exit codes:
0 success, 2 validation error (argparse's own errors included),
3 numerical/conditioning failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .coding import decode, decode_with_errors, encode, run_workers
from .errors import ConditioningError, DecodingError
from .generator import KINDS, build_generator
# perfbench/workloads.py traces the expected_time_* names and
# plan_short_dot on this module
from .latency import (
    DEFAULT_MU,
    DelayModel,
    expected_time,
    expected_time_mds,  # noqa: F401
    expected_time_repetition,  # noqa: F401
    expected_time_short_dot,  # noqa: F401
    expected_time_uncoded,  # noqa: F401
    monte_carlo,
    optimize_k,
    simulation_threads,
    theorem4_regime,
)
from .params import validate_params
from .serialization import load_matrix, load_transform, save_matrix, save_transform
from .strategies import check_strategy, check_target_length, plan_by_name
from .strategies import plan_short_dot  # noqa: F401

SEC6 = (20, 18, 10, 785)  # simulated stand-in (P, K, M, N_raw)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


# --- encode ------------------------------------------------------------------


def cmd_encode(args) -> int:
    A = load_matrix(args.matrix)
    M = A.shape[0]
    params = validate_params(args.p, args.k, M, A.shape[1])
    gen = build_generator(params, kind=args.kind)
    code = encode(A, gen, params)
    save_transform(code, args.out)
    nz = np.count_nonzero(code.F, axis=1)
    print(f"encoded {M}x{params.N_raw} -> F {params.P}x{params.N} at {args.out}")
    print(f"P={params.P} K={params.K} M={params.M} N={params.N} s={params.s}")
    print(f"row nonzeros: max={int(nz.max())} mean={nz.mean():.2f} budget={params.s}")
    return 0


# --- transform ---------------------------------------------------------------


def _parse_corruptions(text: str) -> list[tuple[int, float]]:
    pairs = [tok.partition(":") for tok in text.replace(",", " ").split()]
    return [(int(idx), float(val)) for idx, _, val in pairs]


def _check_workers(indices, P: int, flag: str) -> None:
    bad = [i for i in indices if not 1 <= i <= P]
    if bad:
        raise ValueError(f"{flag}: worker indices {bad} outside 1..{P}")


def cmd_transform(args) -> int:
    corrupt = {}
    for worker, value in args.corrupt or ():  # every --corrupt flag, in order
        if worker in corrupt:
            raise ValueError(f"--corrupt: worker {worker} is corrupted twice")
        corrupt[worker] = value
    code = load_transform(args.code_dir)
    params = code.params
    x = load_matrix(args.x)
    _check_workers(corrupt, params.P, "--corrupt")
    outputs = [(i, corrupt.get(i, v)) for i, v in run_workers(code, x)]

    if args.error_decode is not None:
        result = decode_with_errors(outputs, args.error_decode, code.generator, params)
    else:
        if not args.responders:
            raise ValueError("need --responders (or --error-decode) to choose outputs")
        responders = args.responders
        _check_workers(responders, params.P, "--responders")
        if len(responders) < params.K:
            raise ValueError(f"{len(responders)} responders < K={params.K}; cannot decode")
        result = decode([outputs[i - 1] for i in responders[: params.K]],
                        code.generator, params)

    if args.out:
        save_matrix(args.out, result[:, None])
        print(f"decoded product written to {args.out}")
    else:
        for val in result:
            print("%.17g" % val)
    return 0


# --- sweep -------------------------------------------------------------------


def _m_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    m_values = range(int(lo), int(hi) + 1)
    if not m_values:
        raise argparse.ArgumentTypeError(f"M range {text!r} is empty: need lo <= hi")
    return m_values


def _k_spec(text: str) -> int | str:
    return text if text == "auto" else int(text)


def _check_monte_carlo(trials: int, first: int, count: int, least: int = 0) -> None:
    """Refuse, before any output, fewer than `least` trials, a malformed
    SHORTDOT_THREADS or Monte Carlo seeds first..first+count-1 outside
    0..2**64-1."""
    if trials < least:
        raise ValueError(f"--trials must be >= {least}, got {trials}")
    simulation_threads()
    if not 0 <= first <= first + count - 1 < 2**64:
        raise ValueError(f"Monte Carlo seeds {first}..{first + count - 1} "
                         "(--seed plus one per row) must lie in 0..2**64-1")


def cmd_sweep(args) -> int:
    P = args.p
    if P < 1:
        raise ValueError(f"--p must be >= 1, got {P}")
    N = 100 * P if args.n is None else args.n
    model = DelayModel(args.mu)
    m_values = range(1, P + 1) if args.m_range is None else args.m_range
    if args.trials:  # zero trials run no Monte Carlo, so nothing of it is checked
        _check_monte_carlo(args.trials, args.seed, len(m_values))
    # Every row's parameters, the strategy names and --s are checked
    # before the first row runs; the plans are still built row by row.
    grid = []
    for M in m_values:
        # K of the sparse code: fixed, or "auto" to minimize its expected
        # time at this M; the other strategies do not read K
        K = optimize_k(P, M, float(N), model)[0] if args.k == "auto" else args.k
        grid.append(validate_params(P, K, M, N))
    names = args.strategy or ["uncoded", "repetition", "mds", "short-dot"]
    for i, name in enumerate(names):
        check_strategy(name)
        if name in names[:i]:
            raise ValueError(f"--strategy names {name!r} twice")
    s = grid[0].N if args.s is None else args.s
    check_target_length(s, grid[0].N)
    rows = []
    for row_i, (M, params) in enumerate(zip(m_values, grid)):
        for name in names:
            plan = plan_by_name(name, params, s)
            analytic = expected_time(plan, model)
            if args.trials > 0:
                rep = monte_carlo(plan, model, args.trials, args.seed + row_i)
                mc_mean, mc_stderr = rep.mc_mean, rep.mc_stderr
            else:
                mc_mean = mc_stderr = float("nan")
            rows.append((M, name, analytic, mc_mean, mc_stderr, plan.worst_case_threshold))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "strategy", "analytic_E", "mc_mean", "mc_stderr", "K_used"])
        for row in rows:
            writer.writerow(row)
    plot_path = _write_plot_script(args.out)
    print(f"sweep table written to {args.out} ({len(rows)} rows); plot script: {plot_path}")
    return 0


def _write_plot_script(csv_path: str) -> Path:
    out = Path(csv_path)
    script = out.with_name(out.stem + "_plot.py")
    script.write_text(
        f'''"""Plot the expected-computation-time sweep in {out.name} (generated)."""
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(lambda: ([], []))
with open({out.name!r}) as fh:
    for row in csv.DictReader(fh):
        xs, ys = series[row["strategy"]]
        xs.append(int(row["M"]))
        ys.append(float(row["analytic_E"]))

for name, (xs, ys) in sorted(series.items()):
    plt.plot(xs, ys, label=name)
plt.xlabel("M (dot products)")
plt.ylabel("expected computation time")
plt.legend()
plt.tight_layout()
plt.savefig({(out.stem + ".png")!r}, dpi=150)
print("wrote {out.stem}.png")
'''
    )
    return script


# --- theorem4 ----------------------------------------------------------------


def cmd_theorem4(args) -> int:
    if not args.p_list:
        raise ValueError("--p-list is empty: need one processor count or more")
    rows = theorem4_regime(args.p_list, DelayModel(args.mu))
    header = ["P", "M", "K", "short_dot_scaled", "mds_scaled",
              "uncoded_scaled", "repetition_scaled", "ratio"]
    lines = [
        "# scaled expected times E[T]/N at M=round(P/ln P), K=P-round(M/2) "
        "(round = half-up), mu=%g; the latency model's closed forms only: "
        "no code is built or decoded at these P" % args.mu,
        ",".join(header),
    ]
    for r in rows:
        lines.append(
            f"{r.P},{r.M},{r.K},{r.short_dot:.10g},{r.mds:.10g},"
            f"{r.uncoded:.10g},{r.repetition:.10g},{r.ratio:.10g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"theorem-4 table written to {args.out}")
    else:
        print(text, end="")
    return 0


# --- bounds ------------------------------------------------------------------


def cmd_bounds(args) -> int:
    P, K, M = args.p, args.k, args.m
    params = validate_params(P, K, M, args.n)
    report = bounds_mod.bound_report(params)
    print(f"P={P} K={K} M={M} N={params.N} (N_raw={params.N_raw})")
    print(f"basic lower bound on average row sparsity : {report.basic_bound:.6g}")
    if M > 1:
        gap = bounds_mod.tight_bound_gap(P, K, M)
        print(f"tight lower bound (M>1)                   : {report.tight_bound:.6g}")
        print(f"N-free gap, budget - tight at equal N     : {float(gap):.6g} (exact {gap})")
    else:
        print("tight lower bound (M>1)                   : n/a (M=1)")
    print(f"constructive budget s=(N/P)(P-K+M)        : {report.budget}")
    print(f"lambda cap M*C(P,K-M+1)                   : {report.lambda_cap}")
    print(f"asymptotic gap ratio M^2 C(P,K-M+1)/N     : {report.gap_ratio:.6g}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            fields = ["basic_bound", "tight_bound", "budget", "lambda_cap", "gap_ratio"]
            w.writerow(["P", "K", "M", "N", *fields])
            w.writerow([P, K, M, params.N, *(getattr(report, f) for f in fields)])
        print(f"bound report written to {args.out}")
    return 0


# --- experiment-sec6 ---------------------------------------------------------


def cmd_experiment_sec6(args) -> int:
    model = DelayModel(args.mu)
    params = validate_params(*SEC6)
    strategies = ("short-dot", "uncoded", "mds")
    _check_monte_carlo(args.trials, args.seed, len(strategies), least=1)
    print(
        "simulated reproduction of the cluster comparison "
        f"(N={params.N_raw}->{params.N}, M={params.M}, P={params.P}, "
        f"K={params.K}, mu={args.mu:g}); shifted-exponential model, not wall-clock"
    )
    print(f"{'strategy':<10} {'analytic':>12} {'mc_mean':>12} {'mc_stderr':>10}")
    analytic, reports = {}, {}
    for i, name in enumerate(strategies):
        plan = plan_by_name(name, params)
        analytic[name] = expected_time(plan, model)
        reports[name] = rep = monte_carlo(plan, model, args.trials, args.seed + i)
        print(f"{name:<10} {analytic[name]:>12.4f} {rep.mc_mean:>12.4f} "
              f"{rep.mc_stderr:>10.4f}")

    order_ok = (
        analytic["short-dot"] < analytic["uncoded"] < analytic["mds"]
        and reports["short-dot"].mc_mean < reports["uncoded"].mc_mean
        < reports["mds"].mc_mean
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["strategy", "analytic_E", "mc_mean", "mc_stderr", "trials", "seed"])
            for i, (name, rep) in enumerate(reports.items()):
                w.writerow([name, analytic[name], rep.mc_mean,
                            rep.mc_stderr, args.trials, args.seed + i])
        print(f"report written to {args.out}")
    if not order_ok:
        raise ConditioningError("expected ordering short-dot < uncoded < mds violated")
    print("ordering short-dot < uncoded < mds: confirmed")
    return 0


# --- parser / entry ----------------------------------------------------------


def _encode_flags(p):
    p.add_argument("matrix", help="CSV file holding the M x N matrix A")
    p.add_argument("--p", type=int, required=True, help="worker count P")
    p.add_argument("--k", type=int, required=True, help="recovery threshold K")
    p.add_argument("--out", required=True, help="transform directory to write")
    p.add_argument("--kind", choices=KINDS, default=KINDS[0])


def _transform_flags(p):
    p.add_argument("code_dir", help="directory written by `shortdot encode`")
    p.add_argument("x", help="CSV file holding the input vector")
    choose = p.add_mutually_exclusive_group()
    choose.add_argument("--responders", type=_int_list,
                        help="comma-separated worker indices, first K used")
    choose.add_argument("--error-decode", type=int, metavar="E_MAX",
                        help="use all P outputs, correcting up to E_MAX errors")
    p.add_argument("--corrupt", type=_parse_corruptions, action="extend",
                   help="idx:value pairs overriding worker outputs before either decode "
                        "(repeatable)")
    p.add_argument("--out", help="CSV path for A@x (default: stdout)")


def _sweep_flags(p):
    p.add_argument("--p", type=int, required=True, help="worker count P")
    p.add_argument("--n", type=int, help="input dimension N (default 100 P)")
    p.add_argument("--k", type=_k_spec, default="auto",
                   help="short-dot recovery threshold, or auto (default) per M")
    p.add_argument("--m-range", type=_m_range, help="M sweep range lo:hi (default 1:P)")
    p.add_argument("--strategy", type=lambda text: text.split(","), action="extend",
                   help="comma-separated strategy names (repeatable)")
    p.add_argument("--s", type=int,
                   help="task length of repetition and short-mds blocks (default N)")
    p.add_argument("--mu", type=float, default=DEFAULT_MU, help="straggling parameter mu")
    p.add_argument("--trials", type=int, default=0, help="Monte-Carlo trials per row")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed of the first row")
    p.add_argument("--out", required=True, help="CSV path")


def _theorem4_flags(p):
    p.add_argument("--p-list", type=_int_list, default="1000,10000,100000,1000000",
                   help="comma-separated processor counts")
    p.add_argument("--mu", type=float, default=DEFAULT_MU, help="straggling parameter mu")
    p.add_argument("--out", help="CSV path (default: stdout)")


def _bounds_flags(p):
    p.add_argument("--p", type=int, required=True, help="worker count P")
    p.add_argument("--k", type=int, required=True, help="recovery threshold K")
    p.add_argument("--m", type=int, required=True, help="dot-product count M")
    p.add_argument("--n", type=int, required=True, help="input dimension N (pre-padding)")
    p.add_argument("--out", help="CSV path for the report")


def _experiment_sec6_flags(p):
    p.add_argument("--mu", type=float, default=DEFAULT_MU, help="straggling parameter mu")
    p.add_argument("--trials", type=int, default=1_000_000, help="Monte-Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="seed of the first strategy")
    p.add_argument("--out", help="CSV path for the report")


# name: (handler, help line, flag declarations)
_COMMANDS = {
    "encode": (cmd_encode, "encode a matrix CSV into a transform directory", _encode_flags),
    "transform": (cmd_transform, "compute A@x from a transform directory", _transform_flags),
    "sweep": (cmd_sweep, "expected-time sweep over M, CSV + plot script", _sweep_flags),
    "theorem4": (cmd_theorem4, "scaled times in the M ~ P/ln P regime", _theorem4_flags),
    "bounds": (cmd_bounds, "sparsity lower bounds for a parameter tuple", _bounds_flags),
    "experiment-sec6": (cmd_experiment_sec6, "simulated stand-in for the cluster experiment",
                        _experiment_sec6_flags),
}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built once per
    process: parse_args keeps no state in them between calls."""
    parser = argparse.ArgumentParser(
        prog="shortdot",
        description="Sparse coded distributed matrix-vector multiplication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        add_flags(p)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every call parses with the one cached parser: rebuilding it would
    # cost a request more than parsing its argv
    parser = build_parser()[0]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, DecodingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
