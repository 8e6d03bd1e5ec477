"""Command-line front end.

Subcommands: encode, transform, sweep, theorem4, bounds,
experiment-sec6, selftest; each declares only the flags it reads.
`--config FILE` (every subcommand but selftest) holds key=value lines
whose keys are that subcommand's flag names; they become the flags'
defaults, so flags given on the command line win.  Exit codes:
0 success, 2 validation error (argparse's own errors included),
3 numerical/conditioning failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .coding import decode, decode_with_errors, encode, run_workers
from .errors import ConditioningError, DecodingError
from .generator import build_generator
# perfbench/workloads.py traces the expected_time_* names on this module
from .latency import (
    DEFAULT_MU,
    DelayModel,
    expected_time,
    expected_time_mds,  # noqa: F401
    expected_time_repetition,  # noqa: F401
    expected_time_short_dot,
    expected_time_uncoded,  # noqa: F401
    monte_carlo,
    optimize_k,
    simulation_threads,
    theorem4_regime,
)
from .params import validate_params
from .serialization import load_matrix, load_transform, save_matrix, save_transform
from .strategies import plan_by_name, plan_short_dot

SEC6 = (20, 18, 10, 785)  # simulated stand-in (P, K, M, N_raw)


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make each key=value line of the file the default of the flag --key;
    argparse then converts it with the flag's type unless the flag is given."""
    flags = {opt[2:]: action for action in parser._actions for opt in action.option_strings}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line!r} is not key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("config", "help") or key not in flags:
            raise ValueError(f"config key {key!r} is not a flag of {parser.prog!r}")
        flags[key].required = False
        parser.set_defaults(**{flags[key].dest: value})


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


# --- encode ------------------------------------------------------------------


def cmd_encode(args) -> int:
    A = load_matrix(args.matrix)
    M = A.shape[0]
    if args.m is not None and args.m != M:
        raise ValueError(f"--m {args.m} does not match matrix row count {M}")
    params = validate_params(args.p, args.k, M, A.shape[1])
    gen = build_generator(params, kind=args.kind, nodes=args.nodes, seed=args.seed)
    code = encode(A, gen, params, method=args.method)
    save_transform(code, args.out)
    nz = (np.abs(code.F) > code.zero_tolerance).sum(axis=1)
    print(f"encoded {M}x{params.N_raw} -> F {params.P}x{params.N} at {args.out}")
    print(f"P={params.P} K={params.K} M={params.M} N={params.N} s={params.s}")
    print(f"row nonzeros: max={int(nz.max())} mean={nz.mean():.2f} budget={params.s}")
    return 0


# --- transform ---------------------------------------------------------------


def _parse_corruptions(text: str) -> dict[int, float]:
    out = {}
    for tok in text.replace(",", " ").split():
        idx, _, val = tok.partition(":")
        out[int(idx)] = float(val)
    return out


def _check_workers(indices, P: int, flag: str) -> None:
    bad = [i for i in indices if not 1 <= i <= P]
    if bad:
        raise ValueError(f"{flag}: worker indices {bad} outside 1..{P}")


def cmd_transform(args) -> int:
    code = load_transform(args.code_dir)
    params = code.params
    x = load_matrix(args.x).ravel()
    outputs = run_workers(code, x)

    if args.error_decode is not None:
        corrupt = args.corrupt or {}
        _check_workers(corrupt, params.P, "--corrupt")
        outputs = [(i, corrupt.get(i, v)) for i, v in outputs]
        result = decode_with_errors(outputs, args.error_decode, code.generator, params)
    else:
        if not args.responders:
            raise ValueError("need --responders (or --error-decode) to choose outputs")
        responders = args.responders
        _check_workers(responders, params.P, "--responders")
        if len(responders) < params.K:
            raise ValueError(f"{len(responders)} responders < K={params.K}; cannot decode")
        result = decode([outputs[i - 1] for i in responders[: params.K]],
                        code.generator, params, method=args.method)

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
    return range(int(lo), int(hi) + 1)


def _k_spec(text: str) -> int | str:
    return text if text == "auto" else int(text)


class _Names(argparse.Action):
    """Comma-separated names, repeatable; the first flag replaces the default."""

    def __call__(self, parser, namespace, values, option_string=None):
        names = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if names is self.default else names) + values)


def _check_monte_carlo(trials: int, first: int, count: int) -> None:
    """Refuse, before any output, negative trials, a malformed SHORTDOT_THREADS
    or Monte Carlo seeds first..first+count-1 outside 0..2**64-1."""
    if trials < 0:
        raise ValueError(f"--trials must be >= 0, got {trials}")
    simulation_threads()
    if not 0 <= first <= first + count - 1 < 2**64:
        raise ValueError(f"Monte Carlo seeds {first}..{first + count - 1} "
                         "(--seed plus one per row) must lie in 0..2**64-1")


def cmd_sweep(args) -> int:
    P = args.p
    N = 100 * P if args.n is None else args.n
    model = DelayModel(args.mu)
    m_values = args.m_range or range(1, P + 1)
    _check_monte_carlo(args.trials, args.seed, len(m_values))
    rows = []
    for row_i, M in enumerate(m_values):
        # K of the sparse code: fixed, or "auto" to minimize its expected
        # time at this M; the other strategies do not read K
        K = optimize_k(P, M, float(N), model)[0] if args.k == "auto" else args.k
        params = validate_params(P, K, M, N)
        for name in args.strategy:
            plan = plan_by_name(name, params, params.N if args.s is None else args.s)
            analytic = expected_time(plan, model)
            if args.trials > 0:
                rep = monte_carlo(plan, model, args.trials, args.seed + row_i, analytic)
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
    rows = theorem4_regime(args.p_list, DelayModel(args.mu))
    header = ["P", "M", "K", "short_dot_scaled", "mds_scaled",
              "uncoded_scaled", "repetition_scaled", "ratio"]
    lines = [
        "# scaled expected times E[T]/N at M=round(P/ln P), K=P-round(M/2) "
        "(round = half-up), mu=%g" % args.mu,
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
    P, K, M, N = args.p, args.k, args.m, args.n
    params = validate_params(P, K, M, N)
    basic = bounds_mod.basic_lower_bound(params.N, P, K)
    budget = params.s
    print(f"P={P} K={K} M={M} N={params.N} (N_raw={N})")
    print(f"basic lower bound on average row sparsity : {basic:.6g}")
    if M > 1:
        tight = bounds_mod.tight_lower_bound(params.N, P, K, M)
        gap = bounds_mod.tight_bound_gap(P, K, M)
        print(f"tight lower bound (M>1)                   : {tight:.6g}")
        print(f"budget - tight gap (M^2/P)C(P,K-M+1)      : {float(gap):.6g} (exact {gap})")
    else:
        print("tight lower bound (M>1)                   : n/a (M=1; basic bound is tight)")
    print(f"constructive budget s=(N/P)(P-K+M)        : {budget}")
    print(f"lambda cap M*C(P,K-M+1)                   : {bounds_mod.lambda_cap(P, K, M)}")
    ratio = M * M * math.comb(P, K - M + 1) / params.N
    print(f"asymptotic gap ratio M^2 C(P,K-M+1)/N     : {ratio:.6g}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["P", "K", "M", "N", "basic_bound", "tight_bound",
                        "budget", "lambda_cap", "gap_ratio"])
            tight = bounds_mod.tight_lower_bound(params.N, P, K, M) if M > 1 else basic
            w.writerow([P, K, M, params.N, basic, tight, budget,
                        bounds_mod.lambda_cap(P, K, M), ratio])
        print(f"bound report written to {args.out}")
    return 0


# --- experiment-sec6 ---------------------------------------------------------


def cmd_experiment_sec6(args) -> int:
    model = DelayModel(args.mu)
    params = validate_params(*SEC6)
    strategies = ("short-dot", "uncoded", "mds")
    _check_monte_carlo(args.trials, args.seed, len(strategies))
    print(
        "simulated reproduction of the cluster comparison "
        f"(N={params.N_raw}->{params.N}, M={params.M}, P={params.P}, "
        f"K={params.K}, mu={args.mu:g}); shifted-exponential model, not wall-clock"
    )
    print(f"{'strategy':<10} {'analytic':>12} {'mc_mean':>12} {'mc_stderr':>10}")
    reports = {}
    for i, name in enumerate(strategies):
        plan = plan_by_name(name, params)
        analytic = expected_time(plan, model)
        rep = monte_carlo(plan, model, args.trials, args.seed + i, analytic)
        reports[name] = rep
        print(f"{name:<10} {analytic:>12.4f} {rep.mc_mean:>12.4f} {rep.mc_stderr:>10.4f}")

    order_ok = (
        reports["short-dot"].analytic_expected < reports["uncoded"].analytic_expected
        < reports["mds"].analytic_expected
        and reports["short-dot"].mc_mean < reports["uncoded"].mc_mean
        < reports["mds"].mc_mean
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["strategy", "analytic_E", "mc_mean", "mc_stderr", "trials", "seed"])
            for name, rep in reports.items():
                w.writerow([name, rep.analytic_expected, rep.mc_mean,
                            rep.mc_stderr, rep.trials, rep.seed])
        print(f"report written to {args.out}")
    if not order_ok:
        raise ConditioningError("expected ordering short-dot < uncoded < mds violated")
    print("ordering short-dot < uncoded < mds: confirmed")
    return 0


# --- selftest ----------------------------------------------------------------


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(0)
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    params = validate_params(6, 5, 3, 12)
    check("params (P=6 K=5 M=3 N=12) budget s=8", params.s == 8)

    gen = build_generator(params)
    A = rng.standard_normal((3, 12))
    x = rng.standard_normal(12)
    code = encode(A, gen, params)
    outputs = run_workers(code, x)
    truth = A @ x
    ok = True
    from itertools import combinations
    for subset in combinations(outputs, params.K):
        got = decode(subset, gen, params)
        ok &= bool(np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth))
    check("any-5-of-6 decode recovers A@x at 1e-8", ok)

    nz = (np.abs(code.F) > code.zero_tolerance).sum(axis=1)
    check("row sparsity within budget", int(nz.max()) <= params.s)

    model = DelayModel(5.0)
    analytic = expected_time_short_dot(params, model)
    rep = monte_carlo(plan_short_dot(params), model, 200_000, 1, analytic)
    check(
        f"monte carlo vs analytic ({rep.mc_mean:.3f} vs {analytic:.3f})",
        abs(rep.mc_mean - analytic) <= 0.03 * analytic,
    )

    code_poly = encode(A, gen, params, method="poly")
    check(
        "poly encode matches solve encode",
        float(np.max(np.abs(code_poly.F - code.F))) <= 1e-6 * float(np.max(np.abs(code.F))),
    )

    if failures:
        raise ConditioningError(f"selftest: {failures} check(s) failed")
    print("selftest: all checks passed")
    return 0


# --- parser / entry ----------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="shortdot",
        description="Sparse coded distributed matrix-vector multiplication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value file of this command's flags; flags win")
        return p

    p = command("encode", cmd_encode, "encode a matrix CSV into a transform directory")
    p.add_argument("matrix", help="CSV file holding the M x N matrix A")
    p.add_argument("--p", type=int, required=True, help="worker count P")
    p.add_argument("--k", type=int, required=True, help="recovery threshold K")
    p.add_argument("--m", type=int, help="dot-product count M; must match the matrix")
    p.add_argument("--out", required=True, help="transform directory to write")
    p.add_argument("--kind", choices=("vandermonde", "gaussian"), default="vandermonde")
    p.add_argument("--seed", type=int, help="gaussian generator seed")
    p.add_argument("--nodes", type=_float_list, help="comma-separated Vandermonde nodes")
    p.add_argument("--method", choices=("solve", "poly"), default="solve")

    p = command("transform", cmd_transform, "compute A@x from a transform directory")
    p.add_argument("code_dir", help="directory written by `shortdot encode`")
    p.add_argument("x", help="CSV file holding the input vector")
    p.add_argument("--responders", type=_int_list,
                   help="comma-separated worker indices, first K used")
    p.add_argument("--error-decode", type=int, metavar="E_MAX",
                   help="use all P outputs, correcting up to E_MAX errors")
    p.add_argument("--corrupt", type=_parse_corruptions,
                   help="idx:value pairs overriding worker outputs")
    p.add_argument("--method", choices=("solve", "poly"), default="solve")
    p.add_argument("--out", help="CSV path for A@x (default: stdout)")

    p = command("sweep", cmd_sweep, "expected-time sweep over M, CSV + plot script")
    p.add_argument("--p", type=int, required=True, help="worker count P")
    p.add_argument("--n", type=int, help="input dimension N (default 100 P)")
    p.add_argument("--k", type=_k_spec, default="auto",
                   help="short-dot recovery threshold, or auto (default) per M")
    p.add_argument("--m-range", type=_m_range, help="M sweep range lo:hi (default 1:P)")
    p.add_argument("--strategy", type=lambda text: text.split(","), action=_Names,
                   default="uncoded,repetition,mds,short-dot",
                   help="comma-separated strategy names (repeatable)")
    p.add_argument("--s", type=int,
                   help="task length of repetition and short-mds blocks (default N)")
    p.add_argument("--mu", type=float, default=DEFAULT_MU, help="straggling parameter mu")
    p.add_argument("--trials", type=int, default=0, help="Monte-Carlo trials per row")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed of the first row")
    p.add_argument("--out", required=True, help="CSV path")

    p = command("theorem4", cmd_theorem4, "scaled times in the M ~ P/ln P regime")
    p.add_argument("--p-list", type=_int_list, default="1000,10000,100000,1000000",
                   help="comma-separated processor counts")
    p.add_argument("--mu", type=float, default=DEFAULT_MU, help="straggling parameter mu")
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = command("bounds", cmd_bounds, "sparsity lower bounds for a parameter tuple")
    p.add_argument("--p", type=int, required=True, help="worker count P")
    p.add_argument("--k", type=int, required=True, help="recovery threshold K")
    p.add_argument("--m", type=int, required=True, help="dot-product count M")
    p.add_argument("--n", type=int, required=True, help="input dimension N (pre-padding)")
    p.add_argument("--out", help="CSV path for the report")

    p = command("experiment-sec6", cmd_experiment_sec6,
                "simulated stand-in for the cluster experiment")
    p.add_argument("--mu", type=float, default=DEFAULT_MU, help="straggling parameter mu")
    p.add_argument("--trials", type=int, default=1_000_000, help="Monte-Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="seed of the first strategy")
    p.add_argument("--out", help="CSV path for the report")

    sub.add_parser("selftest", help="quick internal consistency battery",
                   allow_abbrev=False).set_defaults(func=cmd_selftest)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="shortdot", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    try:
        if config and argv[0] in commands:
            _apply_config(commands[argv[0]], config)
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
