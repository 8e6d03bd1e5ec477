"""Command-line front end.

Subcommands: encode, transform, sweep, theorem4, bounds,
experiment-sec6, selftest.  A flat key=value config file can prefill any
flag (flags win).  Exit codes: 0 success, 2 validation error,
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
from .latency import (
    DelayModel,
    expected_time_mds,
    expected_time_repetition,
    expected_time_short_dot,
    expected_time_uncoded,
    monte_carlo,
    optimize_k,
    theorem4_regime,
)
from .params import CodeParams, validate_params
from .serialization import load_matrix, load_transform, save_matrix, save_transform
from .strategies import plan_by_name, plan_short_dot

SEC6 = dict(P=20, K=18, M=10, N_raw=785)  # simulated stand-in parameters


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line!r} is not key=value")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _resolve(args, cfg: dict[str, str], key: str, cast, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in cfg:
        return cast(cfg[key])
    return default


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required parameter --{name}")
    return value


# --- encode ------------------------------------------------------------------


def cmd_encode(args) -> int:
    cfg = _read_config(args.config)
    P = _require(_resolve(args, cfg, "p", int), "p")
    K = _require(_resolve(args, cfg, "k", int), "k")
    out = _require(_resolve(args, cfg, "out", str), "out")
    A = load_matrix(args.matrix)
    M = A.shape[0]
    m_flag = _resolve(args, cfg, "m", int)
    if m_flag is not None and m_flag != M:
        raise ValueError(f"--m {m_flag} does not match matrix row count {M}")
    params = validate_params(P, K, M, A.shape[1])
    kind = _resolve(args, cfg, "kind", str, "vandermonde")
    seed = _resolve(args, cfg, "seed", int)
    nodes = None
    if args.nodes:
        nodes = [float(tok) for tok in args.nodes.replace(",", " ").split()]
    gen = build_generator(params, kind=kind, nodes=nodes, seed=seed)
    code = encode(A, gen, params, method=args.method)
    save_transform(code, out)
    nz = (np.abs(code.F) > code.zero_tolerance).sum(axis=1)
    print(f"encoded {M}x{params.N_raw} -> F {params.P}x{params.N} at {out}")
    print(f"P={params.P} K={params.K} M={params.M} N={params.N} s={params.s}")
    print(f"row nonzeros: max={int(nz.max())} mean={nz.mean():.2f} budget={params.s}")
    return 0


# --- transform ---------------------------------------------------------------


def _parse_corruptions(text: str | None) -> dict[int, float]:
    if not text:
        return {}
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
        corrupt = _parse_corruptions(args.corrupt)
        _check_workers(corrupt, params.P, "--corrupt")
        outputs = [
            type(o)(index=o.index, value=corrupt.get(o.index, o.value)) for o in outputs
        ]
        result = decode_with_errors(outputs, args.error_decode, code.generator, params)
    else:
        if not args.responders:
            raise ValueError("need --responders (or --error-decode) to choose outputs")
        responders = _int_list(args.responders)
        _check_workers(responders, params.P, "--responders")
        if len(responders) < params.K:
            raise ValueError(
                f"{len(responders)} responders < K={params.K}; cannot decode"
            )
        chosen = responders[: params.K]
        by_index = {o.index: o for o in outputs}
        result = decode([by_index[i] for i in chosen], code.generator, params,
                        method=args.method)

    if args.out:
        save_matrix(args.out, result[:, None])
        print(f"decoded product written to {args.out}")
    else:
        for val in result:
            print("%.17g" % val)
    return 0


# --- sweep -------------------------------------------------------------------

_SWEEP_STRATEGIES = ("uncoded", "repetition", "mds", "short-dot")


def _analytic_expected(name: str, params: CodeParams, model: DelayModel) -> float:
    if name == "uncoded":
        return expected_time_uncoded(params, model)
    if name == "repetition":
        return expected_time_repetition(params, model)
    if name == "mds":
        return expected_time_mds(params, model)
    if name == "short-dot":
        return expected_time_short_dot(params, model)
    if name == "short-mds":
        return float("nan")  # Monte-Carlo only; no closed form is claimed
    raise ValueError(f"unknown strategy {name!r}")


def cmd_sweep(args) -> int:
    cfg = _read_config(args.config)
    P = _require(_resolve(args, cfg, "p", int), "p")
    N = _resolve(args, cfg, "n", int, 100 * P)
    mu = _resolve(args, cfg, "mu", float, 5.0)
    trials = _resolve(args, cfg, "trials", int, 0)
    seed = _resolve(args, cfg, "seed", int, 0)
    out = _require(_resolve(args, cfg, "out", str), "out")
    m_range = _resolve(args, cfg, "m-range", str, f"1:{P}")
    strategies = args.strategy or cfg.get("strategy", ",".join(_SWEEP_STRATEGIES)).split(",")
    lo, _, hi = m_range.partition(":")
    m_values = range(int(lo), int(hi) + 1)
    model = DelayModel(mu)
    # K for the sparse code: a fixed value, or "auto" (the default) to
    # minimize the expected time per M
    k_spec = args.k if args.k is not None else cfg.get("k", "auto")

    rows = []
    for row_i, M in enumerate(m_values):
        for name in strategies:
            if name == "short-dot":
                if str(k_spec) == "auto":
                    K_used, analytic = optimize_k(P, M, float(N), model)
                else:
                    K_used = int(k_spec)
                    analytic = None
                params = validate_params(P, K_used, M, N)
                if analytic is None:
                    analytic = expected_time_short_dot(params, model)
                plan = plan_short_dot(params)
            else:
                params = validate_params(P, M, M, N)
                s = _resolve(args, cfg, "s", int)
                plan = plan_by_name(name, params, s)
                analytic = _analytic_expected(name, params, model)
                K_used = plan.worst_case_threshold
            if trials > 0:
                rep = monte_carlo(plan, model, trials, seed + row_i, analytic)
                mc_mean, mc_stderr = rep.mc_mean, rep.mc_stderr
            else:
                mc_mean = mc_stderr = float("nan")
            rows.append((M, name, analytic, mc_mean, mc_stderr, K_used))

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "strategy", "analytic_E", "mc_mean", "mc_stderr", "K_used"])
        for row in rows:
            writer.writerow(row)
    plot_path = _write_plot_script(out)
    print(f"sweep table written to {out} ({len(rows)} rows); plot script: {plot_path}")
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
    cfg = _read_config(args.config)
    mu = _resolve(args, cfg, "mu", float, 5.0)
    p_list = _int_list(
        _resolve(args, cfg, "p-list", str, "1000,10000,100000,1000000")
    )
    rows = theorem4_regime(p_list, DelayModel(mu))
    header = ["P", "M", "K", "short_dot_scaled", "mds_scaled",
              "uncoded_scaled", "repetition_scaled", "ratio"]
    lines = [
        "# scaled expected times E[T]/N at M=round(P/ln P), K=P-round(M/2) "
        "(round = half-up), mu=%g" % mu,
        ",".join(header),
    ]
    for r in rows:
        lines.append(
            f"{r.P},{r.M},{r.K},{r.short_dot:.10g},{r.mds:.10g},"
            f"{r.uncoded:.10g},{r.repetition:.10g},{r.ratio:.10g}"
        )
    text = "\n".join(lines) + "\n"
    out = _resolve(args, cfg, "out", str)
    if out:
        Path(out).write_text(text)
        print(f"theorem-4 table written to {out}")
    else:
        print(text, end="")
    return 0


# --- bounds ------------------------------------------------------------------


def cmd_bounds(args) -> int:
    cfg = _read_config(args.config)
    P = _require(_resolve(args, cfg, "p", int), "p")
    K = _require(_resolve(args, cfg, "k", int), "k")
    M = _require(_resolve(args, cfg, "m", int), "m")
    N = _require(_resolve(args, cfg, "n", int), "n")
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
    out = _resolve(args, cfg, "out", str)
    if out:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["P", "K", "M", "N", "basic_bound", "tight_bound",
                        "budget", "lambda_cap", "gap_ratio"])
            tight = bounds_mod.tight_lower_bound(params.N, P, K, M) if M > 1 else basic
            w.writerow([P, K, M, params.N, basic, tight, budget,
                        bounds_mod.lambda_cap(P, K, M), ratio])
        print(f"bound report written to {out}")
    return 0


# --- experiment-sec6 ---------------------------------------------------------


def cmd_experiment_sec6(args) -> int:
    cfg = _read_config(args.config)
    mu = _resolve(args, cfg, "mu", float, 5.0)
    trials = _resolve(args, cfg, "trials", int, 1_000_000)
    seed = _resolve(args, cfg, "seed", int, 0)
    model = DelayModel(mu)
    params = validate_params(SEC6["P"], SEC6["K"], SEC6["M"], SEC6["N_raw"])

    cells = [
        ("short-dot", plan_short_dot(params), expected_time_short_dot(params, model)),
        ("uncoded", plan_by_name("uncoded", params), expected_time_uncoded(params, model)),
        ("mds", plan_by_name("mds", params), expected_time_mds(params, model)),
    ]
    print(
        "simulated reproduction of the cluster comparison "
        f"(N={params.N_raw}->{params.N}, M={params.M}, P={params.P}, "
        f"K={params.K}, mu={mu:g}); shifted-exponential model, not wall-clock"
    )
    print(f"{'strategy':<10} {'analytic':>12} {'mc_mean':>12} {'mc_stderr':>10}")
    reports = {}
    for i, (name, plan, analytic) in enumerate(cells):
        rep = monte_carlo(plan, model, trials, seed + i, analytic)
        reports[name] = rep
        print(f"{name:<10} {analytic:>12.4f} {rep.mc_mean:>12.4f} {rep.mc_stderr:>10.4f}")

    order_ok = (
        reports["short-dot"].analytic_expected < reports["uncoded"].analytic_expected
        < reports["mds"].analytic_expected
        and reports["short-dot"].mc_mean < reports["uncoded"].mc_mean
        < reports["mds"].mc_mean
    )
    out = _resolve(args, cfg, "out", str)
    if out:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["strategy", "analytic_E", "mc_mean", "mc_stderr", "trials", "seed"])
            for name, rep in reports.items():
                w.writerow([name, rep.analytic_expected, rep.mc_mean,
                            rep.mc_stderr, rep.trials, rep.seed])
        print(f"report written to {out}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortdot",
        description="Sparse coded distributed matrix-vector multiplication toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--p", type=int, help="worker count P")
        p.add_argument("--k", type=int, help="recovery threshold K")
        p.add_argument("--m", type=int, help="dot-product count M")
        p.add_argument("--n", type=int, help="input dimension N (pre-padding)")
        p.add_argument("--mu", type=float, help="straggling parameter mu (default 5)")
        p.add_argument("--trials", type=int, help="Monte-Carlo trials")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--s", type=int, help="target task length s")
        p.add_argument("--out", help="output path")

    p_enc = sub.add_parser("encode", help="encode a matrix CSV into a transform directory")
    p_enc.add_argument("matrix", help="CSV file holding the M x N matrix A")
    common(p_enc)
    p_enc.add_argument("--kind", choices=("vandermonde", "gaussian"), default=None)
    p_enc.add_argument("--nodes", help="comma-separated Vandermonde nodes")
    p_enc.add_argument("--method", choices=("solve", "poly"), default="solve")
    p_enc.set_defaults(func=cmd_encode)

    p_tr = sub.add_parser("transform", help="compute A@x from a transform directory")
    p_tr.add_argument("code_dir", help="directory written by `shortdot encode`")
    p_tr.add_argument("x", help="CSV file holding the input vector")
    common(p_tr)
    p_tr.add_argument("--responders", help="comma-separated worker indices, first K used")
    p_tr.add_argument("--error-decode", type=int, default=None, metavar="E_MAX",
                      help="use all P outputs, correcting up to E_MAX errors")
    p_tr.add_argument("--corrupt", help="idx:value pairs overriding worker outputs")
    p_tr.add_argument("--method", choices=("solve", "poly"), default="solve")
    p_tr.set_defaults(func=cmd_transform)

    p_sw = sub.add_parser("sweep", help="expected-time sweep over M, CSV + plot script")
    common(p_sw)
    p_sw.add_argument("--m-range", help="M sweep range lo:hi (default 1:P)")
    p_sw.add_argument("--strategy", action="append",
                      help="strategy name (repeatable; default all comparable)")
    p_sw.set_defaults(func=cmd_sweep)

    p_t4 = sub.add_parser("theorem4", help="scaled times in the M ~ P/ln P regime")
    common(p_t4)
    p_t4.add_argument("--p-list", help="comma-separated processor counts")
    p_t4.set_defaults(func=cmd_theorem4)

    p_bd = sub.add_parser("bounds", help="sparsity lower bounds for a parameter tuple")
    common(p_bd)
    p_bd.set_defaults(func=cmd_bounds)

    p_s6 = sub.add_parser("experiment-sec6",
                          help="simulated stand-in for the cluster experiment")
    common(p_s6)
    p_s6.set_defaults(func=cmd_experiment_sec6)

    p_st = sub.add_parser("selftest", help="quick internal consistency battery")
    common(p_st)
    p_st.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
