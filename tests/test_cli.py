import csv
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shortdot import (
    build_generator,
    check_achievability,
    encode,
    load_matrix,
    save_matrix,
    validate_params,
)
from shortdot.bounds import tight_lower_bound_exact
from shortdot.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _write_matrix(path, mat):
    save_matrix(path, np.asarray(mat, dtype=float))
    return str(path)


@pytest.fixture
def small_problem(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 12))
    x = rng.standard_normal(12)
    a_path = _write_matrix(tmp_path / "A.csv", A)
    x_path = _write_matrix(tmp_path / "x.csv", x)
    return A, x, a_path, x_path, tmp_path


def test_encode_writes_transform_directory(small_problem, capsys):
    A, _, a_path, _, tmp = small_problem
    out = tmp / "code"
    assert main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)]) == 0
    assert (out / "params.txt").exists()
    assert (out / "supports.txt").exists()
    F = load_matrix(out / "F.csv")
    assert F.shape == (6, 12)
    assert np.all((np.abs(F) > 0).sum(axis=1) <= 8)
    assert "s=8" in capsys.readouterr().out


def test_encode_zero_matrix(tmp_path):
    a_path = _write_matrix(tmp_path / "z.csv", np.zeros((1, 4)))
    out = tmp_path / "code"
    assert main(["encode", a_path, "--p", "4", "--k", "3", "--out", str(out)]) == 0
    assert np.all(load_matrix(out / "F.csv") == 0.0)


def test_encode_records_padding(tmp_path):
    rng = np.random.default_rng(1)
    a_path = _write_matrix(tmp_path / "w.csv", rng.standard_normal((10, 785)))
    out = tmp_path / "code785"
    assert main(["encode", a_path, "--p", "20", "--k", "18", "--out", str(out)]) == 0
    text = (out / "params.txt").read_text()
    assert "N=800" in text and "N_raw=785" in text


def test_transform_responder_invariance(small_problem, capsys):
    A, x, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    r1 = tmp / "r1.csv"
    r2 = tmp / "r2.csv"
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5",
                 "--out", str(r1)]) == 0
    assert main(["transform", str(out), x_path, "--responders", "2,3,4,5,6",
                 "--out", str(r2)]) == 0
    d1 = load_matrix(r1).ravel()
    d2 = load_matrix(r2).ravel()
    truth = A @ x
    assert np.linalg.norm(d1 - truth) <= 1e-8 * np.linalg.norm(truth)
    assert np.linalg.norm(d1 - d2) <= 1e-10 * np.linalg.norm(truth)


def test_transform_accepts_unpadded_x(tmp_path):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((2, 10))  # pads to N = 12 on P = 4
    x = rng.standard_normal(10)
    a_path = _write_matrix(tmp_path / "A.csv", A)
    x_path = _write_matrix(tmp_path / "x.csv", x)
    out = tmp_path / "code"
    main(["encode", a_path, "--p", "4", "--k", "3", "--out", str(out)])
    res = tmp_path / "res.csv"
    assert main(["transform", str(out), x_path, "--responders", "4,2,1",
                 "--out", str(res)]) == 0
    got = load_matrix(res).ravel()
    truth = A @ x
    assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)


def test_transform_error_decoder_mode(tmp_path):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 12))
    x = rng.standard_normal(12)
    a_path = _write_matrix(tmp_path / "A.csv", A)
    x_path = _write_matrix(tmp_path / "x.csv", x)
    out = tmp_path / "code"
    main(["encode", a_path, "--p", "6", "--k", "4", "--out", str(out)])
    res = tmp_path / "res.csv"
    assert main(["transform", str(out), x_path, "--error-decode", "1",
                 "--corrupt", "3:999.0", "--out", str(res)]) == 0
    got = load_matrix(res).ravel()
    truth = A @ x
    assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)


def test_transform_corrupts_before_the_responder_decode(small_problem, capsys):
    A, x, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    capsys.readouterr()
    runs = {}
    for corrupt in ([], ["--corrupt", "3:100"], ["--corrupt", "6:100"]):
        assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5", *corrupt]) == 0
        runs[tuple(corrupt)] = np.array(capsys.readouterr().out.split(), dtype=float)
    truth = A @ x
    assert np.linalg.norm(runs[()] - truth) <= 1e-8 * np.linalg.norm(truth)
    assert np.linalg.norm(runs[("--corrupt", "3:100")] - truth) > 1e-3  # worker 3 responded
    np.testing.assert_array_equal(runs[("--corrupt", "6:100")], runs[()])  # worker 6 did not


def test_transform_takes_responders_or_error_decode_not_both(small_problem, capsys):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "4", "--out", str(out)])
    capsys.readouterr()
    argv = ["transform", str(out), x_path, "--error-decode", "1", "--responders", "1,2"]
    assert _status(argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    cfg = tmp / "run.cfg"
    cfg.write_text("responders=1,2,3,4\n")
    assert main(["transform", str(out), x_path, "--error-decode", "1", "--config", str(cfg)]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_transform_needs_enough_responders(small_problem):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    assert main(["transform", str(out), x_path, "--responders", "1,2"]) == 2


@pytest.mark.parametrize("flags", [
    ["--responders", "1,2,3,4,7"],
    ["--responders", "0,1,2,3,4"],
    ["--error-decode", "0", "--corrupt", "7:1.0"],
    ["--error-decode", "0", "--corrupt", "0:1.0"],
])
def test_transform_rejects_worker_indices_outside_range(small_problem, capsys, flags):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    assert main(["transform", str(out), x_path, *flags]) == 2
    assert "outside 1..6" in capsys.readouterr().err


def test_transform_rejects_non_finite_x(small_problem):
    _, x, a_path, _, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    x = x.copy()
    x[3] = np.nan
    x_path = _write_matrix(tmp / "x_nan.csv", x)
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5"]) == 2


@pytest.mark.parametrize("tamper", ["supports", "F"])
def test_transform_rejects_tampered_transform(small_problem, tamper):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    if tamper == "supports":
        lines = (out / "supports.txt").read_text().splitlines()
        lines[0] = lines[1]
        (out / "supports.txt").write_text("\n".join(lines) + "\n")
    else:
        F = load_matrix(out / "F.csv")
        F[0, 0] = 1.0  # column 1 is zero at rows 1 and 2 for (6, 5, 3)
        save_matrix(out / "F.csv", F)
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5"]) == 2


@pytest.mark.parametrize("responders", ["1,2,3,4,5", "2,3,4,5,6"])
def test_transform_refuses_non_finite_f(small_problem, capsys, responders):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    F = load_matrix(out / "F.csv")
    F[0, np.flatnonzero(F[0])[0]] = np.nan  # on row 1's support
    save_matrix(out / "F.csv", F)
    capsys.readouterr()
    assert main(["transform", str(out), x_path, "--responders", responders]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_sweep_outputs_csv_and_plot_script(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--p", "6", "--n", "12", "--mu", "5", "--trials", "400",
                 "--seed", "1", "--m-range", "1:6", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["strategy"] for r in rows} == {"uncoded", "repetition", "mds", "short-dot"}
    for m in range(1, 7):
        cell = {r["strategy"]: float(r["analytic_E"]) for r in rows if int(r["M"]) == m}
        assert cell["short-dot"] <= min(cell.values()) + 1e-9
    plot = tmp_path / "sweep_plot.py"
    assert plot.exists()
    assert "sweep.csv" in plot.read_text()
    # linearity in N: doubling N doubles every analytic expectation
    out2 = tmp_path / "sweep2.csv"
    assert main(["sweep", "--p", "6", "--n", "24", "--mu", "5", "--trials", "0",
                 "--m-range", "1:6", "--out", str(out2)]) == 0
    with open(out2) as fh:
        rows2 = list(csv.DictReader(fh))
    for r1, r2 in zip(rows, rows2):
        assert float(r2["analytic_E"]) == pytest.approx(2 * float(r1["analytic_E"]), rel=1e-6)


def test_sweep_fixed_k_overrides_auto(tmp_path):
    out = tmp_path / "fixed.csv"
    assert main(["sweep", "--p", "6", "--n", "12", "--trials", "0", "--k", "5",
                 "--m-range", "1:5", "--strategy", "short-dot", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["K_used"] == "5" for r in rows)
    # fixed K below M is a validation error
    assert main(["sweep", "--p", "6", "--n", "12", "--trials", "0", "--k", "2",
                 "--m-range", "1:5", "--strategy", "short-dot",
                 "--out", str(tmp_path / "bad.csv")]) == 2


def test_sweep_csv_deterministic_for_fixed_config(tmp_path):
    args = ["sweep", "--p", "5", "--n", "10", "--mu", "5", "--trials", "300",
            "--seed", "7", "--m-range", "1:5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_encode_transform_round_trip_fuzz(tmp_path):
    rng = np.random.default_rng(99)
    out = tmp_path / "code"
    res = tmp_path / "res.csv"
    for case in range(100):
        P = int(rng.integers(2, 7))
        K = int(rng.integers(1, P + 1))
        M = int(rng.integers(1, K + 1))
        N_raw = int(rng.integers(M, 3 * P + 1))
        A = rng.standard_normal((M, N_raw))
        x = rng.standard_normal(N_raw)
        a_path = _write_matrix(tmp_path / "A.csv", A)
        x_path = _write_matrix(tmp_path / "x.csv", x)
        assert main(["encode", a_path, "--p", str(P), "--k", str(K),
                     "--out", str(out)]) == 0
        responders = ",".join(str(i) for i in rng.permutation(P) + 1)
        assert main(["transform", str(out), x_path, "--responders", responders,
                     "--out", str(res)]) == 0
        got = load_matrix(res).ravel()
        truth = A @ x
        assert np.linalg.norm(got - truth) <= 1e-8 * max(np.linalg.norm(truth), 1e-12)


def test_theorem4_table(tmp_path, capsys):
    out = tmp_path / "t4.csv"
    assert main(["theorem4", "--p-list", "1000,10000,100000", "--out", str(out)]) == 0
    comment = out.read_text().splitlines()[0]
    assert comment.startswith("#") and "no code is built or decoded" in comment
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    ratios = [float(r["ratio"]) for r in rows]
    sds = [float(r["short_dot_scaled"]) for r in rows]
    assert ratios == sorted(ratios) and len(set(ratios)) == 3
    assert sds == sorted(sds, reverse=True)


def test_bounds_report(capsys):
    assert main(["bounds", "--p", "6", "--k", "5", "--m", "3", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert "basic lower bound" in out
    assert ": 4" in out
    assert "budget" in out and "8" in out


@pytest.mark.parametrize("P, K, M, N_raw", [(20, 18, 10, 785), (6, 5, 1, 13)])
def test_bounds_prints_and_writes_the_bound_report(tmp_path, capsys, P, K, M, N_raw):
    # N_raw is no multiple of P: the bounds are those of a code of this size
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--p", str(P), "--k", str(K), "--m", str(M), "--n", str(N_raw),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    printed = dict((key.strip(), value) for key, _, value in
                   (line.partition(" : ") for line in text.splitlines()))
    p = validate_params(P, K, M, N_raw)
    code = encode(np.random.default_rng(1).standard_normal((M, N_raw)), build_generator(p), p)
    report = check_achievability(code)
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    fields = ["basic_bound", "tight_bound", "budget", "lambda_cap", "gap_ratio"]
    assert [float(row[f]) for f in fields] == [getattr(report, f) for f in fields]
    assert printed["basic lower bound on average row sparsity"] == f"{report.basic_bound:.6g}"
    assert printed["constructive budget s=(N/P)(P-K+M)"] == str(report.budget)
    assert printed["lambda cap M*C(P,K-M+1)"] == str(report.lambda_cap)
    assert printed["asymptotic gap ratio M^2 C(P,K-M+1)/N"] == f"{report.gap_ratio:.6g}"
    if M > 1:
        assert printed["tight lower bound (M>1)"] == f"{report.tight_bound:.6g}"
        assert [printed[k] for k in ("basic lower bound on average row sparsity",
                                     "tight lower bound (M>1)",
                                     "asymptotic gap ratio M^2 C(P,K-M+1)/N")] == [
            "117.75", "-839329", "21396.2"]
        # the gap is N-free: budget minus the tight bound, both at the padded N
        gap = Fraction(report.budget) - tight_lower_bound_exact(p.N, P, K, M)
        assert printed["N-free gap, budget - tight at equal N"] == f"{float(gap):.6g} (exact {gap})"
        assert gap == 839800
    else:
        # at M = 1 the basic bound sits below the budget: nothing is called tight
        assert printed["tight lower bound (M>1)"] == "n/a (M=1)"
        assert report.basic_bound < report.budget and "is tight" not in text


def test_experiment_sec6_ordering(tmp_path, capsys):
    out = tmp_path / "sec6.csv"
    assert main(["experiment-sec6", "--trials", "20000", "--seed", "0",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "simulated" in text
    assert "confirmed" in text
    with open(out) as fh:
        rows = {r["strategy"]: float(r["mc_mean"]) for r in csv.DictReader(fh)}
    assert rows["short-dot"] < rows["uncoded"] < rows["mds"]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=6\nk=5\nm=3\nn=12\n")
    assert main(["bounds", "--config", str(cfg)]) == 0
    assert "P=6 K=5 M=3" in capsys.readouterr().out
    assert main(["bounds", "--config", str(cfg), "--k", "4"]) == 0
    assert "P=6 K=4 M=3" in capsys.readouterr().out


def test_exit_code_validation_error(tmp_path):
    a_path = _write_matrix(tmp_path / "A.csv", np.ones((3, 4)))
    assert main(["encode", a_path, "--p", "4", "--k", "2", "--out",
                 str(tmp_path / "c")]) == 2  # M=3 > K=2


@pytest.mark.parametrize("flags", [
    ["--seed", "9"],  # the default kind is Vandermonde
    ["--kind", "gaussian", "--seed", "2", "--nodes", "1,2,3,4,5,6"],
], ids=["seed-on-vandermonde", "nodes-on-gaussian"])
def test_encode_refuses_the_generator_flag_of_the_other_kind(tmp_path, flags):
    # params.txt records the seed or the nodes, never both, so the
    # other flag is refused instead of being dropped
    a_path = _write_matrix(tmp_path / "A.csv", np.ones((3, 12)))
    out = tmp_path / "c"
    assert main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)] + flags) == 2
    assert not out.exists()


def test_exit_code_io_error(tmp_path):
    assert main(["encode", str(tmp_path / "missing.csv"), "--p", "4", "--k", "3",
                 "--out", str(tmp_path / "c")]) == 4


def test_exit_code_numerical_error(tmp_path):
    a_path = _write_matrix(tmp_path / "A.csv", np.ones((1, 8)))
    assert main(["encode", a_path, "--p", "4", "--k", "3",
                 "--nodes", "0.5,0.5000000000000001,-0.5,-0.7",
                 "--out", str(tmp_path / "c")]) == 3


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_encode_refuses_non_finite_nodes(tmp_path, capsys, bad):
    # a bad node is a usage error (exit 2) named as such, not a failed
    # SVD or an infinite condition number (exit 3)
    a_path = _write_matrix(tmp_path / "A.csv", np.ones((3, 12)))
    out = tmp_path / "c"
    assert main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out),
                 f"--nodes={bad},0.1,0.2,0.3,0.4,0.5"]) == 2
    assert "Vandermonde nodes must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--p", "6", "--n", "12", "--m-range", "1:3", "--trials", "10",
     "--seed", str(2**64 - 2)],  # the third row would need seed 2**64
    ["sweep", "--p", "6", "--n", "12", "--trials", "10", "--seed", "-1"],
    ["experiment-sec6", "--trials", "10", "--seed", str(2**64 - 2)],
])
def test_seeds_past_64_bits_are_refused_up_front(tmp_path, capsys, argv):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 2
    assert "2**64" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--p", "6", "--n", "12", "--trials", "-5"],
    ["experiment-sec6", "--trials", "-5"],
])
def test_negative_trials_are_refused_up_front(tmp_path, capsys, argv):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "--trials" in err and out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("mu", ["inf", "nan", "0", "-1"])
def test_sweep_refuses_a_mu_that_is_not_positive_and_finite(tmp_path, capsys, mu):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p", "6", "--n", "12", "--mu", mu, "--m-range", "4:4", "--out", str(out)]
    assert main(argv) == 2
    assert "mu must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_zero_trials_sweep_has_no_monte_carlo(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--p", "6", "--n", "12", "--trials", "0", "--out", str(out)]) == 0
    with open(out) as fh:
        assert all(row["mc_mean"] == "nan" for row in csv.DictReader(fh))


def test_scipy_is_never_imported(tmp_path):
    code = ("import sys, shortdot, shortdot.cli\n"
            "assert shortdot.cli.main(['sweep', '--p', '12', '--trials', '0',"
            " '--out', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sweep.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_last_64_bit_seed_is_accepted(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--p", "6", "--n", "12", "--m-range", "1:3", "--trials", "10",
                 "--seed", str(2**64 - 3), "--out", str(out)]) == 0


def test_sweep_refuses_an_empty_m_range_before_any_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    for m_range in ("5:3", "4:3"):
        argv = ["sweep", "--p", "10", "--trials", "0", "--m-range", m_range, "--out", str(out)]
        assert _status(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and "--m-range" in err and "empty" in err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["experiment-sec6", "--trials", "0"], "--trials must be >= 1, got 0"),
    (["sweep", "--p", "0", "--out", "sweep.csv"], "--p must be >= 1, got 0"),
    (["sweep", "--p", "-2", "--trials", "5", "--out", "sweep.csv"], "--p must be >= 1, got -2"),
])
def test_refusals_come_before_any_output(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("p_list", ["3,4", "1000,4", "2"])
def test_theorem4_refuses_p_whose_rounding_is_no_code(capsys, p_list):
    assert main(["theorem4", "--p-list", p_list]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "theorem-4 regime needs" in err and "P=" in err


def test_malformed_thread_count_exits_2_before_any_output(monkeypatch, capsys):
    monkeypatch.setenv("SHORTDOT_THREADS", "two")
    assert main(["experiment-sec6", "--trials", "10"]) == 2
    out, err = capsys.readouterr()
    assert "SHORTDOT_THREADS" in err and out == ""


def _status(argv):
    """Exit status of the CLI, including argparse's own exit on bad flags."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flags", [
    ["--p", "8", "--n", "16", "--s", "4", "--m-range", "2:2", "--strategy", "repetition"],
    ["--p", "10", "--n", "23", "--s", "10", "--m-range", "1:3", "--strategy", "repetition"],
    ["--p", "6", "--n", "13", "--m-range", "2:3", "--strategy", "short-dot"],
])
def test_sweep_analytic_matches_monte_carlo_of_the_same_plan(tmp_path, flags):
    # --s block repetition, and short-dot with N padded up to a multiple of P
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--trials", "200000", "--out", str(out)]) == 0
    with open(out) as fh:
        for row in csv.DictReader(fh):
            err = abs(float(row["analytic_E"]) - float(row["mc_mean"]))
            assert err <= 4 * float(row["mc_stderr"]), row


@pytest.mark.parametrize("argv", [
    ["selftest", "--p", "3"],
    ["transform", "code", "x.csv", "--mu", "5"],
    ["theorem4", "--trials", "5"],
    ["bounds", "--p", "6", "--k", "5", "--m", "3", "--n", "12", "--seed", "1"],
    ["sweep", "--p", "6", "--m", "3", "--out", "s.csv"],
    ["encode", "A.csv", "--p", "6", "--k", "5", "--out", "c", "--s", "4"],  # not --seed
    ["encode", "A.csv", "--p", "6", "--k", "5", "--out", "c", "--m", "3"],
    ["encode", "A.csv", "--p", "6", "--k", "5", "--out", "c", "--method", "poly"],
    ["transform", "code", "x.csv", "--responders", "1,2,3,4,5", "--method", "poly"],
])
def test_flags_a_subcommand_does_not_read_are_refused(argv, capsys):
    assert _status(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    # each row: `subcommand ARGS` | `--flag`, ... (required); `--flag`, ...
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        row = re.fullmatch(r"\s*\| `([\w-]+)[^`]*` \| (.*) \|", line)
        if row:
            required, _, optional = row[2].rpartition("(required)")
            table[row[1]] = (set(re.findall(r"`(--[\w-]+)`", required)),
                             set(re.findall(r"`(--[\w-]+)`", optional)))
    parsed = {}
    for name, sub in build_parser()[1].items():
        flags = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
        parsed[name] = ({o for a in flags if a.required for o in a.option_strings},
                        {o for a in flags if not a.required for o in a.option_strings})
    assert table == parsed


def test_config_key_that_names_no_flag_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu=5\n")
    assert _status(["bounds", "--config", str(cfg), "--p", "6", "--k", "5",
                    "--m", "3", "--n", "12"]) == 2
    assert "'mu'" in capsys.readouterr().err
    cfg.write_text("p=6\n")
    assert _status(["selftest", "--config", str(cfg)]) == 2


def test_sweep_config_values(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "sweep.csv"
    cfg.write_text(f"p=6\nn=12\nk=auto\nm-range=2:3\nstrategy=short-dot,mds\n"
                   f"trials=0\nout={out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    with open(out) as fh:
        rows = [(r["M"], r["strategy"], r["K_used"]) for r in csv.DictReader(fh)]
    auto_k = [int(k) for _, name, k in rows if name == "short-dot"]
    assert rows == [("2", "short-dot", str(auto_k[0])), ("2", "mds", "2"),
                    ("3", "short-dot", str(auto_k[1])), ("3", "mds", "3")]
    # flags win: --strategy replaces the config list, --k the config k
    assert main(["sweep", "--config", str(cfg), "--strategy", "uncoded",
                 "--k", "5"]) == 0
    with open(out) as fh:
        assert [(r["M"], r["strategy"]) for r in csv.DictReader(fh)] == [
            ("2", "uncoded"), ("3", "uncoded")]
    with open(tmp_path / "sweep_plot.py") as fh:
        assert "sweep.csv" in fh.read()


def test_missing_config_file_is_an_io_error(tmp_path):
    assert main(["theorem4", "--config", str(tmp_path / "missing.cfg")]) == 4


def test_transform_reports_missing_params_key(small_problem, capsys):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    params_txt = out / "params.txt"
    lines = params_txt.read_text().splitlines()
    params_txt.write_text("\n".join(l for l in lines if not l.startswith("M=")) + "\n")
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5"]) == 2
    assert "no M= line" in capsys.readouterr().err


@pytest.mark.parametrize("ztol", ["nan", "inf", "-1"])
def test_transform_refuses_bad_zero_tolerance(small_problem, capsys, ztol):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    params_txt = out / "params.txt"
    lines = params_txt.read_text().splitlines()
    params_txt.write_text("\n".join(f"zero_tolerance={ztol}" if l.startswith("zero_tolerance=")
                                    else l for l in lines) + "\n")
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5"]) == 2
    assert "zero_tolerance must be finite" in capsys.readouterr().err


def test_transform_refuses_a_params_line_without_equals(small_problem, capsys):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    with open(out / "params.txt", "a") as fh:
        fh.write("# a comment line is fine\nkind vandermonde\n")
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5"]) == 2
    assert "'kind vandermonde'" in capsys.readouterr().err


def test_transform_refuses_a_generator_that_does_not_reproduce_f(small_problem, capsys):
    _, _, a_path, x_path, tmp = small_problem
    out = tmp / "code"
    main(["encode", a_path, "--p", "6", "--k", "5", "--out", str(out)])
    lines = (out / "params.txt").read_text().splitlines()
    nodes = [float(tok) for line in lines if line.startswith("nodes=")
             for tok in line[len("nodes="):].split(",")]
    nodes[0] += 1e-3
    (out / "params.txt").write_text("".join(
        ("nodes=" + ",".join("%.17g" % h for h in nodes) if line.startswith("nodes=")
         else line) + "\n" for line in lines))
    capsys.readouterr()
    assert main(["transform", str(out), x_path, "--responders", "1,2,3,4,5"]) == 2
    out_text, err = capsys.readouterr()
    assert "not encoded by its vandermonde generator" in err and out_text == ""


@pytest.mark.parametrize("flags, message", [
    (["--p", "10", "--m-range", "1:11"], "need 1 <= M <= P, got M=11"),
    (["--p", "10", "--m-range", "1:10", "--k", "5"], "need M <= K"),
    (["--p", "10", "--strategy", "short-dot,bogus"], "unknown strategy 'bogus'"),
    (["--p", "10", "--s", "0"], "target length s=0 outside 1..1000"),
    (["--p", "10", "--n", "95", "--s", "101"], "target length s=101 outside 1..100"),
], ids=["m-above-p", "fixed-k-below-m", "unknown-strategy", "s-zero", "s-above-n"])
def test_sweep_checks_its_whole_grid_before_any_monte_carlo(tmp_path, monkeypatch, capsys,
                                                            flags, message):
    calls = []
    monkeypatch.setattr("shortdot.cli.monte_carlo", lambda *args: calls.append(args))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--trials", "200000", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_zero_trials_sweep_checks_no_monte_carlo_input(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p", "3", "--trials", "0", "--out", str(out)]
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0
    monkeypatch.setenv("SHORTDOT_THREADS", "two")
    assert main(argv) == 0
    out.unlink()
    assert main(["sweep", "--p", "3", "--trials", "-1", "--out", str(out)]) == 2
    assert "--trials must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_readme_cli_examples_run_as_written(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("shortdot ")]
    assert len(commands) >= 8
    rng = np.random.default_rng(11)
    _write_matrix(tmp_path / "A.csv", rng.standard_normal((3, 12)))
    _write_matrix(tmp_path / "x.csv", rng.standard_normal(12))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
