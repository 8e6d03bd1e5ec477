import dataclasses
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from shortdot import (
    COND_LIMIT,
    ConditioningError,
    DecodingError,
    EncodedTransform,
    WorkerOutput,
    build_generator,
    decode,
    decode_with_errors,
    encode,
    run_workers,
    supports_from_pattern,
    validate_params,
    verify_generator,
    zero_mask,
)
import shortdot.coding as coding
from shortdot.generator import CONDITION_MEMO_CAP, check_condition


# --- zero pattern ------------------------------------------------------------


def test_zero_mask_examples():
    mask = zero_mask(validate_params(4, 3, 1, 8))
    assert set(np.flatnonzero(mask[:, 0]) + 1) == {1, 2}
    assert set(np.flatnonzero(mask[:, 3]) + 1) == {4, 1}  # wraps cyclically
    assert not zero_mask(validate_params(6, 3, 3, 12)).any()


def test_pattern_counts():
    # every row appears in exactly (K-M)*N/P of the zero sets, so every
    # row has exactly s allowed-nonzero positions
    for (P, K, M, N_raw) in [(4, 3, 1, 8), (6, 5, 3, 12), (5, 4, 2, 15), (7, 7, 2, 14)]:
        p = validate_params(P, K, M, N_raw)
        mask = zero_mask(p)
        assert mask.shape == (P, p.N)
        per_column = mask.sum(axis=0)
        assert np.all(per_column == K - M)
        per_row_allowed = (~mask).sum(axis=1)
        assert np.all(per_row_allowed == p.s)
        for i, sup in enumerate(supports_from_pattern(p)):
            assert len(sup) == p.s
            assert not mask[i, sup - 1].any()


# --- generator ---------------------------------------------------------------


def test_vandermonde_entries_match_node_powers():
    p = validate_params(3, 2, 1, 3)
    gen = build_generator(p, nodes=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(gen.entries, [[1, 1], [2, 1], [3, 1]])
    p2 = validate_params(2, 2, 1, 2)
    gen2 = build_generator(p2, nodes=[0.0, 1.0])
    np.testing.assert_array_equal(gen2.entries, [[0, 1], [1, 1]])


def test_vandermonde_rejects_duplicate_nodes():
    p = validate_params(3, 2, 1, 3)
    with pytest.raises(ValueError):
        build_generator(p, nodes=[1.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vandermonde_rejects_non_finite_nodes(bad):
    p = validate_params(3, 2, 1, 3)
    with pytest.raises(ValueError, match="Vandermonde nodes must be finite"):
        build_generator(p, nodes=[bad, 1.0, 2.0])


def test_gaussian_requires_seed_and_has_invertible_minors():
    p = validate_params(8, 5, 3, 16)
    with pytest.raises(ValueError):
        build_generator(p, kind="gaussian")
    gen = build_generator(p, kind="gaussian", seed=7)
    # independent oracle: every C(8,5) K x K determinant is bounded away
    # from zero, likewise the tail submatrices
    for rows in combinations(range(8), 5):
        assert abs(np.linalg.det(gen.entries[list(rows), :])) > 1e-12
    for rows in combinations(range(8), 2):
        assert abs(np.linalg.det(gen.entries[list(rows), 3:])) > 1e-12
    verify_generator(gen, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_condition_is_the_cond_gate():
    rng = np.random.default_rng(21)
    mats = [rng.standard_normal((n, n)) for n in (1, 2, 5, 18)]
    for log_cond in (2, 7, 7.9, 8.1, 9, 12, 17):  # around COND_LIMIT = 1e8
        Q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        Q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mats.append(Q1 @ np.diag(np.logspace(0, -log_cond, 6)) @ Q2)
    B = build_generator(validate_params(20, 18, 10, 20)).entries
    mats += [B[:18], B[2:], B[::2][:, 10:]]
    mats += [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])]
    for mat in mats:
        c = np.linalg.cond(mat)
        if np.isfinite(c) and c <= COND_LIMIT:
            got = check_condition(mat)
            assert np.float64(got).tobytes() == c.tobytes()  # bit for bit
        else:
            with pytest.raises(ConditioningError, match=re.escape(f"condition {c:.3e} exceeds")):
                check_condition(mat)
    with pytest.raises(ConditioningError, match="condition inf exceeds"):
        check_condition(np.zeros((4, 4)))
    with_inf = np.eye(3)
    with_inf[0, 1] = np.inf
    assert np.linalg.cond(with_inf) == np.inf
    with pytest.raises(ConditioningError, match="condition inf exceeds"):
        check_condition(with_inf)
    with_nan = np.eye(3)
    with_nan[2, 0] = np.nan
    for gate in (np.linalg.cond, check_condition):
        with pytest.raises(np.linalg.LinAlgError):
            gate(with_nan)


def test_generator_arrays_are_read_only_and_replace_starts_an_empty_memo():
    p = validate_params(6, 5, 3, 12)
    nodes = np.linspace(-0.9, 0.9, 6)
    gen = build_generator(p, nodes=nodes)
    nodes[0] = 5.0  # the caller's array stays theirs and writable
    assert gen.nodes[0] == -0.9
    for arr in (gen.entries, gen.nodes):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    gen.condition(np.arange(1, 6))
    assert len(gen._conditions) == 1
    other = dataclasses.replace(gen, entries=gen.entries[::-1].copy())
    assert other._conditions == {} and not other.entries.flags.writeable
    assert other.condition(np.arange(1, 6)) == np.linalg.cond(other.entries[:5])
    assert gen == dataclasses.replace(gen)  # the memo takes no part in ==


def test_verify_generator_refuses_huge_enumerations():
    p = validate_params(40, 20, 10, 40)
    gen = build_generator(p)
    with pytest.raises(ValueError):
        verify_generator(gen, p)


# --- appended rows ----------------------------------------------------------


def test_encode_without_appended_rows_is_the_plain_product():
    p = validate_params(3, 2, 2, 3)
    gen = build_generator(p, nodes=[1.0, 2.0, 3.0])
    A = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(encode(A, gen, p).F, gen.entries @ A)


def test_encode_appended_row_hand_example():
    # B = [[1, 1], [2, 1], [3, 1]]: column 1 appends z = -5, so that
    # 1*5 + 1*z = 0 on its zero row, and F[:, 0] = B @ [5, -5]
    p = validate_params(3, 2, 1, 3)
    gen = build_generator(p, nodes=[1.0, 2.0, 3.0])
    code = encode([[5.0, 0.0, 0.0]], gen, p)
    np.testing.assert_allclose(code.F[:, 0], [0.0, 5.0, 10.0])
    np.testing.assert_array_equal(code.F[:, 1:], 0.0)


def test_encode_appended_rows_nullify_each_window():
    rng = np.random.default_rng(1)
    p = validate_params(6, 5, 2, 12)
    gen = build_generator(p)
    B = gen.entries
    A = rng.standard_normal((2, 12))
    A_tilde = np.linalg.solve(B[: p.K], encode(A, gen, p).F[: p.K])
    mask = zero_mask(p)
    for j in range(p.N):
        U = np.flatnonzero(mask[:, j])
        z = -np.linalg.solve(B[U][:, p.M:], B[U][:, : p.M] @ A[:, j])
        np.testing.assert_allclose(A_tilde[p.M:, j], z, atol=1e-10)
        # the pattern residual before encode snaps it to zero
        np.testing.assert_allclose(B[U] @ np.concatenate([A[:, j], z]), 0.0, atol=1e-12)


# --- encode ------------------------------------------------------------------


def test_encode_zero_matrix_keeps_pattern_supports():
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    code = encode(np.zeros((3, 12)), gen, p)
    assert np.all(code.F == 0.0)
    assert all(len(sup) == p.s for sup in code.supports)


def test_encode_row_sparsity_within_budget():
    rng = np.random.default_rng(2)
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    code = encode(rng.standard_normal((3, 12)), gen, p)
    nonzeros = (np.abs(code.F) > code.zero_tolerance).sum(axis=1)
    assert np.all(nonzeros <= 8)


def test_encode_pattern_zeros_and_factorization():
    rng = np.random.default_rng(3)
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    A = rng.standard_normal((2, 8))
    code = encode(A, gen, p)
    # enforced zeros, column by column against the window oracle
    assert np.all(code.F[zero_mask(p)] == 0.0)
    # F = B @ A_tilde for an augmentation whose top rows are A itself:
    # recover A_tilde from any K rows and check both properties
    B = gen.entries
    A_tilde = np.linalg.solve(B[: p.K], code.F[: p.K])
    np.testing.assert_allclose(B @ A_tilde, code.F, atol=1e-10 * np.max(np.abs(code.F)))
    np.testing.assert_allclose(A_tilde[: p.M], A, atol=1e-10)


def test_encode_linearity():
    rng = np.random.default_rng(4)
    p = validate_params(5, 4, 2, 10)
    gen = build_generator(p)
    A = rng.standard_normal((2, 10))
    F1 = encode(A, gen, p).F
    F2 = encode(2.5 * A, gen, p).F
    np.testing.assert_allclose(F2, 2.5 * F1, rtol=1e-12, atol=1e-12 * np.max(np.abs(F1)))


def test_encode_special_cases_sparsity():
    rng = np.random.default_rng(5)
    dense = validate_params(5, 3, 3, 10)  # K = M: the dense MDS regime
    assert dense.s == dense.N
    gen = build_generator(dense)
    code = encode(rng.standard_normal((3, 10)), gen, dense)
    assert all(len(sup) == dense.N for sup in code.supports)

    uncoded_like = validate_params(5, 5, 1, 10)  # K = P, M = 1
    assert uncoded_like.s == uncoded_like.N // uncoded_like.P
    gen2 = build_generator(uncoded_like)
    code2 = encode(rng.standard_normal((1, 10)), gen2, uncoded_like)
    assert all(len(sup) == 2 for sup in code2.supports)


def test_encode_shape_mismatch():
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    with pytest.raises(ValueError):
        encode(np.zeros((3, 8)), gen, p)


def test_encode_rejects_near_singular_generator():
    p = validate_params(4, 3, 1, 8)
    nodes = [0.5, 0.5 + 1e-14, -0.5, -0.7]
    gen = build_generator(p, nodes=nodes)
    with pytest.raises(ConditioningError):
        encode(np.ones((1, 8)), gen, p)


def test_encode_deterministic():
    rng = np.random.default_rng(6)
    p = validate_params(6, 4, 2, 18)
    gen = build_generator(p)
    A = rng.standard_normal((2, 18))
    assert np.array_equal(encode(A, gen, p).F, encode(A, gen, p).F)


# --- workers -----------------------------------------------------------------


def test_run_workers_hand_example():
    # (P, K, M, N_raw) = (4, 3, 1, 6) pads to N = 8; row i of F holds
    # 1, 2, 3, 4 on its support, so each value is a hand-summed short dot
    p = validate_params(4, 3, 1, 6)
    F = np.zeros((4, 8))
    sups = [[2, 3, 6, 7], [3, 4, 7, 8], [1, 4, 5, 8], [1, 2, 5, 6]]
    for i, sup in enumerate(sups):
        F[i, np.asarray(sup) - 1] = [1.0, 2.0, 3.0, 4.0]
    code = EncodedTransform(F=F, generator=build_generator(p), params=p, zero_tolerance=0.0)
    np.testing.assert_array_equal(code.supports, sups)
    outs = run_workers(code, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert outs == [WorkerOutput(1, 26.0), WorkerOutput(2, 11.0),
                    WorkerOutput(3, 24.0), WorkerOutput(4, 44.0)]
    assert [o.value for o in run_workers(code, np.arange(1.0, 9.0))] == [54.0, 64.0, 56.0, 44.0]
    assert [o.value for o in run_workers(code, np.zeros(6))] == [0.0] * 4
    with pytest.raises(ValueError):
        run_workers(code, np.ones(7))


def test_worker_records_are_named_tuples():
    out = WorkerOutput(3, 1.5)
    assert out == (3, 1.5) == WorkerOutput(index=3, value=1.5)
    assert (out.index, out.value) == (3, 1.5)
    with pytest.raises(AttributeError):
        out.value = 2.0
    with pytest.raises(TypeError):
        out[1] = 2.0
    rng = np.random.default_rng(9)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    tasks = code.worker_tasks()
    assert [t.index for t in tasks] == list(range(1, 7))
    for t, sup, coef in zip(tasks, code.supports, code.coefficients):
        assert isinstance(t, tuple)
        np.testing.assert_array_equal(t.support, sup)
        np.testing.assert_array_equal(t.coefficients, coef)
        np.testing.assert_array_equal(t.coefficients, code.F[t.index - 1, sup - 1])


def test_run_workers_accepts_padded_or_raw_length_only():
    rng = np.random.default_rng(16)
    p = validate_params(4, 3, 2, 10)  # pads to 12
    gen = build_generator(p)
    code = encode(rng.standard_normal((2, 10)), gen, p)
    raw = rng.standard_normal(10)
    padded = np.concatenate([raw, np.zeros(2)])
    v1 = [o.value for o in run_workers(code, raw)]
    v2 = [o.value for o in run_workers(code, padded)]
    np.testing.assert_array_equal(v1, v2)
    with pytest.raises(ValueError):
        run_workers(code, rng.standard_normal(11))


def test_workers_reproduce_dense_product():
    rng = np.random.default_rng(7)
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    A = rng.standard_normal((3, 12))
    x = rng.standard_normal(12)
    code = encode(A, gen, p)
    outs = run_workers(code, x)
    np.testing.assert_allclose([o.value for o in outs], code.F @ x, rtol=1e-12)


# (30, 25, 10, 3000) is Gaussian only: the encode gate refuses a
# Vandermonde generator there.
@pytest.mark.parametrize("kind, P, K, M, N_raw", [
    (kind, *size)
    for size in [(20, 18, 10, 785), (6, 5, 3, 12), (12, 9, 4, 100)]
    for kind in ("vandermonde", "gaussian")
] + [("gaussian", 30, 25, 10, 3000)])
def test_workers_are_exact_short_dots(kind, P, K, M, N_raw):
    rng = np.random.default_rng(17)
    p = validate_params(P, K, M, N_raw)
    gen = build_generator(p, kind, seed=5 if kind == "gaussian" else None)
    code = encode(rng.standard_normal((M, N_raw)), gen, p)
    allowed = ~zero_mask(p)
    for n in sorted({N_raw, p.N}):
        x = rng.standard_normal(n)
        xp = np.concatenate([x, np.zeros(p.N - n)])
        for i, out in enumerate(run_workers(code, x)):
            S = np.flatnonzero(allowed[i])
            assert out.index == i + 1
            assert out.value == code.F[i, S] @ xp[S]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_rejected(bad):
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    A = np.ones((3, 12))
    A[1, 4] = bad
    with pytest.raises(ValueError):
        encode(A, gen, p)
    x = np.ones(12)
    x[7] = bad
    with pytest.raises(ValueError):
        run_workers(encode(np.ones((3, 12)), gen, p), x)
    F = encode(np.ones((3, 12)), gen, p).F.copy()
    F[0, np.flatnonzero(F[0])[0]] = bad  # on row 1's support
    with pytest.raises(ValueError, match="non-finite"):
        EncodedTransform(F=F, generator=gen, params=p, zero_tolerance=0.0)


# --- decode ------------------------------------------------------------------


def test_decode_zero_input():
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    code = encode(np.ones((2, 8)), gen, p)
    outs = run_workers(code, np.zeros(8))
    np.testing.assert_array_equal(decode(outs[:3], gen, p), np.zeros(2))


def test_decode_every_subset_matches_dense_oracle():
    rng = np.random.default_rng(8)
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    A = rng.standard_normal((2, 8))
    x = rng.standard_normal(8)
    truth = A @ x
    outs = run_workers(encode(A, gen, p), x)
    results = []
    for subset in combinations(outs, 3):
        got = decode(subset, gen, p)
        assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)
        results.append(got)
    # decode invariance: identical answer no matter which workers respond
    for got in results[1:]:
        assert np.linalg.norm(got - results[0]) <= 1e-10 * np.linalg.norm(results[0])


def test_decode_k_equals_m_is_plain_mds_decode():
    rng = np.random.default_rng(9)
    p = validate_params(5, 2, 2, 10)
    gen = build_generator(p)
    A = rng.standard_normal((2, 10))
    x = rng.standard_normal(10)
    outs = run_workers(encode(A, gen, p), x)
    subset = [outs[1], outs[4]]
    got = decode(subset, gen, p)
    # oracle: textbook MDS decode, an M x M solve on the generator rows
    BV = gen.entries[[1, 4], :]
    v = np.array([o.value for o in subset])
    np.testing.assert_allclose(got, np.linalg.solve(BV, v)[:2], rtol=1e-10)


@pytest.mark.parametrize("kind", ["vandermonde", "gaussian"])
def test_decode_is_the_solve_on_responder_rows(kind):
    rng = np.random.default_rng(11)
    p = validate_params(20, 18, 10, 785)
    gen = build_generator(p, kind, seed=5 if kind == "gaussian" else None)
    outs = run_workers(encode(rng.standard_normal((10, 785)), gen, p), rng.standard_normal(785))
    for _ in range(5):
        # responders in finishing order, not sorted by index
        finished = np.argsort(rng.exponential(size=20))[:18] + 1
        v = np.array([outs[i - 1].value for i in finished])
        expected = np.linalg.solve(gen.entries[finished - 1], v)[:10]
        np.testing.assert_array_equal(decode([outs[i - 1] for i in finished], gen, p), expected)


@pytest.mark.parametrize("kind", ["vandermonde", "gaussian"])
def test_decode_gate_belongs_to_the_responder_set(kind):
    rng = np.random.default_rng(17)
    p = validate_params(20, 18, 10, 785)
    gen = build_generator(p, kind, seed=6 if kind == "gaussian" else None)
    outs = run_workers(encode(rng.standard_normal((10, 785)), gen, p), rng.standard_normal(785))
    for subset in combinations(range(1, 21), 18):
        expected_c = np.linalg.cond(gen.entries[np.asarray(subset) - 1])
        verdicts = []
        for _ in range(2):
            idx = rng.permutation(subset)
            v = np.array([outs[i - 1].value for i in idx])
            assert gen.condition(idx) == expected_c
            try:
                got = decode([outs[i - 1] for i in idx], gen, p)
            except ConditioningError as exc:
                verdicts.append(str(exc))
            else:
                verdicts.append("accepted")
                np.testing.assert_array_equal(got, np.linalg.solve(gen.entries[idx - 1], v)[:10])
        assert verdicts[0] == verdicts[1]
    assert len(gen._conditions) == 190


def test_a_refused_responder_set_is_refused_again_in_any_order():
    p = validate_params(6, 5, 3, 12)
    nodes = [-0.9, -0.5, 0.0, 0.5, 0.9, 0.9 + 1e-9]  # rows 5 and 6 nearly equal
    pairs = [(i, float(i)) for i in (6, 1, 5, 2, 3)]
    message = None
    for order in (pairs, pairs[::-1]):
        gen = build_generator(p, nodes=nodes)
        for listing in (order, order[::-1], order):
            with pytest.raises(ConditioningError, match="solve rejected: condition") as exc:
                decode(listing, gen, p)
            message = message or str(exc.value)
            assert str(exc.value) == message
        assert len(gen._conditions) == 1
    assert decode(pairs[1:] + [(4, 4.0)], gen, p).shape == (3,)  # rows 1..5 decode
    # build_generator refuses a NaN node, so the NaN rows are set directly
    bad = np.array(nodes[:5] + [np.nan])
    gen = dataclasses.replace(gen, entries=np.vander(bad, p.K), nodes=bad)
    for _ in range(2):  # a NaN SVD is raised each time, never memoized
        with pytest.raises(np.linalg.LinAlgError):
            decode(pairs, gen, p)
    assert gen._conditions == {}


def test_condition_memo_stays_bounded_where_sets_never_repeat():
    gen = build_generator(validate_params(100, 80, 40, 100))
    rng = np.random.default_rng(18)
    sets = [rng.choice(100, 80, replace=False) + 1 for _ in range(5000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for idx in sets:
            gen.condition(idx)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(gen._conditions) <= CONDITION_MEMO_CAP
    assert growth < 1 << 20


@pytest.mark.parametrize("bad, tries", [(1, 11), (4, 2)])
def test_decodes_solve_through_guarded_solve(monkeypatch, bad, tries):
    calls = []
    solve = coding.guarded_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(coding, "guarded_solve", counted)
    rng = np.random.default_rng(19)
    p = validate_params(6, 4, 2, 12)
    gen = build_generator(p)
    outs = run_workers(encode(rng.standard_normal((2, 12)), gen, p), rng.standard_normal(12))
    assert not calls  # encode gates each window with check_condition, then solves
    decode(outs[2:], gen, p)
    assert len(calls) == 1
    # lexicographic subsets: every one that holds worker `bad` is tried
    # and fails, then the first clean one wins
    outs[bad - 1] = WorkerOutput(bad, outs[bad - 1].value + 1000.0)
    calls.clear()
    decode_with_errors(outs, 1, gen, p)
    assert len(calls) == tries


def test_decode_validates_inputs():
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    code = encode(np.ones((2, 8)), gen, p)
    outs = run_workers(code, np.ones(8))
    with pytest.raises(ValueError):
        decode(outs[:2], gen, p)  # too few
    with pytest.raises(ValueError):
        decode([outs[0], outs[0], outs[1]], gen, p)  # duplicates
    with pytest.raises(ValueError):
        decode([WorkerOutput(9, 1.0), outs[0], outs[1]], gen, p)  # bad index
    with pytest.raises(ValueError):
        decode([outs[0], outs[1], (3, outs[2].value, 0.0)], gen, p)  # not a pair
    with pytest.raises(ValueError, match="need exactly 3 outputs, got 0"):
        decode([], gen, p)
    with pytest.raises(ValueError, match="need exactly 4 outputs, got 0"):
        decode_with_errors([], 0, gen, p)


@pytest.mark.parametrize("P, K", [(7, 5), (6, 4), (6, 6)], ids=["P", "K-below", "K-above"])
@pytest.mark.parametrize("call", ["encode", "decode", "decode_with_errors"])
def test_codec_refuses_a_generator_of_another_shape(call, P, K):
    # unchecked, a (7, 5) generator decodes (6,5,3,12) outputs without an
    # error and misses A @ x by a relative error of 2.17
    p = validate_params(6, 5, 3, 12)
    other = build_generator(validate_params(P, K, min(K, 3), 12))
    A = np.random.default_rng(3).standard_normal((3, 12))
    outs = run_workers(encode(A, build_generator(p), p), np.ones(12))
    run = {
        "encode": lambda: encode(A, other, p),
        "decode": lambda: decode(outs[:5], other, p),
        "decode_with_errors": lambda: decode_with_errors(outs, 0, other, p),
    }[call]
    with pytest.raises(ValueError, match=rf"generator shape \({P}, {K}\) != \(6, 5\)"):
        run()


def test_decode_accepts_index_value_pairs():
    rng = np.random.default_rng(10)
    p = validate_params(6, 4, 2, 12)
    gen = build_generator(p)
    A = rng.standard_normal((2, 12))
    x = rng.standard_normal(12)
    outs = run_workers(encode(A, gen, p), x)
    pairs = [(o.index, o.value) for o in outs]
    np.testing.assert_allclose(decode(pairs[2:], gen, p), A @ x, rtol=1e-10)
    outs[1] = WorkerOutput(2, outs[1].value + 1000.0)  # for the error decode
    pairs[1] = (2, outs[1].value)
    mixed = [o if o.index % 2 else (o.index, o.value) for o in outs]
    for listing in (pairs, mixed):
        assert np.array_equal(decode(listing[2:], gen, p), decode(outs[2:], gen, p))
        assert np.array_equal(decode_with_errors(listing, 1, gen, p),
                              decode_with_errors(outs, 1, gen, p))


@pytest.mark.parametrize("bad", [2.9, 1.5, np.inf, -np.inf, np.nan])
def test_decode_refuses_an_index_that_is_not_a_whole_number(bad):
    # truncating 2.9 to worker 2 would decode the wrong product and raise nothing
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    A = np.random.default_rng(0).standard_normal((3, 12))
    x = np.random.default_rng(1).standard_normal(12)
    v = [o.value for o in run_workers(encode(A, gen, p), x)]
    outs = [(1, v[0]), (bad, v[2]), (4, v[3]), (5, v[4]), (6, v[5])]
    with pytest.raises(ValueError, match="worker indices must"):
        decode(outs, gen, p)
    with pytest.raises(ValueError, match="worker indices must"):
        decode_with_errors([*outs, (2, v[1])], 0, gen, p)


def test_decode_reads_integer_indices_of_any_dtype_and_whole_floats_alike():
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    A = np.random.default_rng(0).standard_normal((3, 12))
    x = np.random.default_rng(1).standard_normal(12)
    outs = run_workers(encode(A, gen, p), x)
    want = decode(outs[1:], gen, p)
    for cast in (np.int8, np.int16, np.int32, np.uint32, np.uint64, float):
        listing = [(cast(o.index), o.value) for o in outs]
        assert np.array_equal(decode(listing[1:], gen, p), want)
        assert np.array_equal(decode_with_errors(listing, 0, gen, p),
                              decode_with_errors(outs, 0, gen, p))



# --- decode with errors --------------------------------------------------------


def test_error_decode_clean_outputs():
    rng = np.random.default_rng(11)
    p = validate_params(6, 4, 2, 12)
    gen = build_generator(p)
    A = rng.standard_normal((2, 12))
    x = rng.standard_normal(12)
    outs = run_workers(encode(A, gen, p), x)
    clean = decode(outs[:4], gen, p)
    np.testing.assert_allclose(decode_with_errors(outs, 1, gen, p), clean, rtol=1e-10)


def test_error_decode_corrects_single_corruption():
    rng = np.random.default_rng(12)
    p = validate_params(6, 4, 2, 12)
    gen = build_generator(p)
    A = rng.standard_normal((2, 12))
    x = rng.standard_normal(12)
    truth = A @ x
    outs = run_workers(encode(A, gen, p), x)
    for bad_index in (1, 4, 6):
        corrupted = [
            WorkerOutput(o.index, o.value + (1000.0 if o.index == bad_index else 0.0))
            for o in outs
        ]
        got = decode_with_errors(corrupted, 1, gen, p)
        assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["solve", "poly"])
def test_decode_refuses_non_finite_outputs(bad, method):
    rng = np.random.default_rng(14)
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    outs = run_workers(encode(rng.standard_normal((3, 12)), gen, p), rng.standard_normal(12))
    for pos in range(p.K):
        chosen = outs[: p.K]
        chosen[pos] = WorkerOutput(chosen[pos].index, bad)
        with pytest.raises(ConditioningError):
            decode(chosen, gen, p, method=method)


@pytest.mark.parametrize("call", ["encode", "decode"])
@pytest.mark.parametrize("method, kind, message", [
    ("lu", "vandermonde", "unknown {call} method 'lu'"),
    ("poly", "gaussian", "poly method requires a Vandermonde generator"),
], ids=["unknown-method", "poly-on-gaussian"])
def test_encode_and_decode_refuse_a_method_they_cannot_run(call, method, kind, message):
    rng = np.random.default_rng(16)
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p, kind=kind, seed=3 if kind == "gaussian" else None)
    A = rng.standard_normal((3, 12))
    outs = run_workers(encode(A, gen, p), rng.standard_normal(12))[: p.K]
    with pytest.raises(ValueError, match=re.escape(message.format(call=call))):
        if call == "encode":
            encode(A, gen, p, method=method)
        else:
            decode(outs, gen, p, method=method)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_error_decode_corrects_one_non_finite_output(bad):
    rng = np.random.default_rng(15)
    p = validate_params(6, 4, 2, 12)
    gen = build_generator(p)
    A = rng.standard_normal((2, 12))
    x = rng.standard_normal(12)
    truth = A @ x
    outs = run_workers(encode(A, gen, p), x)
    for bad_index in (1, 4, 6):
        corrupted = [WorkerOutput(o.index, bad if o.index == bad_index else o.value)
                     for o in outs]
        got = decode_with_errors(corrupted, 1, gen, p)
        assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)


def test_error_decode_beyond_radius_fails_loudly():
    rng = np.random.default_rng(13)
    p = validate_params(6, 4, 2, 12)
    gen = build_generator(p)
    A = rng.standard_normal((2, 12))
    x = rng.standard_normal(12)
    outs = run_workers(encode(A, gen, p), x)
    # radius is floor((6-4)/2) = 1; two corruptions leave no subset that
    # matches >= P - 1 outputs
    corrupted = [
        WorkerOutput(o.index, o.value + (500.0 if o.index in (2, 5) else 0.0))
        for o in outs
    ]
    with pytest.raises(DecodingError):
        decode_with_errors(corrupted, 1, gen, p)
    corrupted[1] = WorkerOutput(2, np.inf)  # an infinite output matches nothing
    with pytest.raises(DecodingError):
        decode_with_errors(corrupted, 1, gen, p)
    with pytest.raises(ValueError):
        decode_with_errors(outs, 2, gen, p)  # e_max beyond the radius


# --- small-scale universal recoverability property -----------------------------


@pytest.mark.parametrize("P", [3, 4, 5])
def test_every_subset_recovers_for_all_k_m(P):
    rng = np.random.default_rng(100 + P)
    N_raw = 3 * P
    for K in range(1, P + 1):
        for M in range(1, K + 1):
            p = validate_params(P, K, M, N_raw)
            gen = build_generator(p)
            for _ in range(3):
                A = rng.standard_normal((M, N_raw))
                x = rng.standard_normal(N_raw)
                truth = A @ x
                outs = run_workers(encode(A, gen, p), x)
                for subset in combinations(outs, K):
                    got = decode(subset, gen, p)
                    assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)
