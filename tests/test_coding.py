import dataclasses
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from shortdot import (
    COND_LIMIT,
    ConditioningError,
    DecodingError,
    EncodedTransform,
    GeneratorMatrix,
    WorkerOutput,
    build_generator,
    decode,
    decode_with_errors,
    encode,
    load_transform,
    run_workers,
    save_transform,
    supports_from_pattern,
    validate_params,
    zero_mask,
)
import shortdot.coding as coding
import shortdot.generator as generator
from shortdot.generator import CONDITION_MEMO_CAP, check_condition, chebyshev_nodes

from helpers import encode_by_solving_windows, encode_by_window, vandermonde_on


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


@pytest.mark.parametrize("P", [*range(1, 13), 20])
def test_supports_are_the_columns_the_mask_allows(P):
    # every (K, M), K = M and K = P included, with N a multiple of P and
    # padded; the memo's supports and flat indices are the mask's allowed
    # positions too, its window r rows are the rows the mask zeroes in
    # column r, and all three are read-only
    for K in range(1, P + 1):
        for M in range(1, K + 1):
            for N_raw in (P, 3 * P + 1):
                p = validate_params(P, K, M, N_raw)
                mask = zero_mask(p)
                from_mask = np.nonzero(~mask)[1].reshape(P, p.s) + 1
                assert np.array_equal(supports_from_pattern(p), from_mask), (P, K, M, N_raw)
                pattern = coding._pattern(P, K, M, p.N)
                assert np.array_equal(pattern.supports, from_mask)
                assert np.array_equal(pattern.flat, np.flatnonzero(~mask).reshape(P, p.s))
                assert pattern.rows.shape == (P, K - M)
                for r in range(P):
                    assert np.array_equal(np.sort(pattern.rows[r]), np.flatnonzero(mask[:, r]))
                assert not any(a.flags.writeable for a in pattern), (P, K, M, N_raw)


def test_supports_from_pattern_stays_fresh_and_the_memo_derives_once(monkeypatch, tmp_path):
    p, q = validate_params(6, 5, 3, 12), validate_params(6, 5, 3, 11)
    fresh = supports_from_pattern(p)
    assert fresh.flags.writeable and fresh is not supports_from_pattern(p)
    coding._pattern.cache_clear()
    calls = []
    original = coding.supports_from_pattern
    monkeypatch.setattr(coding, "supports_from_pattern",
                        lambda params: calls.append(params) or original(params))
    gen = build_generator(p)
    A = np.random.default_rng(4).standard_normal((3, 12))
    first = encode(A, gen, p)
    loaded = load_transform(save_transform(first, tmp_path / "code"))
    assert encode(A, gen, p).supports is loaded.supports is first.supports
    assert np.array_equal(first.supports, fresh) and not first.supports.flags.writeable
    # another N_raw of the same N: the same pattern, not derived again
    assert encode(A[:, :11], gen, q).supports is first.supports
    assert calls == [p]


def test_one_pattern_serves_every_n_raw_of_one_n():
    # the pattern is a function of (P, K, M, N): it was once memoized per
    # CodeParams, N_raw included, so these two held two copies of it
    p, q = validate_params(20, 18, 10, 785), validate_params(20, 18, 10, 790)
    assert p.N == q.N == 800
    coding._pattern.cache_clear()
    gen = build_generator(p)
    rng = np.random.default_rng(12)
    first, second = (encode(rng.standard_normal((10, r.N_raw)), gen, r) for r in (p, q))
    assert first.supports is second.supports
    assert coding._pattern.cache_info().currsize == 1


def test_pattern_memo_stays_within_its_bound():
    assert coding._pattern.cache_info().maxsize == generator.GENERATOR_CACHE_SIZE
    gen = build_generator(validate_params(6, 5, 1, 6))
    for N_raw in range(5, 12 * generator.GENERATOR_CACHE_SIZE, 6):  # one N each
        p = validate_params(6, 5, 3, N_raw)
        encode(np.ones((3, N_raw)), gen, p)
        assert coding._pattern.cache_info().currsize <= generator.GENERATOR_CACHE_SIZE


# --- generator ---------------------------------------------------------------


def test_vandermonde_entries_match_node_powers():
    np.testing.assert_array_equal(vandermonde_on([1.0, 2.0, 3.0], 2).entries,
                                  [[1, 1], [2, 1], [3, 1]])
    np.testing.assert_array_equal(vandermonde_on([0.0, 1.0], 2).entries, [[0, 1], [1, 1]])
    # build_generator's Vandermonde kind depends on (P, K) alone
    for P, K in ((2, 2), (6, 5), (20, 18)):
        gen = build_generator(validate_params(P, K, 1, P))
        h = np.cos((2.0 * np.arange(1, P + 1) - 1.0) * np.pi / (2.0 * P))
        np.testing.assert_array_equal(gen.entries[:, K - 2], h)  # the x^1 column
        np.testing.assert_array_equal(gen.entries, np.vander(chebyshev_nodes(P), K))
        np.testing.assert_allclose(gen.entries, h[:, None] ** np.arange(K - 1, -1, -1),
                                   rtol=1e-14)


@pytest.mark.parametrize("kind", ["vandermonde", "gaussian"])
def test_a_generator_is_a_function_of_p_k_and_kind(kind):
    p = validate_params(3, 2, 1, 3)
    with pytest.raises(TypeError, match="seed"):
        build_generator(p, kind, seed=1)
    gen = build_generator(p, kind)
    assert [f.name for f in dataclasses.fields(gen) if f.init] == ["entries", "kind"]
    assert build_generator(p, kind).entries.tobytes() == gen.entries.tobytes()
    if kind == "gaussian":  # one fixed draw
        np.testing.assert_array_equal(gen.entries,
                                      np.random.default_rng(0).standard_normal((3, 2)))


def test_gaussian_generator_has_invertible_minors():
    p = validate_params(8, 5, 3, 16)
    gen = build_generator(p, kind="gaussian")
    # independent oracle: every C(8,5) K x K determinant is bounded away
    # from zero, likewise the tail submatrices, and each passes the gate
    for rows in combinations(range(8), 5):
        assert abs(np.linalg.det(gen.entries[list(rows), :])) > 1e-12
        assert np.linalg.cond(gen.entries[list(rows), :]) <= COND_LIMIT
    for rows in combinations(range(8), 2):
        assert abs(np.linalg.det(gen.entries[list(rows), 3:])) > 1e-12
        assert np.linalg.cond(gen.entries[list(rows), 3:]) <= COND_LIMIT


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
    gen = dataclasses.replace(build_generator(p))  # fresh memos: build_generator's are shared
    with pytest.raises(ValueError, match="read-only"):
        gen.entries[0] = 1.0
    gen.condition(np.arange(1, 6))
    assert len(gen._conditions) == 1
    other = dataclasses.replace(gen, entries=gen.entries[::-1].copy())
    assert other._conditions == {} and not other.entries.flags.writeable
    assert other.condition(np.arange(1, 6)) == np.linalg.cond(other.entries[:5])
    assert gen == dataclasses.replace(gen)  # the memo takes no part in ==


@pytest.mark.parametrize("P, K, kind", [(20, 18, "vandermonde"), (12, 9, "gaussian"),
                                        (100, 95, "gaussian"), (6, 6, "vandermonde")])
def test_parity_is_a_cached_read_only_orthonormal_left_null_basis(P, K, kind):
    gen = build_generator(validate_params(P, K, 1, P), kind)
    H = gen.parity
    assert H.shape == (P - K, P) and gen.parity is H
    np.testing.assert_allclose(H @ H.T, np.eye(P - K), atol=1e-13)
    assert np.max(np.abs(H @ gen.entries), initial=0.0) <= 1e-14 * np.max(np.abs(gen.entries))
    with pytest.raises(ValueError, match="read-only"):
        H[...] = 0.0
    assert "parity" not in dataclasses.replace(gen).__dict__


# --- appended rows ----------------------------------------------------------


def test_encode_without_appended_rows_is_the_plain_product():
    p = validate_params(3, 2, 2, 3)
    gen = vandermonde_on([1.0, 2.0, 3.0], p.K)
    A = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(encode(A, gen, p).F, gen.entries @ A)


def test_encode_appended_row_hand_example():
    # B = [[1, 1], [2, 1], [3, 1]]: column 1 appends z = -5, so that
    # 1*5 + 1*z = 0 on its zero row, and F[:, 0] = B @ [5, -5]
    p = validate_params(3, 2, 1, 3)
    gen = vandermonde_on([1.0, 2.0, 3.0], p.K)
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
    nonzeros = (code.F != 0).sum(axis=1)
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
    gen = vandermonde_on([0.5, 0.5 + 1e-14, -0.5, -0.7], p.K)
    with pytest.raises(ConditioningError):
        encode(np.ones((1, 8)), gen, p)


def _encoded_or_refused(build):
    """build()'s F, or the type and text of the exception it raised."""
    try:
        return build()
    except (ConditioningError, ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def _assert_encode_is_the_window_loop(A, gen, p, method="solve"):
    # a fresh generator plans its windows (cold), then encodes from the plan it holds (warm)
    gen = dataclasses.replace(gen)
    want = _encoded_or_refused(lambda: encode_by_window(A, gen, p, method))
    for _ in ("cold", "warm"):
        got = _encoded_or_refused(lambda: encode(A, gen, p, method).F)
        if isinstance(want, tuple):
            assert got == want, (p, gen.kind, method)
        else:
            # bytes, not values: +0.0 and -0.0 compare equal
            assert isinstance(got, np.ndarray), (p, gen.kind, method)
            assert got.tobytes() == want.tobytes(), (p, gen.kind, method)


def _kinds_and_methods(p):
    for kind, method in (("vandermonde", "solve"), ("vandermonde", "poly"), ("gaussian", "solve")):
        yield build_generator(p, kind), method


@pytest.mark.parametrize("P", range(1, 13))
def test_stacked_encode_is_bitwise_the_window_loop_on_the_small_grid(P):
    # every (K, M) at N = P and at a padded N; the gate refuses many cells,
    # and each refusal must name the same window with the same text
    for K in range(1, P + 1):
        for M in range(1, K + 1):
            for N_raw in (P, 3 * P + 1):
                p = validate_params(P, K, M, N_raw)
                A = np.random.default_rng([P, K, M, N_raw]).standard_normal((M, N_raw))
                for gen, method in _kinds_and_methods(p):
                    _assert_encode_is_the_window_loop(A, gen, p, method)


@pytest.mark.parametrize("P, K, M, N_raw, kinds", [
    (20, 18, 10, 785, ("vandermonde", "gaussian")),  # Sec. 6
    (20, 10, 1, 40, ("vandermonde",)),  # the gate refuses a window
    (30, 26, 25, 60, ("vandermonde", "gaussian")),  # one appended row: vstack's F layout
    (40, 38, 20, 4000, ("gaussian",)),  # a C-ordered A operand moves these bits
    (100, 98, 20, 10000, ("gaussian",)),
])
def test_stacked_encode_is_bitwise_the_window_loop_at_size(P, K, M, N_raw, kinds):
    p = validate_params(P, K, M, N_raw)
    A = np.random.default_rng(P).standard_normal((M, N_raw))
    for gen, method in _kinds_and_methods(p):
        if gen.kind in kinds:
            _assert_encode_is_the_window_loop(A, gen, p, method)


def test_stacked_encode_refuses_as_the_window_loop():
    p = validate_params(4, 3, 1, 8)
    A = np.random.default_rng(5).standard_normal((1, 8))
    entries = np.random.default_rng(6).standard_normal((4, 3))
    # window 0 (rows 1 and 2, last K - M columns) is zero: its condition
    # reads inf, with no warning
    zero_window = entries.copy()
    zero_window[:2, 1:] = 0.0
    # rows 4 and 1 repeat: only the last window is singular
    last_singular = entries.copy()
    last_singular[3] = last_singular[0]
    # huge first M columns: every window passes the gate, but the rounding
    # of B_U [A_j; z] exceeds the zero tolerance
    lopsided = entries * [1e12, 1.0, 1.0]
    for B, message in ((zero_window, "condition inf exceeds"),
                       (last_singular, r"condition \S+e\+1\d exceeds"),
                       (lopsided, "pattern residual")):
        gen = GeneratorMatrix(entries=B, kind="gaussian")
        with pytest.raises(ConditioningError, match=message):
            encode(A, gen, p)
        _assert_encode_is_the_window_loop(A, gen, p)


@pytest.mark.parametrize("budget, plan_blocks, unheld_blocks", [(1, 20, 20), (90_000, 2, 4)])
def test_stacked_encode_is_the_window_loop_across_blocks(monkeypatch, budget, plan_blocks,
                                                         unheld_blocks):
    # (20,18,10,785) plans and multiplies in one block each; a smaller
    # budget splits its 20 windows into blocks of one, or plans them in
    # blocks of 18 and 2 (and multiplies them in blocks of 7, 7 and 6);
    # when the memo cannot hold the plan, encode plans each block of
    # windows as it multiplies it, in blocks of 5 at the larger budget
    p = validate_params(20, 18, 10, 785)
    A = np.random.default_rng(20).standard_normal((10, 785))
    monkeypatch.setattr(coding, "_ENCODE_BLOCK_BYTES", budget)
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(1)
        return solve(*args)

    cap = coding.OPERATOR_MEMO_BYTES
    for held, blocks in ((True, plan_blocks), (False, unheld_blocks)):
        monkeypatch.setattr(coding, "OPERATOR_MEMO_BYTES", cap if held else 0)
        for gen, method in _kinds_and_methods(p):
            _assert_encode_is_the_window_loop(A, gen, p, method)
        monkeypatch.setattr(np.linalg, "solve", counted)
        solves.clear()
        encode(A, dataclasses.replace(build_generator(p)), p)
        assert len(solves) == blocks
        monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("kind", ["vandermonde", "gaussian"])
def test_build_generator_shares_one_generator_per_p_k_and_kind(kind):
    p = validate_params(20, 18, 10, 785)
    gen = build_generator(p, kind)
    assert build_generator(p, kind) is gen
    # M and N take no part: the generator is a function of (P, K, kind)
    assert build_generator(validate_params(20, 18, 3, 40), kind) is gen
    assert build_generator(validate_params(20, 17, 10, 785), kind) is not gen
    other = "gaussian" if kind == "vandermonde" else "vandermonde"
    assert build_generator(p, other) is not gen


@pytest.mark.parametrize("kind, method", [("vandermonde", "solve"), ("vandermonde", "poly"),
                                          ("gaussian", "solve")])
def test_a_warm_encode_takes_no_svd_and_no_solve(monkeypatch, kind, method):
    p, q = validate_params(20, 18, 10, 785), validate_params(20, 18, 10, 700)
    gen = dataclasses.replace(build_generator(p, kind))
    rng = np.random.default_rng(22)
    A, B = rng.standard_normal((10, 785)), rng.standard_normal((10, 700))
    want = encode_by_window(B, gen, q, method)
    calls = []
    for module, name in ((np.linalg, "svd"), (np.linalg, "solve"), (coding, "_newton_monomial")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    cold = encode(A, gen, p, method).F
    assert calls.count("svd") == 1 and len(calls) == 2  # one gate and one plan, one block each
    calls.clear()
    assert np.array_equal(encode(A, gen, p, method).F, cold)
    # another A, N_raw and padding: the same plan
    assert np.array_equal(encode(B, gen, q, method).F, want)
    assert calls == []
    assert list(gen._operators) == [(10, method)]


def test_a_refused_window_gate_is_refused_again_with_the_same_text():
    p = validate_params(4, 3, 1, 8)
    gen = vandermonde_on([0.5, 0.5 + 1e-14, -0.5, -0.7], p.K)
    messages = set()
    for seed in range(3):  # the plan is refused whatever A is
        A = np.random.default_rng(seed).standard_normal((1, 8))
        with pytest.raises(ConditioningError, match="solve rejected: condition") as exc:
            encode(A, gen, p)
        messages.add(str(exc.value))
        assert gen._operators == {}
    assert len(messages) == 1


def test_operator_memo_stays_within_its_cap(monkeypatch):
    # the plans of M = 1..8 at P = 12 take 8 * 144 * M bytes each: a cap
    # of 20,000 bytes holds M = 1..4 (11,520 bytes) and then M = 6, and
    # every encode, held or not, is the window loop's
    P, K = 12, 9
    assert 8 * 100 * 100 * 100 <= coding.OPERATOR_MEMO_BYTES  # any one plan up to P = 100
    monkeypatch.setattr(coding, "OPERATOR_MEMO_BYTES", 20_000)
    gen = dataclasses.replace(build_generator(validate_params(P, K, 1, P)))
    for M in (1, 2, 3, 4, 8, 6, 5, 7):
        p = validate_params(P, K, M, 5 * P + 1)
        A = np.random.default_rng(M).standard_normal((M, p.N_raw))
        assert np.array_equal(encode(A, gen, p).F, encode_by_window(A, gen, p))
        held = sum(G.nbytes for G, _ in gen._operators.values())
        assert held <= 20_000
        assert all(G.shape == (P, P, rows) and not G.flags.writeable
                   for (rows, _), (G, _) in gen._operators.items())
    assert sorted(gen._operators) == [(M, "solve") for M in (1, 2, 3, 4, 6)]


# the (P, K, M, N_raw) that test_criterion_10_fast_path_equivalence draws
CRITERION_10_SHAPES = [
    (21, 14, 6, 21), (19, 11, 6, 38), (10, 9, 7, 10), (9, 6, 2, 18), (8, 6, 1, 16),
    (6, 2, 1, 12), (9, 3, 2, 18), (10, 2, 2, 20), (10, 4, 1, 10), (16, 14, 5, 32),
    (17, 11, 9, 34), (18, 15, 9, 18), (15, 9, 3, 15), (19, 11, 10, 38), (20, 16, 3, 20),
    (15, 12, 4, 30), (14, 11, 8, 28), (18, 10, 5, 18), (12, 10, 5, 12), (19, 16, 10, 19),
    (13, 6, 5, 26), (17, 14, 11, 34), (14, 12, 9, 14), (10, 2, 2, 10), (12, 7, 3, 24),
    (64, 58, 10, 128), (44, 43, 30, 88), (24, 18, 1, 48), (55, 53, 39, 55), (55, 52, 41, 110),
    (65, 57, 24, 130), (32, 25, 10, 64), (23, 21, 12, 46), (64, 58, 23, 64), (22, 18, 8, 44),
    (50, 42, 27, 50), (25, 20, 9, 25), (38, 31, 18, 38), (44, 40, 27, 44), (43, 37, 21, 86),
    (38, 36, 14, 76), (26, 18, 3, 52), (25, 17, 7, 25), (30, 22, 17, 30), (18, 17, 10, 18),
    (57, 49, 22, 114), (48, 42, 5, 48), (49, 48, 1, 49), (30, 29, 16, 30), (48, 46, 23, 96),
]


def _certified_plans():
    """(params, generator, method) of each certified plan: Vandermonde,
    both methods, on criterion 10's shapes, and every kind and method at
    Sec. 6, each planned on a fresh generator."""
    cells = [(shape, ("vandermonde",)) for shape in CRITERION_10_SHAPES]
    for shape, kinds in [*cells, ((20, 18, 10, 785), ("vandermonde", "gaussian"))]:
        p = validate_params(*shape)
        for gen, method in _kinds_and_methods(p):
            gen = dataclasses.replace(gen)
            if gen.kind not in kinds or p.K == p.M:
                continue
            try:
                encode(np.ones((p.M, p.N_raw)), gen, p, method)
            except ConditioningError:  # the window gate refuses this generator
                continue
            if gen._operators[p.M, method][1]:
                yield p, gen, method


def test_a_certified_plan_encodes_every_a_as_the_gated_window_loop():
    # the adversarial A puts sign(G_r[u, :]) in every column of window r,
    # u the row of U_r with the largest 1-norm b_r, so that pattern entry
    # of G_r A_j reads b_r max|A|: the bound is tight, and the gate of the
    # window loop, run on the plan before its pattern rows were zeroed,
    # must still pass it
    certified = 0
    for p, gen, method in _certified_plans():
        certified += 1
        P, M, rows = p.P, p.M, coding._pattern(p.P, p.K, p.M, p.N).rows
        points = coding._check_method(method, gen, "encode")
        on_pattern = coding._operators(gen.entries, M, points, rows)[np.arange(P)[:, None], rows]
        norms = np.abs(on_pattern).sum(axis=2)
        assert 4 * norms.max() <= coding.ZERO_TOL_FACTOR, (p, method)
        worst = on_pattern[np.arange(P), norms.argmax(axis=1)]  # (P, M)
        adversarial = np.where(worst < 0, -1.0, 1.0)[np.arange(p.N_raw) % P].T
        reads = np.abs(np.einsum("jm,mj->j", worst[np.arange(p.N_raw) % P], adversarial))
        np.testing.assert_allclose(reads, norms.max(axis=1)[np.arange(p.N_raw) % P],
                                   rtol=1e-12)
        mixed = np.random.default_rng([p.P, p.K, p.M, p.N_raw]).standard_normal((M, p.N_raw))
        for A in (adversarial, mixed, -np.abs(mixed), *(scale * B for B in (adversarial, mixed)
                                                         for scale in (1e300, 1e-310, 1e-318))):
            want = encode_by_window(A, gen, p, method)
            if not np.isfinite(want).all():  # an entry off the pattern overflowed
                with pytest.raises(ValueError, match="F has non-finite entries"):
                    encode(A, gen, p, method)
                continue
            F = encode(A, gen, p, method).F
            assert F.tobytes() == want.tobytes(), (p, gen.kind, method)
            assert not np.signbit(F[F == 0]).any()
    assert certified >= 50


def test_a_plan_is_certified_once_and_only_where_the_bound_covers_it(monkeypatch):
    absolutes = []
    np_abs = np.abs
    monkeypatch.setattr(np, "abs", lambda *a, **k: absolutes.append(1) or np_abs(*a, **k))
    # the lopsided generator of test_stacked_encode_refuses_as_the_window_loop
    # holds a plan the bound does not cover: encode gates each A for it
    p = validate_params(4, 3, 1, 8)
    A = np.random.default_rng(5).standard_normal((1, 8))
    lopsided = np.random.default_rng(6).standard_normal((4, 3)) * [1e12, 1.0, 1.0]
    gen = GeneratorMatrix(entries=lopsided, kind="gaussian")
    for _ in ("cold", "warm"):
        absolutes.clear()
        with pytest.raises(ConditioningError, match="pattern residual"):
            encode(A, gen, p)
        assert absolutes
    assert list(gen._operators) == [(1, "solve")] and not gen._operators[1, "solve"][1]
    # Sec. 6 plans are certified as they are planned, with their pattern
    # rows stored as 0.0, and a warm encode from them takes no abs: no gate
    q = validate_params(20, 18, 10, 785)
    A = np.random.default_rng(23).standard_normal((10, 785))
    for shared, method in _kinds_and_methods(q):
        gen = dataclasses.replace(shared)
        assert gen._operators == {}
        cold = encode(A, gen, q, method).F
        assert list(gen._operators) == [(10, method)]
        G, certified = gen._operators[10, method]
        assert certified
        assert np.all(G[np.arange(20)[:, None], coding._pattern(20, 18, 10, 800).rows] == 0.0)
        assert dataclasses.replace(gen)._operators == {}
        absolutes.clear()
        assert encode(A, gen, q, method).F.tobytes() == cold.tobytes()
        assert absolutes == []


def _exact_F(A, B, p):
    """F in exact rational arithmetic: per column j, z solves
    B^U(j)[A_j; z] = 0 by Gauss-Jordan elimination on Fractions, then
    F_j = B [A_j; z]."""
    P, K, M, N = p.P, p.K, p.M, p.N
    D = K - M
    Bq = [[Fraction(v) for v in row] for row in B.tolist()]
    Aq = [[Fraction(v) for v in row] + [Fraction(0)] * p.padding for row in A.tolist()]
    F = []
    for j in range(N):
        a = [row[j] for row in Aq]
        system = [Bq[u][M:] + [-sum(b * x for b, x in zip(Bq[u][:M], a))]
                  for u in ((j + d) % P for d in range(D))]
        for c in range(D):
            pivot = next(r for r in range(c, D) if system[r][c] != 0)
            system[c], system[pivot] = system[pivot], system[c]
            for r in range(D):
                if r != c and system[r][c] != 0:
                    f = system[r][c] / system[c][c]
                    system[r] = [x - f * y for x, y in zip(system[r], system[c])]
        x = a + [system[c][D] / system[c][c] for c in range(D)]
        F.append([sum(b * v for b, v in zip(Bq[i], x)) for i in range(P)])
    return [list(col) for col in zip(*F)]


@pytest.mark.parametrize("P, K, M, N_raw, kind", [
    (12, 9, 4, 48, "vandermonde"), (12, 9, 4, 48, "gaussian"), (12, 9, 4, 45, "vandermonde")])
def test_operator_form_is_as_accurate_as_the_window_solve(P, K, M, N_raw, kind):
    # max |F - F_exact| of encode against the solve-form loop's
    p = validate_params(P, K, M, N_raw)
    gen = build_generator(p, kind)
    A = np.random.default_rng([P, K, M, N_raw]).standard_normal((M, N_raw))
    exact = _exact_F(A, gen.entries, p)

    def error(F):
        return max(abs(float(Fraction(v) - q))
                   for row, exact_row in zip(F.tolist(), exact) for v, q in zip(row, exact_row))

    assert error(encode(A, gen, p).F) <= 2 * error(encode_by_solving_windows(A, gen, p))


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
    code = EncodedTransform(F=F, generator=build_generator(p), params=p)
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


def test_run_workers_takes_one_row_or_column_and_refuses_a_block():
    # x may be 1-D, one row or one column; a block of several inputs is
    # refused rather than flattened into one input of the right length
    rng = np.random.default_rng(17)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    x = rng.standard_normal(12)
    want = run_workers(code, x)
    for layout in (x[None, :], x[:, None]):
        assert run_workers(code, layout) == want
    for shape, held in [((3, 4), "3 x 4 matrix"), ((2, 6), "2 x 6 matrix"),
                        ((2, 2, 3), "3-d array of shape")]:
        with pytest.raises(ValueError, match=f"x holds a {held}"):
            run_workers(code, x.reshape(shape))


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
    gen = build_generator(p, kind)
    code = encode(rng.standard_normal((M, N_raw)), gen, p)
    allowed = ~zero_mask(p)
    for n in sorted({N_raw, p.N}):
        x = rng.standard_normal(n)
        xp = np.concatenate([x, np.zeros(p.N - n)])
        for i, out in enumerate(run_workers(code, x)):
            S = np.flatnonzero(allowed[i])
            assert out.index == i + 1
            assert out.value == code.F[i, S] @ xp[S]


def test_complex_inputs_are_refused_not_made_real():
    # a float cast keeps the real part: 1j * x once ran as four 0.0 outputs
    p = validate_params(4, 3, 2, 8)
    gen = build_generator(p)
    code = encode(np.ones((2, 8)), gen, p)
    for x in (1j * np.ones(8), np.ones(8) + 0j, [1.0] * 7 + [2j]):
        with pytest.raises(ValueError, match="x has complex entries"):
            run_workers(code, x)
    with pytest.raises(ValueError, match="A has complex entries"):
        encode(np.ones((2, 8)) + 1j, gen, p)


@pytest.mark.parametrize("dtype", [complex, object, str])
def test_encoded_transform_refuses_an_f_that_is_not_real(dtype):
    # a complex F once served conj(F) x: run_workers' vecdot conjugates it
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    F = encode(np.random.default_rng(3).standard_normal((3, 12)), gen, p).F
    with pytest.raises(ValueError, match="F must hold real numbers"):
        EncodedTransform(F=F.astype(dtype), generator=gen, params=p)


def test_coefficients_are_the_row_gather_for_any_layout_and_dtype():
    # one flat take over F's C order: the same entries as a gather along
    # each row, for a Fortran-ordered F, a strided view and an integer F
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    F = encode(np.random.default_rng(8).standard_normal((3, 12)), gen, p).F
    wide = np.zeros((6, 24))
    wide[:, ::2] = F
    ints = np.where(zero_mask(p), 0, np.arange(72).reshape(6, 12) - 30)
    for given in (np.asfortranarray(F), wide[:, ::2], ints, ints.astype(np.int8)):
        code = EncodedTransform(F=given, generator=gen, params=p)
        want = np.take_along_axis(given, code.supports - 1, axis=1)
        assert code.coefficients.dtype == want.dtype
        assert np.array_equal(code.coefficients, want)
        assert np.array_equal(code.F, given) and not code.coefficients.flags.writeable


def test_a_transform_keeps_its_f_when_the_array_it_views_changes():
    # built on a view of a writable array, a transform once froze only the
    # view: base *= 2 then moved F under coefficients computed from the old F
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    base = encode(np.random.default_rng(9).standard_normal((3, 12)), gen, p).F.copy()
    code = EncodedTransform(F=base[:], generator=gen, params=p)
    before = code.F.copy()
    base *= 2
    assert np.array_equal(code.F, before) and not code.F.flags.writeable
    assert np.array_equal(code.coefficients,
                          np.take_along_axis(code.F, code.supports - 1, axis=1))
    x = np.random.default_rng(10).standard_normal(12)
    for i, out in enumerate(run_workers(code, x)):
        S = code.supports[i] - 1
        assert out.value == code.F[i, S] @ x[S]
    # a read-only F that owns its memory is kept as it is; a read-only
    # view of it is copied, as is memory behind a buffer that is not an array
    own = before.copy()
    own.flags.writeable = False
    assert EncodedTransform(F=own, generator=gen, params=p).F is own
    view = own[:]
    kept = EncodedTransform(F=view, generator=gen, params=p).F
    assert kept is not view and np.array_equal(kept, before)
    buffered = np.frombuffer(bytearray(before.tobytes()), dtype=float).reshape(6, 12)
    kept = EncodedTransform(F=buffered, generator=gen, params=p).F
    assert kept is not buffered and np.array_equal(kept, before)


def test_a_codec_object_keeps_a_read_only_owner_and_copies_any_other_array():
    # one rule for F and for a generator's entries: an array that owns its
    # memory and is read-only is kept; a read-only view, a writable array
    # and a foreign buffer are copied, and the array handed over is not frozen
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    F = encode(np.random.default_rng(26).standard_normal((3, 12)), gen, p).F
    keepers = [(F, lambda a: EncodedTransform(F=a, generator=gen, params=p).F),
               (gen.entries, lambda a: GeneratorMatrix(entries=a, kind="vandermonde").entries)]
    for values, keep in keepers:
        owner = values.copy()
        owner.flags.writeable = False
        assert keep(owner) is owner
        foreign = np.frombuffer(bytearray(values.tobytes()), dtype=float).reshape(values.shape)
        for given in (owner[:], values.copy(), foreign):
            writable = given.flags.writeable
            kept = keep(given)
            assert kept is not given and np.array_equal(kept, values)
            assert not kept.flags.writeable and given.flags.writeable == writable


def test_a_transform_keeps_its_f_when_an_earlier_view_of_f_changes(monkeypatch):
    # freezing F does not reach the writable views of F that exist
    # already: a transform once kept such an F, and v *= 2 then moved
    # code.F under coefficients computed from the old F
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    A = np.random.default_rng(11).standard_normal((3, 12))
    F = encode(A, gen, p).F.copy()
    v = F[:]
    code = EncodedTransform(F=F, generator=gen, params=p)
    before = F.copy()
    v *= 2
    assert np.array_equal(code.F, before) and not code.F.flags.writeable
    assert np.array_equal(code.coefficients,
                          np.take_along_axis(code.F, code.supports - 1, axis=1))
    # encode freezes the F it made before it builds the transform: no copy
    made = []
    windows = coding._encode_windows
    monkeypatch.setattr(coding, "_encode_windows", lambda *a: made.append(windows(*a)) or made[-1])
    assert encode(A, gen, p).F is made[0]


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
        EncodedTransform(F=F, generator=gen, params=p)


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
    gen = build_generator(p, kind)
    outs = run_workers(encode(rng.standard_normal((10, 785)), gen, p), rng.standard_normal(785))
    for _ in range(5):
        # responders in finishing order, not sorted by index
        finished = np.argsort(rng.exponential(size=20))[:18] + 1
        v = np.array([outs[i - 1].value for i in finished])
        expected = np.linalg.solve(gen.entries[finished - 1], v)[:10]
        np.testing.assert_array_equal(decode([outs[i - 1] for i in finished], gen, p), expected)


@pytest.mark.parametrize("P, K, M, N_raw", [(20, 18, 10, 785), (6, 4, 2, 12)])
def test_a_request_is_one_vecdot_then_one_solve(monkeypatch, P, K, M, N_raw):
    rng = np.random.default_rng(21)
    p = validate_params(P, K, M, N_raw)
    gen = dataclasses.replace(build_generator(p))  # fresh memos: build_generator's are shared
    code = encode(rng.standard_normal((M, N_raw)), gen, p)
    svds = []
    svd = generator._condition_number
    monkeypatch.setattr(generator, "_condition_number",
                        lambda mat: svds.append(1) or svd(mat))
    for _ in range(300):
        x = rng.standard_normal(N_raw)
        xz = np.zeros(p.N + 1)
        xz[1 : N_raw + 1] = x
        outs = run_workers(code, x)
        assert type(outs) is list
        assert all(type(o) is WorkerOutput and type(o.index) is int and type(o.value) is float
                   for o in outs)
        assert [o.index for o in outs] == list(range(1, P + 1))
        assert np.array_equal([o.value for o in outs],
                              np.vecdot(code.coefficients, xz[code.supports]))
        finished = rng.permutation(P)[:K] + 1
        v = np.array([outs[i - 1].value for i in finished])
        expected = np.linalg.solve(gen.entries[finished - 1], v)[:M]
        assert np.array_equal(decode([outs[i - 1] for i in finished], gen, p), expected)
        # the same responders in another order: same set, no second SVD
        before = len(svds)
        decode([outs[i - 1] for i in finished[::-1]], gen, p)
        assert len(svds) == before
    assert len(svds) == len(gen._conditions)


@pytest.mark.parametrize("kind", ["vandermonde", "gaussian"])
def test_decode_gate_belongs_to_the_responder_set(kind):
    rng = np.random.default_rng(17)
    p = validate_params(20, 18, 10, 785)
    gen = dataclasses.replace(build_generator(p, kind))  # fresh memos: build_generator's are shared
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
        gen = vandermonde_on(nodes, p.K)
        for listing in (order, order[::-1], order):
            with pytest.raises(ConditioningError, match="solve rejected: condition") as exc:
                decode(listing, gen, p)
            message = message or str(exc.value)
            assert str(exc.value) == message
        assert len(gen._conditions) == 1
    assert decode(pairs[1:] + [(4, 4.0)], gen, p).shape == (3,)  # rows 1..5 decode


def test_a_generator_keeps_its_entries_when_the_array_it_views_changes():
    # a generator once froze the view it was handed, in place: base *= 2
    # then doubled B under the encode plan it held, and decode returned
    # A x / 2 from the outputs of that plan
    p = validate_params(6, 5, 3, 12)
    base = build_generator(p).entries.copy()
    gen = GeneratorMatrix(entries=base[:], kind="vandermonde")
    rng = np.random.default_rng(27)
    A, x = rng.standard_normal((3, 12)), rng.standard_normal(12)
    cold = encode(A, gen, p).F
    base *= 2
    warm = encode(A, gen, p)
    assert warm.F.tobytes() == cold.tobytes()
    y = decode(run_workers(warm, x)[1:], gen, p)
    assert np.linalg.norm(y - A @ x) <= 1e-12 * np.linalg.norm(A @ x)
    # nor does a generator freeze an array it copies
    own = build_generator(p).entries.copy()
    assert GeneratorMatrix(entries=own, kind="vandermonde").entries is not own
    assert own.flags.writeable


def test_generator_refuses_entries_or_nodes_that_are_not_real_and_finite():
    # complex entries once reached encode's ufuncs (UFuncTypeError) and
    # decode's math.hypot (TypeError); a NaN matrix, the SVD (LinAlgError).
    # A generator has no nodes to refuse: they are its entries' x^1 column
    p = validate_params(6, 5, 3, 12)
    B = np.vander(chebyshev_nodes(6), p.K)
    refused = [
        np.vander(chebyshev_nodes(6) + 0j, p.K),
        B.astype(object),
        np.full((6, 5), np.nan),
        np.where(B > 0.5, np.inf, B),
        B[:, 0],
    ]
    for entries in refused:
        with pytest.raises(ValueError, match="must be a 2-D real finite array"):
            GeneratorMatrix(entries=entries, kind="vandermonde")
    gen = GeneratorMatrix(entries=B, kind="vandermonde")
    assert not gen.entries.flags.writeable


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
    # encode gates all windows in stacked blocks with check_condition, then solves
    assert not calls
    decode(outs[2:], gen, p)
    assert len(calls) == 1
    # lexicographic subsets: every one that holds worker `bad` is tried
    # and fails, then the first clean one wins
    outs[bad - 1] = WorkerOutput(bad, outs[bad - 1].value + 1000.0)
    calls.clear()
    decode_with_errors(outs, 1, gen, p)
    assert len(calls) == tries


def test_residual_gate_holds_where_the_squared_norm_overflows():
    # outputs near 1e200: v.dot(v) would be inf, and so would the bound
    p = validate_params(6, 4, 2, 12)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((2, 12)) * 1e150
    x = rng.standard_normal(12) * 1e50
    gen = build_generator(p)
    outs = run_workers(encode(A, gen, p), x)
    assert max(abs(value) for _, value in outs) > 1e200
    np.testing.assert_allclose(decode(outs[1:5], gen, p), A @ x, rtol=1e-8)


def test_residual_gate_refuses_a_solve_that_misses_the_outputs(monkeypatch):
    solve = coding.guarded_solve
    monkeypatch.setattr(coding, "guarded_solve",
                        lambda *args, **kwargs: solve(*args, **kwargs) * (1 + 1e-6))
    p = validate_params(6, 4, 2, 12)
    rng = np.random.default_rng(1)
    gen = build_generator(p)
    outs = run_workers(encode(rng.standard_normal((2, 12)), gen, p), rng.standard_normal(12))
    with pytest.raises(ConditioningError, match=r"decode residual .* exceeds 1e-08 \* \|\|v\|\|"):
        decode(outs[:4], gen, p)


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
    # not a pair, not a real value, not a number as index: malformed input,
    # not a numerical failure
    for bad in (5.0, (3,), (3, None), (3, 1j), (3, "1.0"), (3, [1.0]), (None, 1.0)):
        with pytest.raises(ValueError, match="pair|real numbers|whole numbers"):
            decode([outs[0], outs[1], bad], gen, p)
        with pytest.raises(ValueError, match="pair|real numbers|whole numbers"):
            decode_with_errors([outs[0], outs[1], bad, outs[3]], 0, gen, p)
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
    gen = build_generator(p, kind=kind)
    A = rng.standard_normal((3, 12))
    outs = run_workers(encode(A, gen, p), rng.standard_normal(12))[: p.K]
    with pytest.raises(ValueError, match=re.escape(message.format(call=call))):
        if call == "encode":
            encode(A, gen, p, method=method)
        else:
            decode(outs, gen, p, method=method)


@pytest.mark.parametrize("call", ["encode", "decode"])
@pytest.mark.parametrize("entries", ["gaussian-draw", "one-entry-one-ulp-off"])
def test_poly_refuses_vandermonde_kind_entries_that_are_not_np_vander(call, entries):
    # poly interpolates through the x^1 column of the entries, so they must
    # be np.vander of it; when the nodes were a second, unchecked field, a
    # Gaussian draw of kind "vandermonde" raised TypeError here
    rng = np.random.default_rng(17)
    p = validate_params(6, 5, 3, 12)
    if entries == "gaussian-draw":
        B = build_generator(p, "gaussian").entries
    else:  # the x^4 entry of row 3
        B = build_generator(p).entries.copy()
        B[2, 0] = np.nextafter(B[2, 0], np.inf)
    gen = GeneratorMatrix(entries=B, kind="vandermonde")
    A = rng.standard_normal((3, 12))
    outs = run_workers(encode(A, gen, p), rng.standard_normal(12))[: p.K]
    decode(outs, gen, p)  # the solve method reads no nodes
    with pytest.raises(ValueError, match=r"its entries are not np.vander of their x\^1 column"):
        if call == "encode":
            encode(A, gen, p, method="poly")
        else:
            decode(outs, gen, p, method="poly")


def test_poly_reads_the_nodes_from_the_x1_column():
    # any distinct nodes, in any order: here the Chebyshev ones reversed
    rng = np.random.default_rng(18)
    p = validate_params(6, 5, 3, 12)
    gen = vandermonde_on(chebyshev_nodes(6)[::-1], p.K)
    A, x = rng.standard_normal((3, 12)), rng.standard_normal(12)
    F = encode(A, gen, p).F
    code = encode(A, gen, p, method="poly")
    assert np.max(np.abs(code.F - F)) <= 1e-12 * np.max(np.abs(F))
    got = decode(run_workers(code, x)[1:], gen, p, method="poly")
    np.testing.assert_allclose(got, A @ x, rtol=1e-9, atol=1e-12)


def test_poly_at_k_1_reads_no_node():
    # K = 1 has no x^1 column: the Vandermonde entries are the ones column,
    # and the one-point interpolation returns the one output as it is
    rng = np.random.default_rng(19)
    p = validate_params(4, 1, 1, 8)
    gen = build_generator(p)
    A = rng.standard_normal((1, 8))
    code = encode(A, gen, p, method="poly")
    assert code.F.tobytes() == encode(A, gen, p).F.tobytes()
    for out in run_workers(code, rng.standard_normal(8)):
        got = decode([out], gen, p, method="poly")
        assert got.tobytes() == decode([out], gen, p).tobytes() == np.float64(out.value).tobytes()
    twos = GeneratorMatrix(entries=np.full((4, 1), 2.0), kind="vandermonde")
    with pytest.raises(ValueError, match="not np.vander"):
        encode(A, twos, p, method="poly")
    with pytest.raises(ValueError, match="not np.vander"):
        decode([out], twos, p, method="poly")


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
