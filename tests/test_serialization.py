import numpy as np
import pytest

from shortdot import (
    ConditioningError,
    build_generator,
    decode,
    encode,
    load_matrix,
    load_transform,
    run_workers,
    save_matrix,
    save_transform,
    validate_params,
    zero_mask,
)
from shortdot.coding import check_generator


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-8, 8, size=(3, 7))
    path = tmp_path / "m.csv"
    save_matrix(path, mat)
    np.testing.assert_array_equal(load_matrix(path), mat)


@pytest.mark.parametrize("values", ["sec6-F", "odd"])
def test_save_matrix_writes_the_bytes_of_savetxt(tmp_path, values):
    if values == "sec6-F":
        p = validate_params(20, 18, 10, 785)
        A = np.random.default_rng(6).standard_normal((10, 785))
        mats = [encode(A, build_generator(p), p).F]
    else:
        odd = np.array([[-0.0, 5e-324, 1e308, -1e308], [0.1, -2.5e-300, 1.0, 123456789.0]])
        mats = [odd, odd[:, :1], odd[:1]]
    for mat in mats:
        save_matrix(tmp_path / "ours.csv", mat)
        np.savetxt(tmp_path / "numpy.csv", mat, fmt="%.17g", delimiter=",")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()


def test_vector_loads_as_2d(tmp_path):
    path = tmp_path / "v.csv"
    save_matrix(path, np.arange(4.0))
    assert load_matrix(path).shape == (1, 4)


def test_transform_round_trip_vandermonde(tmp_path):
    rng = np.random.default_rng(1)
    p = validate_params(6, 5, 3, 14)  # pads to 18
    gen = build_generator(p)
    A = rng.standard_normal((3, 14))
    code = encode(A, gen, p)
    out = save_transform(code, tmp_path / "code")

    text = (out / "params.txt").read_text()
    for key in ("P=6", "K=5", "M=3", "N=18", "N_raw=14", "kind=vandermonde"):
        assert key in text

    loaded = load_transform(out)
    np.testing.assert_array_equal(loaded.F, code.F)
    assert loaded.params == code.params
    assert np.array_equal(loaded.supports, code.supports)
    assert loaded.zero_tolerance == code.zero_tolerance
    np.testing.assert_array_equal(loaded.generator.entries, gen.entries)

    x = rng.standard_normal(14)
    outs = run_workers(loaded, x)
    got = decode(outs[:5], loaded.generator, loaded.params)
    truth = A @ x
    assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)


def test_transform_round_trip_gaussian(tmp_path):
    rng = np.random.default_rng(2)
    p = validate_params(5, 4, 2, 10)
    gen = build_generator(p, kind="gaussian", seed=9)
    code = encode(rng.standard_normal((2, 10)), gen, p)
    loaded = load_transform(save_transform(code, tmp_path / "g"))
    assert loaded.generator.kind == "gaussian"
    assert loaded.generator.seed == 9
    np.testing.assert_array_equal(loaded.generator.entries, gen.entries)
    np.testing.assert_array_equal(loaded.F, code.F)


def test_supports_file_is_one_based(tmp_path):
    rng = np.random.default_rng(3)
    p = validate_params(4, 3, 1, 8)
    code = encode(rng.standard_normal((1, 8)), build_generator(p), p)
    out = save_transform(code, tmp_path / "s")
    lines = (out / "supports.txt").read_text().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines, start=1):
        indices = [int(tok) for tok in line.split()]
        assert min(indices) >= 1 and max(indices) <= p.N
        assert not zero_mask(p)[i - 1, np.array(indices) - 1].any()


def _edit_supports(out, p):
    lines = (out / "supports.txt").read_text().splitlines()
    lines[2] = " ".join(str(int(tok) % p.N + 1) for tok in lines[2].split())
    (out / "supports.txt").write_text("\n".join(lines) + "\n")


def _nonzero_on_pattern(out, p):
    F = load_matrix(out / "F.csv")
    i, j = np.argwhere(zero_mask(p))[0]
    F[i, j] = 0.25
    save_matrix(out / "F.csv", F)


@pytest.mark.parametrize("tamper", [_edit_supports, _nonzero_on_pattern])
def test_load_refuses_transform_off_the_pattern(tmp_path, tamper):
    rng = np.random.default_rng(4)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    out = save_transform(code, tmp_path / "t")
    load_transform(out)
    tamper(out, p)
    with pytest.raises(ValueError):
        load_transform(out)


@pytest.mark.parametrize("edit, message", [
    ({"M": None}, "no M= line"),
    ({"nodes": None}, "no nodes= line"),
    ({"K": "7"}, "K <= P"),
    ({"N": "18"}, "N=18"),
    ({"zero_tolerance": "nan"}, "zero_tolerance must be finite"),
    ({"zero_tolerance": "inf"}, "zero_tolerance must be finite"),
    ({"zero_tolerance": "-1"}, "zero_tolerance must be finite"),
    ({"zero_tolerance": None}, "no zero_tolerance= line"),
], ids=["missing-M", "missing-nodes", "K-above-P", "N-mismatch",
        "zero-tolerance-nan", "zero-tolerance-inf", "zero-tolerance-negative",
        "missing-zero-tolerance"])
def test_load_refuses_bad_params_file(tmp_path, edit, message):
    rng = np.random.default_rng(5)
    p = validate_params(6, 5, 3, 12)
    out = save_transform(encode(rng.standard_normal((3, 12)), build_generator(p), p),
                         tmp_path / "t")
    params_txt = out / "params.txt"
    kv = dict(line.split("=", 1) for line in params_txt.read_text().splitlines())
    kv.update(edit)
    params_txt.write_text("".join(f"{k}={v}\n" for k, v in kv.items() if v is not None))
    with pytest.raises(ValueError, match=message):
        load_transform(out)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_refuses_a_non_finite_node(tmp_path, bad):
    p = validate_params(6, 5, 3, 12)
    gen = build_generator(p)
    out = save_transform(encode(np.ones((3, 12)), gen, p), tmp_path / "t")
    _set_param(out, "nodes", ",".join([bad] + ["%.17g" % h for h in gen.nodes[1:]]))
    with pytest.raises(ValueError, match="Vandermonde nodes must be finite"):
        load_transform(out)


def _sec6_transform(tmp_path, **generator):
    p = validate_params(20, 18, 10, 785)
    A = np.random.default_rng(6).standard_normal((10, 785))
    code = encode(A, build_generator(p, **generator), p)
    return save_transform(code, tmp_path / "sec6"), code


def _set_param(out, key, value):
    params_txt = out / "params.txt"
    lines = params_txt.read_text().splitlines()
    params_txt.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=")
                                  else line + "\n" for line in lines))


@pytest.mark.parametrize("node", [0, 10, 19])
def test_load_refuses_a_moved_vandermonde_node(tmp_path, node):
    out, code = _sec6_transform(tmp_path)
    nodes = code.generator.nodes.copy()
    nodes[node] += 1e-3
    _set_param(out, "nodes", ",".join("%.17g" % h for h in nodes))
    with pytest.raises(ValueError, match="F is not encoded by its vandermonde generator"):
        load_transform(out)


def test_load_refuses_any_node_moved_by_1e_9(tmp_path):
    out, code = _sec6_transform(tmp_path)
    for node in range(20):
        nodes = code.generator.nodes.copy()
        nodes[node] += 1e-9
        _set_param(out, "nodes", ",".join("%.17g" % h for h in nodes))
        with pytest.raises(ValueError, match="F is not encoded by its vandermonde generator"):
            load_transform(out)


def test_every_genuine_code_on_the_grid_passes_the_parity_check():
    rng = np.random.default_rng(123)
    shapes = {(int(P), int(K), int(M)) for P, K, M in
              (sorted(rng.integers(1, 41, size=3))[::-1] for _ in range(60)) if P >= 3}
    # (21,20,1) and (22,21,1): max|H F| / max|F| reads 2e-13 to 7e-13 there,
    # as the encode's cancellation leaves F far below |B| |W|
    shapes |= {(20, 18, 10), (21, 20, 1), (22, 21, 1),
               (100, 98, 20), (100, 95, 10), (100, 100, 20), (100, 90, 80)}
    checked = 0
    for P, K, M in sorted(shapes):
        p = validate_params(P, K, M, 10 * P)
        A = rng.standard_normal((M, p.N_raw))
        for kind in ("vandermonde", "gaussian"):
            gen = build_generator(p, kind, seed=5 if kind == "gaussian" else None)
            try:
                code = encode(A, gen, p)
            except ConditioningError:
                continue  # the encode gate refuses this generator
            check_generator(code)
            checked += 1
    assert checked >= 80


def test_load_refuses_another_gaussian_seed(tmp_path):
    out, _ = _sec6_transform(tmp_path, kind="gaussian", seed=9)
    load_transform(out)
    _set_param(out, "seed", 10)
    with pytest.raises(ValueError, match="F is not encoded by its gaussian generator"):
        load_transform(out)


def test_generator_check_needs_a_worker_outside_the_decode(tmp_path):
    # K = P: every worker is decoded from, none is left to compare
    p = validate_params(5, 5, 2, 10)
    gen = build_generator(p)
    out = save_transform(encode(np.ones((2, 10)), gen, p), tmp_path / "t")
    _set_param(out, "nodes", ",".join("%.17g" % h for h in gen.nodes + 1e-3))
    load_transform(out)


def test_params_file_grammar(tmp_path):
    rng = np.random.default_rng(7)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    out = save_transform(code, tmp_path / "t")
    params_txt = out / "params.txt"
    text = params_txt.read_text()
    params_txt.write_text("# comment\n\n  " + text.replace("\n", "  \n"))
    assert load_transform(out).params == p  # blank, comment and padded lines
    params_txt.write_text(text + "kind vandermonde\n")
    with pytest.raises(ValueError, match="'kind vandermonde' of .* is not key=value"):
        load_transform(out)


def test_load_accepts_a_transform_no_k_subset_can_decode(tmp_path):
    # the parity check needs no decode, so a genuine code loads even when
    # every K-subset's Vandermonde condition exceeds COND_LIMIT (K = P - 1
    # here); its decodes are what the condition gate refuses
    p = validate_params(24, 23, 17, 24)
    gen = build_generator(p)
    out = save_transform(encode(np.ones((17, 24)), gen, p), tmp_path / "t")
    code = load_transform(out)
    for straggler in range(1, 25):
        with pytest.raises(ConditioningError):
            decode([(i, 0.0) for i in range(1, 25) if i != straggler], code.generator, p)
