import dataclasses
import re
import shutil
import zlib

import numpy as np
import pytest

from shortdot import (
    ConditioningError,
    GeneratorMatrix,
    build_generator,
    chebyshev_nodes,
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
from shortdot.cli import main
from shortdot.coding import check_generator

from helpers import PARAMS_LINES, layout_refusal, replace_f, restamp, set_param, vandermonde_on


def _refused_layout(found):
    """The pattern of load_transform's refusal of a params.txt whose lines
    begin with found."""
    return "^params.txt in .* " + re.escape(layout_refusal(found)) + "$"


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


@pytest.fixture(scope="module", params=["sec6", "p100-gaussian"])
def saved_transform(request, tmp_path_factory):
    """A transform directory saved at (20,18,10,785) with the Vandermonde
    kind or at (100,98,20,10000) with the Gaussian kind, and its code."""
    shape, generator = {"sec6": ((20, 18, 10, 785), {}),
                        "p100-gaussian": ((100, 98, 20, 10000),
                                          {"kind": "gaussian"})}[request.param]
    p = validate_params(*shape)
    A = np.random.default_rng(11).standard_normal((p.M, p.N_raw))
    code = encode(A, build_generator(p, **generator), p)
    return save_transform(code, tmp_path_factory.mktemp(request.param)), code


def test_save_transform_writes_the_supports_of_savetxt(saved_transform, tmp_path):
    out, code = saved_transform
    np.savetxt(tmp_path / "numpy.txt", code.supports, fmt="%d")
    assert (out / "supports.txt").read_bytes() == (tmp_path / "numpy.txt").read_bytes()


@pytest.mark.parametrize("edit", ["deleted", "garbled"])
def test_load_derives_the_supports_without_supports_txt(saved_transform, tmp_path, capsys,
                                                        edit):
    out, code = saved_transform
    p = code.params
    edited = shutil.copytree(out, tmp_path / "edited")
    if edit == "deleted":
        (edited / "supports.txt").unlink()
    else:
        (edited / "supports.txt").write_bytes(b"not,supports\n\xff\x00 -3 1e9\n")
    original, loaded = load_transform(out), load_transform(edited)
    for name in ("F", "supports", "coefficients"):
        a, b = getattr(original, name), getattr(loaded, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert a.tobytes() == getattr(code, name).tobytes()
    x_path = tmp_path / "x.csv"
    save_matrix(x_path, np.random.default_rng(13).standard_normal(p.N_raw))
    responders = ",".join(map(str, range(p.P - p.K + 1, p.P + 1)))
    results = []
    for directory in (out, edited):
        y_path = tmp_path / f"y_{directory.name}.csv"
        argv = ["transform", str(directory), str(x_path), "--responders", responders]
        assert main(argv) == 0
        assert main(argv + ["--out", str(y_path)]) == 0
        results.append((capsys.readouterr().out.split("decoded product")[0],
                        y_path.read_bytes()))
    assert results[0] == results[1]


@pytest.fixture
def csv_parses(monkeypatch):
    """The names of the files load_transform parses with load_matrix."""
    parsed = []

    def counting(path):
        parsed.append(path.name)
        return load_matrix(path)

    monkeypatch.setattr("shortdot.serialization.load_matrix", counting)
    return parsed


def test_f_from_f_npy_is_bitwise_the_f_of_f_csv(saved_transform, csv_parses):
    out, code = saved_transform
    loaded = load_transform(out)
    assert csv_parses == []  # a fresh save loads F from F.npy
    assert loaded.F.tobytes() == load_matrix(out / "F.csv").tobytes() == code.F.tobytes()


def test_f_crc32_is_the_crc_of_f_csv_then_f_npy(saved_transform):
    out, code = saved_transform
    crc = zlib.crc32((out / "F.csv").read_bytes() + (out / "F.npy").read_bytes())
    lines = (out / "params.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("F_crc32=")] == [f"F_crc32={crc:08x}"]
    assert (out / "F.npy").stat().st_size == 8 * code.F.size + 128
    assert np.load(out / "F.npy", allow_pickle=False).tobytes() == code.F.tobytes()


def _edit_f_files(out, other, edit):
    """Make one of the edits after which load_transform must refuse the
    directory; other is another save of the same shape."""
    npy = out / "F.npy"
    if edit == "no-f-npy":
        npy.unlink()
    elif edit == "repr-f-csv":  # the same values in other text
        rows = (out / "F.csv").read_text().splitlines()
        rows[-1] = ",".join(repr(float(v)) for v in rows[-1].split(","))
        (out / "F.csv").write_text("\n".join(rows) + "\n")
    elif edit == "no-crc-line":
        params_txt = out / "params.txt"
        params_txt.write_text("".join(line + "\n" for line in params_txt.read_text().splitlines()
                                      if not line.startswith("F_crc32=")))
    elif edit == "garbled-crc":
        set_param(out, "F_crc32", "not-a-crc")
    elif edit == "crc-off-by-one":
        crc = int((out / "params.txt").read_text().splitlines()[-1].removeprefix("F_crc32="), 16)
        set_param(out, "F_crc32", f"{(crc + 1) % 2**32:08x}")
    elif edit == "npy-of-another-save":
        shutil.copyfile(other / "F.npy", npy)
    else:  # F.npy's contents, with a CRC that matches them
        raw, F = npy.read_bytes(), np.load(npy)
        if edit == "truncated-data":
            npy.write_bytes(raw[:-8])
        elif edit == "truncated-header":
            npy.write_bytes(raw[:64])
        elif edit == "not-npy":
            npy.write_bytes(b"P=6\n")
        elif edit == "npy-version-2":  # np.save writes version 1.0 for any F
            with open(npy, "wb") as fp:
                np.lib.format.write_array(fp, F, version=(2, 0))
        else:
            np.save(npy, {"float32": F.astype(np.float32), "big-endian": F.astype(">f8"),
                          "1-d": F.ravel(), "3-d": F[None], "object": F.astype(object)}[edit],
                    allow_pickle=True)
        restamp(out)


_AGAIN = "; run `shortdot encode` again$"
_CHANGED = "are not the files F_crc32 names .*" + _AGAIN
_UNREADABLE = r"is not a readable \.npy array .*" + _AGAIN
_NOT_2D_FLOAT64 = "not a 2-D float64 one" + _AGAIN
_F_REFUSALS = [
    ("no-f-npy", FileNotFoundError, "F.npy"),
    ("no-crc-line", ValueError, _refused_layout(PARAMS_LINES[:5])),
    ("repr-f-csv", ValueError, _CHANGED),
    ("garbled-crc", ValueError, _CHANGED),
    ("crc-off-by-one", ValueError, _CHANGED),
    ("npy-of-another-save", ValueError, _CHANGED),
    ("truncated-data", ValueError, _UNREADABLE),
    ("truncated-header", ValueError, _UNREADABLE),
    ("not-npy", ValueError, _UNREADABLE),
    ("npy-version-2", ValueError, _UNREADABLE),
    ("object", ValueError, _UNREADABLE),
    ("float32", ValueError, _NOT_2D_FLOAT64),
    ("big-endian", ValueError, _NOT_2D_FLOAT64),
    ("1-d", ValueError, _NOT_2D_FLOAT64),
    ("3-d", ValueError, _NOT_2D_FLOAT64),
]


@pytest.mark.parametrize("edit, error, message", _F_REFUSALS,
                         ids=[edit for edit, _, _ in _F_REFUSALS])
def test_load_refuses_f_unless_the_crc_vouches_for_a_2d_float64_f_npy(tmp_path, csv_parses,
                                                                      edit, error, message):
    p = validate_params(6, 5, 3, 12)
    rng = np.random.default_rng(12)
    code, other = (encode(rng.standard_normal((3, 12)), build_generator(p), p) for _ in range(2))
    out = save_transform(code, tmp_path / "t")
    other_out = save_transform(other, tmp_path / "other")
    assert (out / "F.npy").read_bytes() != (other_out / "F.npy").read_bytes()
    _edit_f_files(out, other_out, edit)
    with pytest.raises(error, match=message):
        load_transform(out)
    assert csv_parses == []


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

    lines = (out / "params.txt").read_text().splitlines()
    assert lines[:5] == ["P=6", "K=5", "M=3", "N_raw=14", "kind=vandermonde"]
    assert len(lines) == 6 and lines[5].startswith("F_crc32=")

    loaded = load_transform(out)
    np.testing.assert_array_equal(loaded.F, code.F)
    assert loaded.params == code.params
    assert np.array_equal(loaded.supports, code.supports)
    np.testing.assert_array_equal(loaded.generator.entries, gen.entries)

    x = rng.standard_normal(14)
    outs = run_workers(loaded, x)
    got = decode(outs[:5], loaded.generator, loaded.params)
    truth = A @ x
    assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)


def test_transform_round_trip_gaussian(tmp_path):
    rng = np.random.default_rng(2)
    p = validate_params(5, 4, 2, 10)
    gen = build_generator(p, kind="gaussian")
    code = encode(rng.standard_normal((2, 10)), gen, p)
    out = save_transform(code, tmp_path / "g")
    text = (out / "params.txt").read_text()
    assert "kind=gaussian" in text and "seed=" not in text and "nodes=" not in text
    loaded = load_transform(out)
    assert loaded.generator.kind == "gaussian"
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


def _nonzero_on_pattern(out, p):
    F = load_matrix(out / "F.csv")
    i, j = np.argwhere(zero_mask(p))[0]
    F[i, j] = 0.25
    save_matrix(out / "F.csv", F)


def _nonzero_on_pattern_in_f_npy(out, p):
    F = np.load(out / "F.npy")
    i, j = np.argwhere(zero_mask(p))[-1]
    F[i, j] = 0.25
    replace_f(out, F)


@pytest.mark.parametrize("tamper, message", [
    (_nonzero_on_pattern, "are not the files F_crc32 names"),
    (_nonzero_on_pattern_in_f_npy, "nonzero at a position the sparsity pattern forces to zero"),
], ids=["_nonzero_on_pattern", "_nonzero_on_pattern_in_f_npy"])
def test_load_refuses_transform_off_the_pattern(tmp_path, tamper, message):
    rng = np.random.default_rng(4)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    out = save_transform(code, tmp_path / "t")
    load_transform(out)
    tamper(out, p)
    with pytest.raises(ValueError, match=message):
        load_transform(out)


@pytest.mark.parametrize("edit, message", [
    ({"M": None}, _refused_layout(("P=", "K=", "N_raw=", "kind=", "F_crc32="))),
    ({"kind": None}, _refused_layout(("P=", "K=", "M=", "N_raw=", "F_crc32="))),
    ({"kind": "trig"}, "^unknown generator kind 'trig' in "),
    ({"K": "7"}, "K <= P"),
    ({"N": "12"}, _refused_layout((*PARAMS_LINES, "N="))),
    ({"zero_tolerance": "2e-09"}, _refused_layout((*PARAMS_LINES, "zero_tolerance="))),
    ({"N": "12", "zero_tolerance": "2e-09"},
     _refused_layout((*PARAMS_LINES, "N=", "zero_tolerance="))),
    ({"note": "hand-written"}, _refused_layout((*PARAMS_LINES, "note="))),
    ({"nodes": "1", "seed": "0"}, _refused_layout((*PARAMS_LINES, "nodes=", "seed="))),
], ids=["missing-M", "missing-kind", "unknown-kind", "K-above-P", "N-line",
        "zero-tolerance-line", "older-layout", "other-key", "two-older-keys"])
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


def _sec6_transform(tmp_path, **generator):
    """A (20,18,10,785) transform directory, its code and its A."""
    p = validate_params(20, 18, 10, 785)
    A = np.random.default_rng(6).standard_normal((10, 785))
    code = encode(A, build_generator(p, **generator), p)
    return save_transform(code, tmp_path / "sec6"), code, A


def _encode_on_moved_node(out, A, p, node, by):
    """Give out the F that a Vandermonde generator whose node `node`
    (0-based) is moved by `by` encodes from A."""
    nodes = chebyshev_nodes(p.P)
    nodes[node] += by
    replace_f(out, encode(A, vandermonde_on(nodes, p.K), p).F)


@pytest.mark.parametrize("key, text", [
    ("P", " +2_0 "), ("P", "+20"), ("P", "20 "), ("P", "020"), ("P", "2_0"), ("P", "20.0"),
    ("P", "\u0662\u0660"), ("K", " 18"), ("M", "1e1"), ("N_raw", "0785"), ("N_raw", "many"),
])
def test_load_refuses_a_count_not_written_as_encode_writes_it(tmp_path, capsys, key, text):
    # int() reads every one of these as the saved value (but the last two)
    out, code, _ = _sec6_transform(tmp_path)
    set_param(out, key, text)
    with pytest.raises(ValueError, match=(
            f"^params.txt in .* has {key}={re.escape(repr(text))}, not a whole number as "
            "encode writes it; run `shortdot encode` again$")):
        load_transform(out)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    save_matrix(x_path, np.ones(785))
    assert main(["transform", str(out), str(x_path), "--responders",
                 ",".join(map(str, range(1, 19))), "--out", str(y_path)]) == 2
    assert "run `shortdot encode` again" in capsys.readouterr().err
    assert not y_path.exists()


def test_a_second_load_takes_no_svd(tmp_path, monkeypatch):
    # check_generator's parity basis and pinv(B) are cached on the one
    # generator a process shares per (P, K, kind), with the same bits
    out, code, _ = _sec6_transform(tmp_path)
    gen = code.generator
    assert gen is build_generator(code.params)
    assert load_transform(out).generator is gen  # the first load may take them
    assert gen.pinv.tobytes() == np.linalg.pinv(gen.entries).tobytes()
    assert gen.pinv is gen.pinv and not gen.pinv.flags.writeable
    assert "pinv" not in dataclasses.replace(gen).__dict__
    svds = []
    for name in ("svd", "pinv"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=original, **k: svds.append(1) or _f(*a, **k))
    loaded = load_transform(out)
    assert loaded.generator is gen and loaded.F.tobytes() == code.F.tobytes()
    assert svds == []
    # a fresh generator takes one SVD for H and one for pinv(B), once
    fresh = dataclasses.replace(gen)
    for _ in range(2):
        check_generator(dataclasses.replace(code, generator=fresh))
    assert len(svds) == 2


def test_a_load_shares_the_supports_and_keeps_a_frozen_f(tmp_path):
    # F.npy's F is a read-only view of the bytes read: the transform keeps
    # a copy of it that owns its memory, the load's one copy of F
    out, code, _ = _sec6_transform(tmp_path)
    loaded = load_transform(out)
    assert loaded.F.tobytes() == code.F.tobytes()
    assert not loaded.F.flags.writeable and loaded.F.flags.owndata
    assert loaded.supports is code.supports and not loaded.supports.flags.writeable
    assert loaded.coefficients.tobytes() == code.coefficients.tobytes()
    # a frozen Fortran-ordered F is kept as it is and saved in Fortran
    # order, and the load reads that order back
    fortran = np.asfortranarray(code.F)
    fortran.flags.writeable = False
    kept = dataclasses.replace(code, F=fortran)
    assert kept.F is fortran
    out = save_transform(kept, tmp_path / "fortran")
    with open(out / "F.npy", "rb") as fp:
        np.lib.format.read_magic(fp)
        assert np.lib.format.read_array_header_1_0(fp)[1]  # fortran_order
    assert load_transform(out).F.tobytes() == code.F.tobytes()


@pytest.mark.parametrize("node", [0, 10, 19])
def test_load_refuses_a_moved_vandermonde_node(tmp_path, node):
    out, code, A = _sec6_transform(tmp_path)
    _encode_on_moved_node(out, A, code.params, node, 1e-3)
    with pytest.raises(ValueError, match="F is not encoded by its vandermonde generator"):
        load_transform(out)


def test_load_refuses_any_node_moved_by_1e_9(tmp_path):
    out, code, A = _sec6_transform(tmp_path)
    for node in range(20):
        _encode_on_moved_node(out, A, code.params, node, 1e-9)
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
            gen = build_generator(p, kind)
            try:
                code = encode(A, gen, p)
            except ConditioningError:
                continue  # the encode gate refuses this generator
            check_generator(code)
            checked += 1
    assert checked >= 80


def _with_older_line(out, key, value):
    """Give params.txt, after its kind= line, the key= line (nodes= or
    seed=) that directories written before it was dropped from the format
    hold."""
    params_txt = out / "params.txt"
    lines = [line for line in params_txt.read_text().splitlines()
             if not line.startswith(f"{key}=")]
    kind = next(i for i, line in enumerate(lines) if line.startswith("kind="))
    lines.insert(kind + 1, f"{key}={value}")
    params_txt.write_text("\n".join(lines) + "\n")


def _with_older_keys(line):
    """The key= heads of the lines of a params.txt given line by
    _with_older_line."""
    return (*PARAMS_LINES[:5], line, PARAMS_LINES[5])


def test_load_refuses_the_seed_line_of_an_older_gaussian_directory(tmp_path):
    # seed 0 is the one Gaussian draw, yet the line is not of the format
    out, _, _ = _sec6_transform(tmp_path, kind="gaussian")
    load_transform(out)
    _with_older_line(out, "seed", 0)
    with pytest.raises(ValueError, match=_refused_layout(_with_older_keys("seed="))):
        load_transform(out)


@pytest.mark.parametrize("P, K, M, N", [(20, 18, 10, 785), (6, 6, 3, 12)], ids=["sec6", "k-eq-p"])
def test_load_refuses_an_older_directory_drawn_from_another_seed(tmp_path, P, K, M, N):
    # what `encode --kind gaussian --seed 9` wrote: F on the seed-9 draw
    # and a seed=9 line.  At K = P the parity check cannot see it, so the
    # seed= line is what refuses it.
    p = validate_params(P, K, M, N)
    A = np.random.default_rng(8).standard_normal((M, N))
    out = save_transform(encode(A, build_generator(p, "gaussian"), p), tmp_path / "t")
    seed9 = GeneratorMatrix(np.random.default_rng(9).standard_normal((P, K)), "gaussian")
    F = encode(A, seed9, p).F
    save_matrix(out / "F.csv", F)
    replace_f(out, F)
    if K == P:
        load_transform(out)
    _with_older_line(out, "seed", 9)
    with pytest.raises(ValueError, match=_refused_layout(_with_older_keys("seed="))):
        load_transform(out)


def test_generator_check_needs_a_worker_outside_the_decode(tmp_path):
    # K = P: every worker is decoded from, none is left to compare
    p = validate_params(5, 5, 2, 10)
    A = np.random.default_rng(8).standard_normal((2, 10))
    out = save_transform(encode(A, build_generator(p), p), tmp_path / "t")
    _encode_on_moved_node(out, A, p, 0, 1e-3)
    load_transform(out)


@pytest.mark.parametrize("edit", ["as-written", "reformatted", "moved-1e-3", "moved-1-ulp",
                                  "one-missing", "not-numbers", "empty"])
def test_load_refuses_the_nodes_line_of_an_older_directory(tmp_path, edit):
    # the Chebyshev nodes, the only ones a generator is built on, included
    out, _, _ = _sec6_transform(tmp_path)
    nodes = chebyshev_nodes(20)
    if edit == "moved-1e-3":
        nodes[0] += 1e-3
    elif edit == "moved-1-ulp":
        nodes[10] = np.nextafter(nodes[10], np.inf)
    elif edit == "one-missing":
        nodes = nodes[1:]
    fmt = "%.25e " if edit == "reformatted" else "%.17g"
    line = {"not-numbers": "nan,x", "empty": ""}.get(edit, ",".join(fmt % h for h in nodes))
    _with_older_line(out, "nodes", line)
    with pytest.raises(ValueError, match=_refused_layout(_with_older_keys("nodes="))):
        load_transform(out)


@pytest.mark.parametrize("P, K, M, N", [(20, 18, 10, 785), (5, 5, 2, 10)], ids=["sec6", "k-eq-p"])
def test_load_refuses_an_older_directory_encoded_on_other_nodes(tmp_path, P, K, M, N):
    # what `encode --nodes` wrote: F and a nodes= line on nodes that are
    # not the Chebyshev ones.  At K = P the parity check cannot see it,
    # so the nodes= line is what refuses it.
    p = validate_params(P, K, M, N)
    A = np.random.default_rng(8).standard_normal((M, N))
    out = save_transform(encode(A, build_generator(p), p), tmp_path / "t")
    _encode_on_moved_node(out, A, p, 0, 1e-3)
    if K == P:
        load_transform(out)
    nodes = chebyshev_nodes(P)
    nodes[0] += 1e-3
    _with_older_line(out, "nodes", ",".join("%.17g" % h for h in nodes))
    with pytest.raises(ValueError, match=_refused_layout(_with_older_keys("nodes="))):
        load_transform(out)


def test_save_refuses_a_generator_that_params_txt_cannot_rebuild(tmp_path):
    p = validate_params(6, 5, 3, 12)
    A = np.random.default_rng(10).standard_normal((3, 12))
    nodes = chebyshev_nodes(6)
    save_transform(encode(A, vandermonde_on(nodes, 5), p), tmp_path / "same")
    nodes[0] += 1e-3
    other_draw = np.random.default_rng(9).standard_normal((6, 5))
    gaussian = dataclasses.replace(build_generator(p, kind="gaussian"), entries=other_draw)
    for gen in (vandermonde_on(nodes, 5), gaussian):
        with pytest.raises(ValueError, match="not the one build_generator makes"):
            save_transform(encode(A, gen, p), tmp_path / "t")
        assert not (tmp_path / "t").exists()


def test_params_file_grammar(tmp_path):
    # params.txt is exactly the six lines save_transform writes: the same
    # values in any other layout are refused, with one message
    rng = np.random.default_rng(7)
    p = validate_params(6, 5, 3, 12)
    code = encode(rng.standard_normal((3, 12)), build_generator(p), p)
    out = save_transform(code, tmp_path / "t")
    params_txt = out / "params.txt"
    lines = params_txt.read_text().splitlines()
    assert tuple(line.partition("=")[0] + "=" for line in lines) == PARAMS_LINES
    assert load_transform(out).params == p
    for layout, found in [
        (["# comment", *lines], ("# comment", *PARAMS_LINES)),
        ([*lines[:3], "", *lines[3:]], (*PARAMS_LINES[:3], "", *PARAMS_LINES[3:])),
        (["  " + lines[0], *lines[1:]], ("  P=", *PARAMS_LINES[1:])),
        ([*lines[:4], " " + lines[4].replace("=", " = "), lines[5]],
         (*PARAMS_LINES[:4], " kind =", PARAMS_LINES[5])),
        ([lines[1], lines[0], *lines[2:]], ("K=", "P=", *PARAMS_LINES[2:])),
        ([*lines, "kind vandermonde"], (*PARAMS_LINES, "kind vandermonde")),
        ([*lines, "kind=gaussian"], (*PARAMS_LINES, "kind=")),
        (lines[:5], PARAMS_LINES[:5]),
    ]:
        params_txt.write_text("".join(line + "\n" for line in layout))
        with pytest.raises(ValueError, match=_refused_layout(found)):
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
