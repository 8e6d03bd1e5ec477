"""On-disk formats: CSV matrices and encoded-transform directories.

Matrices are row-major CSV, no header, 64-bit decimal text.  An encoded
transform is a directory of
    params.txt    key=value lines: P, K, M, N, N_raw, kind, seed (Gaussian
                  kind only), zero_tolerance
    F.csv         the P x N encoded matrix
    supports.txt  one line per row: space-separated 1-based column indices

params.txt is read with read_key_values, as are the CLI's --config files.
It stores no nodes: a Vandermonde generator is always the one on the
Chebyshev nodes, and an older directory's nodes= line must list them.
save_transform refuses a generator that build_generator would not
rebuild from params.txt.  The supports follow from the parameters;
load_transform checks supports.txt against them, and refuses an F that
is nonzero on the sparsity pattern or that the generator does not
reproduce (see coding.check_generator).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .coding import EncodedTransform, check_generator
from .generator import build_generator
from .params import validate_params

_FMT = "%.17g"  # round-trips float64 exactly


def save_matrix(path, mat) -> None:
    """Write mat as np.savetxt(path, mat, fmt=_FMT, delimiter=",") does,
    byte for byte, in one write."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    row = ",".join([_FMT] * mat.shape[1]) + "\n"
    Path(path).write_text("".join(row % tuple(r) for r in mat.tolist()))


def load_matrix(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_transform(code: EncodedTransform, out_dir) -> Path:
    p, gen = code.params, code.generator
    if not np.array_equal(build_generator(p, gen.kind, seed=gen.seed).entries, gen.entries):
        raise ValueError(f"the {gen.kind} generator is not the one build_generator "
                         "makes, so params.txt could not rebuild it")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"P={p.P}",
        f"K={p.K}",
        f"M={p.M}",
        f"N={p.N}",
        f"N_raw={p.N_raw}",
        f"kind={gen.kind}",
    ]
    if gen.kind == "gaussian":
        lines.append(f"seed={gen.seed}")
    lines.append(f"zero_tolerance={_FMT % code.zero_tolerance}")
    (out / "params.txt").write_text("\n".join(lines) + "\n")
    save_matrix(out / "F.csv", code.F)
    np.savetxt(out / "supports.txt", code.supports, fmt="%d")
    return out


def read_key_values(path) -> dict[str, str]:
    """The stripped key=value lines of a file (a later key wins); blank and
    # lines are skipped, any other line without = is refused."""
    kv = {}
    for line in map(str.strip, Path(path).read_text().splitlines()):
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ValueError(f"line {line!r} of {path} is not key=value")
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


def _lists(text: str, values: np.ndarray) -> bool:
    """Whether comma-separated text holds exactly these float values."""
    try:
        return np.array_equal(np.array(text.split(","), dtype=float), values)
    except ValueError:
        return False


def load_transform(in_dir) -> EncodedTransform:
    """Read a directory written by save_transform, refusing supports that
    miss the pattern, an older directory's nodes= line that does not list
    the Chebyshev nodes, and an F its generator does not reproduce (see
    coding.check_generator)."""
    src = Path(in_dir)
    kv = read_key_values(src / "params.txt")

    def field(key: str) -> str:
        if key not in kv:
            raise ValueError(f"params.txt in {src} has no {key}= line")
        return kv[key]

    params = validate_params(*(int(field(key)) for key in ("P", "K", "M", "N_raw")))
    if int(field("N")) != params.N:
        raise ValueError(
            f"params.txt in {src}: N={field('N')} but P and N_raw give {params.N}")
    kind = field("kind")
    if kind == "vandermonde":
        gen = build_generator(params)
        if "nodes" in kv and not _lists(kv["nodes"], gen.nodes):
            raise ValueError(f"params.txt in {src}: nodes= is not the {params.P} "
                             "Chebyshev nodes, the only ones a generator is built on")
    elif kind == "gaussian":
        gen = build_generator(params, kind="gaussian", seed=int(field("seed")))
    else:
        raise ValueError(f"unknown generator kind {kind!r} in {src}")
    F = load_matrix(src / "F.csv")
    code = EncodedTransform(F=F, generator=gen, params=params,
                            zero_tolerance=float(field("zero_tolerance")))
    stored = np.loadtxt(src / "supports.txt", dtype=int, ndmin=2)
    if not np.array_equal(stored, code.supports):
        raise ValueError(f"supports.txt in {src} does not match the sparsity pattern")
    check_generator(code)
    return code
