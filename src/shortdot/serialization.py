"""On-disk formats: CSV matrices and encoded-transform directories.

Matrices are row-major CSV, no header, 64-bit decimal text.  An encoded
transform is a directory of
    params.txt    key=value lines: P, K, M, N, N_raw, kind, seed/nodes
    F.csv         the P x N encoded matrix
    supports.txt  one line per row: space-separated 1-based column indices

The supports follow from the parameters; load_transform checks
supports.txt against them and refuses an F that is nonzero on the
sparsity pattern.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .coding import EncodedTransform
from .generator import build_generator
from .params import validate_params

_FMT = "%.17g"  # round-trips float64 exactly


def save_matrix(path, mat) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    np.savetxt(path, mat, fmt=_FMT, delimiter=",")


def load_matrix(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_transform(code: EncodedTransform, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p, gen = code.params, code.generator
    lines = [
        f"P={p.P}",
        f"K={p.K}",
        f"M={p.M}",
        f"N={p.N}",
        f"N_raw={p.N_raw}",
        f"kind={gen.kind}",
    ]
    if gen.kind == "vandermonde":
        lines.append("nodes=" + ",".join(_FMT % h for h in gen.nodes))
    else:
        lines.append(f"seed={gen.seed}")
    lines.append(f"zero_tolerance={_FMT % code.zero_tolerance}")
    (out / "params.txt").write_text("\n".join(lines) + "\n")
    save_matrix(out / "F.csv", code.F)
    np.savetxt(out / "supports.txt", code.supports, fmt="%d")
    return out


def load_transform(in_dir) -> EncodedTransform:
    src = Path(in_dir)
    kv = {}
    for line in (src / "params.txt").read_text().splitlines():
        line = line.strip()
        if line and "=" in line:
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()

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
        nodes = np.array([float(tok) for tok in field("nodes").split(",")])
        gen = build_generator(params, kind="vandermonde", nodes=nodes)
    elif kind == "gaussian":
        gen = build_generator(params, kind="gaussian", seed=int(field("seed")))
    else:
        raise ValueError(f"unknown generator kind {kind!r} in {src}")
    F = load_matrix(src / "F.csv")
    ztol = float(kv.get("zero_tolerance", 1e-9 * np.max(np.abs(F), initial=0.0)))
    code = EncodedTransform(F=F, generator=gen, params=params, zero_tolerance=ztol)
    stored = np.loadtxt(src / "supports.txt", dtype=int, ndmin=2)
    if not np.array_equal(stored, code.supports):
        raise ValueError(f"supports.txt in {src} does not match the sparsity pattern")
    return code
