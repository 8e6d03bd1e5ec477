"""On-disk formats: CSV matrices and encoded-transform directories.

Matrices are row-major CSV, no header, 64-bit decimal text.  An encoded
transform is a directory of
    params.txt    exactly six key=value lines, keyed by _KEYS in order:
                  P, K, M, N_raw, kind, F_crc32
    F.csv         the P x N encoded matrix
    F.npy         the same F as a float64 .npy file (np.save)
    supports.txt  one line per row: space-separated 1-based column indices

F.csv and supports.txt are written for people, workers and other tools,
and a load parses neither: F comes from F.npy, and the supports follow
from (P, K, M, N).  F_crc32 is the zlib CRC-32, as 8 hex digits, of
F.csv's bytes followed by F.npy's, read back from disk after both are
written; params.txt is written last.  load_transform refuses, with
ValueError and the advice to run `shortdot encode` again, a params.txt
of any other lines (another key, such as the lines older versions wrote
for N, the zero tolerance, the nodes and the seed, a comment, blank,
repeated or reordered line, or a key padded with spaces), a CRC that
does not match both files (so an edited F.csv or F.npy) and an F.npy
that is not a 2-D float64 array in the version 1.0 format np.save
writes for one; a missing F.npy raises
FileNotFoundError.  The values of P, K, M and N_raw must read exactly
as save_transform writes them, str(int(value)): a space, sign, leading
zero or digit-group underscore is refused too.

params.txt holds only what a load reads: no N, which P and N_raw fix,
and no zero tolerance, since F's zeros are exact zeros.  A generator is
a function of (P, K, kind), so no nodes or seed either; save_transform
refuses a generator that build_generator would not rebuild from
params.txt.  load_transform
refuses an F that is not P x N, is nonzero on the sparsity pattern or
that the generator does not reproduce (see coding.check_generator), and
keeps a read-only copy of the F it read, as any transform of a view does.
"""

from __future__ import annotations

import io
import math
import zlib
from pathlib import Path

import numpy as np

from .coding import EncodedTransform, check_generator
from .generator import build_generator
from .params import validate_params

_FMT = "%.17g"  # round-trips float64 exactly
# the keys of params.txt, in the order save_transform writes them
_KEYS = ("P", "K", "M", "N_raw", "kind", "F_crc32")
_AGAIN = "run `shortdot encode` again"


def _write_table(path, mat: np.ndarray, fmt: str, delimiter: str) -> None:
    """Write the 2-D mat as np.savetxt(path, mat, fmt=fmt,
    delimiter=delimiter) does, byte for byte, with one row format and
    one write."""
    row = delimiter.join([fmt] * mat.shape[1]) + "\n"
    Path(path).write_text("".join(row % tuple(r) for r in mat.tolist()))


def save_matrix(path, mat) -> None:
    """Write mat as np.savetxt(path, mat, fmt=_FMT, delimiter=",") does,
    byte for byte, in one write."""
    _write_table(path, np.atleast_2d(np.asarray(mat, dtype=float)), _FMT, ",")


def load_matrix(path) -> np.ndarray:
    """The matrix of a CSV file, at least 2-D; a file with no entries
    (every line blank or a # comment) is refused."""
    lines = Path(path).read_text().splitlines()
    if not any(line.partition("#")[0].strip() for line in lines):
        raise ValueError(f"{path} holds no matrix entries")
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def save_transform(code: EncodedTransform, out_dir) -> Path:
    p, gen = code.params, code.generator
    if not np.array_equal(build_generator(p, gen.kind).entries, gen.entries):
        raise ValueError(f"the {gen.kind} generator is not the one build_generator "
                         "makes, so params.txt could not rebuild it")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv, npy = out / "F.csv", out / "F.npy"
    save_matrix(csv, code.F)
    np.save(npy, np.asarray(code.F, dtype=np.float64))
    _write_table(out / "supports.txt", code.supports, "%d", " ")
    # the CRC of what is on disk, so it vouches for no other bytes; and
    # params.txt last, so an interrupted save leaves no CRC of new files
    crc = zlib.crc32(npy.read_bytes(), zlib.crc32(csv.read_bytes()))
    values = (p.P, p.K, p.M, p.N_raw, gen.kind, f"{crc:08x}")
    (out / "params.txt").write_text("".join(f"{k}={v}\n" for k, v in zip(_KEYS, values)))
    return out


def _npy_F(src: Path, crc_text: str) -> np.ndarray:
    """F from src's F.npy, refused unless crc_text is the F_crc32 of its
    F.csv and F.npy and F.npy holds a 2-D float64 array.  Each file is
    read once, so the CRC vouches for the bytes loaded.  F is a read-only
    view of those bytes, so the transform's copy is the load's only copy
    of F (read_array would first copy them into an array of its own)."""
    raw = (src / "F.npy").read_bytes()
    if crc_text != f"{zlib.crc32(raw, zlib.crc32((src / 'F.csv').read_bytes())):08x}":
        raise ValueError(f"F.csv and F.npy in {src} are not the files F_crc32 names "
                         f"(one was changed or replaced after the save); {_AGAIN}")
    fp = io.BytesIO(raw)
    try:  # the version 1.0 header np.save writes for a 2-D float64 F, then its data
        if np.lib.format.read_magic(fp) != (1, 0):
            raise ValueError("not the version 1.0 header np.save writes for F")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fp)
        if dtype.hasobject:
            raise ValueError("it holds Python objects")
        F = np.frombuffer(raw, dtype, math.prod(shape), fp.tell()).reshape(
            shape, order="F" if fortran_order else "C")
    except ValueError as exc:  # truncated, or not an .npy array
        raise ValueError(f"F.npy in {src} is not a readable .npy array ({exc}); "
                         f"{_AGAIN}") from None
    if F.dtype != np.float64 or F.ndim != 2:
        raise ValueError(f"F.npy in {src} holds a {F.ndim}-D {F.dtype} array, not a "
                         f"2-D float64 one; {_AGAIN}")
    return F


def _count(key: str, text: str, src: Path) -> int:
    """The whole number text of params.txt's key= line, refused unless
    text is how save_transform writes it, str(int(text))."""
    try:
        if text == str(int(text)):
            return int(text)
    except ValueError:  # not a number at all
        pass
    raise ValueError(f"params.txt in {src} has {key}={text!r}, not a whole number "
                     f"as encode writes it; {_AGAIN}")


def load_transform(in_dir) -> EncodedTransform:
    """Read a directory written by save_transform.  params.txt must be
    the six key=value lines save_transform writes, keyed by _KEYS in
    order, and F comes from F.npy alone, vouched for by F_crc32 (see
    _npy_F); F.csv and supports.txt are never parsed.  Also refuses an
    F that is nonzero on the sparsity pattern and an F its generator
    does not reproduce (see coding.check_generator)."""
    src = Path(in_dir)
    lines = [line.partition("=") for line in (src / "params.txt").read_text().splitlines()]
    found = tuple(key + eq for key, eq, _ in lines)
    expected = tuple(f"{key}=" for key in _KEYS)
    if found != expected:
        raise ValueError(f"params.txt in {src} has lines beginning {found}, not exactly "
                         f"{expected}; {_AGAIN}")
    *counts, kind, crc = (value for _, _, value in lines)
    params = validate_params(*(_count(key, text, src) for key, text in zip(_KEYS, counts)))
    try:
        gen = build_generator(params, kind)
    except ValueError as exc:  # the kind is unknown
        raise ValueError(f"{exc} in {src}") from None
    code = EncodedTransform(F=_npy_F(src, crc), generator=gen, params=params)
    check_generator(code)
    return code
