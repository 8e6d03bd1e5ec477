"""On-disk formats: CSV matrices and encoded-transform directories.

Matrices are row-major CSV, no header, 64-bit decimal text.  An encoded
transform is a directory of
    params.txt    key=value lines: P, K, M, N, N_raw, kind, zero_tolerance,
                  F_crc32
    F.csv         the P x N encoded matrix
    F.npy         the same F as a float64 .npy file (np.save)
    supports.txt  one line per row: space-separated 1-based column indices

F.csv is the documented, editable form; F.npy spares a load the parse
of its decimal text.  F_crc32 is the zlib CRC-32, as 8 hex digits, of
F.csv's bytes followed by F.npy's, read back from disk after both are
written; params.txt is written last.  load_transform takes F from F.npy
only when that CRC matches both files and F.npy holds a 2-D float64
array, and otherwise parses F.csv (a directory written before F.npy,
or an F.csv edited after the save).  %.17g round-trips float64, so
both give F bit for bit.

supports.txt is written for workers and never read back: the supports
follow from (P, K, M, N), and a load derives them.

params.txt is read with read_key_values.
It stores no nodes and no seed: a generator is a function of (P, K,
kind), the Vandermonde kind on the Chebyshev nodes and the Gaussian kind
one fixed draw.  An older directory's nodes= line must list those nodes
and its seed= line must name that draw's seed.  save_transform refuses a
generator that build_generator would not rebuild from params.txt.
load_transform refuses an F that is nonzero on the sparsity pattern or
that the generator does not reproduce (see coding.check_generator),
whichever file F came from.
"""

from __future__ import annotations

import io
import zlib
from pathlib import Path

import numpy as np

from .coding import EncodedTransform, check_generator
from .generator import _GAUSSIAN_SEED, build_generator
from .params import validate_params

_FMT = "%.17g"  # round-trips float64 exactly


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
    lines = [
        f"P={p.P}",
        f"K={p.K}",
        f"M={p.M}",
        f"N={p.N}",
        f"N_raw={p.N_raw}",
        f"kind={gen.kind}",
        f"zero_tolerance={_FMT % code.zero_tolerance}",
    ]
    csv, npy = out / "F.csv", out / "F.npy"
    save_matrix(csv, code.F)
    np.save(npy, np.asarray(code.F, dtype=np.float64))
    _write_table(out / "supports.txt", code.supports, "%d", " ")
    # the CRC of what is on disk, so it vouches for no other bytes; and
    # params.txt last, so an interrupted save leaves no CRC of new files
    lines.append(f"F_crc32={zlib.crc32(npy.read_bytes(), zlib.crc32(csv.read_bytes())):08x}")
    (out / "params.txt").write_text("\n".join(lines) + "\n")
    return out


def _npy_F(src: Path, crc_text: str | None) -> np.ndarray | None:
    """F from src's F.npy when crc_text is the F_crc32 of its F.csv and
    F.npy and F.npy holds a 2-D float64 array, else None.  Each file is
    read once, so the CRC vouches for the bytes loaded."""
    if crc_text is None:
        return None
    try:
        raw = (src / "F.npy").read_bytes()
    except FileNotFoundError:
        return None
    if crc_text != f"{zlib.crc32(raw, zlib.crc32((src / 'F.csv').read_bytes())):08x}":
        return None
    try:
        F = np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    except ValueError:  # truncated, or not an .npy array
        return None
    return F if F.dtype == np.float64 and F.ndim == 2 else None


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
    """Read a directory written by save_transform, refusing an older
    directory's nodes= line that does not list the Chebyshev nodes or
    seed= line that does not name the Gaussian kind's fixed seed, an F
    that is nonzero on the sparsity pattern, and an F its generator does
    not reproduce (see coding.check_generator).  supports.txt is never
    opened: the supports are derived from (P, K, M, N).

    F comes from F.npy when params.txt's F_crc32 matches the bytes of
    F.csv and F.npy and F.npy holds a 2-D float64 array, and is parsed
    from F.csv otherwise: a directory written before F.npy, or whose
    F.csv was edited after the save.  Every check above runs on F
    either way."""
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
    try:
        gen = build_generator(params, kind)
    except ValueError as exc:  # the kind is unknown
        raise ValueError(f"{exc} in {src}") from None
    if "nodes" in kv and not _lists(kv["nodes"], gen.nodes):
        raise ValueError(f"params.txt in {src}: nodes= is not the {params.P} "
                         "Chebyshev nodes, the only ones a generator is built on")
    if "seed" in kv and not _lists(kv["seed"], [_GAUSSIAN_SEED]):
        raise ValueError(f"params.txt in {src}: seed= is not {_GAUSSIAN_SEED}, "
                         "the seed of the one Gaussian generator")
    F = _npy_F(src, kv.get("F_crc32"))
    if F is None:
        F = load_matrix(src / "F.csv")
    code = EncodedTransform(F=F, generator=gen, params=params,
                            zero_tolerance=float(field("zero_tolerance")))
    check_generator(code)
    return code
