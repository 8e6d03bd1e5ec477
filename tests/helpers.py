"""Helpers shared by the test modules."""

import zlib

import numpy as np

from shortdot import GeneratorMatrix


def vandermonde_on(nodes, K: int) -> GeneratorMatrix:
    """The Vandermonde generator on the given nodes.  build_generator
    makes it on the Chebyshev nodes only, so hand examples and nodes
    chosen to trip a gate are built here."""
    h = np.array(nodes, dtype=float)
    return GeneratorMatrix(entries=np.vander(h, K), kind="vandermonde", nodes=h)


def set_param(out, key, value) -> None:
    """Rewrite the key= line of the transform directory out's params.txt."""
    params_txt = out / "params.txt"
    lines = params_txt.read_text().splitlines()
    params_txt.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=")
                                  else line + "\n" for line in lines))


def restamp(out) -> None:
    """Set the F_crc32= line of the transform directory out to the CRC of
    its F.csv and F.npy as they are now, so a load reads an F.npy edited
    after the save."""
    crc = zlib.crc32((out / "F.csv").read_bytes() + (out / "F.npy").read_bytes())
    set_param(out, "F_crc32", f"{crc:08x}")


def replace_f(out, F) -> None:
    """Give the transform directory out the encoded matrix F: F.npy holds
    it and F_crc32 vouches for it, so a load's checks see F itself."""
    np.save(out / "F.npy", np.asarray(F, dtype=np.float64))
    restamp(out)
