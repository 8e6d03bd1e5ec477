"""Helpers shared by the test modules."""

import numpy as np

from shortdot import GeneratorMatrix


def vandermonde_on(nodes, K: int) -> GeneratorMatrix:
    """The Vandermonde generator on the given nodes.  build_generator
    makes it on the Chebyshev nodes only, so hand examples and nodes
    chosen to trip a gate are built here."""
    h = np.array(nodes, dtype=float)
    return GeneratorMatrix(entries=np.vander(h, K), kind="vandermonde", nodes=h)
