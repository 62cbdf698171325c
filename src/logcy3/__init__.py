"""Exact toolkit for three-dimensional log Calabi-Yau pairs built as
interior-blowup programs over smooth complete toric threefolds.

Everything is computed exactly: coordinates live in the multiplicative
group of Q(i), lattice computations use arbitrary-precision integers.
"""

from logcy3.gaussian import GaussianRational
from logcy3.toric import Fan3, Fan2, DualComplex
from logcy3.pair import LogCY3Pair, PointBlowup, CurveBlowup, PicVector

__all__ = [
    "GaussianRational",
    "IntMatrix",
    "SnfDecomposition",
    "Fan3",
    "Fan2",
    "DualComplex",
    "LogCY3Pair",
    "PointBlowup",
    "CurveBlowup",
    "PicVector",
]

__version__ = "0.1.0"


def __getattr__(name):
    # The lattice types load ``exactnum`` on first use, so a validate does not.
    if name in ("IntMatrix", "SnfDecomposition"):
        from logcy3 import exactnum

        return getattr(exactnum, name)
    raise AttributeError(f"module 'logcy3' has no attribute {name!r}")
