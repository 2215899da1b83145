"""Arithmetic on the d x d unitriangular group and its integer lattice.

The group of upper-triangular matrices with unit diagonal is connected,
simply connected and nilpotent of step d-1; exp and log are finite sums, so
real powers b^s are exact polynomial expressions in s.  The integer-entry
subgroup is a co-compact lattice whose fundamental domain is the unit cube
in the strictly-upper entries (Malcev coordinates), reached by clearing
entries with elementary integer column operations in ascending superdiagonal
offset -- clearing an offset-o entry only disturbs entries of strictly
larger offset.

This module is the plain-float64 reference implementation; the orbit engine
re-implements the same formulas in vectorized double-double for large
exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def coordinate_order(d: int) -> list[tuple[int, int]]:
    """Strict-upper index pairs (0-based), superdiagonal offset ascending,
    then row ascending."""
    return [(i, i + o) for o in range(1, d) for i in range(d - o)]


@dataclass(frozen=True)
class MalcevCoords:
    """Point of the fundamental domain: one value in [0,1) per strict-upper
    entry, in :func:`coordinate_order`."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.dim * (self.dim - 1) // 2,):
            raise ValueError("coordinate vector has wrong length")


class UnitriangularElement:
    """Group element stored as a full (d, d) float64 matrix with unit diagonal."""

    __slots__ = ("d", "mat")

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=np.float64)
        d = mat.shape[0]
        if mat.shape != (d, d) or d < 2:
            raise ValueError("need a square matrix of dimension >= 2")
        if not np.all(np.isfinite(mat)):
            raise ValueError("entries must be finite")
        lower = np.tril_indices(d, -1)
        if np.any(mat[lower] != 0) or np.any(np.diag(mat) != 1):
            raise ValueError("matrix must be unitriangular")
        self.d = d
        self.mat = mat

    # -- construction -------------------------------------------------------

    @staticmethod
    def identity(d: int) -> "UnitriangularElement":
        return UnitriangularElement(np.eye(d))

    @staticmethod
    def from_coords(d: int, values) -> "UnitriangularElement":
        m = np.eye(d)
        for (i, j), v in zip(coordinate_order(d), values):
            m[i, j] = v
        return UnitriangularElement(m)

    # -- serialization (d; then row-major strict-upper entries) -------------

    def serialize(self) -> str:
        entries = [repr(float(self.mat[i, j])) for i in range(self.d)
                   for j in range(i + 1, self.d)]
        return f"{self.d};" + ",".join(entries)

    @staticmethod
    def deserialize(text: str) -> "UnitriangularElement":
        head, _, rest = text.partition(";")
        d = int(head)
        vals = [float(x) for x in rest.split(",")] if rest else []
        if len(vals) != d * (d - 1) // 2:
            raise ValueError("wrong number of entries")
        m = np.eye(d)
        it = iter(vals)
        for i in range(d):
            for j in range(i + 1, d):
                m[i, j] = next(it)
        return UnitriangularElement(m)

    def __repr__(self):
        return f"UnitriangularElement({self.serialize()!r})"


@dataclass(frozen=True)
class LieAlgebraElement:
    """Strictly upper-triangular matrix; nilpotent by shape."""

    mat: np.ndarray

    def __post_init__(self):
        d = self.mat.shape[0]
        if self.mat.shape != (d, d):
            raise ValueError("need a square matrix")
        if np.any(self.mat[np.tril_indices(d)] != 0):
            raise ValueError("matrix must be strictly upper triangular")

    @property
    def d(self) -> int:
        return self.mat.shape[0]


def multiply(g: UnitriangularElement, h: UnitriangularElement) -> UnitriangularElement:
    if g.d != h.d:
        raise ValueError(f"dimension mismatch: {g.d} vs {h.d}")
    return UnitriangularElement(g.mat @ h.mat)


def inverse(g: UnitriangularElement) -> UnitriangularElement:
    u = g.mat - np.eye(g.d)
    acc = np.eye(g.d)
    p = np.eye(g.d)
    for _ in range(1, g.d):
        p = -p @ u
        acc = acc + p
    return UnitriangularElement(acc)


def exp(x: LieAlgebraElement) -> UnitriangularElement:
    """Matrix exponential; the series ends at order d-1."""
    d = x.d
    acc = np.eye(d)
    p = np.eye(d)
    for j in range(1, d):
        p = p @ x.mat / j
        acc = acc + p
    return UnitriangularElement(acc)


def log(g: UnitriangularElement) -> LieAlgebraElement:
    """Matrix logarithm; the series ends at order d-1."""
    u = g.mat - np.eye(g.d)
    acc = np.zeros_like(u)
    p = np.eye(g.d)
    for j in range(1, g.d):
        p = p @ u
        acc = acc + ((-1) ** (j + 1) / j) * p
    return LieAlgebraElement(acc)


def power_real(b: UnitriangularElement, s: float) -> UnitriangularElement:
    """b^s = exp(s log b), the one-parameter subgroup through b."""
    return exp(LieAlgebraElement(s * log(b).mat))


def power_int(b: UnitriangularElement, n: int) -> UnitriangularElement:
    """Group power by repeated multiplication (oracle for power_real)."""
    acc = UnitriangularElement.identity(b.d)
    g = b if n >= 0 else inverse(b)
    for _ in range(abs(n)):
        acc = multiply(acc, g)
    return acc


def commutator(g: UnitriangularElement, h: UnitriangularElement) -> UnitriangularElement:
    return multiply(multiply(g, h), multiply(inverse(g), inverse(h)))


def reduce_mod_lattice(g: UnitriangularElement) -> tuple[MalcevCoords, np.ndarray]:
    """Fundamental-domain representative and the lattice witness.

    Returns (coords, gamma) with gamma an integer unitriangular matrix such
    that g @ gamma has all strict-upper entries in [0, 1).  Entries are
    cleared in ascending superdiagonal offset; the column update
    col_j += -floor * col_i only touches offsets > j - i because the earlier
    columns are already reduced.
    """
    d = g.d
    m = g.mat.copy()
    gamma = np.eye(d, dtype=np.int64)
    for i, j in coordinate_order(d):
        f = math.floor(m[i, j])
        if f != 0:
            # right-multiply by the elementary matrix E_{ij}(-f)
            m[: i + 1, j] -= f * m[: i + 1, i]
            gamma[:, j] -= f * gamma[:, i]
    values = np.array([m[i, j] for i, j in coordinate_order(d)])
    return MalcevCoords(d, values), gamma


def horizontal_projection(g: UnitriangularElement) -> np.ndarray:
    """Superdiagonal entries mod 1: the image on the horizontal torus T^(d-1).

    For unitriangular groups the commutator subgroup is exactly the
    offset >= 2 part, and integer matrices project to 0, so this is the
    abelianized coordinate.
    """
    sd = np.array([g.mat[i, i + 1] for i in range(g.d - 1)])
    return sd - np.floor(sd)
