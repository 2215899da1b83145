"""Multiple ergodic averages over product nilmanifolds, and floor diagnostics.

A k-factor experiment is one block-diagonal product orbit: an
:class:`AverageExperiment` holds its :class:`~nilorbit.orbits.OrbitConfig`,
generator i acting in block i, and one test function per block, so the orbit
engine that powers single-orbit statistics also evaluates
(1/N) sum_n  F_1(b_1^(a_1(n)) x_1) ... F_k(b_k^(a_k(n)) x_k).  Every average
runs through :func:`nilorbit.orbits.chunked_mean`, a whole N grid in one pass
over the orbit.  Test functions come from the registered dictionary (known
Haar integrals), which makes the predicted limit for declared-full closures a
product of integrals.

Integer-part handling is exact: floors are computed symbolically/with
escalating precision, and the floor-correction sequence
e(n) = floor(a2(n)) - floor(a1(n)) - floor(c) for (P2)-close pairs is
available as a pointwise diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .hardy import HardyExpr, PreconditionError, check_P2, evaluate, floor_at
from .orbits import OrbitConfig, TestFunction, character, chunked_mean, make_test_function
from .windows import decreasing_abs_threshold


@dataclass(frozen=True)
class AverageExperiment:
    """The product orbit ``cfg`` (one generator per block) and the test
    function ``tests[i]`` of block i, a TestFunction or its dictionary spec
    (:func:`nilorbit.orbits.make_test_function`); the integrand is their
    product."""

    cfg: OrbitConfig
    tests: tuple[TestFunction, ...]
    declared_closure: str  # "full" | "undeclared"
    n_grid: tuple[int, ...]

    def __post_init__(self):
        if self.declared_closure not in ("full", "undeclared"):
            raise ValueError("declared_closure must be 'full' or 'undeclared'")
        if len(self.cfg.generators) != len(self.cfg.blocks):
            raise ValueError("average experiments pair one generator per block")
        if len(self.tests) != len(self.cfg.blocks):
            raise ValueError("need one test function per factor")
        object.__setattr__(self, "tests", tuple(
            t if isinstance(t, TestFunction) else make_test_function(t, blk.coords_dim, blk.dim - 1)
            for t, blk in zip(self.tests, self.cfg.layout.blocks)))

    def orbit_config(self) -> OrbitConfig:
        return self.cfg  # the benchmark tracer (perfbench/tracer.py) binds this name

    def integrand(self):
        """Product of the block test functions on their blocks' columns (views).

        The characters among them multiply to one character of the product:
        its phase is summed once per sample over the nonzero frequencies,
        block by block in column order, and exponentiated once
        (:func:`~nilorbit.orbits.character`); the other factors multiply it
        in block order."""
        layout = self.cfg.layout
        terms, others = [], []  # (coordinate column, frequency); (test, block)
        for test, blk in zip(self.tests, layout.blocks):
            if test.character is None:
                others.append((test, blk))
                continue
            horizontal, k = test.character
            cols = (layout.horiz_cols[blk.horiz] if horizontal
                    else range(layout.coords_dim)[blk.coords])
            terms.extend(zip(cols, k))

        def fn(ns, coords, horiz):
            out = character(((coords[:, c], k) for c, k in terms), len(ns)) if terms else None
            for test, blk in others:
                v = test(coords[:, blk.coords], horiz[:, blk.horiz])
                out = v if out is None else out * v
            return out

        return fn


def multiple_average(exp: AverageExperiment, N: int, workers: int = 1) -> complex:
    """(1/N) sum_{n<=N} of the product integrand, deterministic summation."""
    return chunked_mean(exp.cfg, exp.integrand(), 1, (N,), workers)[0]


def predicted_limit(exp: AverageExperiment) -> Optional[complex]:
    """Product of the factor integrals when every closure is declared full."""
    if exp.declared_closure != "full":
        return None
    out = 1 + 0j
    for test in exp.tests:
        if test.integral is None:
            return None
        out *= test.integral
    return out


@dataclass(frozen=True)
class SeriesRow:
    N: int
    value: complex
    limit: Optional[complex]
    abs_err: Optional[float]
    cauchy_increment: Optional[float]  # |A_N - A_{previous grid point}|


@dataclass(frozen=True)
class ConvergenceSeries:
    rows: tuple[SeriesRow, ...]


def convergence_series(exp: AverageExperiment, n_grid: Optional[Sequence[int]] = None,
                       workers: int = 1) -> ConvergenceSeries:
    """Averages along the grid (the experiment's by default) in one pass of
    :func:`nilorbit.orbits.chunked_mean`, so every row is bit-identical to a
    standalone :func:`multiple_average` call."""
    grid = tuple(n_grid) if n_grid is not None else exp.n_grid
    values = chunked_mean(exp.cfg, exp.integrand(), 1, grid, workers)
    limit = predicted_limit(exp)
    return ConvergenceSeries(tuple(
        SeriesRow(N, A, limit,
                  abs(A - limit) if limit is not None else None,
                  abs(A - prev) if prev is not None else None)
        for N, A, prev in zip(grid, values, [None, *values])))


# --------------------------------------------------------------------------
# floor-correction diagnostics

def _floor_of_limit(limit_term) -> int:
    if limit_term is None:
        return 0
    if limit_term.const is None:
        return math.floor(limit_term.coeff)
    v = limit_term.coeff_fraction_approx()
    f = v - math.floor(v)
    if min(f, 1 - f) < Fraction(1, 10 ** 40):
        raise PreconditionError("limit too close to an integer to floor reliably")
    return math.floor(v)


def _limit_of_difference(a1: HardyExpr, a2: HardyExpr):
    """The constant term of lim (a2 - a1), None for 0; PreconditionError unless (P2) holds."""
    p2 = check_P2(a2 - a1)
    if not p2.holds:
        raise PreconditionError("(P2) fails for a2 - a1")
    return p2.limit


def floor_discrepancy(a1: HardyExpr, a2: HardyExpr, n: int) -> int:
    """Exact e(n) = floor(a2(n)) - floor(a1(n)) - floor(c), c = lim (a2 - a1).

    Requires the difference to satisfy (P2); past the threshold reported by
    :func:`floor_discrepancy_threshold` the value lies in {0, +-1, +-2}.
    """
    return floor_at(a2, n) - floor_at(a1, n) - _floor_of_limit(_limit_of_difference(a1, a2))


def floor_discrepancy_threshold(a1: HardyExpr, a2: HardyExpr) -> int:
    """Certified n past which the correction term x(t) = a2 - a1 - c has
    constant sign and |x| < 1/2."""
    diff, limit = a2 - a1, _limit_of_difference(a1, a2)
    x = diff - HardyExpr((limit,)) if limit is not None else diff
    if x.is_zero:
        return 1
    t = decreasing_abs_threshold(x)
    for _ in range(200):
        if abs(evaluate(x, t)) < 0.5:
            return max(1, math.ceil(t))
        t *= 2.0
    raise PreconditionError("could not certify |a2 - a1 - c| < 1/2")
