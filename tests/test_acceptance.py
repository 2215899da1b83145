"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Numeric thresholds are pinned from the pilot runs committed under pilot/
(see pilot/README.md); instance configs are the shipped JSON files under
instances/.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import engine_group as G
from nilorbit import averages as A, cli, hardy as H, orbits as O, windows as W
from nilorbit.ddmath import DD

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def load(name):
    return cli.load_config(str(INSTANCES / f"{name}.json"))


class _Gate:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({dt:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert dt < self.budget, f"{self.label} exceeded runtime budget: {dt:.2f}s"
        return False


def test_criterion_1_window_bounds_exact():
    with _Gate("1 window bounds", 1.0):
        b = W.class_bounds(H.parse("t^{3/2}"), 3)
        assert b.lower == (F(1, 2), F(0)) and b.upper == (F(5, 8), F(0))
        assert b.lower_inclusive
        b = W.class_bounds(H.parse("t*log(t)"), 2)
        assert b.lower == (F(1, 2), F(0)) and b.upper == (F(2, 3), F(0))
        L = H.parse("t^{3/5}")
        assert W.member(L, H.parse("t^{3/2}"), 3)
        assert W.member(L, H.parse("t*log(t)"), 2)


def test_criterion_2_boshernitzan_torus():
    with _Gate("2 torus Weyl decay", 30.0):
        cfg = cli.build_orbit_config(load("torus_boshernitzan"))
        values = [abs(O.weyl_sum(cfg, [1], N)) for N in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert values[0] > values[1] > values[2]
        assert values[2] <= 0.01  # pilot: 0.00101


def test_criterion_3_product_equidistribution():
    with _Gate("3 product discrepancy", 300.0):
        cfg = cli.build_orbit_config(load("heisenberg_pair"))
        assert cfg.coords_dim == 6
        values = [O.orbit_discrepancy(cfg, N, 8) for N in (10 ** 4, 10 ** 5, 10 ** 6)]
        assert values[0] > values[1] > values[2]
        assert values[2] <= 0.03  # pilot: 0.0129


def test_criterion_4_obstruction_growth():
    with _Gate("4 obstruction growth", 60.0):
        doc = load("heisenberg_pair")
        cfg = cli.build_orbit_config(doc)
        plan = cli.build_window(doc, cfg)
        n_low = O.obstruction_search(cfg, plan, 10 ** 3, 3).min_norm
        n_high = O.obstruction_search(cfg, plan, 10 ** 5, 3).min_norm
        assert n_high >= 10 * n_low  # pilot: 1.536 -> 27.128


def test_criterion_5_pointwise_with_dependencies():
    with _Gate("5 dependent-average Cauchy", 300.0):
        exp = cli.build_experiment(load("pointwise_dependent"))
        fns = list(exp.cfg.functions)
        assert len(H.maximal_independent_subset(fns)) == 2  # genuinely dependent
        series = A.convergence_series(exp)
        incs = [r.cauchy_increment for r in series.rows if r.cauchy_increment is not None]
        assert all(a > b for a, b in zip(incs, incs[1:]))
        assert incs[-1] <= 0.01  # pilot: 0.00096


def test_criterion_6_group_arithmetic_suite():
    """The engine's group arithmetic: entry polynomials through DD.polyval,
    _block_product and _reduce_block, on 2,500 elements per identity family,
    batched by dimension."""
    with _Gate("6 group arithmetic 1e4 checks", 10.0):
        rng = np.random.default_rng(2026)
        dims_2_to_5 = {2: 625, 3: 625, 4: 625, 5: 625}
        dims_2_to_4 = {2: 834, 3: 833, 4: 833}

        def values(n, d, scale):
            return rng.normal(scale=scale, size=(n, d * (d - 1) // 2))

        for d, n in dims_2_to_5.items():  # exp(log b) = b^1 = b
            v = values(n, d, 1.0)
            back = G.powers(G.compile_powers(v, d), d, np.ones(n))
            assert np.abs(G.entries(back, d) - v).max() <= 1e-12
        for d, n in dims_2_to_5.items():  # b^(s+t) = b^s b^t
            polys = G.compile_powers(values(n, d, 1.0), d)
            s, t = rng.normal(scale=3.0, size=(2, n))
            lhs = G.powers(polys, d, DD.add(DD.from_float(s), DD.from_float(t)))
            rhs = G.product(d, G.powers(polys, d, s), G.powers(polys, d, t))
            assert np.abs(G.entries(lhs, d) - G.entries(rhs, d)).max() <= 1e-12
        for d, n in dims_2_to_4.items():  # reduce(g gamma) = reduce(g)
            g = G.elements(values(n, d, 4.0), d)
            gam = G.elements(rng.integers(-3, 4, size=(n, d * (d - 1) // 2)).astype(float), d)
            assert np.abs(G.reduce(g, d) - G.reduce(G.product(d, g, gam), d)).max() <= 1e-12
        for d, n in dims_2_to_5.items():  # reduce(reduce(g)) = reduce(g)
            coords = G.reduce(G.elements(values(n, d, 4.0), d), d)
            assert np.abs(G.reduce(G.elements(coords, d), d) - coords).max() <= 1e-12


def test_criterion_7_checker_truth_table():
    with _Gate("7 checker truth table", 1.0):
        r = H.check_P1(H.parse("t^{3/2}"))
        assert r.holds and r.witness_epsilon == F(3, 4)
        assert not H.check_P1(H.parse("t^2 + log(t)")).holds
        r = H.check_P1(H.parse("1/2*t^2"))
        assert r.holds and r.witness_epsilon == F(1)

        r = H.check_P2(H.parse("3 + t^{-1}"))
        assert r.holds and r.limit_float() == 3.0
        assert not H.check_P2(H.parse("log(t)")).holds
        r = H.check_P2(H.parse("t^{-1/2}*log(t)"))
        assert r.holds and r.limit_float() == 0.0

        assert H.classify_mod1(H.parse("t^{1/2}")).case is H.Mod1Case.EQUIDISTRIBUTED
        m = H.classify_mod1(H.parse("1/2 + t^{-1}"))
        assert m.case is H.Mod1Case.CONVERGES_NONZERO and m.value == F(1, 2)
        m = H.classify_mod1(H.parse("5 + t^{-1}"))
        assert m.case is H.Mod1Case.CONVERGES_ZERO_SIGNED and m.sign == 1


def test_criterion_8_cinfty_norm_oracle():
    with _Gate("8 smoothness-norm oracle", 1.0):
        p = O.to_binomial_basis([F(0), F(0), F(1, 4)])
        assert p.coeffs == (F(0), F(1, 4), F(1, 2))
        assert O.cinfty_norm(p, 10) == 50.0
        for coeffs in ([F(3)], [F(1), F(2)], [F(0), F(-4), F(9), F(17)]):
            assert O.cinfty_norm(O.to_binomial_basis(coeffs), 1000) == 0.0


def test_criterion_9_floor_diagnostics():
    with _Gate("9 floor-correction range", 120.0):
        for name in ("floor_pair_a", "floor_pair_b"):
            doc = load(name)
            a1, a2 = (H.parse(s) for s in doc["functions"])
            allowed = {-2, -1, 0, 1, 2}
            for n in range(10 ** 3, 10 ** 4 + 1):
                assert A.floor_discrepancy(a1, a2, n) in allowed
