"""The group law of the orbit engine's unitriangular arithmetic: products
(``_block_product``), real powers from the compiled entry polynomials, the
nilpotent log (``_log_dd``) and the lattice reduction (``_reduce_block``),
checked on arrays of elements."""

from __future__ import annotations

import numpy as np
import pytest
from mpmath import mp

from engine_group import compile_powers, elements, entries, powers, product, reduce
from mp_oracle import PREC, circular, mp_log
from nilorbit import orbits as O
from nilorbit.ddmath import DD


def rand_values(rng, n, d, scale=2.0):
    return rng.normal(scale=scale, size=(n, d * (d - 1) // 2))


def rand_lattice(rng, n, d, span=3):
    return rng.integers(-span, span + 1, size=(n, d * (d - 1) // 2)).astype(np.float64)


class TestMultiply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        v = rand_values(rng, 5, 4)
        g, one = elements(v, 4), elements(np.zeros_like(v), 4)
        assert np.array_equal(entries(product(4, g, one), 4), v)
        assert np.array_equal(entries(product(4, one, g), 4), v)

    def test_heisenberg_composition(self):
        gh = product(3, elements([1.5, 2.5, 0.0], 3), elements([0.25, 4.0, 1.0], 3))
        assert entries(gh, 3).tolist() == [[1.75, 6.5, 0.0 + 1.0 + 1.5 * 4.0]]

    def test_inverse(self):
        """g g^(-1) = I, the inverse as the power s = -1."""
        rng = np.random.default_rng(1)
        v = rand_values(rng, 20, 5)
        inv = powers(compile_powers(v, 5), 5, -np.ones(20))
        assert np.abs(entries(product(5, elements(v, 5), inv), 5)).max() <= 1e-12

    def test_associativity_randomized(self):
        rng = np.random.default_rng(2)
        for d in range(2, 6):
            g, h, k = (elements(rand_values(rng, 50, d), d) for _ in range(3))
            lhs = entries(product(d, product(d, g, h), k), d)
            rhs = entries(product(d, g, product(d, h, k)), d)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestExpLog:
    def test_series_terminates(self):
        """b = exp(X) for X with ones on the superdiagonal: the entry
        polynomials of b^s = exp(sX) end at degree d - 1 = 2."""
        (poly,) = compile_powers([1.0, 1.0, 0.5], 3)
        coeffs = {k: [None if c is None else float(c) for c in cs] for k, cs in poly.items()}
        assert coeffs == {(0, 1): [None, 1.0], (1, 2): [None, 1.0], (0, 2): [None, None, 0.5]}

    def test_log_identity(self):
        assert O._log_dd({}, 4) == {}
        assert compile_powers(np.zeros(6), 4) == [{}]

    def test_roundtrip_randomized(self):
        """log b against the mpmath series, and exp(log b) = b^1 = b."""
        rng = np.random.default_rng(3)
        for d in range(2, 7):
            values = rand_values(rng, 100, d, scale=1.0)
            for v in values[:20]:
                lam = O._log_dd({k: O.as_entry(float(x))
                                 for k, x in zip(O.coordinate_order(d), v)}, d)
                with mp.workprec(PREC):
                    ref = mp_log(v.tolist(), d)
                    for (i, j) in O.coordinate_order(d):
                        got = float(lam[(i, j)]) if (i, j) in lam else 0.0
                        assert abs(got - float(ref[i, j])) <= 1e-12
            back = entries(powers(compile_powers(values, d), d, np.ones(len(values))), d)
            assert np.abs(back - values).max() <= 1e-12


class TestPowerReal:
    def test_unit_power(self):
        rng = np.random.default_rng(4)
        v = rand_values(rng, 1, 4)
        poly = compile_powers(v, 4)
        assert np.abs(entries(powers(poly, 4, np.ones(1)), 4) - v).max() < 1e-12
        assert np.abs(entries(powers(poly, 4, np.zeros(1)), 4)).max() == 0.0

    def test_heisenberg_symbolic_oracle(self):
        # for b with (1,2)=(2,3)=1, (1,3)=0: log b has (1,3) = -1/2, so
        # b^s = exp(s log b) has (1,3) = s^2/2 - s/2
        s = np.array([0.5, 2.0, -1.25, 7.75])
        bs = entries(powers(compile_powers([1.0, 1.0, 0.0], 3), 3, s), 3)
        assert bs[:, 0] == pytest.approx(s, abs=1e-13)
        assert bs[:, 1] == pytest.approx(s, abs=1e-13)
        assert bs[:, 2] == pytest.approx(s * s / 2 - s / 2, abs=1e-12)

    def test_integer_power_consistency(self):
        """b^m from the entry polynomials against b (or b^(-1)) multiplied |m| times."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            v = rand_values(rng, 1, d, scale=1.0)
            m = int(rng.integers(-6, 7))
            poly = compile_powers(v, d)
            step = powers(poly, d, np.full(1, -1.0 if m < 0 else 1.0))
            acc = elements(np.zeros_like(v), d)
            for _ in range(abs(m)):
                acc = product(d, acc, step)
            got = entries(powers(poly, d, np.full(1, float(m))), d)
            assert np.abs(got - entries(acc, d)).max() <= 1e-12

    def test_one_parameter_subgroup(self):
        """b^(s+t) = b^s b^t, the sum s + t exact in DD."""
        rng = np.random.default_rng(6)
        for d in range(2, 6):
            polys = compile_powers(rand_values(rng, 25, d, scale=1.0), d)
            s, t = rng.normal(scale=3.0, size=(2, 25))
            lhs = powers(polys, d, DD.add(DD.from_float(s), DD.from_float(t)))
            rhs = product(d, powers(polys, d, s), powers(polys, d, t))
            assert np.abs(entries(lhs, d) - entries(rhs, d)).max() <= 1e-12


class TestReduce:
    def test_worked_example(self):
        assert np.allclose(reduce(elements([2.3, 0.7, 0.0], 3), 3), [[0.3, 0.7, 0.0]])

    def test_lattice_element(self):
        assert np.all(reduce(elements([2.0, 3.0, 5.0], 3), 3) == 0)

    def test_witness(self):
        """The reduced point r lies in [0, 1) and in g's coset: g^(-1) r is
        an integer matrix, the lattice witness."""
        rng = np.random.default_rng(7)
        for d in range(2, 6):
            values = rand_values(rng, 25, d, scale=5.0)
            r = reduce(elements(values, d), d)
            assert np.all(r >= 0) and np.all(r < 1)
            witness = entries(product(d, powers(compile_powers(values, d), d, -np.ones(25)),
                                      elements(r, d)), d)
            assert np.abs(witness - np.round(witness)).max() <= 1e-12

    def test_brute_force_small_witness(self):
        # cross-check the elementary reduction against search over small gamma
        grid = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3, indexing="ij"), -1).reshape(-1, 3)
        g = elements(np.repeat([[1.4, -0.6, 0.9]], len(grid), axis=0), 3)
        m = entries(product(3, g, elements(grid.astype(np.float64), 3)), 3)
        inside = m[np.all((m >= 0) & (m < 1), axis=1)]
        assert len(inside) == 1
        assert np.allclose(inside[0], reduce(elements([1.4, -0.6, 0.9], 3), 3)[0])

    def test_right_invariance_randomized(self):
        rng = np.random.default_rng(8)
        for d in range(2, 5):
            g = elements(rand_values(rng, 50, d, scale=4.0), d)
            gam = elements(rand_lattice(rng, 50, d), d)
            a, b = reduce(g, d), reduce(product(d, g, gam), d)
            assert np.abs(a - b).max() <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for d in range(2, 6):
            coords = reduce(elements(rand_values(rng, 50, d, scale=4.0), d), d)
            again = reduce(elements(coords, d), d)
            assert np.abs(coords - again).max() <= 1e-12


class TestHorizontal:
    """The first d - 1 reduced coordinates, the superdiagonal mod 1, are the
    projection to the horizontal torus."""

    def test_identity(self):
        assert np.all(reduce(elements(np.zeros(6), 4), 4)[:, :3] == 0)

    def test_heisenberg(self):
        assert np.allclose(reduce(elements([1.25, -0.5, 9.0], 3), 3)[0, :2], [0.25, 0.5])

    def test_homomorphism(self):
        rng = np.random.default_rng(10)
        for d in range(2, 6):
            g, h = (elements(rand_values(rng, 50, d), d) for _ in range(2))
            lhs = reduce(product(d, g, h), d)[:, :d - 1]
            rhs = reduce(g, d)[:, :d - 1] + reduce(h, d)[:, :d - 1]
            assert circular(lhs, rhs) <= 1e-12


class TestHaarInvariance:
    def test_left_translation_preserves_uniformity(self):
        # push uniform Malcev coordinates through a fixed left translation and
        # re-reduce; cell counts stay flat (chi^2 with generous 5-sigma slack)
        rng = np.random.default_rng(11)
        d, n, grid = 3, 20000, 4
        g = elements(np.repeat(rand_values(rng, 1, d, scale=1.5), n, axis=0), d)
        y = reduce(product(d, g, elements(rng.random((n, 3)), d)), d)
        cells = O.histogram_counts(y, grid)
        k = cells.size
        expected = n / k
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 < (k - 1) + 5 * np.sqrt(2 * (k - 1))
