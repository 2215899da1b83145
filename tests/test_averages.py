from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import averages as A, cli, hardy as H, orbits as O
from nilorbit.constants import REGISTRY
from nilorbit.ddmath import to_fraction


def factor(block_dim, generator, fn, test, base=None):
    """One block of a product experiment: (dim, generator, function, base, test spec)."""
    base = base if base is not None else [0] * (block_dim * (block_dim - 1) // 2)
    return (block_dim, tuple(map(O.as_entry, generator)), H.parse(fn),
            tuple(map(O.as_entry, base)), test)


def torus_factor(alpha, fn, test, base=None):
    return factor(2, [alpha], fn, test, base)


def exp_of(*factors, floor=False, closure="full", grid=(10 ** 3,)):
    """The experiment on the block-diagonal product of the factors."""
    dims, gens, fns, bases, tests = zip(*factors)
    cfg = O.OrbitConfig(dim=sum(dims), blocks=dims, generators=gens, functions=fns,
                        base_point=sum(bases, ()),
                        floor_mode=O.FloorMode.FLOOR if floor else O.FloorMode.REAL)
    return A.AverageExperiment(cfg, tests, closure, tuple(grid))


class TestMultipleAverage:
    def test_all_ones(self):
        e = exp_of(torus_factor("phi", "t", {"type": "one"}),
                   torus_factor("sqrt2", "t^{1/2}", {"type": "one"}))
        assert A.multiple_average(e, 1234) == 1 + 0j

    def test_single_factor_equals_weyl_sum_bitwise(self):
        e = exp_of(torus_factor("phi", "t", {"type": "horizontal_character", "k": [1]}))
        cfg = e.cfg
        for N in (999, 10 ** 4, 10 ** 5):
            assert A.multiple_average(e, N) == O.weyl_sum(cfg, [1], N)

    def test_two_factor_product_structure(self):
        # product of characters over independent rotations equals the
        # single combined exponential average
        e = exp_of(
            torus_factor("phi", "t", {"type": "horizontal_character", "k": [1]}),
            torus_factor("sqrt2", "t", {"type": "horizontal_character", "k": [1]}))
        N = 10 ** 4
        got = A.multiple_average(e, N)
        phi = REGISTRY["phi"].as_float()
        r2 = REGISTRY["sqrt2"].as_float()
        n = np.arange(1, N + 1)
        want = np.exp(2j * np.pi * ((n * phi) % 1 + (n * r2) % 1)).mean()
        assert abs(got - want) < 1e-9


class TestFloorMode:
    def test_integer_polynomial_bit_identical(self):
        f = factor(3, ["phi", "sqrt2", 0], "t^2 + 3*t",
                   {"type": "horizontal_character", "k": [1, 1]})
        er = exp_of(f)
        ef = exp_of(f, floor=True)
        assert A.multiple_average(er, 4321) == A.multiple_average(ef, 4321)

    def test_floor_changes_non_integer_orbits(self):
        f = torus_factor("phi", "t^{3/2}", {"type": "horizontal_character", "k": [1]})
        er = exp_of(f)
        ef = exp_of(f, floor=True)
        assert A.multiple_average(er, 2000) != A.multiple_average(ef, 2000)


class TestPredictedLimit:
    def test_nontrivial_character_zero(self):
        e = exp_of(torus_factor("phi", "t", {"type": "horizontal_character", "k": [2]}))
        assert A.predicted_limit(e) == 0j

    def test_all_ones_limit(self):
        e = exp_of(torus_factor("phi", "t", {"type": "one"}),
                   torus_factor("sqrt2", "t", {"type": "one"}))
        assert A.predicted_limit(e) == 1 + 0j

    def test_bump_product(self):
        f = factor(3, ["phi", "sqrt2", 0], "t^{3/2}", {"type": "bump", "coords": [0, 1, 2]})
        e = exp_of(f, f)
        assert A.predicted_limit(e) == complex(F(1, 64))

    def test_bump_integral_quadrature(self):
        # the registered closed form (1/2)^m against numeric quadrature
        xs = np.linspace(0, 1, 20001)
        val = np.trapezoid((1 + np.cos(2 * np.pi * xs)) / 2, xs)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_undeclared(self):
        e = exp_of(torus_factor("phi", "t", {"type": "one"}), closure="undeclared")
        assert A.predicted_limit(e) is None


class TestConvergenceSeries:
    def test_constant_integrand(self):
        e = exp_of(torus_factor("phi", "t", {"type": "one"}), grid=(10, 100, 1000))
        s = A.convergence_series(e)
        assert all(r.value == 1 + 0j for r in s.rows)
        assert all(r.cauchy_increment == 0 for r in s.rows[1:])

    def test_rows_match_standalone_averages(self):
        e = exp_of(torus_factor("phi", "t^{3/2}",
                                {"type": "horizontal_character", "k": [1]}),
                   grid=(100, 1000, 65536, 10 ** 5))
        s = A.convergence_series(e)
        for r in s.rows:
            assert r.value == A.multiple_average(e, r.N)

    def test_undeclared_has_no_limit_column(self):
        e = exp_of(torus_factor("phi", "t", {"type": "one"}), closure="undeclared",
                   grid=(10, 100))
        s = A.convergence_series(e)
        assert all(r.limit is None and r.abs_err is None for r in s.rows)

    def test_grid_must_increase(self):
        e = exp_of(torus_factor("phi", "t", {"type": "one"}))
        with pytest.raises(H.PreconditionError):
            A.convergence_series(e, (100, 100))

    def test_workers_bit_identical(self):
        e = exp_of(torus_factor("phi", "t^{3/2}",
                                {"type": "horizontal_character", "k": [1]}),
                   grid=(10 ** 4, 10 ** 5))
        s1 = A.convergence_series(e, workers=1)
        s2 = A.convergence_series(e, workers=4)
        assert [r.value for r in s1.rows] == [r.value for r in s2.rows]


class TestBasePointShift:
    def test_torus_character_shift_bound(self):
        # on the circle the change-of-base-point defect is exactly
        # |1 - e(m alpha)| |S_N| <= Lip(F) * d(b^m x, x)
        alpha = REGISTRY["phi"].as_float()
        m = 3
        f0 = torus_factor("phi", "t^{3/2}", {"type": "horizontal_character", "k": [1]})
        shifted = torus_factor("phi", "t^{3/2}",
                               {"type": "horizontal_character", "k": [1]},
                               base=[(m * alpha) % 1.0])
        N = 10 ** 4
        a0 = A.multiple_average(exp_of(f0), N)
        a1 = A.multiple_average(exp_of(shifted), N)
        dist = min((m * alpha) % 1.0, 1 - (m * alpha) % 1.0)
        assert abs(a0 - a1) <= 2 * math.pi * dist + 1e-12


class TestFloorDiscrepancy:
    def test_identical_functions(self):
        a1 = H.parse("t^{3/2}")
        assert A.floor_discrepancy(a1, a1, 12345) == 0

    def test_half_shift_pair(self):
        a1 = H.parse("t^{3/2}")
        a2 = H.parse("t^{3/2} + 1/2 + t^{-1}")
        vals = {A.floor_discrepancy(a1, a2, n) for n in range(1000, 1200)}
        assert vals <= {0, 1} and vals == {0, 1}

    def test_integer_shift_absorbed(self):
        a1 = H.parse("t^{3/2}")
        a2 = H.parse("t^{3/2} + 3")
        assert all(A.floor_discrepancy(a1, a2, n) == 0 for n in range(1000, 1020))

    def test_requires_p2(self):
        with pytest.raises(H.PreconditionError, match="P2"):
            A.floor_discrepancy(H.parse("t"), H.parse("t + log(t)"), 100)

    def test_threshold_certifies_range(self):
        a1 = H.parse("t*log(t)")
        a2 = H.parse("t*log(t) + 3 - 2*t^{-1}")
        thr = A.floor_discrepancy_threshold(a1, a2)
        for n in range(thr, thr + 200):
            assert A.floor_discrepancy(a1, a2, n) in (-2, -1, 0, 1, 2)

    def test_irrational_limit(self):
        a1 = H.parse("t^{3/2}")
        a2 = H.parse("t^{3/2} + sqrt2 - t^{-1}")
        # floor(c) = 1 for c = sqrt2
        e_vals = {A.floor_discrepancy(a1, a2, n) for n in range(1000, 1100)}
        assert e_vals <= {-2, -1, 0, 1, 2}

    @given(st.integers(10 ** 3, 10 ** 5))
    @settings(max_examples=40)
    def test_definition_pointwise(self, n):
        a1 = H.parse("t^{3/2}")
        a2 = H.parse("t^{3/2} + 1/2 + t^{-1}")
        e = A.floor_discrepancy(a1, a2, n)
        assert e == H.floor_at(a2, n) - H.floor_at(a1, n)  # floor(c) = 0 here


class TestShippedInstanceCauchy:
    # character averages settle along decade grids on every shipped instance
    @pytest.mark.parametrize("name,test_specs", [
        ("torus_boshernitzan", [{"type": "horizontal_character", "k": [1]}]),
        ("heisenberg_pair", [{"type": "horizontal_character", "k": [1, 0]},
                             {"type": "horizontal_character", "k": [0, 1]}]),
    ])
    def test_final_increment_small(self, name, test_specs):
        import json
        from pathlib import Path

        from nilorbit import cli

        doc = json.loads((Path(__file__).resolve().parent.parent
                          / "instances" / f"{name}.json").read_text())
        doc["tests"] = test_specs
        exp = cli.build_experiment(doc)
        series = A.convergence_series(exp, (10 ** 3, 10 ** 4, 10 ** 5))
        incs = [r.cauchy_increment for r in series.rows if r.cauchy_increment is not None]
        assert incs[-1] <= 0.05  # measured 0.008 (torus) and 0.020 (pair)


class TestIndependentPairInstance:
    def test_product_character_average_small_at_1e6(self):
        # two-factor product of nontrivial characters on the shipped pair
        # instance: limit is the product of integrals = 0, and the average
        # is the same quantity as the combined-frequency Weyl sum
        e = exp_of(
            factor(3, ["phi", "sqrt2", 0], "t^{3/2}",
                   {"type": "horizontal_character", "k": [1, 0]}),
            factor(3, ["pi", "e", 0], "t*log(t)",
                   {"type": "horizontal_character", "k": [0, 1]}),
            grid=(10 ** 6,))
        N = 10 ** 6
        a = A.multiple_average(e, N)
        assert A.predicted_limit(e) == 0j
        assert abs(a) <= 0.01  # pilot-scale value 0.00054
        # the same quantity through the Weyl path: the folded character sums
        # the same phase in the same column order
        assert a == O.weyl_sum(e.cfg, [1, 0, 0, 1], N)


class TestFoldedCharacter:
    """The characters of an experiment multiply to one character of the
    product: its phase summed over the nonzero frequencies, block by block
    in column order, and exponentiated once per sample."""

    @pytest.fixture(params=["heisenberg_pair", "pointwise_dependent"])
    def experiment(self, request):
        import json
        from pathlib import Path

        doc = json.loads((Path(__file__).resolve().parent.parent
                          / "instances" / f"{request.param}.json").read_text())
        return cli.build_experiment(doc)

    @staticmethod
    def columns(exp):
        """(coordinate column, frequency) of each nonzero frequency, in order."""
        layout = exp.cfg.layout
        return [(layout.horiz_cols[blk.horiz][l], k)
                for test, blk in zip(exp.tests, layout.blocks)
                for l, k in enumerate(test.character[1]) if k]

    def test_equals_product_of_block_characters(self, experiment):
        cols = self.columns(experiment)
        # float64 rounding: the phase sum and the exponentials, each a few
        # units of u = 2^-53 of 2 pi (sum |k| + factors)
        size = sum(abs(k) for _, k in cols) + len(experiment.tests)
        tol = 2 * math.pi * 2.0 ** -53 * (len(cols) + 1) * size
        engine = O.OrbitEngine(experiment.cfg)
        for a in (1, 10 ** 6 - O.CHUNK + 1):
            ns, coords, horiz = engine.samples(a, a + O.CHUNK - 1)
            want = np.ones(len(ns), dtype=complex)
            for test, blk in zip(experiment.tests, experiment.cfg.layout.blocks):
                want *= O._e(horiz[:, blk.horiz] @ np.array(test.character[1]))
            got = experiment.integrand()(ns, coords, horiz)
            assert np.abs(got - want).max() <= tol

    def test_phase_summed_in_column_order(self, experiment):
        cols = self.columns(experiment)
        ns, coords, horiz = O.OrbitEngine(experiment.cfg).samples(10 ** 6 - 999, 10 ** 6)
        phase = O.character_phase(((coords[:, c], k) for c, k in cols), len(ns))
        for i in np.random.default_rng(2).choice(len(ns), 50, replace=False):
            p = None
            for c, k in cols:
                t = float(coords[i, c]) * float(k)
                p = t if p is None else p + t
            assert np.float64(p).tobytes() == phase[i].tobytes()
        assert experiment.integrand()(ns, coords, horiz).tobytes() == O._e(phase).tobytes()


class TestDependentInstance:
    def test_small_scale_cauchy(self):
        e = exp_of(
            factor(3, ["phi", "sqrt2", 0], "t*log(t)",
                   {"type": "horizontal_character", "k": [1, -1]}),
            factor(3, ["pi", "e", 0], "t^{3/2}",
                   {"type": "horizontal_character", "k": [1, -1]}),
            factor(3, ["sqrt3", "sqrt5", 0], "t^{3/2} + t*log(t)",
                   {"type": "horizontal_character", "k": [1, 0]}),
            floor=True, grid=(10 ** 3, 10 ** 4, 10 ** 5))
        s = A.convergence_series(e)
        assert abs(s.rows[-1].value) < 0.02
        # the spanning set is dependent; the independent basis has rank 2
        idx = H.maximal_independent_subset(list(e.cfg.functions))
        assert len(idx) == 2


class TestMixedBlockSizes:
    """A product of a 2x2 and a 3x3 block, in both orders: block i starts at
    coordinate offset sum b(b-1)/2 and at horizontal offset sum (b - 1) over
    the blocks before it, which only blocks of different sizes tell apart."""

    GENERATOR = {2: ["phi"], 3: ["sqrt2", "sqrt3", "1/3"]}
    BASE = {2: ["1/5"], 3: ["1/7", "2/7", "3/7"]}
    FUNCTION = {2: "t^{3/2}", 3: "t*log(t)"}
    K = {2: [1], 3: [2, -1]}
    # Malcev columns of each block's superdiagonal (its horizontal coordinates)
    HORIZ_COLS = {(2, 3): [0, 1, 2], (3, 2): [0, 1, 3]}

    @pytest.fixture(params=[(2, 3), (3, 2)], ids=["2-3", "3-2"])
    def blocks(self, request):
        return request.param

    def experiment(self, blocks, grid=(10 ** 3,)):
        return exp_of(*(factor(b, self.GENERATOR[b], self.FUNCTION[b],
                               {"type": "horizontal_character", "k": self.K[b]}, self.BASE[b])
                        for b in blocks), grid=grid)

    def test_coordinates_and_horizontal_columns(self, blocks):
        cfg = self.experiment(blocks).cfg
        assert (cfg.coords_dim, cfg.horiz_dim) == (4, 3)
        _, coords, horiz = O.OrbitEngine(cfg).samples(1, 3000)
        assert np.array_equal(horiz, coords[:, self.HORIZ_COLS[blocks]])
        c0 = 0
        for b in blocks:  # each block's columns are those of its own orbit
            alone = exp_of(factor(b, self.GENERATOR[b], self.FUNCTION[b], {"type": "one"},
                                  self.BASE[b])).cfg
            _, own, _ = O.OrbitEngine(alone).samples(1, 3000)
            assert np.array_equal(coords[:, c0:c0 + b * (b - 1) // 2], own)
            c0 += b * (b - 1) // 2

    def test_generator_horizontal_lifts(self, blocks):
        lifts = O.generator_horizontal_lifts(self.experiment(blocks).cfg)
        zero = [F(0)] * 3
        h0 = 0
        for gi, b in enumerate(blocks):
            want = list(zero)
            want[h0:h0 + b - 1] = [to_fraction(O.as_entry(v))
                                   for v in self.GENERATOR[b][:b - 1]]
            assert lifts[gi] == want
            h0 += b - 1

    def test_multiple_average_equals_weyl_sum(self, blocks):
        e = self.experiment(blocks)
        k = [x for b in blocks for x in self.K[b]]
        for N in (1000, 20000):
            assert abs(A.multiple_average(e, N) - O.weyl_sum(e.cfg, k, N)) < 1e-12

    def test_obstruction_search_runs(self, blocks):
        cfg = self.experiment(blocks).cfg
        plan = cli.build_window({}, cfg)
        r = O.obstruction_search(cfg, plan, 10 ** 4, 2, keep_norms=True)
        assert len(r.argmin) == 3 and any(r.argmin) and max(map(abs, r.argmin)) <= 2
        assert len(r.norms_by_frequency) == 5 ** 3 - 1
        assert r.min_norm == min(r.norms_by_frequency.values()) >= 0.0
