from __future__ import annotations

import contextlib
import errno
import hashlib
import math
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from mp_oracle import PREC, circular, make_doc, mp_reduce, mp_unipotent, oracle_coords
from nilorbit import cli, hardy as H, orbits as O, windows as W
from nilorbit.ddmath import BLOCK

E = O.as_entry


def torus_cfg(alpha, fn="t", **kw):
    return O.OrbitConfig(dim=2, blocks=(2,), generators=((E(alpha),),),
                         functions=(H.parse(fn),), base_point=(E(0),), **kw)


def heis_cfg(a12, a23, fn, base=(0, 0, 0), **kw):
    return O.OrbitConfig(dim=3, blocks=(3,), generators=((E(a12), E(a23), E(0)),),
                         functions=(H.parse(fn),),
                         base_point=tuple(E(v) for v in base), **kw)


PAIR_CFG = O.OrbitConfig(
    dim=6, blocks=(3, 3),
    generators=((E("phi"), E("sqrt2"), E(0)), (E("pi"), E("e"), E(0))),
    functions=(H.parse("t^{3/2}"), H.parse("t*log(t)")),
    base_point=tuple(E(0) for _ in range(6)),
)


class TestConfig:
    def test_negative_logpow_rejected(self):
        with pytest.raises(H.PreconditionError, match="log"):
            torus_cfg("phi", fn="t*log(t)^{-1}")

    def test_block_shape_validation(self):
        with pytest.raises(ValueError, match="coordinates"):
            O.OrbitConfig(dim=6, blocks=(3, 3),
                          generators=((E(1), E(1), E(0)), (E(1),)),
                          functions=(H.parse("t"), H.parse("t")),
                          base_point=tuple(E(0) for _ in range(6)))


class TestOrbitPoint:
    def test_zero_functions_reduce_base(self):
        cfg = heis_cfg(1, 1, "0", base=("2.3", "0.7", 0))
        s = O.orbit_point(cfg, 5)
        assert np.allclose(s.coords, [0.3, 0.7, 0.0])

    def test_circle_rotation(self):
        cfg = torus_cfg("1/3")
        s = O.orbit_point(cfg, 7)
        assert s.coords[0] == pytest.approx((7 / 3) % 1.0, abs=1e-14)

    def test_integer_power_oracle(self):
        # floor mode at n=4 gives exponent 8; compare against b multiplied
        # out eight times in mpmath
        with mp.workprec(PREC):
            g = mp_unipotent([1, 1, 0], 3) ** 8 * mp_unipotent(["1/4", "1/8", "1/2"], 3)
            want = [float(c) for c in mp_reduce(g, 3)]
        cfg = heis_cfg(1, 1, "t^{3/2}", base=("1/4", "1/8", "1/2"),
                       floor_mode=O.FloorMode.FLOOR)
        s = O.orbit_point(cfg, 4)
        assert np.abs(s.coords - want).max() < 1e-12

    def test_engine_matches_scalar_path(self):
        """Each engine row against the mpmath oracle, one index at a time."""
        doc = make_doc(3, [["phi", "sqrt2", 0]], ["t^{3/2}"], ["1/4", "1/8", "1/2"])
        ns, coords, horiz = O.OrbitEngine(cli.build_orbit_config(doc)).samples(50, 60)
        for i, n in enumerate(range(50, 61)):
            assert circular(coords[i], oracle_coords(doc, n)) < 1e-9

    def test_index_must_be_positive(self):
        with pytest.raises(H.PreconditionError):
            O.orbit_point(torus_cfg("phi"), 0)

    def test_combined_mode_two_generators(self):
        # commuting generators inside one group: b1^{a1(n)} b2^{a2(n)}
        from nilorbit.constants import REGISTRY

        cfg = O.OrbitConfig(
            dim=3, blocks=(3,),
            generators=((E("phi"), E(0), E(0)), (E("sqrt3"), E(0), E(0))),
            functions=(H.parse("t"), H.parse("t^{1/2}")),
            base_point=(E(0), E(0), E(0)))
        phi = REGISTRY["phi"].as_float()
        r3 = REGISTRY["sqrt3"].as_float()
        for n in (7, 50, 1234):
            s = O.orbit_point(cfg, n)
            want = (n * phi + math.sqrt(n) * r3) % 1.0
            diff = abs(s.coords[0] - want)
            assert min(diff, 1 - diff) < 1e-10
            assert s.coords[1] == 0 and s.coords[2] == 0


class TestPrecision:
    def test_cap_enforced(self):
        cfg = torus_cfg("phi", fn="t^{3/2}", n_cap=10 ** 5)
        with pytest.raises(O.PrecisionCapError):
            O.weyl_sum(cfg, [1], 2 * 10 ** 5)

    def test_cap_override_warns(self):
        cfg = torus_cfg("phi", fn="t", n_cap=10 ** 3, allow_beyond_cap=True)
        with pytest.warns(UserWarning, match="precision cap"):
            O.weyl_sum(cfg, [1], 2 * 10 ** 3)

    def test_double_mode_close_to_dd_at_moderate_n(self):
        cfg_dd = torus_cfg("phi", fn="t^{3/2}")
        cfg_fp = torus_cfg("phi", fn="t^{3/2}", precision="double")
        s1 = O.weyl_sum(cfg_dd, [1], 2000)
        s2 = O.weyl_sum(cfg_fp, [1], 2000)
        assert abs(s1 - s2) < 1e-6


class TestWeylSum:
    def test_zero_frequency(self):
        assert O.weyl_sum(torus_cfg("phi"), [0], 500) == 1 + 0j

    def test_rational_resonance_exact(self):
        assert O.weyl_sum(torus_cfg("1/2"), [2], 1000) == 1 + 0j

    def test_golden_rotation_closed_form(self):
        from nilorbit.constants import REGISTRY

        phi = REGISTRY["phi"].as_float()
        N = 10 ** 4
        S = O.weyl_sum(torus_cfg("phi"), [1], N)
        closed = abs(math.sin(math.pi * N * phi) / math.sin(math.pi * (phi % 1.0))) / N
        assert abs(S) == pytest.approx(closed, abs=1e-10)
        assert abs(S) <= 0.01

    def test_noise_tolerant_decay(self):
        prev = None
        for N in (10 ** 3, 10 ** 4, 10 ** 5):
            s = abs(O.weyl_sum(PAIR_CFG, [1, 0, 0, 1], N))
            if prev is not None:
                assert s < prev + 0.005
            prev = s

    def test_workers_bit_identical(self):
        a = O.weyl_sum(PAIR_CFG, [1, 1, 0, 0], 3 * 10 ** 5, workers=1)
        b = O.weyl_sum(PAIR_CFG, [1, 1, 0, 0], 3 * 10 ** 5, workers=4)
        assert a == b


class TestCharacterKernel:
    """e(x) from the table of e(i/1024) and two short Taylor polynomials."""

    def test_table_is_correctly_rounded(self):
        cos_t, sin_t = O._e_table()
        with mp.workprec(200):
            want = [(float(mp.cospi(mp.mpf(i) / 512)), float(mp.sinpi(mp.mpf(i) / 512)))
                    for i in range(1024)]
        assert cos_t.tobytes() == np.array([c for c, _ in want]).tobytes()
        assert sin_t.tobytes() == np.array([s for _, s in want]).tobytes()

    def test_within_its_bound_of_mpmath(self):
        rng = np.random.default_rng(23)
        below_one = np.nextafter(1.0, 0.0)
        special = [0.0, 0.25, 0.5, 0.75, below_one, -below_one, -1e-20, -5e-324, 1e-300,
                   -0.3, 1e9 + 0.3, -1e9 + 0.3, 1e9 + below_one, -1e9 - 1e-7, 2.0 ** 52 - 0.5]
        phases = np.concatenate([special, rng.uniform(-4, 4, 60_000),
                                 rng.uniform(-1, 1, 20_000) * 2.0 ** -rng.integers(0, 60, 20_000),
                                 1e9 * rng.choice([-1, 1], 20_000) + rng.uniform(-1, 1, 20_000)])
        got = O._e(phases)
        with mp.workprec(80):
            err = max(abs(mp.mpc(z.real, z.imag) - mp.expjpi(2 * mp.mpf(float(x))))
                      for x, z in zip(phases, got))
        assert err <= 1e-15
        assert O._e(np.array([0.0, 0.25, 0.5, 0.75, -1e-20])).tolist() == [1, 1j, -1, -1j, 1]

    def test_characters_move_only_in_the_last_bits(self):
        """Against np.exp of the same reduced phase, the kernel before the table."""
        phases = np.random.default_rng(5).uniform(-50, 50, O.CHUNK)
        x = phases - np.floor(phases)
        assert np.abs(O._e(phases) - np.exp(2j * np.pi * x)).max() <= 2e-15


class TestChunkedMean:
    CFG = heis_cfg("phi", "sqrt2", "t^{3/2}")

    @staticmethod
    def integrand(ns, coords, horiz):
        return O._e(horiz @ np.array([1, -2]))

    # ends just before, at and just after the first chunk boundary, and at the second
    @pytest.mark.parametrize("n0", [1, 1000])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_equals_single_ends_and_plain_mean(self, n0, workers):
        ends = [n0 - 1 + e for e in (O.CHUNK - 1, O.CHUNK, O.CHUNK + 1, 2 * O.CHUNK)]
        means = O.chunked_mean(self.CFG, self.integrand, n0, ends, workers)
        assert means == [O.chunked_mean(self.CFG, self.integrand, n0, (N,), workers)[0]
                         for N in ends]
        engine = O.OrbitEngine(self.CFG)
        for N, mean in zip(ends, means):
            ref = np.mean(self.integrand(*engine.samples(n0, N)))
            assert abs(mean - ref) < 1e-12

    def test_chunk_size_moves_means_only_in_last_bits(self, monkeypatch):
        """A chunk is one engine block; at 2^16 samples the cell counts are
        the same and the means differ only by the rounding of their chunk
        partial sums."""
        assert O.CHUNK == BLOCK
        grid = (1000, 3 * BLOCK + 5, 4 * BLOCK, 150_000)
        runs = []
        for chunk in (BLOCK, 4 * BLOCK):
            monkeypatch.setattr(O, "CHUNK", chunk)
            runs.append((O.discrepancy_series(self.CFG, grid, 8),
                         O.chunked_mean(self.CFG, self.integrand, 1, grid)))
        (disc, means), (disc_4, means_4) = runs
        assert disc == disc_4
        for a, b in zip(means, means_4):
            assert abs(a - b) <= 1e-15  # relative to the integrand's modulus, 1

    @pytest.mark.parametrize("ends", [(), (0, 10), (10, 10), (100, 10)])
    def test_bad_ends_refused(self, ends):
        with pytest.raises(H.PreconditionError, match="N grid"):
            O.chunked_mean(self.CFG, self.integrand, 1, ends)


class TestDiscrepancy:
    def test_default_grid_within_the_cell_budget(self):
        assert [O.default_grid_res(d) for d in (1, 2, 3, 6, 9, 22)] == [16, 16, 8, 8, 5, 2]
        assert all(O.default_grid_res(d) ** d <= O.MAX_CELLS for d in range(1, 23))
        with pytest.raises(H.PreconditionError, match="budget"):
            O.discrepancy_series(torus_cfg("phi"), [10], 1 + O.MAX_CELLS)

    def test_single_sample(self):
        assert O.box_discrepancy(np.array([[0.0]]), 2) == 0.5

    def test_exact_lattice(self):
        M = 64
        samples = (np.arange(M) / M).reshape(-1, 1)
        assert O.box_discrepancy(samples, 16) <= 1 / M + 1e-12

    def test_uniform_random_bound(self):
        rng = np.random.default_rng(42)
        d = O.box_discrepancy(rng.random((10 ** 5, 3)), 8)
        assert d <= 0.01  # ~6x the 3-sigma Monte Carlo scale

    def test_empty_rejected(self):
        with pytest.raises(H.PreconditionError, match="empty"):
            O.box_discrepancy(np.zeros((0, 2)), 4)

    def test_rotation_decreasing_over_decades(self):
        cfg = torus_cfg("phi")
        vals = [O.orbit_discrepancy(cfg, N, 16) for N in (10 ** 2, 10 ** 3, 10 ** 4)]
        assert vals[0] > vals[1] > vals[2]

    def test_streaming_matches_array(self):
        rng = np.random.default_rng(1)
        xs = rng.random((1000, 2))
        whole = O.box_discrepancy(xs, 8)
        chunked = O.box_discrepancy([xs[:300], xs[300:]], 8)
        assert whole == chunked

    @pytest.mark.parametrize("dim, g", [(1, 16), (3, 8), (6, 8), (9, 5)])
    def test_statistic_layer_equals_reference_formulas(self, dim, g):
        """Column-at-a-time cell indices and the in-place box sums give the
        bits of ravel_multi_index and of fresh cumsums over outer volumes."""
        rng = np.random.default_rng(dim)
        xs = rng.random((5000, dim))
        xs[::97] = 1.0 - 1e-17  # rounds to 1 under the grid scaling: the clip
        xs[1::89] = 0.0
        idx = np.clip((xs * g).astype(np.int64), 0, g - 1)
        want = np.bincount(np.ravel_multi_index(tuple(idx.T), (g,) * dim),
                           minlength=g ** dim).reshape((g,) * dim)
        hist = O.histogram_counts(xs, g)
        assert hist.dtype == want.dtype and (hist == want).all()
        for total in (5000, 7919):
            c = hist.astype(np.int64)
            for ax in range(dim):
                c = np.cumsum(c, axis=ax)
            axis = np.arange(1, g + 1) / g
            vol = axis
            for _ in range(dim - 1):
                vol = np.multiply.outer(vol, axis)
            ref = float(np.max(np.abs(c / total - vol)))
            assert O.discrepancy_from_histogram(hist, total) == ref
        cells = O.cell_indices(xs, g)
        assert (cells == np.ravel_multi_index(tuple(idx.T), (g,) * dim)).all()

    def test_series_on_a_grid_counted_sparse(self):
        # 64^3 cells, more than a chunk's samples: most stay empty
        cfg = heis_cfg("phi", "sqrt2", "t^{3/2}")
        grid = (1000, O.CHUNK, O.CHUNK + 4000)
        coords = O.OrbitEngine(cfg).samples(1, grid[-1])[1]
        assert O.discrepancy_series(cfg, grid, 64, workers=2) == \
            [O.box_discrepancy(coords[:N], 64) for N in grid]


class TestBinomialBasis:
    def test_square(self):
        p = O.to_binomial_basis([F(0), F(0), F(1)])
        assert p.coeffs == (F(0), F(1), F(2))

    def test_scaled_square(self):
        p = O.to_binomial_basis([F(0), F(0), F(1, 4)])
        assert p.coeffs == (F(0), F(1, 4), F(1, 2))

    def test_constant(self):
        p = O.to_binomial_basis([F(7)])
        assert p.coeffs == (F(7),) and p.degree == 0

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=9))
    def test_roundtrip_exact(self, coeffs):
        coeffs = [F(c) for c in coeffs]
        back = O.binomial_to_monomial(O.to_binomial_basis(coeffs))
        trimmed = list(coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        assert list(back) == trimmed

    def test_binomial_identity_numeric(self):
        p = O.to_binomial_basis([F(1), F(-2), F(3), F(5)])
        for n in range(0, 12):
            direct = 1 - 2 * n + 3 * n ** 2 + 5 * n ** 3
            viabin = sum(a * math.comb(n, i) for i, a in enumerate(p.coeffs))
            assert direct == viabin


class TestCinftyNorm:
    def test_linear(self):
        p = O.BinomialPolynomial((0.0, 0.3))
        assert O.cinfty_norm(p, 10) == pytest.approx(3.0)

    def test_worked_quadratic(self):
        p = O.to_binomial_basis([F(0), F(0), F(1, 4)])
        assert O.cinfty_norm(p, 10) == 50.0

    def test_integer_coefficients_vanish(self):
        p = O.to_binomial_basis([F(3), F(-7), F(2), F(11)])
        assert O.cinfty_norm(p, 1000) == 0.0

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=6),
           st.lists(st.integers(-9, 9), min_size=6, max_size=6))
    def test_integer_shift_invariance(self, coeffs, shifts):
        base = [F(c, 4) for c in coeffs]
        p = O.to_binomial_basis(base)
        shifted = O.BinomialPolynomial(tuple(
            a + s for a, s in zip(p.coeffs, shifts)))
        # distances to Z are invariant under integer shifts of each a_i
        assert O.cinfty_norm(p, 50) == pytest.approx(
            O.cinfty_norm(O.BinomialPolynomial(p.coeffs[:len(shifted.coeffs)]), 50))
        assert O.cinfty_norm(shifted, 50) == pytest.approx(O.cinfty_norm(p, 50))


class TestObstruction:
    def test_degenerate_generator_detected(self):
        r = O.obstruction_search(torus_cfg(0), None, 10 ** 4, 3)
        assert r.min_norm == 0.0

    def test_first_minimum_wins_across_blocks(self):
        """A zero generator makes every norm 0: with more frequencies than one
        BLOCK, the argmin is still the first frequency in np.ndindex order."""
        M = BLOCK // 2 + 1
        r = O.obstruction_search(torus_cfg(0), None, 10 ** 4, M, keep_norms=True)
        assert len(r.norms_by_frequency) > BLOCK
        assert r.argmin == (-M,) and r.min_norm == 0.0

    def test_rational_resonance(self):
        r = O.obstruction_search(torus_cfg("2/5"), None, 10 ** 4, 5, keep_norms=True)
        assert r.min_norm == 0.0
        assert r.norms_by_frequency[(5,)] == 0.0

    def test_torus_growth(self):
        cfg = torus_cfg("phi", fn="t^{3/2}")
        plan = W.find_common_window([H.parse("t^{3/2}")])
        norms = [O.obstruction_search(cfg, plan, N, 3).min_norm
                 for N in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert norms[0] < norms[1] < norms[2]
        assert norms[2] >= 10 ** 2

    def test_window_mismatch_rejected(self):
        plan = W.find_common_window([H.parse("t^{5/4}")])
        with pytest.raises(H.PreconditionError, match="match"):
            O.obstruction_search(torus_cfg("phi", fn="t^{3/2}"), plan, 10 ** 3, 2)


class TestTestFunctionDictionary:
    def test_coordinate_character_flagged_discontinuous(self):
        f = O.make_test_function({"type": "coordinate_character", "m": [0, 0, 1]}, 3, 2)
        assert not f.continuous and f.integral == 0j
        coords = np.array([[0.1, 0.2, 0.25], [0.0, 0.0, 0.75]])
        vals = f(coords, coords[:, :2])
        assert vals[0] == pytest.approx(np.exp(2j * np.pi * 0.25))

    def test_trivial_frequencies_have_integral_one(self):
        f = O.make_test_function({"type": "horizontal_character", "k": [0, 0]}, 3, 2)
        assert f.integral == 1 + 0j and f.continuous

    def test_frequency_length_validated(self):
        with pytest.raises(ValueError, match="frequencies"):
            O.make_test_function({"type": "horizontal_character", "k": [1]}, 3, 2)

    def test_bump_index_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            O.make_test_function({"type": "bump", "coords": [5]}, 3, 2)

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown test function"):
            O.make_test_function({"type": "mystery"}, 3, 2)

    def test_bump_coordinates_distinct(self):
        # (1 + cos 2 pi x)^2 / 4 integrates to 3/8, not 1/4
        with pytest.raises(ValueError, match="repeat"):
            O.make_test_function({"type": "bump", "coords": [0, 0]}, 1, 1)

    @pytest.mark.parametrize("spec", [{"type": "horizontal_character", "k": [10 ** 29, 0]},
                                      {"type": "coordinate_character", "m": [0, 0, -10 ** 19]}])
    def test_frequencies_beyond_int64(self, spec):
        with pytest.raises(ValueError, match="int64"):
            O.make_test_function(spec, 3, 2)

    def test_weyl_sum_frequency_beyond_int64(self):
        with pytest.raises(ValueError, match="int64"):
            O.weyl_sum(torus_cfg("phi"), [10 ** 23], 10)

    def test_bump_values_and_integral(self):
        f = O.make_test_function({"type": "bump", "coords": [0, 1]}, 2, 1)
        assert f.integral == complex(F(1, 4))
        coords = np.array([[0.0, 0.0], [0.5, 0.5], [0.25, 0.0]])
        vals = f(coords, coords[:, :1])
        assert vals[0] == 1.0 and vals[1] == 0.0
        assert vals[2] == pytest.approx(0.5)


class TestWindowAverage:
    def test_constant_function(self):
        v = O.window_average(torus_cfg("phi", fn="t^{3/2}"), {"type": "one"},
                             10 ** 4, 600)
        assert v == 1 + 0j

    def test_equidistributed_window_small(self):
        # well inside the admissible window L = N^{3/5} the character average
        # is already small at N = 1e6 (threshold from the full-range run)
        N = 10 ** 6
        v = O.window_average(torus_cfg("phi", fn="t^{3/2}"),
                             {"type": "horizontal_character", "k": [1]},
                             N, int(N ** 0.6))
        assert abs(v) < 0.05

    def test_constant_orbit_degenerate(self):
        # exponents converge, so the window average approaches F at the
        # limiting point b^2 x
        cfg = heis_cfg("phi", "sqrt2", "2 + t^{-1}", base=("1/4", "1/8", "1/2"))
        fixed_cfg = heis_cfg("phi", "sqrt2", "2", base=("1/4", "1/8", "1/2"))
        test = {"type": "bump", "coords": [0, 1, 2]}
        v = O.window_average(cfg, test, 10 ** 4, 500)
        fixed = O.window_average(fixed_cfg, test, 10 ** 4, 500)
        assert abs(v - fixed) < 1e-3


class TestSampleDump:
    def test_chunks_cover_range_in_order(self):
        cfg = torus_cfg("phi")
        seen = []
        for ns, coords, horiz in O.iter_sample_chunks(cfg, 1, 200000, lambda *c: c, workers=3):
            seen.append((int(ns[0]), int(ns[-1])))
            assert coords.shape == (len(ns), 1) and horiz.shape == (len(ns), 1)
            assert np.all(coords >= 0) and np.all(coords < 1)
        assert seen[0][0] == 1 and seen[-1][1] == 200000
        for (a, b), (c, d) in zip(seen, seen[1:]):
            assert c == b + 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_slow_consumer_bounds_chunks_ahead(self, workers, monkeypatch):
        """The helpers evaluate the exponents of at most ``workers`` chunks
        ahead of the caller, the depth of the ring (a slot per helper and
        one for the caller), and fill it while the caller waits; with one
        worker the caller evaluates each chunk's exponents as it goes.  The
        forked helpers inherit the patched ``exponents``, which writes one
        byte to a pipe per call."""
        r, w = os.pipe()
        os.set_blocking(r, False)
        inner = O.OrbitEngine.exponents

        def exponents(self, ns):
            os.write(w, b"x")
            return inner(self, ns)

        monkeypatch.setattr(O.OrbitEngine, "exponents", exponents)
        started, ahead = 0, []
        walk = O.iter_sample_chunks(torus_cfg("phi"), 1, 8 * O.CHUNK,
                                    lambda ns, coords, horiz: int(ns[0]), workers)
        try:
            for i, a in enumerate(walk):
                assert a == 1 + i * O.CHUNK
                time.sleep(0.05)  # time for the helpers to run ahead
                with contextlib.suppress(BlockingIOError):
                    started += len(os.read(r, 64))
                ahead.append(started - (i + 1))
        finally:
            os.close(r)
            os.close(w)
        assert started == 8
        assert max(ahead) == (workers if workers > 1 and hasattr(os, "fork") else 0)

    def test_range_checked_at_the_call(self):
        with pytest.raises(O.PrecisionCapError):
            O.iter_sample_chunks(torus_cfg("phi"), 1, O.DEFAULT_N_CAP + 1, lambda *c: c)


def _children(pid: int | None = None) -> set[int]:
    """The processes, zombies too, whose parent is pid (this process by default)."""
    pid = os.getpid() if pid is None else pid
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            if int(stat.read_text().rpartition(")")[2].split()[1]) == pid:
                found.add(int(stat.parent.name))
    return found


def _running(pid: int) -> bool:
    """Whether pid is a live process (not gone, not a zombie)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


SRC = Path(O.__file__).resolve().parent.parent


@pytest.fixture
def new_children():
    """The children of this process made since the test began (zombies too)."""
    before = _children()
    return lambda: _children() - before


@pytest.mark.skipif(not hasattr(os, "fork") or not Path("/proc/self/stat").exists(),
                    reason="the exponent helpers are forked; /proc lists them")
class TestExponentHelpers:
    """The forked helpers of iter_sample_chunks: none outlives its walk."""

    SPAN = 8 * O.CHUNK

    def walk(self, reduce, workers=3):
        return O.iter_sample_chunks(torus_cfg("phi"), 1, self.SPAN, reduce, workers)

    def test_full_walk(self, new_children):
        seen = []

        def reduce(ns, coords, horiz):
            seen.append(new_children())
            return coords.sum()

        assert list(self.walk(reduce)) == list(self.walk(lambda ns, c, h: c.sum(), 1))
        assert len(seen[0]) == 2 and all(s == seen[0] for s in seen)
        assert new_children() == set()

    def test_close_after_three_chunks(self, new_children):
        walk = self.walk(lambda ns, coords, horiz: int(ns[0]))
        assert [next(walk) for _ in range(3)] == [1, 1 + O.CHUNK, 1 + 2 * O.CHUNK]
        assert len(new_children()) == 2
        walk.close()
        assert new_children() == set()

    def test_reducer_raises(self, new_children):
        def reduce(ns, coords, horiz):
            if ns[0] > O.CHUNK:
                raise ZeroDivisionError("in the reducer")
            return int(ns[0])

        with pytest.raises(ZeroDivisionError, match="in the reducer"):
            list(self.walk(reduce))
        assert new_children() == set()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_helper_exception_raised_at_its_chunk(self, new_children, workers, monkeypatch):
        inner, inner_samples = O.OrbitEngine.exponents, O.OrbitEngine.samples

        def exponents(self, ns):
            if ns[0] > 2 * O.CHUNK:
                raise O.PrecisionCapError(f"no exponents at {ns[0]}")
            return inner(self, ns)

        def samples(self, *args, **kwargs):  # a slow caller: the helper leaves first
            time.sleep(0.05)
            return inner_samples(self, *args, **kwargs)

        monkeypatch.setattr(O.OrbitEngine, "exponents", exponents)  # before the fork
        monkeypatch.setattr(O.OrbitEngine, "samples", samples)
        got = []
        with pytest.raises(O.PrecisionCapError, match=f"no exponents at {1 + 2 * O.CHUNK}$"):
            for a in self.walk(lambda ns, coords, horiz: int(ns[0]), workers):
                got.append(a)
        assert got == [1, 1 + O.CHUNK]
        assert new_children() == set()

    def test_helper_exception_keeps_the_exit_code(self, new_children, tmp_path, monkeypatch,
                                                  capsys):
        inner = O.OrbitEngine.exponents

        def exponents(self, ns):
            if ns[0] > O.CHUNK:
                raise O.PrecisionCapError("no exponents here")
            return inner(self, ns)

        monkeypatch.setattr(O.OrbitEngine, "exponents", exponents)
        config = tmp_path / "torus.json"
        config.write_text(cli.dump_config({"group": {"dim": 2}, "generators": [["phi"]],
                                           "functions": ["t^{3/2}"]}))
        runs = []
        for workers in ("1", "2"):
            rc = cli.main(["weyl", str(config), "--N", "1e5", "--m", "1", "--workers", workers,
                           "--out", str(tmp_path / "w.csv")])
            runs.append((rc, capsys.readouterr().err))
        assert runs[0] == runs[1] == (cli.EXIT_PRECISION, "precision cap: no exponents here\n")
        assert new_children() == set()

    @pytest.mark.parametrize("call,fails_at", [("fork", 0), ("fork", 1), ("pipe", 3)],
                             ids=["first_fork", "second_fork", "second_helper_pipe"])
    def test_failed_fork_falls_back_to_the_caller(self, new_children, call, fails_at, tmp_path,
                                                  monkeypatch):
        """A pipe or fork that fails (EAGAIN under a process limit, EMFILE)
        forks no further helper: the caller evaluates the exponents of the
        chunks of the helpers it lacks, so the output is that of one worker,
        with no helper and with one; no pipe end is left open."""
        inner, calls = getattr(os, call), []

        def failing(*args):
            calls.append(call)
            if len(calls) - 1 == fails_at:
                raise OSError(errno.EAGAIN if call == "fork" else errno.EMFILE, "refused")
            return inner(*args)

        config = str(Path(__file__).resolve().parent.parent / "instances" / "heisenberg_pair.json")
        outs, fds = [], len(os.listdir("/proc/self/fd"))
        for workers in ("1", "3"):
            if workers == "3":
                monkeypatch.setattr(os, call, failing)
            outs.append(tmp_path / f"w{workers}.csv")
            assert cli.main(["discrepancy", config, "--N", "1e4,7e4,2e5", "--grid", "4",
                             "--workers", workers, "--out", str(outs[-1])]) == 0
        assert len(calls) == fails_at + 1
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert new_children() == set()
        assert len(os.listdir("/proc/self/fd")) == fds

    @staticmethod
    def digest(ns, coords, horiz):
        return hashlib.sha256(coords.tobytes()).hexdigest()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_killed_helpers_fall_back_to_the_caller(self, new_children, workers):
        """Helpers killed mid-walk (SIGKILL, as by the OOM killer) cost the
        recomputation of their chunks in the caller, not the walk."""
        def reduce(ns, coords, horiz):
            if ns[0] == 1 + 3 * O.CHUNK:
                for pid in new_children():
                    os.kill(pid, signal.SIGKILL)
            return self.digest(ns, coords, horiz)

        span = 10 * O.CHUNK
        got = list(O.iter_sample_chunks(PAIR_CFG, 1, span, reduce, workers))
        assert got == list(O.iter_sample_chunks(PAIR_CFG, 1, span, self.digest, 1))
        assert new_children() == set()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_exception_only_in_helpers_falls_back_to_the_caller(self, new_children, workers,
                                                               monkeypatch):
        """Exponents that raise only in a helper are evaluated by the caller."""
        caller, inner = os.getpid(), O.OrbitEngine.exponents

        def exponents(self, ns):
            if os.getpid() != caller:
                raise O.PrecisionCapError("only in a helper")
            return inner(self, ns)

        span = 10 * O.CHUNK
        serial = list(O.iter_sample_chunks(PAIR_CFG, 1, span, self.digest, 1))
        monkeypatch.setattr(O.OrbitEngine, "exponents", exponents)  # before the fork
        assert list(O.iter_sample_chunks(PAIR_CFG, 1, span, self.digest, workers)) == serial
        assert new_children() == set()

    def test_caller_evaluates_no_exponents_of_working_helpers(self, new_children, monkeypatch):
        """On a walk whose helpers all deliver, every chunk's exponents are
        evaluated once, each in a helper: the fallback hides no helper."""
        inner, (r, w) = O.OrbitEngine.exponents, os.pipe()

        def exponents(self, ns):
            os.write(w, f"{os.getpid()} {ns[0]}\n".encode())
            return inner(self, ns)

        monkeypatch.setattr(O.OrbitEngine, "exponents", exponents)  # before the fork
        with os.fdopen(r) as calls:
            try:
                list(self.walk(self.digest))
            finally:
                os.close(w)
            pids, starts = zip(*(map(int, line.split()) for line in calls))
        assert sorted(starts) == list(range(1, self.SPAN + 1, O.CHUNK))
        assert os.getpid() not in pids and len(set(pids)) == 2
        assert new_children() == set()

    def test_more_helpers_than_cores_keep_every_chunk(self, new_children):
        """Four helpers, more than the cores of a small machine, and a
        consumer of uneven speed: every chunk's coordinates equal those of
        one worker, so no slot is overwritten while the caller reads it."""
        rng = random.Random(5)

        def digest(ns, coords, horiz):
            time.sleep(rng.random() * 0.004)
            return hashlib.sha256(coords.tobytes()).hexdigest()

        span = 40 * O.CHUNK
        start = time.monotonic()
        got = list(O.iter_sample_chunks(PAIR_CFG, 1, span, digest, 5))
        assert got == list(O.iter_sample_chunks(PAIR_CFG, 1, span, digest, 1))
        assert time.monotonic() - start < 120
        assert new_children() == set()

    def _script(self, body: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        prelude = ("import os, sys, time\nfrom nilorbit import hardy, orbits as O\n"
                   "cfg = O.OrbitConfig(dim=2, blocks=(2,), generators=((O.as_entry('phi'),),),"
                   " functions=(hardy.parse('t'),), base_point=(O.as_entry(0),))\n")
        return subprocess.Popen([sys.executable, "-c", prelude + body], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_helpers_leave_by_os_exit(self):
        """A helper runs no atexit handler and flushes no stdio buffer of the caller's."""
        proc = self._script(
            "import atexit\n"
            "print('before')\n"  # buffered: stdout is a pipe
            "atexit.register(print, 'at exit')\n"
            f"print(sum(O.iter_sample_chunks(cfg, 1, {self.SPAN}, lambda ns, c, h: len(ns), 3)))\n")
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert (proc.returncode, out, err) == (0, f"before\n{self.SPAN}\nat exit\n", "")

    def test_parent_killed_mid_walk(self):
        """Helpers of a caller killed by SIGKILL exit on their own (EOF on
        their credit pipe, or EPIPE on their done pipe)."""
        proc = self._script(
            "def reduce(ns, c, h):\n"
            "    if ns[0] > O.CHUNK:\n"
            "        print('walking', flush=True)\n"
            "        time.sleep(120)\n"
            f"for _ in O.iter_sample_chunks(cfg, 1, {self.SPAN}, reduce, 3):\n"
            "    pass\n")
        try:
            assert proc.stdout.readline() == "walking\n"
            helpers = _children(proc.pid)
            assert len(helpers) == 2 and all(map(_running, helpers))
        finally:
            proc.kill()
            proc.communicate(timeout=60)
        deadline = time.monotonic() + 30
        while any(map(_running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, helpers))
