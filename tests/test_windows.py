from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import hardy as H, windows as W

from conftest import snp_exprs


def P(text):
    return H.parse(text)


T32 = P("t^{3/2}")
TLT = P("t*log(t)")


class TestClassBounds:
    def test_three_halves_order_three(self):
        b = W.class_bounds(T32, 3)
        assert b.lower == (F(1, 2), F(0)) and b.upper == (F(5, 8), F(0))
        assert b.lower_inclusive

    def test_t_log_t_order_two(self):
        b = W.class_bounds(TLT, 2)
        assert b.lower == (F(1, 2), F(0)) and b.upper == (F(2, 3), F(0))

    def test_sqrt_order_one(self):
        # f' ~ t^{-1/2}/2 and f'' ~ -t^{-3/2}/4 give [1/2, 3/4)
        b = W.class_bounds(P("t^{1/2}"), 1)
        assert b.lower == (F(1, 2), F(0)) and b.upper == (F(3, 4), F(0))

    def test_rejects_non_snp(self):
        with pytest.raises(H.PreconditionError):
            W.class_bounds(P("t^2"), 2)

    def test_rejects_small_order(self):
        with pytest.raises(H.PreconditionError, match="too small"):
            W.class_bounds(P("t^{5/2}"), 1)

    def test_log_corrected_bounds(self):
        b = W.class_bounds(P("t^{1/2}*log(t)"), 1)
        assert b.lower == (F(1, 2), F(-1)) and b.upper == (F(3, 4), F(-1, 2))

    @given(snp_exprs(), st.integers(0, 3))
    def test_growth_chain(self, f, dk):
        # 1 < |f^(k)|^{-1/k} < |f^(k+1)|^{-1/(k+1)} < t, tiling in k
        k = W.min_order(f) + dk
        b = W.class_bounds(f, k)
        assert (F(0), F(0)) < b.lower < b.upper < (F(1), F(0))
        assert W.class_bounds(f, k + 1).lower == b.upper


class TestMember:
    def test_worked_window(self):
        assert W.member(P("t^{3/5}"), T32, 3)
        assert W.member(P("t^{3/5}"), TLT, 2)

    def test_upper_bound_strict(self):
        assert not W.member(P("t^{5/8}"), T32, 3)

    def test_lower_bound_inclusive(self):
        assert W.member(P("t^{1/2}"), T32, 3)

    def test_requires_sublinear(self):
        assert not W.member(P("t"), P("t^{7/2}"), 7)


class TestSimilarClasses:
    @pytest.mark.parametrize("f,g,similar", [
        ("t^{3/2}", "2*t^{3/2}", True),
        ("t^{3/2}", "t^{3/2} + t", True),
        ("t^{3/2}", "t^{5/4}", False),
        ("t^{3/2}", "t^{3/2}*log(t)", False),
    ])
    def test_bounds_coincide_iff_similar(self, f, g, similar):
        f, g = P(f), P(g)
        k0 = max(W.min_order(f), W.min_order(g))
        same = [W.class_bounds(f, k) == W.class_bounds(g, k) for k in range(k0, k0 + 5)]
        if similar:
            assert all(same)
            assert H.compare(f, g).relation is H.Ordering.SIMILAR
        else:
            assert not any(same)
            assert H.compare(f, g).relation is not H.Ordering.SIMILAR


class TestCommonWindow:
    def test_worked_pair(self):
        plan = W.find_common_window([T32, TLT])
        assert plan.validate()
        # the worked choice gamma = 3/5 is admissible as well
        for f in (T32, TLT):
            k = W.order_for_power(f, F(3, 5))
            assert k is not None and W.member(P("t^{3/5}"), f, k)

    def test_spread_pair(self):
        plan = W.find_common_window([P("t^{1/2}"), P("t^{5/2}")])
        assert plan.validate()
        for f in (P("t^{1/2}"), P("t^{5/2}")):
            k = W.order_for_power(f, F(51, 100))
            assert k is not None and W.member(P("t^{51/100}"), f, k)

    def test_single_function(self):
        plan = W.find_common_window([T32])
        assert plan.orders == (3,) or W.member(plan.L, T32, plan.orders[0])
        assert plan.validate()

    def test_rejects_subfractional(self):
        with pytest.raises(H.PreconditionError):
            W.find_common_window([P("log(t)^2")])

    def test_depth_cap_reported(self):
        # t^{1/66} only admits windows above t^{65/66}, past the 64-level
        # Stern-Brocot ascent
        with pytest.raises(W.WindowSearchError, match="depth 64"):
            W.find_common_window([P("t^{1/66}")])
        assert W.find_common_window([P("t^{1/66}")], max_depth=70).validate()

    @given(st.lists(snp_exprs(), min_size=1, max_size=3))
    def test_random_collections(self, fs):
        plan = W.find_common_window(fs)
        assert plan.validate()
        assert 0 < plan.gamma < 1


class TestTaylorWindow:
    def test_t_log_t_coefficients(self):
        N = 10 ** 6
        tw = W.taylor_window(TLT, N, 2, N ** 0.6)
        assert float(tw.coeffs[0]) == pytest.approx(N * math.log(N), rel=1e-15)
        assert float(tw.coeffs[1]) == pytest.approx(math.log(N) + 1, rel=1e-15)
        assert float(tw.coeffs[2]) == pytest.approx(1 / (2 * N), rel=1e-15)

    def test_three_halves_remainder(self):
        N = 10 ** 6
        tw = W.taylor_window(T32, N, 3, N ** 0.6)
        assert float(tw.coeffs[1]) == pytest.approx(1.5 * N ** 0.5, rel=1e-15)
        assert tw.remainder_bound < 10 ** -0.5
        smaller = W.taylor_window(T32, 10 ** 7, 3, (10 ** 7) ** 0.6)
        assert smaller.remainder_bound < tw.remainder_bound

    def test_polynomial_exact(self):
        tw = W.taylor_window(P("t^2"), 100, 2, 10.0)
        assert tw.remainder_bound == 0.0

    def test_refuses_below_threshold(self):
        f = P("t^{3/2} - 1000000*t^{1/2}")
        with pytest.raises(H.PreconditionError, match="threshold"):
            W.taylor_window(f, 1000, 3, 1000 ** 0.6)

    @staticmethod
    def _sample_offsets(L: float, count: int) -> list[int]:
        # integer offsets keep N + h exact in both evaluation paths
        step = max(1, int(L) // count)
        return list(range(0, int(L) + 1, step))

    @staticmethod
    def _poly_at(coeffs, h: int) -> F:
        return sum(c * h ** j for j, c in enumerate(coeffs))

    @pytest.mark.parametrize("f,k", [("t^{3/2}", 3), ("t*log(t)", 2), ("t^{7/4}", 2)])
    @pytest.mark.parametrize("N", [10 ** 3, 10 ** 4, 10 ** 5])
    def test_certified_remainder_dense_sampling(self, f, k, N):
        f = P(f)
        L = N ** 0.55
        tw = W.taylor_window(f, N, k, L)
        worst = 0.0
        for h in self._sample_offsets(L, 400):
            exact = H.evaluate_dd(f, N + h)
            worst = max(worst, abs(float(exact - self._poly_at(tw.coeffs, h))))
        assert worst <= tw.remainder_bound * (1 + 1e-9)

    @given(snp_exprs(max_terms=2))
    @settings(max_examples=25)
    def test_certified_remainder_random(self, f):
        N = 10 ** 4
        plan = W.find_common_window([f])
        L = H.evaluate(plan.L, float(N))
        try:
            tw = W.taylor_window(f, N, plan.orders[0], L)
        except H.PreconditionError:
            return  # below the certified threshold: refusal is the contract
        for h in self._sample_offsets(L, 100):
            exact = H.evaluate_dd(f, N + h)
            err = abs(float(exact - self._poly_at(tw.coeffs, h)))
            assert err <= tw.remainder_bound * (1 + 1e-9) + 1e-12

    def test_top_coefficient_diverges(self):
        # |q_k| L(N)^k grows without bound along the N grid
        for f, k in [(T32, 3), (TLT, 2)]:
            vals = []
            for N in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                tw = W.taylor_window(f, N, k, N ** 0.6)
                vals.append(abs(float(tw.coeffs[k])) * (N ** 0.6) ** k)
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEventualSign:
    def test_simple(self):
        assert W.eventual_sign(P("-3/8*t^{-3/2}")) == (-1, 2.0)

    def test_sign_with_crossing(self):
        # t - 100 log t is eventually positive but negative at moderate t
        f = P("t - 100*log(t)")
        s, thr = W.eventual_sign(f)
        assert s == 1
        assert H.evaluate(f, thr) > 0
        assert H.evaluate(f, 100.0) < 0  # the threshold is genuinely needed

    def test_decreasing_abs(self):
        thr = W.decreasing_abs_threshold(P("t^{-1}*log(t)^3"))
        vals = [H.evaluate(P("t^{-1}*log(t)^3"), t) for t in np.linspace(thr, thr * 10, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
