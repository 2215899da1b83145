from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from nilorbit import hardy as H
from nilorbit.constants import REGISTRY
from nilorbit.hardy import HardyExpr, HardyTerm

from conftest import hardy_exprs, hardy_terms


def P(text):
    return H.parse(text)


# --------------------------------------------------------------------------
# parsing

class TestParse:
    def test_single_fractional_power(self):
        e = P("t^{3/2}")
        assert e.terms == (HardyTerm(F(1), F(3, 2), 0),)

    def test_like_terms_merge(self):
        assert P("t*log(t) + t*log(t)") == P("2*t*log(t)")

    def test_fractional_log_exponent_rejected(self):
        with pytest.raises(H.HardyParseError) as exc:
            P("t^2 * log(t)^{1/2}")
        assert exc.value.position > 0

    def test_unknown_constant(self):
        with pytest.raises(H.HardyParseError, match="unknown constant"):
            P("alpha*t")

    def test_syntax_error_position(self):
        with pytest.raises(H.HardyParseError) as exc:
            P("t^")
        assert exc.value.position == 2

    @pytest.mark.parametrize("text", [
        "t^{3/2}", "2*t*log(t)", "5 + t^{-1}", "1/2*t^2 + t*log(t)",
        "sqrt2*t^2 - 1/3", "-t + log(t)^2", "3/2*sqrt2*t^{-5/4}*log(t)^{-2}",
    ])
    def test_canonical_roundtrip(self, text):
        e = P(text)
        assert H.parse(str(e)) == e

    @given(hardy_exprs())
    def test_roundtrip_random(self, f):
        assert H.parse(str(f)) == f

    def test_mixed_coefficient_rejected(self):
        with pytest.raises(H.UnrepresentableCoefficient):
            P("sqrt2*t + 1/2*t")


# --------------------------------------------------------------------------
# differentiation

class TestDifferentiate:
    def test_power_rule(self):
        assert H.differentiate(P("t^{3/2}")) == P("3/2*t^{1/2}")

    def test_product_with_log(self):
        # derivative of t log t is log t + 1
        assert H.differentiate(P("t*log(t)")) == P("log(t) + 1")

    def test_constant(self):
        assert H.differentiate(P("5")).is_zero

    @given(hardy_exprs())
    def test_closure(self, f):
        df = H.differentiate(f)
        assert isinstance(df, HardyExpr)

    def test_mixed_coefficient_collision_raises(self):
        # d/dt[sqrt2 t log t + (1/2) t] needs the constant sqrt2 + 1/2,
        # outside the v1 coefficient domain: fail loudly, never approximate
        f = P("sqrt2*t*log(t) + 1/2*t")
        with pytest.raises(H.UnrepresentableCoefficient):
            H.differentiate(f)

    @given(hardy_exprs(allow_zero=False), st.integers(1, 3))
    def test_dominant_pair_shift(self, f, k):
        # f^(k) keeps the dominant pair shifted by (k, 0) while the dominant
        # power avoids {0, ..., k-1}
        a, b = f.dominant.growth
        if a.denominator == 1 and 0 <= a < k:
            return
        dk = H.derivative(f, k)
        assert dk.dominant.growth == (a - k, b)

    @given(hardy_exprs(allow_zero=False))
    def test_derivative_similar_to_f_over_t(self, f):
        # f' ~ f/t with ratio = dominant exponent, when that exponent is nonzero
        a = f.dominant.power
        if a == 0:
            return
        c = H.compare(H.differentiate(f), f.shifted_power(-1))
        assert c.relation is H.Ordering.SIMILAR
        assert c.ratio == a

    @given(hardy_exprs(allow_zero=False, max_terms=4))
    def test_finite_difference_cross_check(self, f):
        t = 1e3
        h = 0.1
        d_exact = H.evaluate(H.differentiate(f), t)
        d_num = float(H.evaluate_dd(f, t + h) - H.evaluate_dd(f, t - h)) / (2 * h)
        if d_exact == 0:
            assert abs(d_num) < 1e-9
        else:
            assert abs(d_num - d_exact) <= 1e-6 * abs(d_exact) + 1e-12


# --------------------------------------------------------------------------
# comparison and classification

class TestCompare:
    def test_worked_pair(self):
        assert H.compare(P("t*log(t)"), P("t^{3/2}")).relation is H.Ordering.PRECEDES

    def test_ratio(self):
        c = H.compare(P("3*t^2"), P("t^2"))
        assert c.relation is H.Ordering.SIMILAR and c.ratio == 3

    def test_log_powers_below_fractional(self):
        assert H.compare(P("log(t)^2"), P("t^{1/10}")).relation is H.Ordering.PRECEDES

    def test_zero_divisor(self):
        with pytest.raises(H.PreconditionError):
            H.compare(P("t"), HardyExpr.zero())

    @given(hardy_exprs(allow_zero=False), hardy_exprs(allow_zero=False),
           hardy_exprs(allow_zero=False))
    def test_total_order(self, f, g, h):
        ord_fg = H.compare(f, g).relation
        ord_gf = H.compare(g, f).relation
        flip = {H.Ordering.PRECEDES: H.Ordering.DOMINATES,
                H.Ordering.DOMINATES: H.Ordering.PRECEDES,
                H.Ordering.SIMILAR: H.Ordering.SIMILAR}
        assert ord_gf is flip[ord_fg]
        if (ord_fg is H.Ordering.PRECEDES
                and H.compare(g, h).relation is H.Ordering.PRECEDES):
            assert H.compare(f, h).relation is H.Ordering.PRECEDES


class TestClassify:
    def test_three_halves(self):
        g = H.classify(P("t^{3/2}"))
        assert g.tends_to is H.LimitKind.PLUS_INFINITY
        assert g.polynomial_growth_degree == 2
        assert g.is_strongly_nonpolynomial and not g.is_sublinear

    def test_window_power(self):
        g = H.classify(P("t^{3/5}"))
        assert g.is_sublinear and not g.is_subfractional
        assert g.is_strongly_nonpolynomial

    def test_convergent(self):
        g = H.classify(P("5 + t^{-1}"))
        assert g.tends_to is H.LimitKind.FINITE
        assert g.limit_float() == 5.0
        assert g.polynomial_growth_degree == 0

    @given(hardy_exprs())
    def test_flag_implications(self, f):
        g = H.classify(f)
        if g.is_subfractional:
            assert g.is_sublinear


class TestDecompose:
    @pytest.mark.parametrize("text,poly,rest", [
        ("t^2 + t^{3/2}", "t^2", "t^{3/2}"),
        ("t^2*log(t)", "0", "t^2*log(t)"),
        ("1/2*t^2 + t*log(t)", "1/2*t^2", "t*log(t)"),
    ])
    def test_examples(self, text, poly, rest):
        p, r = H.decompose(P(text))
        assert str(p) == poly and str(r) == rest

    @given(hardy_exprs())
    def test_reconstruction_exact(self, f):
        p, r = H.decompose(f)
        assert p + r == f
        for t in p.terms:
            assert t.power.denominator == 1 and t.power >= 0 and t.logpow == 0


# --------------------------------------------------------------------------
# condition checkers

class TestP1P2:
    def test_p1_fractional(self):
        r = H.check_P1(P("t^{3/2}"))
        assert r.holds and r.witness_epsilon == F(3, 4)

    def test_p1_log_remainder_fails(self):
        assert not H.check_P1(P("t^2 + log(t)")).holds

    def test_p1_noninteger_leading_coefficient(self):
        # distance of (1/2)t^2 to any integer polynomial is at least
        # min_{c in Z} |1/2 - c| t^2 = (1/2) t^2 asymptotically
        assert min(abs(F(1, 2) - c) for c in range(-10, 11)) == F(1, 2)
        r = H.check_P1(P("1/2*t^2"))
        assert r.holds and r.witness_epsilon == F(1)

    def test_p1_irrational_coefficient_not_cancellable(self):
        assert H.check_P1(P("sqrt2*t^2")).holds

    def test_p2_constant_plus_decay(self):
        r = H.check_P2(P("3 + t^{-1}"))
        assert r.holds and r.limit_float() == 3.0

    def test_p2_log_fails(self):
        assert not H.check_P2(P("log(t)")).holds

    def test_p2_decaying_log_product(self):
        # dominant pair (-1/2, 1); value at t = 1e6 confirms the limit 0
        r = H.check_P2(P("t^{-1/2}*log(t)"))
        assert r.holds and r.limit_float() == 0.0
        assert 0 < H.evaluate(P("t^{-1/2}*log(t)"), 1e6) < 0.02

    @given(hardy_exprs())
    def test_never_both(self, f):
        assert not (H.check_P1(f).holds and H.check_P2(f).holds)


class TestMod1:
    def test_equidistributed(self):
        assert H.classify_mod1(P("t^{1/2}")).case is H.Mod1Case.EQUIDISTRIBUTED

    def test_converges_nonzero(self):
        m = H.classify_mod1(P("1/2 + t^{-1}"))
        assert m.case is H.Mod1Case.CONVERGES_NONZERO and m.value == F(1, 2)

    def test_converges_zero_signed(self):
        # 5 + 1/t decreases to 5; fractional part tends to 0 from above,
        # matching the sign of the dominant non-constant term
        m = H.classify_mod1(P("5 + t^{-1}"))
        assert m.case is H.Mod1Case.CONVERGES_ZERO_SIGNED and m.sign == 1
        for t in (10.0, 100.0, 1000.0):
            frac = H.evaluate(P("5 + t^{-1}"), t) % 1.0
            assert frac - 0.5 < 0 and frac > 0

    def test_neither_condition(self):
        with pytest.raises(H.PreconditionError):
            H.classify_mod1(P("t^2 + log(t)"))


# --------------------------------------------------------------------------
# growth basis

class TestGrowthBasis:
    def test_dependent_inputs_rejected(self):
        with pytest.raises(H.PreconditionError, match="dependent"):
            H.growth_basis([P("t*log(t)"), P("t^{3/2}"), P("t^{3/2} + t*log(t)")])

    def test_worked_pair(self):
        b = H.growth_basis([P("t^{3/2}"), P("t^{3/2} + t*log(t)")])
        assert b.snp_basis == (P("t^{3/2}"), P("t*log(t)"))
        assert b.coeff_matrix == ((F(1), F(0)), (F(1), F(1)))

    def test_single_input(self):
        b = H.growth_basis([P("t^2 + t^{1/2}")])
        assert b.basis == (P("t^2 + t^{1/2}"),)

    def test_maximal_independent_subset(self):
        idx = H.maximal_independent_subset(
            [P("t*log(t)"), P("t^{3/2}"), P("t^{3/2} + t*log(t)")])
        assert idx == [0, 1]

    def test_poly_basis_form(self):
        b = H.growth_basis([P("t^{3/2} + t"), P("t^{3/2} + 2 + t^{-1}")])
        assert len(b.snp_basis) == 1 and len(b.poly_basis) == 1
        poly, rest = H.decompose(b.poly_basis[0])
        assert rest.is_zero or rest.dominant.growth < (0, 0)

    @given(st.lists(hardy_exprs(allow_zero=False, max_terms=3), min_size=1, max_size=4))
    def test_reconstruction_and_distinct_growth(self, exprs):
        idx = H.maximal_independent_subset(exprs)
        if len(idx) != len(exprs):
            return
        try:
            b = H.growth_basis(exprs)
        except H.UnrepresentableCoefficient:
            return
        for i, f in enumerate(exprs):
            assert b.reconstruct(i) == f
        growths = [H.nonpolynomial_growth(g) for g in b.snp_basis]
        assert len(set(growths)) == len(growths)
        assert None not in growths


# --------------------------------------------------------------------------
# numeric evaluation

class TestEvaluation:
    def test_plain(self):
        f = P("t^{3/2} + 2*t*log(t)")
        want = 1000.0 ** 1.5 + 2e3 * math.log(1e3)
        assert abs(H.evaluate(f, 1e3) - want) < 1e-8 * want

    @given(hardy_exprs(max_terms=4), st.integers(2, 10 ** 6))
    def test_dd_matches_float(self, f, n):
        lo = H.evaluate(f, float(n))
        hi = float(H.evaluate_dd(f, n))
        assert abs(hi - lo) <= 1e-9 * max(1.0, abs(lo))

    def test_floor_exact_at_perfect_squares(self):
        f = P("t^{3/2}")
        assert H.floor_at(f, 49) == 343
        assert H.floor_at(f, 10 ** 6) == 10 ** 9

    def test_floor_rational_fast_path(self):
        assert H.floor_at(P("1/3*t^2"), 7) == 16  # 49/3
        assert H.floor_at(P("-1/3*t^2"), 7) == -17

    def test_floor_irrational(self):
        assert H.floor_at(P("sqrt2*t"), 10) == 14

    @given(st.integers(2, 10 ** 5))
    def test_floor_matches_dd(self, n):
        f = P("t^{3/2} + 1/2")
        v = H.evaluate_dd(f, n)
        assert H.floor_at(f, n) == math.floor(v)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_every_registered_constant_evaluates_in_mpmath(self, name):
        """evaluate_mp, which floor_at uses, knows every registry constant."""
        with mp.workprec(200):
            want = mp.mpf(REGISTRY[name].decimal)
            assert abs(H.evaluate_mp(P(name), 1, 200) - want) <= 1e-49 * want


class TestIntRoot:
    @staticmethod
    def check(m, q):
        r = H.int_root(m, q)
        assert r ** q <= m < (r + 1) ** q

    @given(st.integers(0, 2 ** 4000), st.integers(3, 1000))
    def test_random(self, m, q):
        self.check(m, q)

    @given(st.integers(0, 2 ** 53 - 1), st.integers(3, 1000))
    def test_below_2_53(self, m, q):
        self.check(m, q)

    @given(st.data(), st.integers(3, 1000))
    def test_perfect_powers(self, data, q):
        b = data.draw(st.integers(1, 2 ** max(1, 4000 // q)))
        for m in (b ** q - 1, b ** q, b ** q + 1):
            self.check(m, q)
