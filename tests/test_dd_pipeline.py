"""The leaner dd sample pipeline: compensated Horner sums and their bound,
exact DD floor and fractional parts, integer anchor tables, and exact
integer floors of rational polynomials.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from nilorbit import hardy as H, orbits as O, windows as W
from nilorbit.ddmath import DD, FP, LN2, U2, comp_horner, two_prod, two_sum

ROOT = Path(__file__).resolve().parent.parent


def _floor_cfg(text):
    return O.OrbitConfig(dim=2, blocks=(2,), generators=((O.as_entry("phi"),),),
                         functions=(H.parse(text),), base_point=(O.as_entry(0),),
                         floor_mode=O.FloorMode.FLOOR)


@pytest.mark.parametrize("text", ["1/3*t^3 + 1/2*t^2 + 1/6*t", "1/3*t^2 - 1/7*t + 5/2",
                                  "2*t^2 + t"])
def test_floor_of_rational_polynomial_is_exact_integer_arithmetic(text, monkeypatch):
    f = H.parse(text)
    engine = O.OrbitEngine(_floor_cfg(text))
    monkeypatch.setattr(O, "floor_at", None)  # integer arithmetic, never floor_at
    for ns in (np.arange(1, 5001, dtype=np.int64),
               np.arange(10 ** 7 - 4, 10 ** 7 + 4, dtype=np.int64)):
        (hi, lo), = engine.exponents(ns)
        got = [int(h) + int(l) for h, l in zip(hi, lo)]
        assert got == [H.floor_at(f, int(n)) for n in ns]


def _random_dd(rng, count):
    """Normalized DD values: non-integral, integral hi, negative, beyond 2^53."""
    hi = rng.uniform(-1, 1, count) * 2.0 ** rng.integers(-60, 70, count)
    hi[::4] = np.floor(hi[::4])
    lo = rng.uniform(-0.5, 0.5, count) * np.spacing(np.abs(hi))
    lo[1::8] = rng.uniform(-0.5, 0.5, len(lo[1::8]))    # integral hi: lo has its own floor
    lo[2::8] = -rng.uniform(0, 1, len(lo[2::8])) * 2.0 ** -60
    return two_sum(hi, lo)


def test_floor_frac_exact():
    x = _random_dd(np.random.default_rng(11), 4000)
    (fh, fl), (rh, rl) = DD.floor_frac(x)
    assert (x[0] != np.floor(x[0])).any() and (x[0] == np.floor(x[0])).any()
    assert (x[0] < 0).any() and (np.abs(x[0]) >= 2.0 ** 53).any()
    assert ((-1 < x[0]) & (x[0] < 0)).sum() > 100
    for i in range(len(x[0])):
        v = Fraction(float(x[0][i])) + Fraction(float(x[1][i]))
        floor = Fraction(float(fh[i])) + Fraction(float(fl[i]))
        frac = Fraction(float(rh[i])) + Fraction(float(rl[i]))
        assert floor == math.floor(v), (x[0][i], x[1][i])
        if -1 < x[0][i] < 0:  # 1 + hi + lo need not fit in 106 bits
            assert abs(frac - (v - floor)) <= Fraction(1, 2 ** 107), (x[0][i], x[1][i])
        else:
            assert frac == v - floor, (x[0][i], x[1][i])
    assert DD.frac(x)[0].tobytes() == rh.tobytes()
    # without an integral hi, floor_frac skips the floor of lo: the same bits
    keep = x[0] != np.floor(x[0])
    parts = DD.floor_frac((x[0][keep], x[1][keep]))
    for got, want in zip((*parts[0], *parts[1]), (fh, fl, rh, rl)):
        assert got.tobytes() == want[keep].tobytes()
    y = np.array([-2.5, -1e-300, 0.0, 3.75, 2.0 ** 60])
    fl_y, fr_y = FP.floor_frac(y)
    assert fl_y.tolist() == np.floor(y).tolist() and fr_y.tolist() == (y - np.floor(y)).tolist()


def _mp_to_dd(values):
    """The canonical DD rounding of mpmath values: hi = float(x), lo = float(x - hi)."""
    hi = np.array([float(v) for v in values])
    return hi, np.array([float(v - h) for v, h in zip(values, hi)])


def _mp_table(s, a):
    """k^a for k in [2^s, 2^(s+1)) from 120-bit mpmath roots, rounded to DD."""
    with mp.workprec(120):
        vals = [mp.root(mp.mpf(k) ** abs(a.numerator), a.denominator)
                for k in range(2 ** s, 2 ** (s + 1))]
        return _mp_to_dd([1 / v for v in vals] if a < 0 else vals)


def test_anchor_tables_match_mpmath():
    powers = {Fraction(-1), Fraction(5, 2), Fraction(1, 3), Fraction(-7, 3)}
    for path in sorted((ROOT / "instances").glob("*.json")):
        for text in json.loads(path.read_text())["functions"]:
            powers |= set(W.AnchoredTaylor(H.parse(text)).__dict__.get("powers", ()))
    assert Fraction(3, 2) in powers
    for a in sorted(powers):
        (nh, nl), (oh, ol) = W._pow_table(10, a), _mp_table(10, a)
        with mp.workprec(300):
            for i in np.flatnonzero((nh != oh) | (nl != ol)):
                new, old = mp.mpf(nh[i]) + mp.mpf(nl[i]), mp.mpf(oh[i]) + mp.mpf(ol[i])
                assert abs(new - old) <= U2 * abs(old), (a, i)
    for a in (Fraction(3, 2), Fraction(5, 4), Fraction(-2, 3)):
        hi, lo = W._root2_table(a)
        with mp.workprec(300):
            for r in range(a.denominator):
                want = mp.mpf(2) ** (mp.mpf(r) / a.denominator)
                assert abs(mp.mpf(hi[r]) + mp.mpf(lo[r]) - want) <= U2 * want


def test_ln2_is_the_dd_rounding_of_ln2():
    with mp.workprec(300):
        want = _mp_to_dd([mp.ln(2)])
    assert LN2 == (want[0][0], want[1][0])


@pytest.mark.parametrize("s", W._ANCHOR_BITS)
def test_ln_table_is_the_dd_rounding_of_ln_k(s):
    """Bit for bit, at every anchor width: no double rounding of the low words."""
    with mp.workprec(300):
        want = _mp_to_dd([mp.ln(k) for k in range(2 ** s, 2 ** (s + 1))])
    got = W._ln_table(s)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def _divided(ratios):
    """P/Q and its exact rest by integer true divisions, as _ratios_to_dd
    rounds them."""
    hi, lo = [], []
    for P, Q in ratios:
        h = P / Q
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((P * q - p * Q) / (Q * q))
    return np.array(hi), np.array(lo)


@pytest.mark.parametrize("s", W._ANCHOR_BITS)
def test_table_fast_paths_keep_the_bits_of_the_divisions(s):
    """k^a through 1/k and its TwoProd (a = -1), through exact int64 powers
    (integer a >= 0 below 2^53) and through _dyadic_to_dd (rational a > 0),
    for every power of the shipped instances; and _dyadic_to_dd on the
    denominators of the tables, 2^120 and 2^160 (ln k), and others."""
    powers = {Fraction(-1), Fraction(0), Fraction(2), Fraction(3), Fraction(4), Fraction(-2),
              Fraction(5, 2), Fraction(1, 3)}
    for path in sorted((ROOT / "instances").glob("*.json")):
        for text in json.loads(path.read_text())["functions"]:
            powers |= set(W.AnchoredTaylor(H.parse(text)).powers)
    for a in sorted(powers):
        ratios = [W._rational_power(k, a) for k in range(2 ** s, 2 ** (s + 1))]
        for got, want in zip(W._pow_table(s, a), _divided(ratios)):
            assert got.tobytes() == want.tobytes(), (s, a)
    rng = random.Random(s)
    for t in (0, 1, 120, 160):
        P = [rng.getrandbits(rng.randrange(1, 400)) for _ in range(500)] + [0, 1, 2 ** 900 - 1]
        for got, want in zip(W._dyadic_to_dd(P, t), _divided((x, 1 << t) for x in P)):
            assert got.tobytes() == want.tobytes(), t


@pytest.mark.parametrize("K, J", [(9, 4), (4, 4), (6, 0)])
def test_compensated_horner_within_running_error_bound(K, J):
    """Nearly cancelling sums, where the Horner rounding is the whole error."""
    rng = np.random.default_rng(10 * K + J)
    count = 600
    v = np.ldexp(rng.integers(0, 2 ** 20, count).astype(np.float64), -20)
    r = [two_sum(h, h * rng.uniform(-1, 1, count) * 2.0 ** -54)
         for h in (rng.uniform(-1, 1, count) * 2.0 ** (-12 * j) for j in range(K + 1))]
    exact = [[Fraction(float(r[j][0][i])) + Fraction(float(r[j][1][i])) for j in range(K + 1)]
             for i in range(count)]
    for i in range(count):  # r_0 = -(sum of the higher orders), rounded to DD
        rest = -sum(c * Fraction(float(v[i])) ** j for j, c in enumerate(exact[i]) if j)
        r[0][0][i] = float(rest)
        r[0][1][i] = float(rest - Fraction(float(r[0][0][i])))
        exact[i][0] = Fraction(float(r[0][0][i])) + Fraction(float(r[0][1][i]))
    bound = (1 + 2.0 ** -20) * W._horner_bound(np.abs([c[0] for c in r]), J)
    worst = 0.0
    for prod in (two_prod, W._two_prod_short):
        hi, lo = comp_horner(r, J, v, prod)
        for i in range(count):
            want = sum(c * Fraction(float(v[i])) ** j for j, c in enumerate(exact[i]))
            err = abs(Fraction(float(hi[i])) + Fraction(float(lo[i])) - want)
            assert err <= bound[i], (prod.__name__, i, float(err), bound[i])
            worst = max(worst, float(err) / bound[i])
    assert worst > 1e-3  # the sums really do carry rounding error


def test_leaf_update_matches_add_of_product():
    """x - m c as one add_prod, read through frac_float, against DD.add of
    DD.mul: within 2^-52 mod 1, and within 2^-53 of the exact value; the
    double kernel's add_prod is plain x + a b, bit for bit."""
    rng = np.random.default_rng(17)
    count = 5000
    x = two_sum(rng.uniform(-1, 1, count) * 2.0 ** rng.integers(-3, 40, count),
                rng.uniform(-1, 1, count) * 2.0 ** -60)
    x = two_sum(*x)
    m = (np.floor(rng.uniform(-1, 1, count) * 2.0 ** rng.integers(0, 30, count)), np.zeros(count))
    c = two_sum(rng.uniform(-1, 1, count) * 2.0 ** rng.integers(-10, 8, count),
                rng.uniform(-1, 1, count) * 2.0 ** -62)
    c = two_sum(*c)
    neg_m = DD.neg(m)
    lean = DD.frac_float(DD.add_prod(x, neg_m, c))
    full = DD.frac_float(DD.add(x, DD.mul(neg_m, c)))
    for i in range(count):
        exact = (Fraction(float(x[0][i])) + Fraction(float(x[1][i]))
                 - Fraction(float(m[0][i])) * (Fraction(float(c[0][i])) + Fraction(float(c[1][i]))))
        f = float(exact - math.floor(exact))
        for got, tol in ((lean[i], 2.0 ** -53), (full[i], 2.0 ** -53)):
            d = abs(got - f) % 1.0
            assert min(d, 1.0 - d) <= tol, (i, got, f)
        d = abs(lean[i] - full[i]) % 1.0
        assert min(d, 1.0 - d) <= 2.0 ** -52, (i, lean[i], full[i])
    a, b, y = (rng.uniform(-1e6, 1e6, 100) for _ in range(3))
    assert FP.add_prod(y, a, b).tobytes() == FP.add(y, FP.mul(a, b)).tobytes()
