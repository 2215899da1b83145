"""Exponents a_i(n) from Taylor windows on the dyadic anchor grid.

The values are checked against a 300-bit mpmath oracle, the certified bounds
against the measured error at every n from 1 on, and the grid's defining
property (a_i(n) depends on n alone) against whole-chunk evaluation.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from nilorbit import cli, hardy as H, orbits as O, windows as W
from nilorbit.ddmath import U2

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = ["t^{3/2}", "t*log(t)", "t^{5/2}", "t^{1/2}*log(t)"]
SPAN = 1 << 16  # samples per test span: four engine chunks, 1 + 15 * SPAN holds n = 1e6
RANGE_STARTS = [1, 10 ** 3, 10 ** 5, 10 ** 6, 10 ** 7 - SPAN]
LATE_MONOTONE = "1/7*t^{5/4} + 1/3*t*log(t)^3"  # |f^(K+1)| decreases only past ~1e22


def _oracle_error(f, n, value) -> tuple[float, float]:
    """(|computed - exact|, |exact|) at n with 300 bits."""
    with mp.workprec(300):
        want = H.evaluate_mp(f, n, 300)
        got = mp.mpf(float(value[0])) + mp.mpf(float(value[1]))
        return float(abs(got - want)), float(abs(want))


def _window_ends(ev, ns):
    """Indices whose Taylor window ends at n (h = H - 1), the farthest from the anchor."""
    p = np.maximum(np.frexp(ns.astype(np.float64))[1] - 1 - ev.s, 0)
    return np.flatnonzero((ns + 1) % (1 << p) == 0)


@pytest.mark.parametrize("text", FUNCTIONS)
def test_error_within_certified_bound(text):
    f = H.parse(text)
    ev = W.AnchoredTaylor(f)
    rng = np.random.default_rng(7)
    for a in RANGE_STARTS:
        ns = np.arange(a, a + SPAN, dtype=np.int64)
        (hi, lo), bound = ev.evaluate(ns)
        ends = _window_ends(ev, ns)
        pick = np.concatenate([ends[:: max(1, len(ends) // 12)],
                               rng.choice(len(ns), 12, replace=False)])
        for i in pick:
            n = int(ns[i])
            err, size = _oracle_error(f, n, (hi[i], lo[i]))
            assert err <= bound[i], (text, n, err, bound[i])
            assert bound[i] <= W.TARGET_REL * max(1.0, size), (text, n, bound[i])


def _instance_functions():
    return sorted({text for path in (ROOT / "instances").glob("*.json")
                   for text in json.loads(path.read_text())["functions"]})


@pytest.mark.parametrize("text", sorted(set(FUNCTIONS) | set(_instance_functions()) | {
    "2 + t^{-1}", "sqrt2*t^2", LATE_MONOTONE}))
def test_small_n_within_target(text):
    """Every n up to just past the one-point windows: error <= bound <= target."""
    f = H.parse(text)
    ev = W.AnchoredTaylor(f)
    ns = np.arange(1, 2 ** (ev.s + 1) + 65, dtype=np.int64)
    (hi, lo), bound = ev.evaluate(ns)
    for i, n in enumerate(ns.tolist()):
        err, size = _oracle_error(f, n, (hi[i], lo[i]))
        assert err <= bound[i] <= W.TARGET_REL * max(1.0, size), (text, n, err, bound[i])


def test_late_monotone_function_at_window_ends():
    """A function whose |f^(K+1)| is certified decreasing only past ~1e22:
    the termwise remainder bounds its windows from n = 1 on."""
    f = H.parse(LATE_MONOTONE)
    ev = W.AnchoredTaylor(f)
    ns = np.array([n for e in range(ev.s + 1, 24) for n in (
        2 ** e + 2 ** (e - ev.s) - 1,            # the octave's first window end
        2 ** e + 37 * 2 ** (e - ev.s) - 1,
        2 ** (e + 1) - 1)                         # its last
        if n <= 10 ** 7], dtype=np.int64)
    (hi, lo), bound = ev.evaluate(ns)
    for i, n in enumerate(ns.tolist()):
        err, size = _oracle_error(f, n, (hi[i], lo[i]))
        assert err <= bound[i] <= W.TARGET_REL * max(1.0, size), (n, err, bound[i])


@pytest.mark.parametrize("text", [
    LATE_MONOTONE,
    "t^{81/2} + t*log(t)",  # f^(K+1) increases on every window
    "t^{17/2}*log(t)^5",    # a term of f^(K+1) peaks at e^10, inside a window
])
def test_termwise_remainder_bounds_the_truncation(text):
    """The degree-K truncation error at each window's far end (h = H - 1),
    from the 300-bit oracle, is at most the termwise Lagrange bound."""
    f = H.parse(text)
    ev = W.AnchoredTaylor(f)
    anchors = {2 ** e for e in range(ev.s + 1, 24)} | {2 ** (e + 1) - 2 ** (e - ev.s)
                                                       for e in range(ev.s + 1, 24)}
    p14 = 14 - ev.s
    anchors.add(22026 >> p14 << p14)  # the window around e^10
    for m in sorted(anchors):
        p = m.bit_length() - 1 - ev.s
        h = 2 ** p - 1
        n = m + h
        bound = ev._lagrange(np.array([m >> p]), np.array([p]))[0]
        with mp.workprec(300):
            taylor = sum(H.evaluate_mp(H.derivative(f, j), m, 300) / mp.factorial(j) * h ** j
                         for j in range(ev.K + 1))
            err = abs(H.evaluate_mp(f, n, 300) - taylor)
        assert err <= bound, (text, n, err, bound)


def test_plan_of_a_high_power_without_float_overflow():
    """Probe magnitudes such as 2^(16 * 40.5) are beyond float range; the plan
    is computed in logarithms."""
    f = H.parse("t^{81/2} + t*log(t)")
    ev = W.AnchoredTaylor(f)
    ns = np.array([1, 2, 3, 1000, 2 ** (ev.s + 1) + 1, 10 ** 6 - 1, 10 ** 7], dtype=np.int64)
    (hi, lo), bound = ev.evaluate(ns)
    for i, n in enumerate(ns.tolist()):
        err, size = _oracle_error(f, n, (hi[i], lo[i]))
        assert err <= bound[i] <= W.TARGET_REL * max(1.0, size), (n, err, bound[i])


@pytest.mark.parametrize("path", sorted((ROOT / "instances").glob("*.json")),
                         ids=lambda p: p.stem)
def test_dd_exponents_never_evaluate_directly(path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dd exponents evaluated outside the Taylor windows")

    for module in (H, O, W):  # every module that binds the name, or may
        monkeypatch.setattr(module, "evaluate_kernel", refuse, raising=False)
    cfg = cli.build_orbit_config(cli.load_config(str(path)))
    assert cfg.precision == "dd"
    O.OrbitEngine(cfg).exponents(np.arange(1, SPAN + 1, dtype=np.int64))


def test_rational_polynomials_exact_in_real_mode():
    ns = np.array([1, 2, 3, 2047, 2048, 10 ** 6 + 1, 2 ** 40 + 3], dtype=np.int64)
    for text, want in (("t", lambda n: Fraction(n)),
                       ("1/2*t^2 + 1/2*t", lambda n: Fraction(n * (n + 1), 2)),
                       ("1/3*t^2", lambda n: Fraction(n * n, 3))):
        cfg = O.OrbitConfig(dim=2, blocks=(2,), generators=((O.as_entry("phi"),),),
                            functions=(H.parse(text),), base_point=(O.as_entry(0),))
        (hi, lo), = O.OrbitEngine(cfg).exponents(ns)
        for n, h, l in zip(ns.tolist(), hi, lo):
            got, exact = Fraction(float(h)) + Fraction(float(l)), want(n)
            if exact.denominator == 1:
                assert got == exact, (text, n)
            else:
                assert abs(got - exact) <= U2 * exact, (text, n)


def test_dd_index_range_ends_below_2_pow_52(tmp_path):
    doc = json.loads((ROOT / "instances/torus_boshernitzan.json").read_text())
    cfg = cli.build_orbit_config({**doc, "allow_beyond_cap": True})
    with pytest.warns(UserWarning, match="beyond the precision cap"):
        _, coords, _ = O.OrbitEngine(cfg).samples(2 ** 52 - 1, 2 ** 52 - 1)
    assert np.isfinite(coords).all()
    with pytest.raises(O.PrecisionCapError, match="2\\^52"):
        O.OrbitEngine(cfg).samples(2 ** 52, 2 ** 52)
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps({**doc, "allow_beyond_cap": True}))
    out = tmp_path / "orbit.csv"
    assert cli.main(["orbit", str(path), "--N", str(2 ** 52), "--out", str(out)]) == \
        cli.EXIT_PRECISION


def test_single_index_equals_chunk_row_bit_for_bit():
    cfg = cli.build_orbit_config(cli.load_config(str(ROOT / "instances/heisenberg_pair.json")))
    engine = O.OrbitEngine(cfg)
    for a in (1, 1 + 15 * SPAN):
        ns, coords, _ = engine.samples(a, a + SPAN - 1)
        for n in (a, a + 1, a + 2046, a + 2047, a + 4097, a + 30001, a + SPAN - 1):
            _, one, _ = engine.samples(n, n)
            assert one[0].tobytes() == coords[n - a].tobytes(), n
    # the exponents themselves, on an index set unrelated to any chunk
    sparse = np.array([1048576, 3, 2048, 99991, 1048575], dtype=np.int64)
    full = engine.exponents(np.arange(1, 2 ** 20 + 1, dtype=np.int64))
    for s_full, s_sparse in zip(full, engine.exponents(sparse)):
        for j, n in enumerate(sparse):
            assert (s_full[0][n - 1], s_full[1][n - 1]) == (s_sparse[0][j], s_sparse[1][j])



def _bits(value, bound=None):
    return (value[0].tobytes(), value[1].tobytes(), None if bound is None else bound.tobytes())


@pytest.mark.parametrize("text", ["t^{3/2}", "t*log(t)"])
def test_octave_tables_serve_any_index_set_bit_for_bit(text):
    """A whole chunk, single points and sparse unsorted sets straddling
    2^e - 1 / 2^e, each on a fresh evaluator (so from its own octave tables),
    give the same values and bounds."""
    f = H.parse(text)
    a = 2 ** 20 - SPAN // 2  # the span straddles 2^20
    ns = np.arange(a, a + SPAN, dtype=np.int64)
    chunk = W.AnchoredTaylor(f).evaluate(ns)
    rng = np.random.default_rng(3)
    sparse = np.concatenate([[2 ** 20, 2 ** 20 - 1, a + SPAN - 1, a],
                             rng.choice(ns, 60, replace=False)])
    got = W.AnchoredTaylor(f).evaluate(sparse)
    assert _bits(*got) == _bits((chunk[0][0][sparse - a], chunk[0][1][sparse - a]),
                                chunk[1][sparse - a])
    one = W.AnchoredTaylor(f)
    for n in (2 ** 20 - 1, 2 ** 20, a, 2 ** 12 - 1, 2 ** 12, 7):
        value, bound = one.evaluate(np.array([n], dtype=np.int64))
        whole = W.AnchoredTaylor(f).evaluate(np.array([7, 2 ** 12 - 1, 2 ** 12, n, 2 ** 30 + 5],
                                                       dtype=np.int64))
        assert _bits(value, bound) == _bits((whole[0][0][3:4], whole[0][1][3:4]), whole[1][3:4])
        if a <= n < a + SPAN:
            i = n - a
            assert _bits(value, bound) == _bits((chunk[0][0][i:i + 1], chunk[0][1][i:i + 1]),
                                                chunk[1][i:i + 1])
    # without the bound the values are the same, and a later call with it adds it
    bare = W.AnchoredTaylor(f)
    value, bound = bare.evaluate(ns, with_bound=False)
    assert bound is None and _bits(value) == _bits(chunk[0])
    assert _bits(*bare.evaluate(ns)) == _bits(*chunk)


ONE_POINT_FUNCTIONS = ["t^{3/2}", "t*log(t)", "t^{5/2}", "t^3 - t*log(t)", "t^{1/2}",
                       "t*log(t)^2", "-t^{3/2} + t^{1/2}*log(t)"]


@pytest.mark.parametrize("text", ONE_POINT_FUNCTIONS)
def test_one_point_windows_read_the_bits_of_a_full_build(text, monkeypatch):
    """Below 2^(s+1) every window is one point (v = 0): the table built with
    r_0 alone gives the values and bounds, signs of zero included, of the
    table with every order."""
    f = H.parse(text)
    full = W.AnchoredTaylor._coefficients
    ns = np.arange(1, 2 << W.AnchoredTaylor(f).s, dtype=np.int64)
    for with_bound in (True, False):
        cut = W.AnchoredTaylor(f).evaluate(ns, with_bound)
        with monkeypatch.context() as m:
            m.setattr(W.AnchoredTaylor, "_coefficients",
                      lambda self, k, p, with_bound, one_point: full(self, k, p, with_bound))
            whole = W.AnchoredTaylor(f).evaluate(ns, with_bound)
        assert _bits(*cut) == _bits(*whole), (text, with_bound)
    if text == "t*log(t)":
        assert cut[0][0][0] == cut[0][1][0] == 0.0  # at n = 1


def _plan_by_probe_loops(orders):
    """AnchoredTaylor._plan as a loop over s, probes and terms in math.log."""
    terms = [[(math.copysign(1.0, t.coeff_float()), math.log(abs(t.coeff_float())),
               float(t.power), float(t.power + j), t.logpow) for t in g.terms]
             for j, g in enumerate(orders)]

    def log_abs(tj, k, p):
        lk, lm = math.log(k), math.log(k) + p * math.log(2)
        logs = [lc + e * lk + p * a * math.log(2) + i * math.log(lm) for _, lc, e, a, i in tj]
        top = max(logs, default=-math.inf)
        total = abs(sum(sg * math.exp(x - top) for (sg, *_), x in zip(tj, logs)))
        return top + math.log(total) if total else -math.inf

    plan = None
    for s in W._ANCHOR_BITS:
        rho = np.full(len(orders), -math.inf)
        for k in (2 ** s, 2 ** (s + 1) - 1):
            for p in W._PROBE_OCTAVES:
                r = np.array([log_abs(tj, k, p) for tj in terms])
                rho = np.maximum(rho, r - max(0.0, r[0]))
        with np.errstate(over="ignore"):
            rho = np.exp(rho)
        small = np.flatnonzero(rho[2:] <= W._SHARE)
        if not small.size:
            continue
        K = int(small[0]) + 1
        J = next(J for J in range(K + 1)
                 if (2 * (K - J) + 2) * W.U * rho[J + 1:K + 1].sum() <= W._SHARE)
        plan = (s, K, J)
        if J <= W._MAX_DD_ORDERS:
            break
    return plan


@pytest.mark.parametrize("text", ONE_POINT_FUNCTIONS + [
    "t^{1/3}", "t^{7/3}", "t^{9/2}", "t^{1/100}", "sqrt2*t^{3/2} + t^{1/2}",
    "pi*t^{5/3} - t^{4/3}*log(t)", "t^{81/2} + t*log(t)", LATE_MONOTONE,
    "t^{3/2} + 1/2 + t^{-1}", "t*log(t) + 3 - 2*t^{-1}"])
def test_plan_equals_the_probe_loops(text):
    f = H.parse(text)
    orders = [f]
    for j in range(1, W._MAX_ORDER + 2):
        orders.append(H.differentiate(orders[-1]).scaled(Fraction(1, j)))
    assert W.AnchoredTaylor._plan(orders) == _plan_by_probe_loops(orders)


def test_octave_cache_is_bounded_and_rebuilds_the_same_bits():
    ev = W.AnchoredTaylor(H.parse("t*log(t)"))
    probe = np.array([2 ** 14 + 3, 2 ** 15 - 1], dtype=np.int64)
    first = ev.evaluate(probe)
    for e in range(1, 23):  # octaves 1..22, each its first and last index and a middle one
        ns = np.array([2 ** e, 2 ** e + 2 ** (e - 1) // 3, 2 ** (e + 1) - 1], dtype=np.int64)
        ev.evaluate(ns)
        assert len(ev._cache) <= W._CACHED_OCTAVES
    p = int(probe[0]).bit_length() - 1 - ev.s
    assert p not in ev._cache  # evicted by the walk
    assert _bits(*ev.evaluate(probe)) == _bits(*first)


def test_floor_mode_rows_equal_single_points_across_blocks():
    """Per-block exponents of a floor-mode chunk whose Taylor windows straddle
    the BLOCK boundaries: the rows there, and at the perfect squares (where
    n^(3/2) is an integer and the floor falls back to exact evaluation),
    equal single-point evaluation bit for bit."""
    cfg = cli.build_orbit_config(cli.load_config(str(ROOT / "instances/pointwise_dependent.json")))
    assert cfg.floor_mode is O.FloorMode.FLOOR
    engine = O.OrbitEngine(cfg)
    n0 = 900_001  # odd: no block starts a window
    ns, coords, _ = engine.samples(n0, n0 + SPAN - 1)
    straddle = [n0 + b + d for b in range(O.BLOCK, SPAN, O.BLOCK) for d in (-1, 0)]
    for t in engine.taylor:
        p = int(np.frexp(float(n0))[1]) - 1 - t.s
        assert p > 0 and all((n >> p) == ((n + 1) >> p) for n in straddle[::2])
    squares = [k * k for k in range(math.isqrt(n0 - 1) + 1, math.isqrt(int(ns[-1])) + 1)]
    assert len(squares) > 30
    for n in straddle + squares:
        assert O.orbit_point(cfg, n).coords.tobytes() == coords[n - n0].tobytes(), n


def test_floor_mode_exact_at_perfect_squares():
    f = H.parse("t^{3/2}")
    cfg = O.OrbitConfig(dim=2, blocks=(2,), generators=((O.as_entry("phi"),),),
                        functions=(f,), base_point=(O.as_entry(0),),
                        floor_mode=O.FloorMode.FLOOR)
    engine = O.OrbitEngine(cfg)
    squares = np.arange(1, 1001, dtype=np.int64) ** 2
    (hi, lo), = engine.exponents(squares)
    got = [int(h) + int(l) for h, l in zip(hi, lo)]
    assert got == [int(m) ** 3 for m in range(1, 1001)]
    # the same inside whole chunks
    for a in (1, 1 + 15 * SPAN):
        ns = np.arange(a, a + SPAN, dtype=np.int64)
        (hi, lo), = engine.exponents(ns)
        for n in squares[(squares >= a) & (squares < a + SPAN)]:
            assert int(hi[n - a]) + int(lo[n - a]) == H.floor_at(f, int(n))


def test_discrepancy_series_matches_separate_passes():
    cfg = O.OrbitConfig(dim=3, blocks=(3,), generators=((O.as_entry("phi"),
                        O.as_entry("sqrt2"), O.as_entry(0)),),
                        functions=(H.parse("t^{3/2}"),), base_point=(O.as_entry(0),) * 3)
    grid = (70000, 10, 1000, 65536, 65537)
    series = O.discrepancy_series(cfg, grid, 8)
    assert series == [O.orbit_discrepancy(cfg, N, 8) for N in grid]


def test_discrepancy_pilot_reproduced(tmp_path):
    out = tmp_path / "d.csv"
    assert cli.main(["discrepancy", str(ROOT / "instances/heisenberg_pair.json"),
                     "--grid", "8", "--out", str(out)]) == 0
    got = list(csv.reader(out.open()))
    want = list(csv.reader((ROOT / "pilot/discrepancy_pair.csv").open()))
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for g, w in zip(got[1:], want[1:]):
        assert float(g[2]) == pytest.approx(float(w[2]), rel=1e-9)
