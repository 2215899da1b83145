"""Exponents a_i(n) from Taylor windows on the dyadic anchor grid.

The values are checked against a 300-bit mpmath oracle, the certified bounds
against the measured error, and the grid's defining property (a_i(n) depends
on n alone) against whole-chunk evaluation.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

from nilorbit import cli, hardy as H, orbits as O, windows as W
from nilorbit.ddmath import DD, U2, exp_error, ln_error

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = ["t^{3/2}", "t*log(t)", "t^{5/2}", "t^{1/2}*log(t)"]
RANGE_STARTS = [1, 10 ** 3, 10 ** 5, 10 ** 6, 10 ** 7 - O.CHUNK]


def _oracle_error(f, n, value) -> tuple[float, float]:
    """(|computed - exact|, |exact|) at n with 300 bits."""
    with mp.workprec(300):
        want = H.evaluate_mp(f, n, 300)
        got = mp.mpf(float(value[0])) + mp.mpf(float(value[1]))
        return float(abs(got - want)), float(abs(want))


def _window_ends(ev, ns):
    """Indices whose Taylor window ends at n (h = H - 1), the farthest from the anchor."""
    p = np.frexp(ns.astype(np.float64))[1] - 1 - ev.s
    return np.flatnonzero((ns >= ev.n_start) & ((ns + 1) % (1 << np.maximum(p, 0)) == 0))


@pytest.mark.parametrize("text", FUNCTIONS)
def test_error_within_certified_bound(text):
    f = H.parse(text)
    ev = W.AnchoredTaylor(f)
    assert ev.n_start is not None and ev.n_start <= 2 ** 14
    rng = np.random.default_rng(7)
    for a in RANGE_STARTS:
        ns = np.arange(a, a + O.CHUNK, dtype=np.int64)
        (hi, lo), bound = ev.evaluate(ns)
        ends = _window_ends(ev, ns)
        pick = np.concatenate([ends[:: max(1, len(ends) // 12)],
                               rng.choice(len(ns), 12, replace=False)])
        for i in pick:
            n = int(ns[i])
            err, size = _oracle_error(f, n, (hi[i], lo[i]))
            assert err <= bound[i], (text, n, err, bound[i])
            if n >= ev.n_start:
                assert bound[i] <= W.TARGET_REL * max(1.0, size), (text, n, bound[i])


def test_exp_ln_error_models():
    rng = np.random.default_rng(3)
    x = rng.uniform(-60, 60, 400)
    e = DD.exp((x, np.zeros_like(x)))
    n = np.floor(rng.uniform(1, 1e8, 400))
    L = DD.ln((n, np.zeros_like(n)))
    with mp.workprec(200):
        for i in range(len(x)):
            want = mp.exp(mp.mpf(x[i]))
            rel = abs(mp.mpf(e[0][i]) + mp.mpf(e[1][i]) - want) / want
            assert rel <= exp_error(x[i]) * U2
            want = mp.ln(mp.mpf(n[i]))
            assert abs(mp.mpf(L[0][i]) + mp.mpf(L[1][i]) - want) <= ln_error(float(want)) * U2


def test_direct_path_bound_holds_below_start():
    for text in FUNCTIONS + ["t^{3/2} + 1/2 + t^{-1}", "2*t^2 + t", "1/2*t^2 + 1/2*t"]:
        f = H.parse(text)
        ns = np.array([1, 2, 3, 17, 255, 1000, 2047, 10 ** 6 + 3], dtype=np.int64)
        v = H.evaluate_kernel(f, DD, DD.from_int_array(ns))
        bound = H.dd_error_bound(f, ns.astype(np.float64))
        for i, n in enumerate(ns):
            err, _ = _oracle_error(f, int(n), (np.broadcast_to(v[0], ns.shape)[i],
                                               np.broadcast_to(v[1], ns.shape)[i]))
            assert err <= bound[i], (text, n, err, bound[i])
    # polynomials with dyadic coefficients evaluate exactly below 2^53: bound 0,
    # so floor mode never sends their (integer) values to floor_at
    for text in ("2*t^2 + t", "1/2*t^2 + 1/2*t"):
        assert not H.dd_error_bound(H.parse(text), np.array([5.0, 1e6])).any()


def test_single_index_equals_chunk_row_bit_for_bit():
    cfg = cli.build_orbit_config(cli.load_config(str(ROOT / "instances/heisenberg_pair.json")))
    engine = O.OrbitEngine(cfg)
    for a in (1, 1 + 15 * O.CHUNK):
        ns, coords, _ = engine.samples(a, a + O.CHUNK - 1)
        for n in (a, a + 1, a + 2046, a + 2047, a + 4097, a + 30001, a + O.CHUNK - 1):
            _, one, _ = engine.samples(n, n)
            assert one[0].tobytes() == coords[n - a].tobytes(), n
    # the exponents themselves, on an index set unrelated to any chunk
    sparse = np.array([1048576, 3, 2048, 99991, 1048575], dtype=np.int64)
    full = engine.exponents(np.arange(1, 2 ** 20 + 1, dtype=np.int64))
    for s_full, s_sparse in zip(full, engine.exponents(sparse)):
        for j, n in enumerate(sparse):
            assert (s_full[0][n - 1], s_full[1][n - 1]) == (s_sparse[0][j], s_sparse[1][j])


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
    for a in (1, 1 + 15 * O.CHUNK):
        ns = np.arange(a, a + O.CHUNK, dtype=np.int64)
        (hi, lo), = engine.exponents(ns)
        for n in squares[(squares >= a) & (squares < a + O.CHUNK)]:
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
