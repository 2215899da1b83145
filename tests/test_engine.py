"""The dd orbit engine against a 400-bit mpmath oracle: the base point folded
into the entry polynomials, the shared compensated Horner, the reduction
that computes only what later steps read, and the carry at lattice
discontinuities.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mp_oracle import TOL, check_rows, circular, make_doc, oracle_coords
from nilorbit import cli, orbits as O
from nilorbit.ddmath import DD, U2, two_sum

ROOT = Path(__file__).resolve().parent.parent


def test_entry_polynomials_on_a_dd_variable():
    """polyval's compensated Horner over a DD s (its low word in the error
    sum, zero coefficients skipped) against exact rational arithmetic."""
    rng = np.random.default_rng(5)
    s = two_sum(rng.uniform(-2e9, 2e9, 3000), rng.uniform(-1, 1, 3000) * 1e-7)
    s[0][:50] = rng.uniform(-3, 3, 50)  # small s: no term dominates
    s = two_sum(*s)
    polys = [[(0.3, 1e-17), (-1.7, 2.5e-17), (0.8, -3e-17)], [None, (2.0, 0.0), (-0.125, 0.0)],
             [(0.7, 1e-17), None, None, (1.0 / 3, 1.0 / 3 * 2.0 ** -54)]]
    for coeffs, (hi, lo) in zip(polys, DD.polyval(polys, s)):
        for i in range(0, 3000, 7):
            x = Fraction(float(s[0][i])) + Fraction(float(s[1][i]))
            terms = [(Fraction(c[0]) + Fraction(c[1])) * x ** j
                     for j, c in enumerate(coeffs) if c is not None]
            err = abs(Fraction(float(hi[i])) + Fraction(float(lo[i])) - sum(terms))
            assert err <= 32 * U2 * float(sum(abs(t) for t in terms)), (i, float(err))


HEIS_PAIR = json.loads((ROOT / "instances" / "heisenberg_pair.json").read_text())
SPAN = 1 << 16  # samples per test span, four engine chunks
SPAN15 = 1 + 15 * SPAN  # the span that holds n = 1e6


def test_carry_at_lattice_discontinuities():
    """n = 2k^2 makes sqrt2 n^(3/2) = 4k^3 an integer: where the dd entry lands
    just below it, its float fractional part rounds to 1, and the dependent
    coordinate must use the floor one higher (the parent engine was off by
    the column entry at 33 of these 91 rows)."""
    ns = [2 * k * k for k in range(10, 101)]
    ns_all, coords, _ = O.OrbitEngine(cli.build_orbit_config(HEIS_PAIR)).samples(1, max(ns))
    for n in ns:
        assert circular(coords[n - 1], oracle_coords(HEIS_PAIR, n)) <= TOL, n
    assert coords[287].tolist()[2] == pytest.approx(0.941, abs=1e-3)  # n = 288


def test_heisenberg_irrational_entries_with_base_point_near_1e6():
    doc = make_doc(3, [["sqrt3", "pi", "e"]], ["t^{3/2}"], ["1/3", "2/7", "5/9"])
    rng = np.random.default_rng(1)
    picks = sorted(SPAN15 + int(i) for i in rng.choice(SPAN, 40, replace=False))
    assert check_rows(doc, SPAN15, SPAN15 + SPAN - 1, picks) > 0.0


def test_4x4_block_with_base_point():
    """In 4x4 blocks (0,2) is a column of (2,3)'s update before (0,2) itself
    is reduced, so that column entry is a full-size DD value."""
    doc = make_doc(4, [["phi", "sqrt2", "e", "1/3", "pi", "sqrt5"]], ["t^{5/4}"],
                   ["1/2", "1/3", "1/5", "2/7", "3/11", "5/13"])
    order = O.coordinate_order(4)
    (blk,) = O.OrbitEngine(cli.build_orbit_config(doc)).blocks
    assert order.index((2, 3)) < order.index((0, 2)) and 0 in blk.steps[order.index((2, 3))][1]
    n0 = 1 + 2 * SPAN
    check_rows(doc, n0, n0 + SPAN - 1, range(n0, n0 + SPAN, 1637))


def test_commuting_generators_fold_base_into_last():
    """The powers are multiplied in order, the base point folded into the
    last one, whether the generators commute or not."""
    doc = make_doc(3, [["phi", 0, "sqrt2"], ["sqrt3", 0, "1/3"]], ["t^{3/2}", "t*log(t)"],
                   ["1/3", "2/5", "3/7"])
    engine = O.OrbitEngine(cli.build_orbit_config(doc))
    (blk,) = engine.blocks
    assert len(blk.gens) == 2 and (1, 2) in blk.gens[1][1] and (1, 2) not in blk.gens[0][1]
    n0 = 1 + SPAN
    check_rows(doc, n0, n0 + SPAN - 1, range(n0, n0 + SPAN, 1999))
    # b_1 b_2 != b_2 b_1: (0,2) of the commutator is phi e - sqrt2 pi, and in
    # 4x4 the pair differs in (0,2), (1,3) and (0,3)
    non_commuting = [
        make_doc(3, [["phi", "sqrt2", 0], ["pi", "e", "1/3"]], ["t^{3/2}", "t*log(t)"],
                 ["1/3", "2/5", "3/7"]),
        make_doc(4, [["sqrt2", "sqrt3", 0, "1/5", 0, 0], [0, "pi", "e", 0, "1/7", 0]],
                 ["t^{5/4}", "t*log(t)"], ["1/2", "1/3", "1/5", "2/7", "3/11", "5/13"]),
    ]
    n0 = 1 + 3 * SPAN
    for doc in non_commuting:
        for mode in ("real", "floor"):
            check_rows(dict(doc, floor_mode=mode), n0, n0 + SPAN - 1,
                       range(n0, n0 + SPAN, 4001))



@pytest.mark.parametrize("doc", [
    make_doc(3, [["sqrt3", "pi", "e"]], ["t^{3/2}"], ["1/3", "2/7", "5/9"]),
    make_doc(4, [["phi", "sqrt2", "e", "1/3", "pi", "sqrt5"]], ["t^{5/4}"],
             ["1/2", "1/3", "1/5", "2/7", "3/11", "5/13"]),
], ids=["3x3", "4x4"])
def test_leaf_updates_against_the_oracle(doc):
    """The updates into leaves (entries read only as the float of their
    fractional part) run as one add_prod; 3x3 and 4x4 blocks with base
    points stay within the oracle tolerance, past n = 3 * 2^16."""
    (blk,) = O.OrbitEngine(cli.build_orbit_config(doc)).blocks
    leaf_updates = [(step[0], r) for step in blk.steps if step is not None
                    for r, leaf in zip(step[1], step[3]) if leaf]
    assert leaf_updates
    n0 = 1 + 3 * SPAN
    check_rows(doc, n0, n0 + SPAN - 1, range(n0, n0 + SPAN, 1013))


def test_double_kernel_same_reduction_path():
    doc = make_doc(3, [["sqrt3", "pi", "e"]], ["t^{3/2}"], ["1/3", "2/7", "5/9"],
                   precision="double")
    cfg = cli.build_orbit_config(doc)
    engine = O.OrbitEngine(cfg)
    assert engine.K is O.KERNELS["double"]
    ns, coords, _ = engine.samples(1, 2000)
    assert ((0.0 <= coords) & (coords < 1.0)).all()
    for n in range(1, 2001, 37):
        assert circular(coords[n - 1], oracle_coords(doc, n)) <= 1e-5, n


def test_single_index_equals_chunk_row_on_seeded_config():
    doc = dict(HEIS_PAIR, generators=[["-1.4142135623730950488016887242096980785696718753769",
                                       "pi", 0], ["sqrt5", "2", "e"]],
               base_point=["1/3", "3/4", "2/9", "5/7", "1/2", "4/9"])
    engine = O.OrbitEngine(cli.build_orbit_config(doc))
    _, coords, horiz = engine.samples(SPAN15, SPAN15 + SPAN - 1)
    for n in (SPAN15, SPAN15 + 1, SPAN15 + 12345, 10 ** 6, SPAN15 + SPAN - 1):
        _, c1, h1 = engine.samples(n, n)
        assert c1[0].tobytes() == coords[n - SPAN15].tobytes()
        assert h1[0].tobytes() == horiz[n - SPAN15].tobytes()
