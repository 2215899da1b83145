"""The 400-bit mpmath reference for orbit coordinates, shared by the tests.

``oracle_coords`` multiplies the generator powers b_1^(a_1(n)) ... b_k^(a_k(n))
in order, the base point x on the right, and reduces the product modulo the
integer lattice in :func:`nilorbit.orbits.coordinate_order`.  Powers are
exp(a log b) by the finite series of a unipotent matrix, at ``PREC`` bits.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from mpmath import mp

from nilorbit import cli, hardy as H, orbits as O

PREC = 400
TOL = 1e-9  # circular coordinate error mod 1
MP_CONSTANTS = {
    "sqrt2": lambda: mp.sqrt(2), "sqrt3": lambda: mp.sqrt(3), "sqrt5": lambda: mp.sqrt(5),
    "phi": lambda: (1 + mp.sqrt(5)) / 2, "pi": lambda: mp.pi, "e": lambda: mp.e,
}


def mp_value(v):
    if isinstance(v, str) and v in MP_CONSTANTS:
        return MP_CONSTANTS[v]()
    q = Fraction(str(v))
    return mp.mpf(q.numerator) / q.denominator


def mp_exponent(text: str, n: int):
    total = mp.mpf(0)
    for t in H.parse(text).terms:
        v = mp_value(t.coeff) * (MP_CONSTANTS[t.const]() if t.const else 1)
        v *= mp.mpf(n) ** (mp.mpf(t.power.numerator) / t.power.denominator)
        total += v * mp.log(n) ** t.logpow
    return total


def mp_unipotent(entries, d):
    g = mp.eye(d)
    for (i, j), v in zip(O.coordinate_order(d), entries):
        g[i, j] = mp_value(v)
    return g


def mp_log(entries, d):
    """log b by the finite series of the unipotent matrix b."""
    u = mp_unipotent(entries, d) - mp.eye(d)
    log, power = mp.zeros(d, d), mp.eye(d)
    for k in range(1, d):
        power = power * u
        log += power * (mp.mpf((-1) ** (k + 1)) / k)
    return log


def mp_power(entries, d, a):
    """b^a = exp(a log b)."""
    log = mp_log(entries, d)
    out, power = mp.eye(d), mp.eye(d)
    for k in range(1, d):
        power = power * log * (a / k)
        out += power
    return out


def mp_reduce(g, d):
    """Coordinates of g mod the integer lattice, cleared in coordinate order.
    An entry within 2^-300 of an integer is that integer: such entries are
    exact integers that 400-bit rounding may leave just below."""
    for i, j in O.coordinate_order(d):
        m = mp.floor(g[i, j])
        if g[i, j] - m > 1 - mp.mpf(2) ** -300:
            m += 1
        for r in range(i + 1):
            g[r, j] -= m * g[r, i]
    return [g[i, j] for i, j in O.coordinate_order(d)]


def oracle_coords(doc: dict, n: int) -> list[float]:
    """Reduced coordinates of b_1^(a_1(n)) ... b_k^(a_k(n)) x, factor-major."""
    dim = doc["group"]["dim"]
    blocks = doc["group"].get("blocks", [dim])
    base = doc.get("base_point", [0] * sum(b * (b - 1) // 2 for b in blocks))
    floor = doc.get("floor_mode") == "floor"
    out, pos = [], 0
    with mp.workprec(PREC):
        for bi, d in enumerate(blocks):
            m = d * (d - 1) // 2
            gens = range(len(doc["generators"])) if len(blocks) == 1 else [bi]
            g = mp.eye(d)
            for gi in gens:
                a = mp_exponent(doc["functions"][gi], n)
                g = g * mp_power(doc["generators"][gi], d, mp.floor(a) if floor else a)
            g = g * mp_unipotent(base[pos:pos + m], d)
            out.extend(float(c) for c in mp_reduce(g, d))
            pos += m
    return out


def circular(a, b) -> float:
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return float(np.minimum(d, 1.0 - d).max())


def check_rows(doc: dict, n0: int, n1: int, indices) -> float:
    """Worst oracle error over ``indices`` of the engine chunk [n0, n1]."""
    ns, coords, horiz = O.OrbitEngine(cli.build_orbit_config(doc)).samples(n0, n1)
    worst = 0.0
    for n in indices:
        row = coords[n - n0]
        assert ((0.0 <= row) & (row < 1.0)).all(), (n, row)
        err = circular(row, oracle_coords(doc, n))
        assert err <= TOL, (n, err, row.tolist())
        worst = max(worst, err)
    return worst


def make_doc(dim, generators, functions, base, **extra):
    return {"group": {"dim": dim}, "generators": generators, "functions": functions,
            "base_point": base, **extra}
