"""The orbit engine's unitriangular group arithmetic on arrays of elements,
for the group-law tests.

An element array is what the engine holds for one block of samples: a dict
from the strict-upper index pairs of a d x d block, in
:func:`nilorbit.orbits.coordinate_order`, to DD arrays.  Powers evaluate the
compiled entry polynomials with ``DD.polyval``, products run
``OrbitEngine._block_product`` and the lattice reduction
``OrbitEngine._reduce_block``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from nilorbit import hardy as H, orbits as O
from nilorbit.ddmath import DD


@cache
def _engine(d: int) -> O.OrbitEngine:
    """A dd engine on one d x d group whose reduction reads every entry."""
    ones = tuple(O.as_entry(1) for _ in O.coordinate_order(d))
    return O.OrbitEngine(O.OrbitConfig(dim=d, blocks=(d,), generators=(ones,),
                                       functions=(H.parse("t"),), base_point=ones))


def elements(values, d: int) -> dict:
    """Element array from rows of strict-upper entries in coordinate order."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, d * (d - 1) // 2)
    return {k: DD.from_float(values[:, c]) for c, k in enumerate(O.coordinate_order(d))}


def entries(g: dict, d: int) -> np.ndarray:
    """The float entries of an element array, one row per element; an entry
    the engine leaves out is 0."""
    n = len(next(iter(g.values()))[0])
    return np.stack([DD.to_float(g[k]) if k in g else np.zeros(n)
                     for k in O.coordinate_order(d)], axis=1)


def compile_powers(values, d: int) -> list[dict]:
    """The entry polynomials of s -> b^s for each generator b whose entries
    are a row of ``values``."""
    return [O._entry_polynomials([O.as_entry(float(v)) for v in row], d, {})
            for row in np.asarray(values, dtype=np.float64).reshape(-1, d * (d - 1) // 2)]


def powers(polys: list, d: int, s) -> dict:
    """b_i^(s_i) for the compiled generators polys[i] and the exponents s[i]
    (a float or DD array), one polynomial evaluation per entry for all i."""
    s = DD.from_float(s) if isinstance(s, np.ndarray) else s
    width = max((len(cs) for p in polys for cs in p.values()), default=1)

    def coefficient(key, j):  # the j-th coefficients of every generator, as a DD array
        pairs = [(0.0, 0.0) if j >= len(p.get(key, ())) or p[key][j] is None
                 else DD.from_fraction(p[key][j]) for p in polys]
        return tuple(np.array(x) for x in zip(*pairs))

    keys = O.coordinate_order(d)
    stacked = [[coefficient(k, j) for j in range(width)] for k in keys]
    return dict(zip(keys, DD.polyval(stacked, s)))


def product(d: int, *gs: dict) -> dict:
    """The element-wise product g_1 g_2 ... of element arrays."""
    return _engine(d)._block_product(list(gs), d)


def reduce(g: dict, d: int) -> np.ndarray:
    """Fundamental-domain coordinates in [0, 1), one row per element."""
    engine = _engine(d)
    out = np.empty((d * (d - 1) // 2, len(next(iter(g.values()))[0])))  # one row per coordinate
    engine._reduce_block(dict(g), engine.blocks[0].steps, out)
    return out.T
