"""Orbit generation on unitriangular nilmanifolds and equidistribution statistics.

The engine evaluates g(n) = b_1^(a_1(n)) ... b_k^(a_k(n)) x, the powers
multiplied in that order with x on the right (the generators need not
commute), and reduces it to fundamental-domain coordinates, vectorized over
blocks of n in double-double precision (group entries grow like a(n)^(d-1),
far beyond float64 once a(n) ~ 1e9).  Since log b is nilpotent, every entry
of b^s x is a polynomial in s: each generator is compiled once to the
coefficients of its entry polynomials, the base point folded into those of
its block's last generator, as b_k^s x; they are computed exactly in
Fraction from the DD config entries and rounded once to scalar DD values.
Several generators on one group are multiplied out per sample, in order.
A sample evaluates each entry by the compensated Horner scheme of
:func:`nilorbit.ddmath.comp_horner`, the DD exponent split once per block.

Under dd the exponents a_i(n) come from Taylor windows on a fixed dyadic
anchor grid (:class:`nilorbit.windows.AnchoredTaylor`), for every n in
[1, 2^52): one set of coefficients per window, a compensated Horner sum per
sample, and a certified error bound per sample, which also decides when a
floor needs exact evaluation.  The window coefficients are built once per
octave of window length, inside :meth:`OrbitEngine.exponents` at their first
use, and the last few octaves stay cached; the functions with the same
anchor grid share each block's window layout.  Polynomials with rational
coefficients are exact under both kernels, from their integer numerators.
An exponent depends on n alone, so every chunking of the index range yields
the same bits.  The lattice reduction is planned per block at build time and
computes only what later steps read (a floor, a DD fractional part, or just
the float coordinate); an update into a leaf, an entry read only as that
float, is one fused kernel op (``add_prod``), and a NaN coordinate raises
PrecisionCapError.  The coordinates are written straight into the rows of a
(coords_dim, n) buffer, which each reduction writes and each statistic reads
contiguously; the (n, coords_dim) arrays handed on are views of it.

Statistics on top of the samples: Weyl sums against horizontal characters,
anchored-box discrepancy against Lebesgue measure, smoothness norms of window
polynomials in the binomial basis, and the character-obstruction search that
mirrors the quantitative equidistribution test, its coefficients folded
exactly and its norms evaluated on DD arrays over blocks of frequencies.

Summation discipline: every statistic is a reduction over fixed-size chunks
walked by :func:`iter_sample_chunks`, which reduces each chunk where it is
computed and hands on only the partials, in chunk order.  Every mean of the
samples (Weyl sums, window and multiple ergodic averages) runs through
:func:`chunked_mean`: a chunk's values are summed with numpy's pairwise sum,
a grid point inside the chunk sums its prefix, and the partials are merged
along a fixed binary tree, so a result is bit-identical for any worker count
and whether its N is computed alone or along a grid.  The discrepancy adds
integer cell counts, split at each grid N, so it is exact in any order; its
box statistic runs in place, one slab of the grid at a time.
"""

from __future__ import annotations

import contextlib
import enum
import math
import operator
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import zip_longest
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .constants import lookup
from .ddmath import BLOCK, DD, KERNELS, Double2, to_fraction
from .hardy import (
    HardyExpr,
    PreconditionError,
    decompose_nontrivial,
    evaluate,
    evaluate_kernel,
    floor_at,
    is_rational_polynomial,
    rational_polynomial_numerator,
)
from .windows import TAYLOR_END, AnchoredTaylor, WindowPlan, taylor_window, window_layout

CHUNK = BLOCK  # samples per chunk of the walk: one engine block
MAX_HELPERS = 4  # forked exponent helpers of one walk, whatever the worker count
DEFAULT_N_CAP = 10 ** 7


class PrecisionCapError(RuntimeError):
    """Requested range exceeds the documented precision cap, or under dd the
    exponent range n < 2^52."""


class FloorMode(enum.Enum):
    REAL = "real"
    FLOOR = "floor"


# --------------------------------------------------------------------------
# configuration

def coordinate_order(d: int) -> list[tuple[int, int]]:
    """Strict-upper index pairs (0-based) of a d x d block, the Malcev
    coordinates: superdiagonal offset ascending, then row ascending."""
    return [(i, i + o) for o in range(1, d) for i in range(d - o)]


def as_entry(v) -> Double2:
    """Coerce a config entry (number, rational string, or constant name);
    ValueError unless it is one with a finite value."""
    from .constants import REGISTRY

    if isinstance(v, Double2):
        return v
    try:
        f = REGISTRY[v].as_fraction() if isinstance(v, str) and v in REGISTRY else Fraction(v)
        return Double2(*map(float, DD.from_fraction(f)))  # its DD rounding
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"entry {v!r} is not a finite number, rational or constant name")


class Block(NamedTuple):
    """One diagonal block of a config (:func:`block_layout`)."""

    dim: int
    coords: slice       # its Malcev coordinates among the config's
    horiz: slice        # its horizontal coordinates among the config's
    generators: range   # the generators that act in it

    @property
    def coords_dim(self) -> int:
        return self.coords.stop - self.coords.start


class BlockLayout(NamedTuple):
    blocks: tuple[Block, ...]
    coords_dim: int
    horiz_dim: int
    horiz_cols: tuple[int, ...]  # the horizontal coordinates among the Malcev ones


def block_layout(sizes: Sequence[int], n_generators: int) -> BlockLayout:
    """How the coordinates, horizontal coordinates and generators of a config
    with diagonal blocks of these sizes divide into its blocks.

    A block of dimension b has b(b-1)/2 Malcev coordinates, in
    :func:`coordinate_order`, and b - 1 horizontal ones: its superdiagonal
    entries, the first b - 1 of its Malcev coordinates.  Both are listed
    factor-major, so a block starts at coordinate offset sum b(b-1)/2 and at
    horizontal offset sum (b - 1) over the blocks before it.  With one block
    every generator acts in it; with several, generator i acts in block i.
    The slices are basic, so a block's columns of a sample array are views.
    """
    blocks, c0, h0 = [], 0, 0
    for bi, b in enumerate(sizes):
        c1, h1 = c0 + b * (b - 1) // 2, h0 + b - 1
        blocks.append(Block(b, slice(c0, c1), slice(h0, h1),
                            range(n_generators) if len(sizes) == 1 else range(bi, bi + 1)))
        c0, h0 = c1, h1
    return BlockLayout(tuple(blocks), c0, h0,
                       tuple(c for blk in blocks for c in range(blk.coords.start,
                                                                 blk.coords.start + blk.dim - 1)))


@dataclass(frozen=True)
class OrbitConfig:
    """Combined-orbit instance b_1^(a_1(n)) ... b_k^(a_k(n)) x on one group:
    the product taken in this order, x on the right.

    ``blocks`` declares a block-diagonal product structure (``layout``,
    see :func:`block_layout`).  With a single block all generators act on
    the full group; they need not commute.
    """

    dim: int
    blocks: tuple[int, ...]
    generators: tuple[tuple[Double2, ...], ...]
    functions: tuple[HardyExpr, ...]
    base_point: tuple[Double2, ...]
    floor_mode: FloorMode = FloorMode.REAL
    precision: str = "dd"
    n_cap: int = DEFAULT_N_CAP
    allow_beyond_cap: bool = False

    def __post_init__(self):
        if sum(self.blocks) != self.dim:
            raise ValueError("blocks must sum to dim")
        if any(b < 2 for b in self.blocks):
            raise ValueError("every block needs dimension >= 2")
        if len(self.generators) != len(self.functions):
            raise ValueError("one function per generator")
        if len(self.blocks) > 1 and len(self.generators) != len(self.blocks):
            raise ValueError("product configs pair one generator with each block")
        if self.precision not in KERNELS:
            raise ValueError(f"precision must be one of {sorted(KERNELS)}")
        for f in self.functions:
            if any(t.logpow < 0 for t in f.terms):
                raise PreconditionError(
                    "functions with negative log powers are undefined at n=1")
        if len(self.base_point) != self.coords_dim:
            raise ValueError(f"base point needs {self.coords_dim} block-local coordinates")
        for blk in self.layout.blocks:
            for gi in blk.generators:
                if len(self.generators[gi]) != blk.coords_dim:
                    raise ValueError(f"generator {gi} needs {blk.coords_dim} coordinates")

    @cached_property
    def layout(self) -> BlockLayout:
        return block_layout(self.blocks, len(self.generators))

    @property
    def coords_dim(self) -> int:
        return self.layout.coords_dim

    @property
    def horiz_dim(self) -> int:
        return self.layout.horiz_dim


@dataclass(frozen=True)
class OrbitSample:
    n: int
    coords: np.ndarray  # factor-major Malcev coordinates, in [0, 1)
    horiz: np.ndarray   # factor-major horizontal-torus coordinates


# --------------------------------------------------------------------------
# compiled engine

def _log_dd(entries: dict, d: int) -> dict:
    """Nilpotent matrix log of I + U given U's strict-upper entries as DD
    pairs, exactly in Fraction."""
    U = {k: to_fraction(v) for k, v in entries.items() if v.hi}
    acc: dict[tuple[int, int], Fraction] = {}
    power = U
    sign = 1
    for j in range(1, d):
        for k, v in power.items():
            acc[k] = acc.get(k, 0) + v * Fraction(sign, j)
        power = unitriangular_product(power, U, d, operator.add, operator.mul, False)
        sign = -sign
        if not power:
            break
    return acc


def unitriangular_product(A: dict, B: dict, d: int, add, mul, unipotent: bool) -> dict:
    """The strict-upper entries of A B, or with ``unipotent`` of (I + A)(I + B),
    for d x d strict-upper A and B given as dicts by index pair (a missing
    entry is zero), in the scalar operations ``add`` and ``mul``: exact
    Fractions at build time, kernel arrays per sample.  Entry (i, j) sums,
    from the left, A's and B's own entries (with ``unipotent``) and then the
    products A[i, k] B[k, j] in ascending k."""
    out = {}
    for i in range(d):
        for j in range(i + 1, d):
            terms = [X[i, j] for X in (A, B) if (i, j) in X] if unipotent else []
            terms += [mul(A[i, k], B[k, j]) for k in range(i + 1, j)
                      if (i, k) in A and (k, j) in B]
            if terms:
                out[i, j] = reduce(add, terms)
    return out


def _entry_polynomials(entries: Sequence[Double2], d: int, base: dict) -> dict:
    """Entry polynomials of s -> b^s X for the generator b with strict-upper
    ``entries`` and the base-point matrix X = I + U, U = ``base`` (exact
    Fractions): with lam = log b and M_j = lam^j / j!, entry (r, c) is
    U[r, c] + sum_{j>=1} s^j (M_j X)[r, c].  Maps each nonzero entry to its
    exact coefficients [c_0, c_1, ...], None marking a zero."""
    lam = _log_dd(dict(zip(coordinate_order(d), entries)), d)
    terms, power = [base], {k: v for k, v in lam.items() if v}
    for j in range(1, d):
        mj = {k: v / math.factorial(j) for k, v in power.items()}
        mju = unitriangular_product(mj, base, d, operator.add, operator.mul, False)
        terms.append({k: mj.get(k, 0) + mju.get(k, 0) for k in {*mj, *mju}})
        power = unitriangular_product(power, lam, d, operator.add, operator.mul, False)
    poly = {}
    for key in set().union(*terms):
        coeffs = [t.get(key) or None for t in terms]
        while coeffs and coeffs[-1] is None:
            coeffs.pop()
        if coeffs:
            poly[key] = coeffs
    return poly


def _const(K, c: Fraction):
    """An exact coefficient rounded once to a scalar kernel value: numpy
    broadcasts it, and a DD product splits it once.  One beyond float range
    becomes NaN, which the reduction refuses."""
    try:
        return K.from_fraction(c)
    except OverflowError:
        return K.from_float(math.nan)


class _Block:
    """One block: its rows of the coordinates, its generators' entry
    polynomials, as kernel constants and with the base point folded into the
    last generator, and its reduction.

    The reduction clears the entries in :func:`coordinate_order`:
    clearing (i, j) by its floor m subtracts m (r, i) from (r, j) for every
    nonzero column entry (r, i), r < i.  ``steps`` holds, per coordinate,
    (key, the rows r of its updates, whether a later step reads its reduced
    value as a column entry, whether each update's target (r, j) is a leaf),
    or None for an entry that stays zero.  Only an entry with updates needs
    its floor, and only a later column entry needs its fractional part in
    DD; the others, the leaves, need just its float.
    """

    __slots__ = ("d", "coords", "gens", "steps")

    def __init__(self, K, layout: Block, cfg: OrbitConfig):
        self.d = d = layout.dim
        self.coords = layout.coords
        gens = [(gi, cfg.generators[gi]) for gi in layout.generators]
        base = {k: to_fraction(v)
                for k, v in zip(coordinate_order(d), cfg.base_point[layout.coords]) if v.hi}
        self.gens = []
        for t, (gi, entries) in enumerate(gens):
            poly = _entry_polynomials(entries, d, base if t == len(gens) - 1 else {})
            self.gens.append((gi, list(poly), [[None if c is None else _const(K, c) for c in cs]
                                               for cs in poly.values()]))
        # several generators: their product may fill any entry
        present = ({k for _, keys, _ in self.gens for k in keys} if len(gens) == 1
                   else set(coordinate_order(d)))
        steps = []
        for i, j in coordinate_order(d):
            rows = tuple(r for r in range(i) if (r, i) in present)
            steps.append([(i, j), rows] if (i, j) in present else None)
            if (i, j) in present:
                present.update((r, j) for r in rows)
        read = set()  # column entries read by the later steps
        for step in reversed(steps):
            if step is not None:
                (i, j), rows = step
                step.append((i, j) in read)
                read.update((r, i) for r in rows)
        # a leaf needs no floor: it has no updates and no later step reads it
        leaves = {step[0] for step in steps if step is not None and not step[1] and not step[2]}
        for step in steps:
            if step is not None:
                (i, j), rows, _ = step
                step.append(tuple((r, j) in leaves for r in rows))
        self.steps = [step and tuple(step) for step in steps]


class OrbitEngine:
    """Precompiled orbit evaluator for one configuration."""

    def __init__(self, cfg: OrbitConfig):
        self.cfg = cfg
        self.K = KERNELS[cfg.precision]
        # rational polynomials are exact in integers; the dd kernel evaluates
        # the other exponents by Taylor windows, double keeps np.power
        self.polynomial = [is_rational_polynomial(f) for f in cfg.functions]
        self.taylor = None if self.K is not DD else [
            None if p else AnchoredTaylor(f) for f, p in zip(cfg.functions, self.polynomial)]
        self.warned = False  # of a range beyond an allowed cap
        self.blocks = [_Block(self.K, blk, cfg) for blk in cfg.layout.blocks]
        self.horiz_cols = list(cfg.layout.horiz_cols)  # numpy reads a tuple as one index per axis

    # -- per-chunk computation ----------------------------------------------

    def exponents(self, ns: np.ndarray):
        """a_i(n) for each function at the indices ns, floored in floor mode.

        Polynomials with rational coefficients are exact: f(n) = P/D in
        integers, floored as P // D, or else the exact quotient plus the
        rest r/D rounded to the kernel (an integer value stays exact).  Under
        dd the others come from the functions' Taylor windows, whose tables
        are built here at their first use; a value whose certified error
        margin reaches an integer is floored by :func:`hardy.floor_at`.
        """
        K = self.K
        floor = self.cfg.floor_mode is FloorMode.FLOOR
        layouts = {}  # by anchor bits s, shared by the functions with that s
        out = []
        for gi, f in enumerate(self.cfg.functions):
            if self.polynomial[gi]:
                P, D = rational_polynomial_numerator(f, ns)
                q, r = P // D, P % D
                s = K.from_int_array(q)
                if not floor and r.any():
                    s = K.add(s, K.div(K.from_int_array(r), K.from_int_array(np.asarray(D))))
                out.append(s)
            elif self.taylor is None:  # the double kernel
                s = np.broadcast_to(evaluate_kernel(f, K, K.from_int_array(ns)), ns.shape)
                out.append(K.floor(s) if floor else s)
            else:
                t = self.taylor[gi]
                if t.s not in layouts:
                    layouts[t.s] = window_layout(ns, t.s)
                s, bound = t.evaluate(ns, floor, layouts[t.s])
                if floor:
                    s, frac = K.floor_frac(s)
                    frac = K.hi(frac)
                    for i in np.flatnonzero(np.minimum(frac, 1.0 - frac) < 2.0 * bound):
                        s[0][i], s[1][i] = K.from_fraction(Fraction(floor_at(f, int(ns[i]))))
                out.append(s)
        return out

    def _generator_matrix(self, keys, polys, s):
        """Entries of b^s X: the entry polynomials at the exponents s."""
        return dict(zip(keys, self.K.polyval(polys, s)))

    def _block_product(self, mats: list[dict], d: int):
        """The product of the unipotent d x d matrices with the strict-upper
        entries ``mats``, in order."""
        K = self.K
        return reduce(lambda acc, m: unitriangular_product(acc, m, d, K.add, K.mul, True), mats, {})

    def _reduce_block(self, E: dict, steps: list, out: np.ndarray):
        """Lattice reduction of one block's entries E, in place; writes the
        reduced coordinates, floats in [0, 1), into the rows of ``out``.

        Where a fractional part rounds to 1, the coordinate is 0 and the
        floor one more, before the column updates use it, so that the
        dependent entries stay consistent with it; the DD fractional part
        drops by 1 only where a later step reads it as a column entry.  A
        NaN coordinate (an entry beyond float range) raises
        PrecisionCapError.  An update into a leaf, an entry read only as the
        float of its fractional part, is one ``add_prod``.
        """
        K = self.K
        for col, step in enumerate(steps):
            x = None if step is None else E.get(step[0])
            if x is None:
                out[col] = 0.0
                continue
            (i, j), rows, is_column, leaves = step
            if rows or is_column:
                m, frac = K.floor_frac(x)
                f = K.hi(frac)
            else:  # a leaf
                f = K.frac_float(x)
            if not f.max(initial=0.0) < 1.0:  # a fractional part rounded to 1, or a NaN
                if np.isnan(f).any():
                    raise PrecisionCapError(
                        "a coordinate is not a finite number: an entry is beyond float range")
                carry = f >= 1.0
                f = np.where(carry, 0.0, f)
                carry = carry.astype(np.float64)
                if rows:  # an integer plus 0 or 1, exact
                    m = K.add_float(m, carry)
                if is_column:
                    frac = K.sub(frac, K.from_float(carry))
            out[col] = f
            if is_column:
                E[(i, j)] = frac
            if rows:
                neg_m = K.neg(m)
                for r, leaf in zip(rows, leaves):
                    column = E.get((r, i))
                    if column is not None:
                        prev = E.get((r, j))
                        if prev is None:
                            E[(r, j)] = K.mul(neg_m, column)
                        elif leaf:
                            E[(r, j)] = K.add_prod(prev, neg_m, column)
                        else:
                            E[(r, j)] = K.add(prev, K.mul(neg_m, column))

    def check_range(self, n1: int) -> None:
        """Refuse indices up to n1 beyond the precision cap (unless allowed)
        or, under dd, at or beyond 2^52; the first range beyond an allowed
        cap warns, once per engine."""
        cap = self.cfg.n_cap
        if n1 > cap and not self.cfg.allow_beyond_cap:
            raise PrecisionCapError(
                f"n={n1} exceeds the precision cap {cap}; pass allow_beyond_cap "
                "to accept growing coordinate error")
        if self.taylor is not None and n1 >= TAYLOR_END:
            raise PrecisionCapError(f"n={n1} is beyond the dd exponent range n < 2^52")
        if n1 > cap and not self.warned:
            self.warned = True
            warnings.warn(f"evaluating beyond the precision cap (n={n1} > {cap}); "
                          "coordinate error grows with a(n)^(d-1)", stacklevel=3)

    def samples(self, n0: int, n1: int, exponents: Optional[list] = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates for n in [n0, n1] inclusive: (ns, coords, horiz).

        The exponents are evaluated one BLOCK at a time, just before that
        block's coordinates, unless ``exponents`` gives those of all of
        [n0, n1] as :meth:`exponents` returns them (pass it by keyword).  The
        coordinates fill the rows of a (coords_dim, n) buffer, so that each
        is written and read contiguously; coords and horiz are (n, ·) views
        of it and of its horizontal rows.  An entry that overflows leaves a
        NaN coordinate, which the reduction refuses.
        """
        self.check_range(n1)
        ns = np.arange(n0, n1 + 1, dtype=np.int64)
        buf = np.empty((self.cfg.coords_dim, len(ns)))
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(0, len(ns), BLOCK):
                part = slice(b, b + BLOCK)
                expo = (self.exponents(ns[part]) if exponents is None else
                        [tuple(x[part] for x in e) if isinstance(e, tuple) else e[part]
                         for e in exponents])
                self._coordinates(expo, buf[:, part])
        return ns, buf.T, buf[self.horiz_cols].T

    def _coordinates(self, expo, out):
        """Write the reduced coordinates of one block of exponents into the
        rows of ``out``."""
        for blk in self.blocks:
            mats = [self._generator_matrix(keys, polys, expo[gi]) for gi, keys, polys in blk.gens]
            E = mats[0] if len(mats) == 1 else self._block_product(mats, blk.d)
            self._reduce_block(E, blk.steps, out[blk.coords])


def orbit_point(cfg: OrbitConfig, n: int) -> OrbitSample:
    """Single reduced orbit point (runs the vectorized engine on one index)."""
    if n < 1:
        raise PreconditionError("orbit index must be >= 1")
    ns, coords, horiz = OrbitEngine(cfg).samples(n, n)
    return OrbitSample(n, coords[0], horiz[0])


def iter_sample_chunks(cfg: OrbitConfig, n0: int, n1: int, reduce: Callable, workers: int = 1):
    """Yield reduce(ns, coords, horiz) of each CHUNK-sample chunk of [n0, n1], in order.

    A chunk is one engine block (CHUNK = BLOCK), so the arrays a chunk
    hands to its reducer are as small as the engine's temporaries.  The
    range is checked at the call.  Every chunk's samples and its reduction
    run in the calling process.  With ``workers`` > 1, where ``os.fork``
    exists, up to ``workers`` - 1 forked helpers (at most MAX_HELPERS)
    evaluate the exponents of the chunks ahead (:func:`_with_helpers`), and
    the caller evaluates those of every chunk no helper delivers; an
    exponent depends on n alone, so every worker count yields the same
    values, and an exponent that raises does so in the caller, at its chunk.
    """
    engine = OrbitEngine(cfg)
    engine.check_range(n1)
    spans = [(a, min(a + CHUNK - 1, n1)) for a in range(n0, n1 + 1, CHUNK)]
    helpers = min(workers - 1, MAX_HELPERS, len(spans) - 1)
    if helpers < 1 or not hasattr(os, "fork"):
        return (reduce(*engine.samples(a, b)) for a, b in spans)
    return _with_helpers(engine, spans, reduce, helpers)


def _with_helpers(engine: OrbitEngine, spans: list, reduce: Callable, helpers: int):
    """reduce(*engine.samples(a, b, exponents=...)) for each span (a, b), in
    order, the exponents computed by forked helper processes.

    Chunk j goes to helper j mod ``helpers``, which writes its exponents into
    slot j mod (``helpers`` + 1) of a shared anonymous ``mmap`` ring made
    before the fork: one slot per helper and one for the chunk the caller
    reads.  A helper starts a chunk on a credit byte from the caller and
    reports it done with one byte.  The caller credits chunk j + ``helpers``
    + 1 once chunk j's samples are computed, so the helpers run at most the
    ring's depth ahead.  One rule covers every failure: a helper stops
    delivering when its pipe or fork was refused (EAGAIN under a process
    limit, EMFILE; no further helper is then forked), when it raised or
    when it died (EOF on its done pipe), and from then on the caller
    evaluates the exponents of that helper's chunks itself, and sends it no
    credit.  So the output stays the same, and what those exponents raise
    is raised in the caller.  A helper leaves only by ``os._exit``; the
    caller terminates and reaps every helper when the walk ends, is closed
    or raises.
    """
    import mmap
    import signal

    width = 2 if engine.K is DD else 1  # arrays per exponent
    rows = width * len(engine.cfg.functions)
    depth = helpers + 1
    ring = mmap.mmap(-1, depth * rows * CHUNK * 8)
    slots = np.frombuffer(ring, dtype=np.float64).reshape(depth, rows, CHUNK)
    procs = []  # (pid, credit pipe, done pipe) per helper forked

    def credit(j: int) -> None:
        if j % helpers not in stopped:
            with contextlib.suppress(BrokenPipeError):  # it died: its done pipe says so
                os.write(procs[j % helpers][1], b"\0")

    try:
        for h in range(helpers):
            pipes = []
            try:
                pipes += os.pipe()
                pipes += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in pipes:
                    os.close(fd)
                break
            credit_r, credit_w, done_r, done_w = pipes
            if pid == 0:
                _helper(engine, list(enumerate(spans))[h::helpers], slots, credit_r, done_w,
                        [credit_w, done_r, *(fd for _, *fds in procs for fd in fds)])
            os.close(credit_r)
            os.close(done_w)
            procs.append((pid, credit_w, done_r))
        stopped = set(range(len(procs), helpers))  # helpers that deliver no further chunk
        for j in range(min(depth, len(spans))):
            credit(j)
        for j, (a, b) in enumerate(spans):
            expo = None  # evaluated by the caller, where the chunk's helper stopped delivering
            if j % helpers not in stopped:
                if os.read(procs[j % helpers][2], 1):
                    got = slots[j % depth, :, :b - a + 1]
                    expo = [tuple(got[i:i + 2]) for i in range(0, rows, 2)] if width == 2 else list(got)
                else:
                    stopped.add(j % helpers)
            ns, coords, horiz = engine.samples(a, b, exponents=expo)
            if j + depth < len(spans):
                credit(j + depth)
            yield reduce(ns, coords, horiz)
    finally:
        for pid, *fds in procs:
            for fd in fds:
                os.close(fd)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _helper(engine: OrbitEngine, chunks: list, slots: np.ndarray, credits: int, done: int,
            inherited: list) -> None:
    """Body of a forked exponent helper (:func:`_with_helpers`), which closes
    the caller's pipe ends ``inherited``; it never returns.  It leaves when
    its chunks are done, on EOF or a broken pipe (the caller is gone), at
    SIGTERM, or at the first exception, which the caller then meets itself
    when it evaluates that chunk."""
    try:
        for fd in inherited:
            os.close(fd)
        with np.errstate(over="ignore", invalid="ignore"):  # as in OrbitEngine.samples
            for j, (a, b) in chunks:
                if not os.read(credits, 1):
                    break  # the caller closed the walk or is gone
                values = [x for e in engine.exponents(np.arange(a, b + 1, dtype=np.int64))
                          for x in (e if isinstance(e, tuple) else (e,))]
                for row, x in zip(slots[j % len(slots)], values):
                    row[:b - a + 1] = x
                os.write(done, b"\0")
    finally:
        os._exit(0)  # no atexit handler, stdio flush or tracer dump of the caller's


def tree_sum(parts: Sequence[complex]) -> complex:
    """Fixed-shape pairwise reduction, independent of how parts were produced."""
    parts = list(parts)
    if not parts:
        return 0j
    while len(parts) > 1:
        nxt = [parts[i] + parts[i + 1] for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def chunked_mean(cfg: OrbitConfig, integrand: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                 n0: int, ends: Sequence[int], workers: int = 1) -> list[complex]:
    """Means of integrand(ns, coords, horiz) over [n0, N] for each N of the
    increasing ``ends``, in one pass over the chunks from n0.

    The mean at N tree-sums the whole-chunk partials before N's chunk and the
    sum of that chunk's prefix up to N, so it is bit-identical to a call with
    ``ends = (N,)`` and to any worker count.  The partials are those of
    CHUNK-sample chunks: another chunk size moves a mean in its last bits.
    """
    return chunked_means(cfg, (integrand,), n0, ends, workers)[0]


def chunked_means(cfg: OrbitConfig, integrands: Sequence[Callable], n0: int, ends: Sequence[int],
                  workers: int = 1) -> list[list[complex]]:
    """The means of :func:`chunked_mean` for each of ``integrands``, from one
    walk of the orbit.  Each integrand's values are summed on their own, so
    each list of means has the bits of its own :func:`chunked_mean` call."""
    ends = list(ends)
    if not ends or ends[0] < n0 or any(a >= b for a, b in zip(ends, ends[1:])):
        raise PreconditionError(f"N grid must be strictly increasing, with N >= {n0}; got {ends}")

    # per integrand, the chunk's prefix sums at the ends it holds, and its sum
    def reduce(ns, coords, horiz):
        a, b = int(ns[0]), int(ns[-1])
        inside = [N - a + 1 for N in ends if a <= N <= b]
        return [([complex(np.sum(vals[:m])) for m in inside], complex(np.sum(vals)))
                for vals in (f(ns, coords, horiz) for f in integrands)]

    means = [[] for _ in integrands]
    partials = [[] for _ in integrands]
    for chunk in iter_sample_chunks(cfg, n0, ends[-1], reduce, workers):
        for (heads, total), got, parts in zip(chunk, means, partials):
            for head in heads:
                got.append(tree_sum(parts + [head]) / (ends[len(got)] - n0 + 1))
            parts.append(total)
    return means


# --------------------------------------------------------------------------
# test-function dictionary

_E_BITS = 10  # e(x) reads a table of e(i / 2^_E_BITS)
_E_STEP = 2 * math.pi / (1 << _E_BITS)  # the turn 2^-_E_BITS in radians, rounded


@lru_cache(maxsize=None)
def _e_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi i / 1024 for i in [0, 1024), each correctly rounded.

    Computed in 160-bit fixed point with integer + and * only: the Taylor
    series at one step, from the 50-digit pi of the registry, then rotations
    by it up to 1/8 turn (each error below 2^-150), the reflection in the
    diagonal up to 1/4 turn and quarter turns beyond, and each value rounded
    once (integer true division rounds so), so no libm call decides a bit.
    Built at first use."""
    F = 160
    one = 1 << F
    turn = lookup("pi").as_fraction() / (1 << (_E_BITS - 1))
    theta = turn.numerator * one // turn.denominator
    c, s, term, j = 0, 0, one, 0
    while term:  # sum theta^j / j!, signs in the period of cos + i sin
        if j % 2:
            s += -term if j % 4 == 3 else term
        else:
            c += -term if j % 4 else term
        j += 1
        term = term * theta // (one * j)
    octant = [(one, 0)]
    for _ in range(1 << (_E_BITS - 3)):
        a, b = octant[-1]
        octant.append(((a * c - b * s) >> F, (a * s + b * c) >> F))
    quarter = octant + [(b, a) for a, b in reversed(octant[1:-1])]
    circle = quarter + [(-b, a) for a, b in quarter]
    circle += [(-a, -b) for a, b in circle]
    table = np.array([a / one for a, _ in circle]), np.array([b / one for _, b in circle])
    for w in table:
        w.flags.writeable = False  # shared by every caller
    return table


def _e(phase: np.ndarray) -> np.ndarray:
    """e(phase) = exp(2 pi i phase), within 1e-15 absolute for every finite
    phase.

    With x = phase - floor(phase) (exact, but rounded once for -1/2 < phase
    < 0), i = floor(1024 x) and d = x - i/1024 (both exact),
    e(x) = T[i] (cos + i sin)(2 pi d) for the correctly rounded table
    T = :func:`_e_table`; the two Taylor polynomials, of degree 6 and 5 in
    t = 2 pi d < 0.0062, truncate by less than 1e-19.  x = 1.0 (a phase
    just below an integer) reads T[0] with d = 0.  Each component errs by
    at most 2^-54 from T, 2^-53 from its last addition and below 1e-17 from
    t, the polynomials and the products; a rounded x adds 2 pi 2^-54.  Over
    10^5 phases the largest error against 120-bit mpmath was 1.5e-16 for
    phase >= 0 and 4.1e-16 below (np.exp of 2 pi i x: 7.2e-16 and 1.03e-15)."""
    # in place where it keeps the bits: a chunk's temporaries are 128 KiB each
    t = np.floor(phase)
    np.subtract(phase, t, out=t)
    t *= 1 << _E_BITS
    i = t.astype(np.intp)
    t -= i
    t *= _E_STEP
    i &= (1 << _E_BITS) - 1
    cos_i, sin_i = (w[i] for w in _e_table())
    t2 = t * t
    cos_m1 = t2 * (-1 / 720)  # cos t - 1, by Horner in t^2
    cos_m1 += 1 / 24
    cos_m1 *= t2
    cos_m1 -= 1 / 2
    cos_m1 *= t2
    sin_t = t2 * (1 / 120)
    sin_t -= 1 / 6
    sin_t *= t2
    sin_t += 1
    sin_t *= t
    out = np.empty(t.shape, dtype=complex)
    np.multiply(cos_i, cos_m1, out=t)
    t -= np.multiply(sin_i, sin_t, out=t2)
    t += cos_i
    out.real = t
    np.multiply(cos_i, sin_t, out=t)
    t += np.multiply(sin_i, cos_m1, out=t2)
    t += sin_i
    out.imag = t
    return out


def character_phase(columns: Iterable[tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """sum_l k_l x_l over the (x_l, k_l) of ``columns`` with k_l != 0, in
    their order, at n samples: one product and one sum per term in float64,
    so the rounding is fixed (a BLAS matvec may pick its own order)."""
    phase = None
    for x, k in columns:
        if k:
            term = x * float(k)
            phase = term if phase is None else np.add(phase, term, out=phase)
    return np.zeros(n) if phase is None else phase


def character(columns: Iterable[tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """e(sum_l k_l x_l), the phase from :func:`character_phase`."""
    return _e(character_phase(columns, n))


@dataclass(frozen=True)
class TestFunction:
    """Dictionary entry with a known Haar/Lebesgue integral.

    Coordinate characters are discontinuous on the nilmanifold (only
    horizontal characters are genuine continuous test functions); they still
    probe Lebesgue-coordinate equidistribution since their discontinuity set
    is null, and are flagged ``continuous=False``.
    """

    label: str
    integral: Optional[complex]
    continuous: bool
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (coords, horiz) -> values
    # of a character e(sum_l k_l x_l): (horizontal, k), x the horiz or coords columns
    character: Optional[tuple[bool, tuple[int, ...]]] = None

    def __call__(self, coords: np.ndarray, horiz: np.ndarray) -> np.ndarray:
        return self.fn(coords, horiz)


def make_test_function(spec: dict, coords_dim: int, horiz_dim: int) -> TestFunction:
    kind = spec.get("type")
    if kind == "one":
        return TestFunction("one", 1 + 0j, True,
                            lambda coords, horiz: np.ones(len(coords), dtype=complex))
    if kind in ("horizontal_character", "coordinate_character"):
        horizontal = kind == "horizontal_character"
        what, dim = kind.replace("_", " "), horiz_dim if horizontal else coords_dim
        try:
            k = np.asarray(spec["k" if horizontal else "m"], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"{what} frequencies beyond the int64 range") from None
        if k.shape != (dim,):
            raise ValueError(f"{what} needs {dim} frequencies")
        k = tuple(int(x) for x in k)
        if sum(map(abs, k)) >= 2 ** 52:  # the phase sum_l k_l x_l may reach 2^52
            raise ValueError(f"{what} frequencies with sum |k_l| >= 2^52 leave the float64 "
                             "phase no fractional bit")

        def fn(coords, horiz):
            x = horiz if horizontal else coords
            return character(((x[:, l], kl) for l, kl in enumerate(k)), len(x))

        return TestFunction(f"{'chi' if horizontal else 'coord'}{k}", 1 + 0j if not any(k) else 0j,
                            horizontal, fn, (horizontal, k))
    if kind == "bump":
        idx = tuple(spec.get("coords", range(coords_dim)))
        if any(i < 0 or i >= coords_dim for i in idx):
            raise ValueError("bump coordinate index out of range")
        if len(set(idx)) < len(idx):  # the integral below holds for distinct coordinates
            raise ValueError(f"bump coordinates {list(idx)} repeat an index")
        integral = complex(Fraction(1, 2 ** len(idx)))

        def bump(coords, horiz, idx=idx):
            out = np.ones(len(coords))
            for i in idx:
                out = out * (1 + np.cos(2 * np.pi * coords[:, i])) / 2
            return out.astype(complex)

        return TestFunction(f"bump{idx}", integral, True, bump)
    raise ValueError(f"unknown test function type {kind!r}")


# --------------------------------------------------------------------------
# statistics

def weyl_sum(cfg: OrbitConfig, m: Sequence[int], N: int, workers: int = 1) -> complex:
    """(1/N) sum_{n<=N} e(m . horiz(orbit_point(n))) with tree summation."""
    return window_average(cfg, {"type": "horizontal_character", "k": m}, 1, N - 1, workers)


def window_average(cfg: OrbitConfig, test: TestFunction | dict, N: int,
                   L_at_N: int, workers: int = 1) -> complex:
    """Average of a dictionary function over orbit points n in [N, N + L(N)]."""
    if isinstance(test, dict):
        test = make_test_function(test, cfg.coords_dim, cfg.horiz_dim)
    return chunked_mean(cfg, lambda ns, coords, horiz: test(coords, horiz),
                        N, (N + L_at_N,), workers)[0]


def cell_indices(samples: np.ndarray, grid_res: int) -> np.ndarray:
    """The C-order index of each sample's cell in [0,1)^dim on a grid_res^dim
    grid; a column is read contiguously when samples is the (n, dim) view of
    a (dim, n) buffer, as :meth:`OrbitEngine.samples` returns it."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    flat = np.zeros(len(samples), dtype=np.int64)  # one column at a time
    scaled, idx = np.empty(len(samples)), np.empty(len(samples), dtype=np.int64)
    for col in samples.T:
        np.multiply(col, grid_res, out=scaled)
        np.copyto(idx, scaled, casting="unsafe")  # truncation, as astype
        np.clip(idx, 0, grid_res - 1, out=idx)
        flat *= grid_res
        flat += idx
    return flat


def histogram_counts(samples: np.ndarray, grid_res: int) -> np.ndarray:
    """Cell counts of samples in [0,1)^dim on a grid_res^dim grid."""
    dim = np.atleast_2d(samples).shape[1]
    return np.bincount(cell_indices(samples, grid_res),
                       minlength=grid_res ** dim).reshape((grid_res,) * dim)


@lru_cache(maxsize=None)
def _box_volumes(g: int, dim: int) -> np.ndarray:
    """Lebesgue volumes of the anchored boxes of a g^dim grid."""
    axis = np.arange(1, g + 1) / g
    vol = axis if dim == 1 else np.multiply.outer(_box_volumes(g, dim - 1), axis)
    vol.flags.writeable = False
    return vol


def discrepancy_from_histogram(hist: np.ndarray, total: int) -> float:
    """Max over anchored grid boxes of |empirical mass - Lebesgue volume|.

    The box counts are cumulative sums along each axis, taken in place by
    slice adds on one copy of hist in its integer dtype (int32 at the least),
    which must hold ``total``.  The maximum is taken one slab of
    g^(dim-1) boxes at a time, the slab's volumes the outer product of the
    cached (dim-1)-dimensional volumes with the last axis, so no float array
    of the grid's size is made.
    """
    if total <= 0:
        raise PreconditionError("empty sample set")
    c = hist.astype(np.result_type(hist.dtype, np.int32))
    g, dim = hist.shape[0], hist.ndim
    for ax in range(dim):
        view = c.reshape(g ** ax, g, -1)
        for i in range(1, g):
            view[:, i] += view[:, i - 1]
    axis = _box_volumes(g, 1)
    if dim == 1:
        return float(np.max(np.abs(c / total - axis)))
    lower = _box_volumes(g, dim - 1)
    worst = 0.0
    for i in range(g):
        d = c[i] / total
        d -= np.multiply.outer(lower[i], axis)
        worst = max(worst, float(np.max(np.abs(d, out=d))))
    return worst


def box_discrepancy(samples: np.ndarray | Iterable[np.ndarray], grid_res: int) -> float:
    """Anchored-box discrepancy of samples (array or iterable of chunks)."""
    if grid_res < 2:
        raise PreconditionError("grid resolution must be >= 2")
    if isinstance(samples, np.ndarray):
        samples = [samples]
    hist, total = 0, 0
    for chunk in samples:
        chunk = np.atleast_2d(np.asarray(chunk, dtype=np.float64))
        if chunk.size:
            hist = hist + histogram_counts(chunk, grid_res)
            total += len(chunk)
    return discrepancy_from_histogram(hist, total)  # which refuses an empty sample set


# cells of a discrepancy histogram: 16 MiB of int32 counts (32 MiB of int64
# from N = 2^31 on), and discrepancy_from_histogram makes one more array of
# that size
MAX_CELLS = 1 << 22


def default_grid_res(coords_dim: int) -> int:
    """Boxes per axis: 16 up to two coordinates and 8 from three, lowered
    until the grid has at most MAX_CELLS cells."""
    g = 16 if coords_dim < 3 else 8
    while g > 2 and g ** coords_dim > MAX_CELLS:
        g -= 1
    return g


def discrepancy_series(cfg: OrbitConfig, grid: Sequence[int], grid_res: Optional[int] = None,
                       workers: int = 1) -> list[float]:
    """Discrepancy of the first N reduced orbit points for each N in grid, in one pass.

    The chunks up to max(grid) are streamed once; the cell counts are
    snapshotted at each N (splitting the chunk that holds it), so each value
    equals a separate pass to N exactly; they are int32 below N = 2^31 and
    int64 from there on.  ``grid_res`` defaults to :func:`default_grid_res`;
    a grid of more than MAX_CELLS cells is refused.
    """
    if grid_res is None:
        grid_res = default_grid_res(cfg.coords_dim)
    if grid_res < 2:
        raise PreconditionError("grid resolution must be >= 2")
    if grid_res ** cfg.coords_dim > MAX_CELLS:
        raise PreconditionError(
            f"grid {grid_res} on {cfg.coords_dim} coordinates has {grid_res ** cfg.coords_dim} "
            f"cells, above the budget of {MAX_CELLS} (the default grid here is "
            f"{default_grid_res(cfg.coords_dim)})")
    targets = sorted(set(grid))
    if not targets or targets[0] < 1:
        raise PreconditionError("discrepancy needs N >= 1")
    hist = np.zeros((grid_res,) * cfg.coords_dim,
                    dtype=np.int32 if targets[-1] < 2 ** 31 else np.int64)
    one = hist.dtype.type(1)  # a Python 1 would make np.add.at cast on every call

    def reduce(ns, coords, horiz):  # the samples' cells, split after each N held
        cuts = [N - int(ns[0]) + 1 for N in targets if ns[0] <= N <= ns[-1]]
        return np.split(cell_indices(coords, grid_res), cuts)

    found: list[float] = []  # at each of the targets
    for pieces in iter_sample_chunks(cfg, 1, targets[-1], reduce, workers):
        for i, cells in enumerate(pieces):
            np.add.at(hist.reshape(-1), cells, one)
            if i < len(pieces) - 1:
                found.append(discrepancy_from_histogram(hist, targets[len(found)]))
    return [found[targets.index(N)] for N in grid]


def orbit_discrepancy(cfg: OrbitConfig, N: int, grid_res: Optional[int] = None,
                      workers: int = 1) -> float:
    """Discrepancy of the first N reduced orbit points, streamed by chunk."""
    return discrepancy_series(cfg, (N,), grid_res, workers)[0]


# --------------------------------------------------------------------------
# binomial basis and smoothness norms

@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def _stirling1_signed(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return _stirling1_signed(n - 1, k - 1) - (n - 1) * _stirling1_signed(n - 1, k)


@dataclass(frozen=True)
class BinomialPolynomial:
    """p(n) = sum_i binom(n, i) a_i; trailing zero coefficients trimmed."""

    coeffs: tuple

    def __post_init__(self):
        c = list(self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _triangular_change(coeffs: Sequence, weight: Callable[[int, int], object]) -> tuple:
    """out_a = sum over b >= a of coeffs[b] * weight(b, a), summed in
    ascending b and skipping zero weights, 0 where all are."""
    out = []
    for a in range(len(coeffs)):
        terms = [coeffs[b] * w for b in range(a, len(coeffs)) if (w := weight(b, a))]
        out.append(reduce(operator.add, terms) if terms else 0)
    return tuple(out)


def to_binomial_basis(monomial_coeffs: Sequence) -> BinomialPolynomial:
    """Exact change of basis n^j = sum_i S2(j, i) i! binom(n, i).

    Works on any coefficient type with + and *; Fraction keeps it exact.
    """
    return BinomialPolynomial(_triangular_change(
        monomial_coeffs, lambda j, i: _stirling2(j, i) * math.factorial(i)))


def binomial_to_monomial(p: BinomialPolynomial) -> tuple:
    """Inverse change of basis via signed Stirling numbers:
    binom(n, i) = sum_j s1(i, j) n^j / i!."""
    return _triangular_change(p.coeffs, lambda i, j: Fraction(_stirling1_signed(i, j),
                                                              math.factorial(i)))


def _torus_distance(x):
    """Distance to the nearest integer of a Fraction, a float, or a DD pair
    of arrays (the float of its exact fractional part f, then min(f, 1 - f))."""
    if isinstance(x, tuple):
        f = DD.to_float(DD.frac(x))
        return np.minimum(f, 1.0 - f)
    if isinstance(x, Fraction):
        f = x - math.floor(x)
        return float(min(f, 1 - f))
    f = float(x) % 1.0
    return min(f, 1.0 - f)


def cinfty_norm(p: BinomialPolynomial, N: int):
    """max over i >= 1 of N^i * distance(a_i, nearest integer); an array
    where coefficients are DD pairs of arrays."""
    if N < 1:
        raise PreconditionError("norm scale N must be >= 1")
    best = 0.0
    for i in range(1, p.degree + 1):
        best = np.maximum(best, float(N) ** i * _torus_distance(p.coeffs[i]))
    return best if isinstance(best, np.ndarray) else float(best)


# --------------------------------------------------------------------------
# character-obstruction search (the computational content of the
# quantitative equidistribution test on windows)

@dataclass(frozen=True)
class ObstructionReport:
    N: int
    M_max: int
    L_at_N: float
    min_norm: float
    argmin: tuple[int, ...]
    norms_by_frequency: Optional[dict] = None


def _poly_shift_coeffs(p: HardyExpr, N: int) -> list[Fraction]:
    """Exact h-coefficients of p(N + h) for a polynomial part p."""
    deg = max((int(t.power) for t in p.terms), default=0)
    out = [Fraction(0)] * (deg + 1)
    for t in p.terms:
        a = int(t.power)
        for j in range(a + 1):
            out[j] += t.coeff * math.comb(a, j) * Fraction(N) ** (a - j)
    return out


def generator_horizontal_lifts(cfg: OrbitConfig) -> list[list[Fraction]]:
    """Superdiagonal entries of each generator on the product horizontal
    torus, exactly (zero outside the generator's own block)."""
    lifts = [[Fraction(0)] * cfg.horiz_dim for _ in cfg.generators]
    for blk in cfg.layout.blocks:
        for gi in blk.generators:  # the superdiagonal entries come first
            lifts[gi][blk.horiz] = map(to_fraction, cfg.generators[gi][:blk.dim - 1])
    return lifts


def obstruction_search(cfg: OrbitConfig, window: Optional[WindowPlan], N: int,
                       M_max: int, keep_norms: bool = False) -> ObstructionReport:
    """Minimum window-polynomial smoothness norm over nonzero frequencies.

    For each frequency vector k with 0 < |k|_inf <= M_max, builds the window
    polynomial sum_i (q_i,N(h) + p_i,N(h)) (k . u_i) in the binomial basis
    over h in [0, L(N)] and takes its C^inf[L(N)] norm; a large minimum
    certifies that no small character obstructs equidistribution on the
    window.  Sub-fractional parts contribute only constants and are skipped.

    The frequencies run in np.ndindex order, BLOCK at a time as DD arrays,
    and the first minimum wins; a NaN norm raises PrecisionCapError.

    ``window`` may be None only when every function is polynomial plus
    sub-fractional; the interval length then defaults to sqrt(N).
    """
    if M_max < 1:
        raise PreconditionError("M_max must be >= 1")
    if N < 1:
        raise PreconditionError(f"obstruction search needs N >= 1, got {N}")
    poly_parts, snp_parts = zip(*(decompose_nontrivial(f) for f in cfg.functions))

    active = [x for x in snp_parts if x is not None]
    if active:
        if window is None:
            raise PreconditionError("window plan required for non-polynomial parts")
        if tuple(active) != tuple(window.inputs):
            raise PreconditionError(
                "window plan inputs do not match the functions' non-polynomial parts")
        if not window.validate():
            raise PreconditionError("window plan fails its own membership checks")
        L_at_N = evaluate(window.L, float(N))
    else:
        L_at_N = math.sqrt(N)

    # binomial-basis coefficient vector of q_i(h) + p_i(N+h) per function
    vecs: list[list] = []
    orders = iter(window.orders) if window is not None else iter(())
    for snp, poly in zip(snp_parts, poly_parts):
        mono = [Fraction(0)] if snp is None else taylor_window(snp, N, next(orders), L_at_N).coeffs
        mono = [a + b for a, b in zip_longest(mono, _poly_shift_coeffs(poly, N), fillvalue=0)]
        vecs.append(list(to_binomial_basis(mono).coeffs))

    # the window polynomial of k has the binomial coefficients sum_l k_l w_lj,
    # w_lj = sum_i u_il v_ij folded exactly and rounded once
    lifts = generator_horizontal_lifts(cfg)
    w = []  # w[j - 1][l], None for a zero
    for j in range(1, max(len(v) for v in vecs)):
        exact = [sum(u[l] * v[j] for u, v in zip(lifts, vecs) if j < len(v))
                 for l in range(cfg.horiz_dim)]
        w.append([_const(DD, x) if x else None for x in exact])
    scale = max(1, int(L_at_N))
    side = 2 * M_max + 1
    count = side ** cfg.horiz_dim
    best = (math.inf, None)
    norms = {} if keep_norms else None
    for start in range(0, count, BLOCK):  # the frequencies in np.ndindex order
        flat = np.arange(start, min(start + BLOCK, count))
        ks = np.array(np.unravel_index(flat, (side,) * cfg.horiz_dim)) - M_max
        kf = ks.astype(np.float64)
        coeffs = [0]  # the constant term does not enter the norm
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves NaN, refused below
            for wj in w:
                terms = [DD.mul_float(x, kl) for kl, x in zip(kf, wj) if x is not None]
                coeffs.append(reduce(DD.add, terms) if terms else 0)
            norm = cinfty_norm(BinomialPolynomial(tuple(coeffs)), scale)
        if np.isnan(norm).any():
            raise PrecisionCapError(f"a window polynomial at N={N} is beyond the DD range")
        norm = np.where(flat == count // 2, math.inf, norm)  # k = 0 is no frequency
        i = int(np.argmin(norm))
        if norm[i] < best[0]:
            best = (float(norm[i]), tuple(ks[:, i].tolist()))
        if norms is not None:
            norms.update((k, v) for k, v in zip(map(tuple, ks.T.tolist()), norm.tolist())
                         if any(k))
    return ObstructionReport(N, M_max, L_at_N, best[0], best[1], norms)
