"""Taylor-window machinery: admissible window classes and certified expansions.

For a strongly non-polynomial f growing at least like a positive power, the
window class of order k collects the sub-linear growths L with

    |f^(k)|^(-1/k)  <=  L  <  |f^(k+1)|^(-1/(k+1))     (lower inclusive),

exactly the L(t) for which f restricted to [N, N+L(N)] is a degree-k
polynomial plus o_N(1).  Bounds are exact exponent pairs computed from the
symbolic derivatives, consecutive classes tile the growth axis up to t, and
a common window for several functions is found by ascending pure powers t^c
toward c = 1.

:func:`taylor_window` gives one such expansion with its coefficients as
exact Fractions, for the obstruction search.  The same expansion evaluates
the orbit engine's dd exponents:
:class:`AnchoredTaylor` replaces f on short windows of a fixed dyadic grid by
its Taylor polynomial, with a certified bound on the error at every n in
[1, 2^52).  Its window coefficients are built once per octave of window
length, at the first index that needs them, and the last few are cached.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .ddmath import ADD_ERR, DD, LN2, MUL_ERR, MUL_FLOAT_ERR, U, U2, comp_horner, split, two_prod
from .hardy import (
    HardyExpr,
    HardyTerm,
    LimitKind,
    PreconditionError,
    classify,
    coeff_pair,
    decompose_nontrivial,
    derivative,
    differentiate,
    evaluate,
    evaluate_dd,
    int_root,
)

BoundPair = tuple[Fraction, Fraction]


class WindowSearchError(RuntimeError):
    """Common-window search exhausted its depth; carries the diagnostics."""

    def __init__(self, depth: int, detail: str):
        super().__init__(f"window search exceeded depth {depth}: {detail}")
        self.depth = depth


@dataclass(frozen=True)
class ClassBounds:
    """Growth-order interval [lower, upper) of the order-k window class."""

    k: int
    lower: BoundPair
    upper: BoundPair
    lower_inclusive: bool = True


@dataclass(frozen=True)
class WindowPlan:
    L: HardyExpr
    gamma: Fraction
    orders: tuple[int, ...]
    inputs: tuple[HardyExpr, ...]

    def validate(self) -> bool:
        return all(member(self.L, f, k) for f, k in zip(self.inputs, self.orders))


@dataclass(frozen=True)
class TaylorWindow:
    """Degree-k expansion of f at N with a certified sup-norm remainder over
    [N, N + L(N)]."""

    base: int
    coeffs: tuple[Fraction, ...]  # q_j = f^(j)(N) / j!, from the DD value of f^(j)(N)
    remainder_bound: float


def _window_precheck(f: HardyExpr) -> None:
    g = classify(f)
    if not g.is_strongly_nonpolynomial or g.tends_to is LimitKind.ZERO:
        raise PreconditionError(f"{f} is not strongly non-polynomial with growth")
    if f.dominant.power <= 0:
        raise PreconditionError(f"{f} does not dominate any positive power t^delta")


def _inverse_root_pair(g: HardyExpr, k: int) -> BoundPair:
    """Growth pair of |g|^(-1/k)."""
    a, b = g.dominant.growth
    return (-a / k, Fraction(-b, k))


def min_order(f: HardyExpr, cap: int = 256) -> int:
    """Smallest k with f^(k) -> 0 (the first order whose class is defined)."""
    _window_precheck(f)
    g = f
    for k in range(1, cap + 1):
        g = differentiate(g)
        if g.is_zero:
            raise PreconditionError(f"{f} has vanishing derivatives (polynomial?)")
        if classify(g).tends_to is LimitKind.ZERO:
            return k
    raise PreconditionError(f"no decaying derivative of {f} below order {cap}")


def class_bounds(f: HardyExpr, k: int) -> ClassBounds:
    """Exact exponent pairs of the order-k window class of f."""
    _window_precheck(f)
    gk = derivative(f, k)
    if gk.is_zero or classify(gk).tends_to is not LimitKind.ZERO:
        raise PreconditionError(f"order {k} too small: f^({k}) does not tend to 0")
    gk1 = differentiate(gk)
    return ClassBounds(k, _inverse_root_pair(gk, k), _inverse_root_pair(gk1, k + 1))


def _growth_pair(L: HardyExpr) -> BoundPair:
    a, b = L.dominant.growth
    return (a, Fraction(b))


def member(L: HardyExpr, f: HardyExpr, k: int) -> bool:
    """Window-class membership: lower <= L < upper in growth order, L sub-linear."""
    if L.is_zero:
        return False
    b = class_bounds(f, k)
    p = _growth_pair(L)
    return b.lower <= p < b.upper and p < (Fraction(1), Fraction(0))


def order_for_power(f: HardyExpr, gamma: Fraction) -> Optional[int]:
    """The unique k whose class contains t^gamma, if any.

    Consecutive classes tile [lower(min_order), 1) exactly (the upper bound
    of order k is the lower bound of order k+1), so at most one k matches.
    A gamma outside (0, 1) is refused: no class holds it, and for gamma >= 1
    the ascent over k would never end.
    """
    if not 0 < gamma < 1:
        shown = str(gamma) if len(str(gamma)) <= 24 else f"{str(gamma)[:12]}..."
        raise PreconditionError(f"window exponent {shown} is outside (0, 1): "
                                "no sub-linear window t^gamma")
    p = (gamma, Fraction(0))
    k = min_order(f)
    gk = derivative(f, k)
    if p < _inverse_root_pair(gk, k):
        return None
    while True:  # one derivative per order: the upper bound of k is the lower one of k + 1
        gk1 = differentiate(gk)
        if p < _inverse_root_pair(gk1, k + 1):
            return k
        k, gk = k + 1, gk1


def _plan_at(inputs: tuple[HardyExpr, ...], gamma: Fraction) -> Optional[WindowPlan]:
    """L(t) = t^gamma with each input's order; None if an input's classes miss it."""
    orders = tuple(order_for_power(f, gamma) for f in inputs)
    return (None if None in orders
            else WindowPlan(HardyExpr.monomial(1, gamma), gamma, orders, inputs))


def window_plan(functions: Sequence[HardyExpr], gamma: Optional[Fraction]) -> Optional[WindowPlan]:
    """The plan for the functions' non-polynomial parts (:func:`hardy.decompose_nontrivial`),
    None if there are none: at a pinned gamma, else by :func:`find_common_window`."""
    inputs = tuple(rest for _, rest in map(decompose_nontrivial, functions) if rest is not None)
    if not inputs:
        return None
    if gamma is None:
        return find_common_window(inputs)
    plan = _plan_at(inputs, gamma)
    if plan is None:
        missed = next(f for f in inputs if order_for_power(f, gamma) is None)
        raise PreconditionError(f"t^{gamma} is not admissible for {missed}")
    return plan


def find_common_window(inputs: Sequence[HardyExpr], max_depth: int = 64) -> WindowPlan:
    """Pick L(t) = t^gamma with an admissible order for every input.

    Ascends the Stern-Brocot path from 1/2 toward 1 (candidates d/(d+1)),
    stopping at the first gamma every input accepts; such gamma exist for
    all c < 1 close enough to 1.
    """
    inputs = tuple(inputs)
    if not inputs:
        raise PreconditionError("find_common_window needs at least one input")
    for f in inputs:
        _window_precheck(f)
    for depth in range(1, max_depth + 1):
        plan = _plan_at(inputs, Fraction(depth, depth + 1))
        if plan is not None:
            return plan
    detail = "; ".join(
        f"{f}: lower(min_order)={class_bounds(f, min_order(f)).lower}" for f in inputs)
    raise WindowSearchError(max_depth, detail)


# --------------------------------------------------------------------------
# certified eventual signs and monotonicity

def eventual_sign(f: HardyExpr) -> tuple[int, float]:
    """Sign of f(t) for all t past a certified threshold.

    Past the threshold every non-dominant/dominant term ratio is decreasing
    (each ratio t^a log^b with (a,b) < (0,0) decreases once log t > b/(-a))
    and their sum is at most 1/2, so the dominant term's sign wins.  A
    threshold beyond the float range is refused.
    """
    if f.is_zero:
        return 0, 1.0
    dom = f.dominant
    sign = 1 if dom.coeff > 0 else -1
    if len(f.terms) == 1:
        return sign, 2.0
    t_mono = 2.0
    for term in f.terms[1:]:
        a = term.power - dom.power
        b = term.logpow - dom.logpow
        if a < 0 and b > 0:
            try:
                t_mono = max(t_mono, math.exp(float(Fraction(b) / -a)))
            except OverflowError:
                raise PreconditionError(f"the sign of {f} settles beyond float range") from None
    ratio_sum = lambda t: sum(
        abs(evaluate(HardyExpr((term,)), t)) for term in f.terms[1:]
    ) / abs(evaluate(HardyExpr((dom,)), t))
    t = t_mono
    for _ in range(2200):  # doubling cannot run away: ratios decay like a power of t
        if ratio_sum(t) <= 0.5:
            return sign, t
        t *= 2.0
    raise PreconditionError(f"could not certify the eventual sign of {f}")


def decreasing_abs_threshold(f: HardyExpr) -> float:
    """Threshold past which |f| is certified strictly decreasing."""
    sf, tf = eventual_sign(f)
    sdf, tdf = eventual_sign(differentiate(f))
    if sf == 0 or sdf == 0 or sf * sdf > 0:
        raise PreconditionError(f"|{f}| is not eventually decreasing")
    return max(tf, tdf)


def taylor_window(f: HardyExpr, N: int, k: int, L_at_N: float) -> TaylorWindow:
    """Expansion coefficients q_j = f^(j)(N)/j! and a certified remainder bound.

    Past the certified t from which |f^(k+1)| decreases, the Lagrange
    remainder over [N, N + L] is at most |f^(k+1)(N)| L^(k+1) / (k+1)!; the
    operation refuses below that threshold instead of guessing, and where a
    coefficient or that bound overflows a float.  The coefficients are the
    exact values of the DD evaluations, divided by j! in ``Fraction``.
    """
    if k < 1:
        raise PreconditionError("window order must be at least 1")
    derivs = [f]
    for _ in range(k + 1):
        derivs.append(differentiate(derivs[-1]))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a value not finite raises below
            coeffs = [evaluate_dd(g, N) / math.factorial(j) for j, g in enumerate(derivs[:-1])]
    except OverflowError:
        coeffs = None
    g = derivs[-1]
    threshold = 1.0 if g.is_zero else decreasing_abs_threshold(g)
    if N < threshold:
        raise PreconditionError(
            f"N={N} below certified monotonicity threshold {threshold:.6g} for |f^({k + 1})|")
    try:
        bound = abs(float(evaluate_dd(g, N))) * L_at_N ** (k + 1) / math.factorial(k + 1)
    except OverflowError:
        bound = math.inf
    if coeffs is None or not math.isfinite(bound):
        raise PreconditionError(
            f"the order-{k} window over L(N)={L_at_N:.6g} at N={N} overflows a float")
    return TaylorWindow(N, tuple(coeffs), bound)


# --------------------------------------------------------------------------
# exponents on a fixed dyadic anchor grid

TARGET_REL = 2.0 ** -100  # certified |error| <= TARGET_REL * max(1, |f(n)|)
_SHARE = 2.0 ** -104      # part of it for the truncation and for the float tail
_MAX_DD_ORDERS = 4        # Horner orders run in DD; the grid gets finer until this suffices
_ANCHOR_BITS = range(6, 14)
_MAX_ORDER = 30
_PROBE_OCTAVES = (1, 4, 16)
_TABLE_BITS = 120
TAYLOR_END = 2 ** 52  # n, h and v stay exact floats below this
_CACHED_OCTAVES = 4      # window tables an AnchoredTaylor keeps, by window length


def _ratios_to_dd(ratios) -> tuple[np.ndarray, np.ndarray]:
    """Integer ratios P/Q (Q > 0) rounded to DD arrays: hi = P/Q and lo = the
    exact rest, each correctly rounded (integer true division rounds so)."""
    hi, lo = [], []
    for P, Q in ratios:
        h = P / Q
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((P * q - p * Q) / (Q * q))
    return np.array(hi), np.array(lo)


def _dyadic_to_dd(numerators: list, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The ratios P/2^t of :func:`_ratios_to_dd`, with the same bits and
    without a big division: hi is the float of P and lo that of its rest
    P - hi, each correctly rounded (int-to-float conversion rounds so), both
    scaled by 2^-t, which is exact while they stay normal floats (every P
    here is 0 or at least 1, and t <= 160)."""
    hi = [float(P) for P in numerators]
    lo = [float(P - int(h)) for P, h in zip(numerators, hi)]
    return np.ldexp(hi, -t), np.ldexp(lo, -t)


def _rational_power(x: int, a: Fraction) -> tuple[int, int]:
    """x^a for an integer x >= 1 as a ratio P/Q: exact for integer a, else from
    the floor of x^|a| 2^_TABLE_BITS (relative error < 2^-_TABLE_BITS)."""
    num, den = abs(a.numerator), a.denominator
    if den == 1:
        P, Q = x ** num, 1
    else:
        P, Q = int_root(x ** num << (den * _TABLE_BITS), den), 1 << _TABLE_BITS
    return (Q, P) if a.numerator < 0 else (P, Q)


def _atanh_inv(q: int, one: int) -> int:
    """atanh(1/q) for an integer q >= 3 in fixed point with unit 1/one, from
    its series sum 1/((2j+1) q^(2j+1)); each term and the tail fall short by
    less than one unit."""
    q2 = q * q
    t, j, total = one // q, 1, 0
    while t:
        total += t // j
        t //= q2
        j += 2
    return total


@lru_cache(maxsize=None)
def _ln_table(s: int):
    """ln k for k in [2^s, 2^(s+1)), in fixed point with 40 guard bits beyond
    _TABLE_BITS: ln 2^s = 2s atanh(1/3), then ln(k+1) = ln k +
    2 atanh(1/(2k+1)).  The units lost (at most about 2^17 by k = 2^14) stay
    far below the DD rounding, which each value takes once."""
    one = 1 << (_TABLE_BITS + 40)
    x = 2 * s * _atanh_inv(3, one)
    ln_k = []
    for k in range(2 ** s, 2 ** (s + 1)):
        ln_k.append(x)
        x += 2 * _atanh_inv(2 * k + 1, one)
    return _dyadic_to_dd(ln_k, _TABLE_BITS + 40)


@lru_cache(maxsize=None)
def _pow_table(s: int, a: Fraction):
    """k^a for k in [2^s, 2^(s+1)), with the bits of the ratios of
    :func:`_rational_power`.  Two cases run in float arithmetic: for a = -1,
    hi = 1/k and lo = (1 - k hi)/k, whose numerator (1 - p) - e over the
    TwoProd (p, e) of k hi is exact; for an integer a >= 0 with every k^a
    below 2^53, the exact floats and lo = 0.  For a positive non-integer a
    the ratios are dyadic (:func:`_dyadic_to_dd`)."""
    if a == -1:
        k = np.arange(2 ** s, 2 ** (s + 1), dtype=np.float64)
        hi = 1 / k
        p, e = two_prod(k, hi)
        return hi, ((1 - p) - e) / k
    if a.denominator == 1 and 0 <= a * (s + 1) <= 53:
        k = np.arange(2 ** s, 2 ** (s + 1), dtype=np.int64)
        return (k ** int(a)).astype(np.float64), np.zeros(len(k))
    if a > 0 and a.denominator > 1:  # ratios P / 2^_TABLE_BITS
        return _dyadic_to_dd([_rational_power(k, a)[0] for k in range(2 ** s, 2 ** (s + 1))],
                             _TABLE_BITS)
    return _ratios_to_dd(_rational_power(k, a) for k in range(2 ** s, 2 ** (s + 1)))


def _octaves(table, s: int, *args):
    """The per-octave tables table(e, *args), e = 0..s, joined: entry k - 1
    holds the value at k, for k in [1, 2^(s+1))."""
    return tuple(np.concatenate(words) for words in zip(*(table(e, *args) for e in range(s + 1))))


@lru_cache(maxsize=None)
def _root2_table(a: Fraction):
    """2^(r/q) for r in [0, q), q the denominator of a."""
    return _ratios_to_dd(_rational_power(2, Fraction(r, a.denominator))
                         for r in range(a.denominator))


def _two_prod_short(a, v):
    """two_prod(a, v) for a v with at most 26 significant bits: Dekker's
    product with v's split (v, 0), so v needs no split."""
    x = a * v
    ah, al = split(a)
    ah *= v
    ah -= x
    al *= v
    ah += al
    return x, ah


def window_layout(ns: np.ndarray, s: int):
    """The windows of the indices ns on the grid of anchor bits s: per index,
    v = (n - m)/2^p for its anchor m = k 2^p; per run of equal anchors, its
    p, k and length; and the TwoProd by v.  Any int64 array in [1, 2^52)
    will do: a run may be one index."""
    x = ns.astype(np.float64)
    p = np.frexp(x)[1]
    p -= s + 1
    np.maximum(p, 0, out=p)
    v = np.ldexp(x, -p)  # n / 2^p, k + v: exact below 2^53
    k = np.floor(v)
    v -= k
    m = np.ldexp(k, p)
    new = np.empty(len(ns), dtype=bool)
    new[:1] = True
    np.not_equal(m[1:], m[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    p = p[starts]
    # v has at most p significant bits, so below 2^27 its Dekker split is (v, 0)
    prod = two_prod if p.max(initial=0) > 26 else _two_prod_short
    return v, p, k[starts].astype(np.int64), np.diff(starts, append=len(ns)), prod


class _Repeated:
    """The coefficient pairs (r_j hi, r_j lo or None beyond J) of
    :func:`ddmath.comp_horner` from per-run words, each row repeated over
    the runs when the Horner reads it, so that it is read while in cache."""

    __slots__ = ("words", "count", "K", "J")

    def __init__(self, words, count, K: int, J: int):
        self.words, self.count, self.K, self.J = words, count, K, J

    def __len__(self):
        return self.K + 1

    def __getitem__(self, j: int):
        lo = np.repeat(self.words[self.K + 1 + j], self.count) if j <= self.J else None
        return np.repeat(self.words[j], self.count), lo


def _horner_bound(mags, J):
    """Bound on |comp_horner(r, J, v) - sum_j r_j v^j| over 0 <= v <= v_max
    from the weighted magnitudes mags[j] = |hi(r_j)| v_max^j, j = 0..K: every
    error term below is a sum of |r_i| v^i, i >= j, each at most mags[i].

    With S_j = sum_{i>=j} mags[i]: the float tail over orders J+1..K errs by
    at most (2(K-J) + 2) u S_(J+1) (its roundings plus the dropped low
    words).  In the compensated part, order j's exact error term
    pi_j + sigma_j + lo_j is at most 2u S_j (|pi_j| <= u S_(j+1),
    |sigma_j| <= u S_j, |lo_j| <= u mags[j]) and passes through at most
    2 min(j, J-1) + 3 roundings of the error Horner, so it adds at most
    2 (2 min(j, J-1) + 3) S_j u^2; every running sum is at most
    (1 + 2^-40) S_j, which the caller's final (1 + 2^-20) covers.
    """
    K = len(mags) - 1
    S = np.cumsum(mags[::-1], axis=0)[::-1]  # S[j] = sum of mags[j..K]
    roundings = 2 * np.minimum(np.arange(J + 1), J - 1) + 3
    bound = U2 * np.tensordot(2.0 * roundings, S[:J + 1], axes=1)
    if J < K:
        bound = bound + (2 * (K - J) + 2) * U * (1 + 2.0 ** -40) * S[J + 1]
    return bound


def _scale_error(t: HardyTerm, j: int) -> float:
    """Relative error, in units of u^2, of the DD product of the coefficient
    pair of t (a term of f^(j)/j!) with m^a (ln m)^i: none for a coefficient
    +-2^e; else the pair's rounding (two roundings and a product for a named
    constant, one for an inexact rational) and the product's, unless m^a
    (ln m)^i is exactly 1 (a = i = 0)."""
    num, den = abs(t.coeff.numerator), t.coeff.denominator
    if t.const is None and num.bit_count() == 1 == den.bit_count():
        return 0.0
    hi, lo = DD.from_fraction(t.coeff)
    err = 2.0 + MUL_ERR if t.const is not None else float(Fraction(hi) + Fraction(lo) != t.coeff)
    return err + (0.0 if t.power + j == 0 and t.logpow == 0 else MUL_ERR)


class AnchoredTaylor:
    """Evaluate f at integers n in [1, 2^52) by Taylor windows on a fixed
    dyadic anchor grid.

    For n in [2^e, 2^(e+1)) the window length is H = 2^p, p = max(e - s, 0),
    and the anchor m is n rounded down to a multiple of H, so m = k H with k
    in [1, 2^(s+1)), and h = n - m and v = h/H in [0, 1) are exact floats.
    Below 2^(s+1) every window is one point: k = n and v = 0.  Then
    f(n) = sum_{j<=K} r_j v^j + R with r_j = f^(j)(m) H^j / j!: orders up to
    J run as a compensated Horner scheme (:func:`ddmath.comp_horner`, after
    Graillat, Langlois and Louvet 2009), about half the flops of a DD Horner
    at the same accuracy, and the small orders J+1..K as a float64 one.
    v has at most e - s significant bits, so for e - s <= 26 its Dekker split
    is v itself and each TwoProd splits only the running sum.

    The windows are built once per octave: at the first n with window length
    2^p, the r_j of all 2^s anchors of that length (and of length 2^(p+1),
    in the same vectorized pass) are computed and kept (:meth:`_octave`);
    the one-point windows below 2^(s+1) form one such table, of r_0 alone
    (v = 0 there).  Only the last _CACHED_OCTAVES window lengths stay
    cached, without a lock: an evaluator serves one thread at a time.
    :meth:`evaluate` takes any int64 index array: its layout
    (:func:`window_layout`, which the functions with the same s may share)
    finds the runs of indices with the same anchor, gathers each run's
    column of its octave's table and repeats it over the run.  Each r_j is
    computed from
    r_j = sum c m^a k^-j (ln m)^i over the terms c t^(a-j) log^i(t) of
    f^(j)/j!.  The quantities m^a = k^a 2^(pa), ln m = ln k + p ln 2 and k^-j
    are shared across orders and built from the per-octave tables of k^a,
    2^(r/q) and ln k, in integer arithmetic, so no exp or ln runs per sample.

    Every anchor gets an error bound over its window: a termwise Lagrange
    remainder (:meth:`_lagrange`), the propagated rounding of each r_j, and
    the running-error bound of the Horner schemes (:func:`_horner_bound`),
    each order-j part weighted by v_max^j for the window's largest
    v_max = (H - 1)/H, so a one-point window carries only the rounding of
    r_0.  s, K and J are chosen once so that truncation and float tail each
    stay below 2^-104 max(1, |f|) at probe anchors, which keeps the bound
    below TARGET_REL max(1, |f|) except where f nearly cancels (then no DD
    evaluation reaches it, and the bound says so).  The value at n depends
    on n alone, never on the other indices of a call.
    """

    def __init__(self, f: HardyExpr):
        self.f = f
        self._tables = None  # the integer-built tables of k^a, 2^(r/q), 1/k and ln k
        self._cache = OrderedDict()  # p -> the windows of length 2^p, see _octave
        orders = [f]
        for j in range(1, _MAX_ORDER + 2):
            orders.append(differentiate(orders[-1]).scaled(Fraction(1, j)))
        plan = self._plan(orders)
        if plan is None:
            raise PreconditionError(f"no Taylor window of order <= {_MAX_ORDER} fits {f}")
        self.s, self.K, self.J = plan
        # per order and term: (a, i, coefficient pair, the error of the product
        # by it, exactly one)
        self.orders = [[(t.power + j, t.logpow, coeff_pair(t), _scale_error(t, j),
                         t.coeff == 1 and t.const is None) for t in g.terms]
                       for j, g in enumerate(orders[:self.K + 1])]
        # the terms c t^b log^i(t) of f^(K+1)/(K+1)! as (b, i, ln |c|)
        self.remainder = [(float(t.power), t.logpow, math.log(abs(t.coeff_float())))
                          for t in orders[self.K + 1].terms]
        self.powers = sorted({a for terms in self.orders for a, *_ in terms})
        self.max_logpow = max(i for terms in self.orders for _, i, *_ in terms)

    @staticmethod
    def _plan(orders) -> Optional[tuple[int, int, int]]:
        """(s, K, J) from coefficient ratios at probe anchors, computed in
        logarithms so that no magnitude overflows, for every s at once."""
        # r_j at m = k 2^p is the sum of c k^(a-j) 2^(p a) (ln m)^i over the
        # terms c t^(a-j) log^i(t) of f^(j)/j!: per order j and term slot, the
        # sign of c, ln |c|, a - j, a and i (an empty slot: sign 0, ln |c| = -inf)
        shape = (len(orders), max(len(g.terms) for g in orders))
        sg, lc, b, a, i = np.zeros(shape), np.full(shape, -math.inf), *np.zeros((3,) + shape)
        for j, g in enumerate(orders):
            for n, t in enumerate(g.terms):
                c = t.coeff_float()
                sg[j, n], lc[j, n] = math.copysign(1.0, c), math.log(abs(c))
                b[j, n], a[j, n], i[j, n] = t.power, t.power + j, t.logpow
        s = np.array(_ANCHOR_BITS, dtype=np.float64)[:, None, None, None]  # (s, k, p, j, term)
        lk = np.log(np.stack([2.0 ** s, 2.0 ** (s + 1) - 1], axis=1))
        p = np.array(_PROBE_OCTAVES, dtype=np.float64)[:, None, None] * math.log(2)
        logs = lc + b * lk + p * a + i * np.log(lk + p)
        top = logs.max(axis=-1)
        # an order without terms gives NaN, then -inf
        with np.errstate(invalid="ignore", divide="ignore"):
            total = np.abs(np.sum(sg * np.exp(logs - top[..., None]), axis=-1))
            r = np.where(total > 0, top + np.log(total), -math.inf)  # ln |r_j|
        # ln of r_j / max(1, |r_0|), its largest over the probes of each s
        rho = (r - np.maximum(r[..., :1], 0.0)).max(axis=(1, 2))
        with np.errstate(over="ignore"):
            rho = np.exp(rho)
        plan = None
        for s, rho_s in zip(_ANCHOR_BITS, rho):
            small = np.flatnonzero(rho_s[2:] <= _SHARE)
            if not small.size:
                continue
            K = int(small[0]) + 1  # rho[K+1] <= _SHARE
            J = next(J for J in range(K + 1)
                     if (2 * (K - J) + 2) * U * rho_s[J + 1:K + 1].sum() <= _SHARE)
            plan = (s, K, J)
            if J <= _MAX_DD_ORDERS:
                break
        return plan

    def evaluate(self, ns: np.ndarray, with_bound: bool = True, layout=None):
        """(DD value pair, absolute error bound) of f at the int64 indices ns,
        any of them in [1, 2^52), in any order; without ``with_bound`` the
        bound is None.  ``layout`` is window_layout(ns, s), if already made."""
        v, p, k, count, prod = window_layout(ns, self.s) if layout is None else layout
        rows = self.K + self.J + 2 + with_bound  # the words read: r_0..r_K hi, r_0..r_J lo, bound
        lo_p, hi_p = (int(p.min()), int(p.max())) if len(p) else (0, 0)
        if lo_p == hi_p:
            words = self._octave(lo_p, with_bound)[:rows, k - (1 if lo_p == 0 else 1 << self.s)]
        else:  # the runs of several octaves: gather each octave's columns
            words = np.empty((rows, len(k)))
            for q in range(lo_p, hi_p + 1):
                sel = np.flatnonzero(p == q)
                if sel.size:
                    words[:, sel] = self._octave(q, with_bound)[:rows, k[sel] - (
                        1 if q == 0 else 1 << self.s)]
        value = comp_horner(_Repeated(words, count, self.K, self.J), self.J, v, prod)
        return value, np.repeat(words[-1], count) if with_bound else None

    def _octave(self, p: int, with_bound: bool) -> np.ndarray:
        """The windows of length 2^p: for p >= 1 one per anchor k 2^p, k in
        [2^s, 2^(s+1)), and for p = 0 the one-point windows of every n below
        2^(s+1).  Row j <= K of the table holds the high word of r_j, row
        K + 1 + j <= K + J + 1 the low word, and the last row, where a bound
        was asked for, the error bound.  Built at first use, for p >= 1
        together with p + 1 in one vectorized pass (the next length an
        ascending walk needs), and kept for the last _CACHED_OCTAVES lengths."""
        table = self._cache.get(p)
        if table is None or (with_bound and len(table) == self.K + self.J + 2):
            if self._tables is None:
                self._tables = (
                    {a: _octaves(_pow_table, self.s, a) for a in self.powers},
                    {a: _root2_table(a) for a in self.powers if a.denominator > 1},
                    _octaves(_pow_table, self.s, Fraction(-1)),
                    _octaves(_ln_table, self.s) if self.max_logpow else None)
            k = np.arange(1 if p == 0 else 1 << self.s, 2 << self.s)
            ps = [p] if p == 0 else [p, p + 1]
            # anchors past the indices asked for may overflow; theirs may not
            with np.errstate(over="ignore", invalid="ignore"):
                coeffs, bound = self._coefficients(np.tile(k, len(ps)), np.repeat(ps, len(k)),
                                                   with_bound, one_point=p == 0)
            words = np.array([hj for hj, _ in coeffs] + [lj for _, lj in coeffs[:self.J + 1]]
                             + ([bound] if with_bound else []))
            for i, q in enumerate(ps):
                self._cache[q] = words[:, i * len(k):(i + 1) * len(k)]
                self._cache.move_to_end(q)
            while len(self._cache) > _CACHED_OCTAVES:
                self._cache.popitem(last=False)
            table = self._cache[p]
        self._cache.move_to_end(p)
        return table

    def _coefficients(self, k, p, with_bound: bool = True, one_point: bool = False):
        """Per anchor m = k 2^p: DD r_0..r_K and the error bound over its
        window (None without ``with_bound``).  For ``one_point`` windows
        (p = 0, where v = 0) only r_0 and its error are computed and
        r_1..r_K are zero: the Horner at v = 0 and the bound, whose order-j
        parts are weighted by v_max^j = 0, read the same bits either way.

        Errors are tracked in units of u^2: a relative bound per shared
        factor, then an absolute one per order.
        """
        s, K, J = self.s, self.K, self.J
        pows, root2, inv_k, ln_k = self._tables
        idx = k - 1
        M = {}
        for a in self.powers:
            x = (pows[a][0][idx], pows[a][1][idx])
            rel = 0.0 if a.denominator == 1 and 0 <= a * (s + 1) <= 106 else 1.0
            if a.denominator > 1:
                rr = (p * a.numerator) % a.denominator
                x = DD.mul(x, (root2[a][0][rr], root2[a][1][rr]))
                rel += 1.0 + MUL_ERR
            M[a] = (DD.ldexp(x, (p * a.numerator) // a.denominator), rel)
        Lp = [None]
        if self.max_logpow:
            L = DD.add((ln_k[0][idx], ln_k[1][idx]), DD.mul_float(LN2, p.astype(np.float64)))
            rel_L = 1.0 + MUL_FLOAT_ERR + ADD_ERR  # both summands are nonnegative
            Lp.append((L, rel_L))
            for _ in range(2, self.max_logpow + 1):
                Lp.append((DD.mul(Lp[-1][0], L), Lp[-1][1] + rel_L + MUL_ERR))
        ik = ((inv_k[0][idx], inv_k[1][idx]), 1.0)
        ikj = ik
        coeffs, errs = [], []
        for j, terms in enumerate(self.orders[:1] if one_point else self.orders):
            acc = (np.zeros(k.shape), np.zeros(k.shape))
            err = np.zeros(k.shape)
            mag_sum = np.zeros(k.shape)
            for n_t, (a, i, c, c_err, unit) in enumerate(terms):
                x, rel = M[a]
                if i:
                    x = DD.mul(x, Lp[i][0])
                    rel += Lp[i][1] + MUL_ERR
                if not unit:
                    x = DD.mul(x, c)
                    rel += c_err
                mag = np.abs(x[0])
                err = err + rel * mag
                mag_sum = mag_sum + mag
                acc = x if n_t == 0 else DD.add(acc, x)
            err = err + ADD_ERR * max(len(terms) - 1, 0) * mag_sum
            if j:
                acc = DD.mul(acc, ikj[0])
                err = err * np.abs(ikj[0][0]) + (ikj[1] + MUL_ERR) * np.abs(acc[0])
                ikj = (DD.mul(ikj[0], ik[0]), ikj[1] + ik[1] + MUL_ERR)
            coeffs.append(acc)
            errs.append(err)
        zero = np.zeros(k.shape)
        coeffs += [(zero, zero)] * (K + 1 - len(coeffs))
        errs += [zero] * (K + 1 - len(errs))
        if not with_bound:
            return coeffs, None
        w = (1.0 - np.ldexp(1.0, -p)) ** np.arange(K + 1)[:, None]  # v_max^j; 0^0 = 1
        mags = np.array([np.abs(c[0]) for c in coeffs]) * w
        coef = U2 * np.sum(np.array(errs) * w, axis=0)
        return coeffs, (1 + 2.0 ** -20) * (self._lagrange(k, p) + coef + _horner_bound(mags, J))

    def _lagrange(self, k, p):
        """Per anchor m = k 2^p, H = 2^p: the Lagrange remainder bound
        (H - 1)^(K+1) sum |c| max |t^b log^i(t)| over t in [m, m + H - 1]
        and the terms c t^b log^i(t) of f^(K+1)/(K+1)!, 0 for one-point
        windows.

        A term is monotone on the window, so its maximum is an end value,
        unless b < 0 < i and its peak at t = e^(i/|b|) lies in the window;
        there it is bounded by the peak value (i/(e|b|))^i.  Computed in
        logarithms, so nothing overflows; the float rounding, below 2^-30
        relative, is covered by the caller's factor 1 + 2^-20.
        """
        H = np.ldexp(1.0, p)
        m = k * H
        L0, L1 = np.log(m), np.log(m + (H - 1))
        with np.errstate(divide="ignore"):  # log 0 = -inf: one-point windows, and ln 1
            width = (self.K + 1) * np.log(H - 1)
            ll0, ll1 = np.log(L0), np.log(L1)
        total = np.zeros(m.shape)
        for b, i, lc in self.remainder:
            top = np.maximum(*((b * L0 + i * ll0, b * L1 + i * ll1) if i else (b * L0, b * L1)))
            if b < 0 < i:
                x = i / -b  # ln of the peak; a peak taken near the window still bounds it
                inside = (L0 <= x * (1 + 2.0 ** -30)) & (x <= L1 * (1 + 2.0 ** -30))
                top = np.where(inside, i * (math.log(x) - 1), top)
            total += np.exp(lc + width + top)
        return total
