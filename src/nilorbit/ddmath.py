"""Compensated double-double arithmetic, vectorized over numpy arrays.

A value is a pair ``(hi, lo)`` of float64 scalars or same-shaped arrays with
``hi + lo`` the represented number and ``|lo| <= ulp(hi)/2``, giving about
31 significant decimal digits.  That headroom is what keeps fractional parts
of orbit coordinates meaningful: entries grow like a(n)^(d-1), about 1e21 for
the Heisenberg pair instance at N = 1e7, where the coordinates still carry
an absolute error of a few 1e-11 mod 1.

Two kernels share one interface so the orbit engine can be swapped between
precisions:

* ``DD``  -- double-double pairs (default),
* ``FP``  -- plain float64 (fast, for cross-checks and low-N work).

All functions are branch-free numpy expressions, so they accept scalars and
arrays alike and never disturb summation order.

The error-free transformations ``two_sum``, ``quick_two_sum`` (Fast2Sum)
and ``two_prod`` (Dekker's product over the Veltkamp ``split``) return a
rounded result and its exact error.  Besides the kernels, the one compensated
Horner scheme of the package, :func:`comp_horner`, is built on them: it sums
the Taylor windows of :class:`nilorbit.windows.AnchoredTaylor` and, through
``polyval``, the entry polynomials of the orbit engine.  ``floor_frac`` uses
them to split a DD value into its floor and its fractional part, both exact
(the fractional part rounds once, by at most 2^-107, only for -1 < hi < 0),
which is what the lattice reduction of the orbit engine needs.

Error bounds are counted in units of ``U2`` = u^2 = 2^-106: ``ADD_ERR``,
``MUL_ERR`` and ``MUL_FLOAT_ERR`` bound the relative error of ``add``,
``mul`` and ``mul_float``.  The orbit engine evaluates its dd exponents by
Taylor windows built on these bounds, at every n
(:class:`nilorbit.windows.AnchoredTaylor`).  ``exp``, ``ln`` and
``pow_fraction`` carry no certified bound; they serve scalar callers
(:func:`nilorbit.hardy.evaluate_dd`).

There is no scalar DD arithmetic: a config entry is a :class:`Double2`, a
plain (hi, lo) kernel pair, and build-time code computes exactly in
``Fraction`` from :func:`to_fraction` and rounds each result once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker split constant


# Error-free transformations: each returns (rounded result, exact error).  On
# arrays they reuse their temporaries (out=, in-place), with the same bits.

def two_sum(a, b):
    s = a + b
    bb = s - a
    if isinstance(bb, np.ndarray):
        err = s - bb
        np.subtract(a, err, out=err)
        np.subtract(b, bb, out=bb)
        err += bb
        return s, err
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    # Fast2Sum: requires a == 0 or exponent(a) >= exponent(b), e.g. |a| >= |b|
    s = a + b
    err = s - a
    if isinstance(err, np.ndarray):
        return s, np.subtract(b, err, out=err)
    return s, b - err


def split(a):
    # Veltkamp split into two halves of at most 26 significant bits each; a
    # float with at most 26 significant bits splits as (a, 0)
    c = _SPLITTER * a
    hi = c - a
    if isinstance(hi, np.ndarray):
        np.subtract(c, hi, out=hi)
        return hi, np.subtract(a, hi, out=c)
    hi = c - hi
    return hi, a - hi


def _prod_err(p, ah, al, bh, bl):
    """((ah bh - p) + ah bl + al bh) + al bl, the error of p = a b."""
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    return err


def two_prod(a, b):
    p = a * b
    return p, _prod_err(p, *split(a), *split(b))


def two_prod_by(b):
    """two_prod(., b) with b split once, for many products by the same b."""
    bh, bl = split(b)

    def prod(a, _b):
        p = a * b
        return p, _prod_err(p, *split(a), bh, bl)

    return prod


def comp_horner(coeffs, J, x, prod=two_prod, x_lo=None):
    """DD value of sum_j c_j x^j, the DD pairs c_j = coeffs[j] (scalars or
    arrays like x; None for zero, except the top one).

    Orders above J run as a float64 Horner scheme on the high words, orders
    up to J as the compensated Horner scheme of Graillat, Langlois and Louvet
    ("Algorithms for accurate, validated and fast polynomial evaluation",
    2009): the float64 Horner of the high words takes every product with
    ``prod`` (an exact TwoProd) and every sum with TwoSum, a second float64
    Horner sums those exact errors plus the low words, and a final TwoSum
    (not Fast2Sum: where the sum nearly cancels, the error sum can be the
    larger) joins the two.  A DD variable passes its low word as ``x_lo``;
    the error Horner then also carries acc x_lo, leaving out only the
    second-order terms.  Each coeffs[j] is read once, highest order first,
    so ``coeffs`` may build its pairs as they are read.
    """
    K = len(coeffs) - 1
    t, c = coeffs[K]
    if J < K:
        t = t * x
        for j in range(K - 1, J, -1):
            t += coeffs[j][0]
            t *= x
        hi, lo = coeffs[J]
        acc, c = two_sum(hi, t)
        c += lo
    else:
        acc = t
    for j in range(J - 1, -1, -1):
        p, pi = prod(acc, x)
        if x_lo is not None:
            pi += acc * x_lo
        cj = coeffs[j]
        if cj is None:
            acc = p
        else:
            acc, sigma = two_sum(p, cj[0])
            pi += sigma
            pi += cj[1]
        c = c * x
        c += pi
    return two_sum(acc, c)


class _DDKernel:
    """Double-double pair operations."""

    name = "dd"

    @staticmethod
    def from_float(x):
        return np.asarray(x, dtype=np.float64), np.zeros_like(np.asarray(x, dtype=np.float64))

    @staticmethod
    def from_fraction(f: Fraction):
        hi = float(f)
        lo = float(f - Fraction(hi))
        return np.float64(hi), np.float64(lo)

    @staticmethod
    def from_int_array(n):
        # exact for |n| < 2^53; larger integers (int64, or Python ints in an
        # object array) get a correction limb
        a = np.asarray(n)
        hi = a.astype(np.float64)
        if a.dtype == object:
            lo = (a - np.array([int(h) for h in hi.flat], dtype=object).reshape(a.shape))
            return hi, lo.astype(np.float64)
        lo = (a - hi.astype(a.dtype)).astype(np.float64) if np.issubdtype(a.dtype, np.integer) else np.zeros_like(hi)
        return hi, lo

    @staticmethod
    def to_float(x):
        return x[0] + x[1]

    @staticmethod
    def hi(x):
        """The float of a normalized pair, such as ``floor_frac`` returns:
        its high word, since |lo| <= ulp(hi)/2 rounds away in hi + lo."""
        return x[0]

    @staticmethod
    def add(x, y):
        s1, s2 = two_sum(x[0], y[0])
        t1, t2 = two_sum(x[1], y[1])
        s2 = s2 + t1
        s1, s2 = quick_two_sum(s1, s2)
        s2 = s2 + t2
        return quick_two_sum(s1, s2)

    @staticmethod
    def add_float(x, c):
        """x + c for a float c: the TwoSum of the high words, the low word
        added to its error, one Fast2Sum; the bits of add(x, (c, 0)) up to
        the sign of a zero low word.  Exact for an integral x plus an integer
        c while the sum fits the pair."""
        s, e = two_sum(x[0], c)
        e += x[1]
        return quick_two_sum(s, e)

    @staticmethod
    def sub(x, y):
        return _DDKernel.add(x, (-y[0], -y[1]))

    @staticmethod
    def neg(x):
        return -x[0], -x[1]

    @staticmethod
    def abs(x):
        m = np.where(x[0] < 0, -1.0, 1.0)
        return m * x[0], m * x[1]

    @staticmethod
    def mul(x, y):
        p1, p2 = two_prod(x[0], y[0])
        p2 = p2 + (x[0] * y[1] + x[1] * y[0])
        return quick_two_sum(p1, p2)

    @staticmethod
    def add_prod(x, a, b):
        """x + a b for a sum read only through ``frac_float``, as a pair
        that need not be normalized: the TwoProd of the high words plus the
        cross terms, one TwoSum into x's high word, and the low words summed
        in float.  Its error, a few u^2 (|x| + |a b|), is of the order of
        add(x, mul(a, b)), in about two thirds of the operations."""
        p, e = two_prod(a[0], b[0])
        e += a[0] * b[1]
        e += a[1] * b[0]
        s, t = two_sum(x[0], p)
        t += e
        t += x[1]
        return s, t

    @staticmethod
    def mul_float(x, c):
        p1, p2 = two_prod(x[0], c)
        p2 = p2 + x[1] * c
        return quick_two_sum(p1, p2)

    @staticmethod
    def div(x, y):
        q1 = x[0] / y[0]
        r = _DDKernel.sub(x, _DDKernel.mul_float(y, q1))
        q2 = r[0] / y[0]
        r = _DDKernel.sub(r, _DDKernel.mul_float(y, q2))
        q3 = r[0] / y[0]
        s1, s2 = quick_two_sum(q1, q2)
        return _DDKernel.add((s1, s2), (q3, np.zeros_like(q3)))

    @staticmethod
    def ldexp(x, k):
        return np.ldexp(x[0], k), np.ldexp(x[1], k)

    @staticmethod
    def npow(x, n: int):
        """Integer power by binary squaring; exact on exact integer inputs
        while results stay below 2^106."""
        if n == 0:
            return _DDKernel.from_float(np.ones_like(x[0]))
        m = abs(n)
        acc = None
        base = x
        while m:
            if m & 1:
                acc = base if acc is None else _DDKernel.mul(acc, base)
            m >>= 1
            if m:
                base = _DDKernel.mul(base, base)
        if n < 0:
            acc = _DDKernel.div(_DDKernel.from_float(np.ones_like(x[0])), acc)
        return acc

    @staticmethod
    def floor(x):
        return _DDKernel.floor_frac(x)[0]

    @staticmethod
    def floor_frac(x):
        """(floor(x), x - floor(x)); the floor is exact, and so is the
        fractional part unless -1 < hi < 0.

        With fh = floor(hi), the Fast2Sum of -fh and hi is valid (fh is 0, or
        has hi's exponent, or |fh| >= |hi|) and exact; its error term is
        nonzero only for -1 < hi < 0.  A non-integral hi leaves hi - fh a
        multiple of ulp(hi) >= 2|lo|, so a Fast2Sum with lo gives the
        fractional part exactly; an integral hi leaves lo - floor(lo), again
        one Fast2Sum.  For -1 < hi < 0 the value 1 + hi + lo may span more
        than 106 bits, and only the sum of the error term with lo rounds (by
        at most 2^-107).
        """
        fh = np.floor(x[0])
        dh, e = quick_two_sum(-fh, x[0])
        e += x[1]
        if (dh == 0.0).any():  # an integral hi: lo has its own floor
            fl = np.where(dh == 0.0, np.floor(x[1]), 0.0)
            return quick_two_sum(fh, fl), quick_two_sum(dh - fl, e)
        # with fl = 0 the same bits: fh + 0 (a -0 floor becomes +0), dh - 0 = dh
        return (fh + 0.0, np.zeros_like(fh)), quick_two_sum(dh, e)

    @staticmethod
    def frac(x):
        """Fractional part in [0, 1), exact as a pair (its float may round to 1)."""
        return _DDKernel.floor_frac(x)[1]

    @staticmethod
    def frac_float(x):
        """The float of the fractional part, in [0, 1] (1 where it rounds up):
        hi - floor(hi) is exact unless -1 < hi < 0, adding lo rounds once,
        and a sum outside [0, 1) (integral hi and lo < 0, or a pair from
        ``add_prod`` whose lo exceeds 1) wraps by one more floor."""
        f = (x[0] - np.floor(x[0])) + x[1]
        return f - np.floor(f)

    @staticmethod
    def polyval(polys, x):
        """Polynomials (coefficient lists c_0, c_1, ... as for
        :func:`comp_horner`) at x, with x's high word split once for all."""
        prod = two_prod_by(x[0])
        vals = (comp_horner(c, len(c) - 1, x[0], prod, x[1]) for c in polys)
        shape = x[0].shape
        return [(h, lo) if h.shape == shape else
                (np.broadcast_to(h, shape), np.broadcast_to(lo, shape)) for h, lo in vals]

    @staticmethod
    def exp(x):
        """exp for |x| <~ 700; ~1e-31 relative accuracy."""
        k = np.round(x[0] / _LN2F)
        r = _DDKernel.sub(x, _DDKernel.mul_float(LN2, k))
        # scale r down 2^9 so the expm1 Taylor series needs ~10 terms
        r = _DDKernel.ldexp(r, -9)
        acc = (np.full_like(r[0], _INV_FACT[-1][0]), np.full_like(r[0], _INV_FACT[-1][1]))
        for c in reversed(_INV_FACT[:-1]):
            acc = _DDKernel.mul(r, acc)
            acc = _DDKernel.add(acc, (np.full_like(r[0], c[0]), np.full_like(r[0], c[1])))
        s = _DDKernel.mul(r, acc)  # expm1(r/2^9)
        for _ in range(9):
            s = _DDKernel.add(_DDKernel.ldexp(s, 1), _DDKernel.mul(s, s))
        e = _DDKernel.add(s, _DDKernel.from_float(np.ones_like(s[0])))
        return _DDKernel.ldexp(e, k.astype(np.int64))

    @staticmethod
    def ln(x):
        """Natural log for positive x: float seed y0 plus one Newton step.

        With m = x exp(-y0) = 1 + c, ln x = y0 + c - c^2/2 + O(c^3); c is a
        few ulps of y0, so the c^2/2 term (up to ~2^-95 for x ~ 1e8) is kept
        and the cubic one (< 2^-140) is not.
        """
        y0 = np.log(x[0])
        zero = np.zeros_like(y0)
        m = _DDKernel.mul(x, _DDKernel.exp((-y0, zero)))
        corr = _DDKernel.sub(m, _DDKernel.from_float(np.ones_like(y0)))
        corr = _DDKernel.sub(corr, (0.5 * corr[0] * corr[0], zero))
        return _DDKernel.add((y0, zero), corr)

    @staticmethod
    def pow_fraction(x, a: Fraction):
        return _DDKernel.pow_fraction_ln(x, a, None if a.denominator == 1 else _DDKernel.ln(x))

    @staticmethod
    def pow_fraction_ln(x, a: Fraction, lnx):
        """x^a reusing a precomputed ln(x); integer exponents skip it."""
        if a.denominator == 1:
            return _DDKernel.npow(x, a.numerator)
        e = _DDKernel.from_fraction(a)
        ea = (np.broadcast_to(e[0], np.shape(lnx[0])), np.broadcast_to(e[1], np.shape(lnx[0])))
        return _DDKernel.exp(_DDKernel.mul(ea, lnx))


class _FPKernel:
    """Plain float64 operations behind the same interface.

    Values are bare arrays (no pair), so callers must go through the kernel
    for every operation.
    """

    name = "double"

    @staticmethod
    def from_float(x):
        return np.asarray(x, dtype=np.float64)

    @staticmethod
    def from_fraction(f: Fraction):
        return np.float64(float(f))

    @staticmethod
    def from_int_array(n):
        return np.asarray(n).astype(np.float64)

    @staticmethod
    def to_float(x):
        return x

    hi = to_float
    add = add_float = staticmethod(np.add)
    sub = staticmethod(np.subtract)
    neg = staticmethod(np.negative)
    mul = staticmethod(np.multiply)
    div = staticmethod(np.divide)
    floor = staticmethod(np.floor)
    ln = staticmethod(np.log)

    @staticmethod
    def add_prod(x, a, b):
        return x + a * b

    @staticmethod
    def npow(x, n: int):
        return np.power(x, n)

    @staticmethod
    def floor_frac(x):
        fl = np.floor(x)
        return fl, x - fl

    @staticmethod
    def frac_float(x):
        return x - np.floor(x)

    @staticmethod
    def polyval(polys, x):
        vals = []
        for c in polys:
            acc = c[-1]
            for cj in reversed(c[:-1]):
                acc = acc * x if cj is None else acc * x + cj
            vals.append(np.broadcast_to(acc, x.shape))
        return vals

    @staticmethod
    def pow_fraction_ln(x, a: Fraction, lnx):
        if a.denominator == 1:
            return np.power(x, a.numerator)
        return np.exp(float(a) * lnx)


DD = _DDKernel
FP = _FPKernel

# Vectorized callers work through long arrays in blocks of this many entries:
# the temporaries of a DD operation on them stay in cache, which makes the
# operation several times faster per entry than on 65536 entries.  The orbit
# engine's chunk (``orbits.CHUNK``) is one block, so a chunk's coordinates,
# cells and integrands stay as small as the engine's temporaries.
BLOCK = 1 << 14

U = 2.0 ** -53  # unit roundoff of float64
U2 = U * U
# Relative error bounds of DD.add, DD.mul and DD.mul_float in units of u^2,
# after Joldes, Muller and Popescu, "Tight and rigorous error bounds for basic
# building blocks of double-word arithmetic" (ACM TOMS 2017), rounded up to
# cover their u^3 terms.
ADD_ERR = 3.0
MUL_ERR = 7.0
MUL_FLOAT_ERR = 3.0


KERNELS = {"dd": DD, "double": FP}


LN2 = (0.6931471805599453, 2.3190468138462996e-17)  # ln 2 rounded to DD
_LN2F = LN2[0]
_INV_FACT = [DD.from_fraction(Fraction(1, math.factorial(j))) for j in range(1, 13)]
# _INV_FACT[j-1] = 1/j!; the expm1 Horner runs highest order first


class Double2(NamedTuple):
    """A scalar DD value hi + lo, as a config holds it: a kernel pair of
    Python floats.  It carries no arithmetic; build-time code computes
    exactly from :func:`to_fraction` and rounds once to DD."""

    hi: float
    lo: float


def to_fraction(x) -> Fraction:
    """The exact value hi + lo of a scalar DD pair; OverflowError unless finite."""
    hi, lo = float(x[0]), float(x[1])
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise OverflowError(f"DD value ({hi!r}, {lo!r}) is not finite")
    return Fraction(hi) + Fraction(lo)
