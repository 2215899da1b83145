"""Exact calculus for finite sums  c * t^a * log(t)^b  with rational a, integer b.

This family is closed under differentiation and under rational linear
combinations, every nonzero member is eventually monotone, and any two
members have comparable growth, so all the asymptotic questions the rest of
the library asks (growth order, limits, distance from integer polynomials)
are decidable by inspecting the lexicographically dominant ``(a, b)`` pair.

Coefficients are exact rationals, optionally times one registered named
irrational constant.  Sums whose like terms would need a coefficient outside
that domain (e.g. ``sqrt2 + 1/2``) raise :class:`UnrepresentableCoefficient`.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .constants import REGISTRY, lookup
from .ddmath import DD, FP, to_fraction


class HardyParseError(ValueError):
    """Syntax or domain error in an expression string; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnrepresentableCoefficient(ValueError):
    """A like-term merge or product left the rational-times-constant domain."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the inputs."""


# --------------------------------------------------------------------------
# terms and expressions

GrowthPair = tuple[Fraction, int]


@dataclass(frozen=True)
class HardyTerm:
    """One monomial c * t^power * log(t)^logpow; coeff = rational [* constant]."""

    coeff: Fraction
    power: Fraction
    logpow: int
    const: Optional[str] = None

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero terms are never stored")
        if self.const is not None:
            lookup(self.const)

    @property
    def growth(self) -> GrowthPair:
        return (self.power, self.logpow)

    @property
    def is_polynomial(self) -> bool:
        """A term of a polynomial: an integer power >= 0 and no log factor.
        This is the one test that splits a function into its polynomial and
        non-polynomial parts (:func:`decompose`)."""
        return self.power.denominator == 1 and self.power >= 0 and self.logpow == 0

    def coeff_float(self) -> float:
        v = float(self.coeff)
        if self.const is not None:
            v *= lookup(self.const).as_float()
        return v

    def coeff_fraction_approx(self) -> Fraction:
        """Exact for rational coefficients, 50-digit rational otherwise."""
        if self.const is None:
            return self.coeff
        return self.coeff * lookup(self.const).as_fraction()

    def scaled(self, q: Fraction) -> "HardyTerm":
        return HardyTerm(self.coeff * q, self.power, self.logpow, self.const)

    def shifted(self, dpower: Fraction) -> "HardyTerm":
        return HardyTerm(self.coeff, self.power + dpower, self.logpow, self.const)


def _merge(terms: Iterable[HardyTerm]) -> tuple[HardyTerm, ...]:
    by_growth: dict[GrowthPair, dict[Optional[str], Fraction]] = {}
    for t in terms:
        slot = by_growth.setdefault(t.growth, {})
        slot[t.const] = slot.get(t.const, Fraction(0)) + t.coeff
    out = []
    for (a, b), comps in by_growth.items():
        nonzero = {c: q for c, q in comps.items() if q != 0}
        if not nonzero:
            continue
        if len(nonzero) > 1:
            raise UnrepresentableCoefficient(
                f"like terms t^{a}*log^{b} sum to a mixed coefficient {nonzero}; "
                "v1 coefficients are rational or one constant times a rational"
            )
        ((const, q),) = nonzero.items()
        out.append(HardyTerm(q, a, b, const))
    out.sort(key=lambda t: t.growth, reverse=True)
    return tuple(out)


class HardyExpr:
    """Normalized sum of :class:`HardyTerm`, sorted by decreasing growth.

    The empty sum is the zero function.  Instances are immutable and safe to
    share; all operations return new expressions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[HardyTerm] = ()):
        object.__setattr__(self, "terms", _merge(terms))

    def __setattr__(self, *a):
        raise AttributeError("HardyExpr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "HardyExpr":
        return HardyExpr(())

    @staticmethod
    def constant(q: Fraction | int) -> "HardyExpr":
        return HardyExpr.monomial(q)

    @staticmethod
    def monomial(coeff: Fraction | int, power: Fraction | int = 0, logpow: int = 0,
                 const: Optional[str] = None) -> "HardyExpr":
        coeff = Fraction(coeff)
        if coeff == 0:
            return HardyExpr(())
        return HardyExpr((HardyTerm(coeff, Fraction(power), logpow, const),))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def dominant(self) -> HardyTerm:
        if not self.terms:
            raise ValueError("zero function has no dominant term")
        return self.terms[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, HardyExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other: "HardyExpr") -> "HardyExpr":
        return HardyExpr(self.terms + other.terms)

    def __sub__(self, other: "HardyExpr") -> "HardyExpr":
        return HardyExpr(self.terms + tuple(t.scaled(Fraction(-1)) for t in other.terms))

    def __neg__(self) -> "HardyExpr":
        return self.scaled(Fraction(-1))

    def scaled(self, q: Fraction | int) -> "HardyExpr":
        q = Fraction(q)
        if q == 0:
            return HardyExpr(())
        return HardyExpr(tuple(t.scaled(q) for t in self.terms))

    def shifted_power(self, dpower: Fraction | int) -> "HardyExpr":
        """Multiply by t^dpower (used for f / t^k growth comparisons)."""
        return HardyExpr(tuple(t.shifted(Fraction(dpower)) for t in self.terms))

    def __repr__(self):
        return f"HardyExpr({self})"

    def __str__(self):
        return format_expr(self)


# --------------------------------------------------------------------------
# parsing and canonical serialization

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(){}]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            raise HardyParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_sym(self, s: str):
        kind, val, pos = self.take()
        if kind != "sym" or val != s:
            raise HardyParseError(f"expected {s!r}", pos)

    def parse(self) -> HardyExpr:
        terms = []
        sign = 1
        kind, val, pos = self.peek()
        if kind == "sym" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        terms.extend(self.parse_term(sign))
        while True:
            kind, val, pos = self.peek()
            if kind == "end":
                break
            if kind == "sym" and val in "+-":
                self.take()
                terms.extend(self.parse_term(-1 if val == "-" else 1))
            else:
                raise HardyParseError("expected '+', '-' or end of input", pos)
        return HardyExpr(terms)

    def parse_rational(self) -> Fraction:
        kind, val, pos = self.take()
        if kind == "sym" and val == "(":
            q = self.parse_signed_rational()
            self.expect_sym(")")
            return q
        if kind != "num":
            raise HardyParseError("expected a rational literal", pos)
        num = val
        kind, val, pos2 = self.peek()
        if kind == "sym" and val == "/":
            self.take()
            kind, val, pos3 = self.take()
            if kind != "num":
                raise HardyParseError("expected denominator", pos3)
            if val == 0:
                raise HardyParseError("zero denominator", pos3)
            return Fraction(num, val)
        return Fraction(num)

    def parse_signed_rational(self) -> Fraction:
        kind, val, pos = self.peek()
        sign = 1
        if kind == "sym" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        return sign * self.parse_rational()

    def parse_exponent(self) -> Fraction:
        self.expect_sym("^")
        kind, val, pos = self.peek()
        if kind == "sym" and val == "{":
            self.take()
            q = self.parse_signed_rational()
            self.expect_sym("}")
            return q
        return self.parse_signed_rational()

    def parse_term(self, sign: int) -> list[HardyTerm]:
        coeff = Fraction(sign)
        const: Optional[str] = None
        power: Optional[Fraction] = None
        logpow: Optional[Fraction] = None
        saw_factor = False
        expect_star = False

        while True:
            kind, val, pos = self.peek()
            if kind == "end" or (kind == "sym" and val in "+-"):
                break
            if kind == "sym" and val == "*":
                if not saw_factor:
                    raise HardyParseError("unexpected '*'", pos)
                self.take()
                expect_star = False
                continue
            if expect_star and not (kind == "sym" and val == "*"):
                # juxtaposition is allowed only after a coefficient factor
                if kind == "name" or (kind == "sym" and val == "("):
                    pass
                else:
                    raise HardyParseError("expected '*'", pos)

            if kind == "num" or (kind == "sym" and val == "("):
                if power is not None or logpow is not None:
                    raise HardyParseError("coefficient must precede t and log(t)", pos)
                coeff *= self.parse_rational()
                saw_factor = True
                expect_star = False
                continue
            if kind == "name" and val == "t":
                if power is not None:
                    raise HardyParseError("duplicate t factor", pos)
                if logpow is not None:
                    raise HardyParseError("t factor must precede log(t)", pos)
                self.take()
                k2, v2, _ = self.peek()
                power = self.parse_exponent() if (k2 == "sym" and v2 == "^") else Fraction(1)
                saw_factor = True
                expect_star = True
                continue
            if kind == "name" and val == "log":
                if logpow is not None:
                    raise HardyParseError("duplicate log(t) factor", pos)
                self.take()
                self.expect_sym("(")
                k2, v2, p2 = self.take()
                if k2 != "name" or v2 != "t":
                    raise HardyParseError("expected 't' inside log()", p2)
                self.expect_sym(")")
                k2, v2, _ = self.peek()
                if k2 == "sym" and v2 == "^":
                    lp = self.parse_exponent()
                    if lp.denominator != 1:
                        raise HardyParseError(
                            f"non-integer log exponent {lp}; v1 requires integer log powers", pos)
                    logpow = lp
                else:
                    logpow = Fraction(1)
                saw_factor = True
                expect_star = True
                continue
            if kind == "name":
                if val not in REGISTRY:
                    raise HardyParseError(f"unknown constant name {val!r}", pos)
                if const is not None:
                    raise HardyParseError("at most one constant factor per term", pos)
                if power is not None or logpow is not None:
                    raise HardyParseError("coefficient must precede t and log(t)", pos)
                self.take()
                const = val
                saw_factor = True
                expect_star = True
                continue
            raise HardyParseError(f"unexpected token {val!r}", pos)

        if not saw_factor:
            raise HardyParseError("empty term", self.peek()[2])
        if coeff == 0:
            return []
        return [HardyTerm(coeff,
                          power if power is not None else Fraction(0),
                          int(logpow) if logpow is not None else 0,
                          const)]


def parse(text: str) -> HardyExpr:
    """Parse ``term (('+'|'-') term)*`` into a normalized expression.

    term = coeff ['*'] ['t' ['^' rational]] ['*' 'log(t)' ['^' integer]],
    coeff = rational literal or registered constant name, exponents may be
    brace-wrapped (``t^{3/2}``).
    """
    return _Parser(text).parse()


def _format_exponent(q: Fraction) -> str:
    if q.denominator == 1 and q >= 0:
        return f"^{q.numerator}" if q != 1 else ""
    return f"^{{{q.numerator}/{q.denominator}}}" if q.denominator != 1 else f"^{{{q.numerator}}}"


def format_expr(f: HardyExpr) -> str:
    """Canonical form: decreasing growth order, exponents in lowest terms."""
    if f.is_zero:
        return "0"
    parts = []
    for idx, t in enumerate(f.terms):
        coeff = t.coeff
        sep = ""
        if idx > 0:
            sep = " + " if coeff > 0 else " - "
            coeff = abs(coeff)
        elif coeff < 0:
            sep = "-"
            coeff = -coeff
        pieces = []
        monomial = t.power != 0 or t.logpow != 0
        if coeff != 1 or (t.const is None and not monomial):
            pieces.append(str(coeff) if coeff.denominator != 1 else str(coeff.numerator))
        if t.const is not None:
            pieces.append(t.const)
        if t.power != 0:
            pieces.append("t" + _format_exponent(t.power))
        if t.logpow != 0:
            pieces.append("log(t)" + _format_exponent(Fraction(t.logpow)))
        parts.append(sep + "*".join(pieces))
    return "".join(parts)


# --------------------------------------------------------------------------
# calculus

def differentiate(f: HardyExpr) -> HardyExpr:
    """Exact derivative: d/dt [c t^a log^b t] = ca t^(a-1) log^b + cb t^(a-1) log^(b-1)."""
    out = []
    for t in f.terms:
        if t.power != 0:
            out.append(HardyTerm(t.coeff * t.power, t.power - 1, t.logpow, t.const))
        if t.logpow != 0:
            out.append(HardyTerm(t.coeff * t.logpow, t.power - 1, t.logpow - 1, t.const))
    return HardyExpr(out)


def derivative(f: HardyExpr, order: int) -> HardyExpr:
    for _ in range(order):
        f = differentiate(f)
    return f


class Ordering(enum.Enum):
    PRECEDES = "precedes"
    SIMILAR = "similar"
    DOMINATES = "dominates"


@dataclass(frozen=True)
class GrowthComparison:
    relation: Ordering
    ratio: Optional[Fraction | float] = None  # limit f/g, set iff SIMILAR


def compare(f: HardyExpr, g: HardyExpr) -> GrowthComparison:
    """Decide f ≺ g, f ∼ g (with ratio limit) or f ≻ g by dominant growth."""
    if g.is_zero:
        raise PreconditionError("cannot compare against the zero function")
    if f.is_zero:
        return GrowthComparison(Ordering.PRECEDES)
    ft, gt = f.dominant, g.dominant
    if ft.growth < gt.growth:
        return GrowthComparison(Ordering.PRECEDES)
    if ft.growth > gt.growth:
        return GrowthComparison(Ordering.DOMINATES)
    if ft.const == gt.const:
        return GrowthComparison(Ordering.SIMILAR, ft.coeff / gt.coeff)
    num = ft.coeff_fraction_approx()
    den = gt.coeff_fraction_approx()
    return GrowthComparison(Ordering.SIMILAR, float(num / den))


class LimitKind(enum.Enum):
    PLUS_INFINITY = "+inf"
    MINUS_INFINITY = "-inf"
    FINITE = "finite"
    ZERO = "zero"


@dataclass(frozen=True)
class GrowthClassification:
    tends_to: LimitKind
    limit: Optional[HardyTerm]  # the constant term, when tends_to is FINITE
    polynomial_growth_degree: int
    is_sublinear: bool
    is_subfractional: bool
    is_strongly_nonpolynomial: bool
    is_polynomial: bool

    def limit_float(self) -> float:
        if self.tends_to is LimitKind.ZERO:
            return 0.0
        if self.tends_to is LimitKind.FINITE:
            return self.limit.coeff_float()
        return math.inf if self.tends_to is LimitKind.PLUS_INFINITY else -math.inf


def _dominant_sign(t: HardyTerm) -> int:
    return 1 if t.coeff > 0 else -1


def classify(f: HardyExpr) -> GrowthClassification:
    """Limits, polynomial-growth witness and growth-class flags, all exact."""
    if f.is_zero:
        return GrowthClassification(LimitKind.ZERO, None, 0, True, True, True, True)
    dom = f.dominant
    a, b = dom.growth
    if (a, b) > (0, 0):
        tends = LimitKind.PLUS_INFINITY if dom.coeff > 0 else LimitKind.MINUS_INFINITY
        limit = None
    elif (a, b) == (0, 0):
        tends = LimitKind.FINITE
        limit = dom
    else:
        tends = LimitKind.ZERO
        limit = None

    # smallest k >= 0 with f(t)/t^k bounded: a < k, or a == k with b <= 0
    if a <= 0 and (a < 0 or b <= 0):
        degree = 0
    elif a.denominator == 1 and b <= 0:
        degree = max(0, a.numerator)
    else:
        degree = max(0, math.floor(a) + 1)

    sublinear = (a, b) < (1, 0)
    subfractional = a <= 0
    if tends is LimitKind.ZERO:
        snp = True
    elif a.denominator != 1:
        snp = a > 0
    else:
        # integer a: t^a log^b is strictly between consecutive powers iff b != 0
        snp = (b > 0 and a >= 0) or (b < 0 and a >= 1)
    is_poly = all(t.is_polynomial for t in f.terms)
    return GrowthClassification(tends, limit, degree, sublinear, subfractional, snp, is_poly)


def decompose(f: HardyExpr) -> tuple[HardyExpr, HardyExpr]:
    """Split into (polynomial part, strongly-non-polynomial-or-o(1) part)."""
    return (HardyExpr(t for t in f.terms if t.is_polynomial),
            HardyExpr(t for t in f.terms if not t.is_polynomial))


def decompose_nontrivial(f: HardyExpr) -> tuple[HardyExpr, Optional[HardyExpr]]:
    """(polynomial part, the rest or None when it vanishes or is sub-fractional,
    o(1) included): the split that window plans and the obstruction search use."""
    poly, rest = decompose(f)
    return poly, None if rest.is_zero or classify(rest).is_subfractional else rest


def nonpolynomial_growth(f: HardyExpr) -> Optional[GrowthPair]:
    """Growth pair of the non-polynomial part's dominant term; None when the
    part tends to 0 (trivial growth)."""
    _, rest = decompose(f)
    if rest.is_zero or rest.dominant.growth < (0, 0):
        return None
    return rest.dominant.growth


# --------------------------------------------------------------------------
# equidistribution condition checkers

@dataclass(frozen=True)
class P1Result:
    holds: bool
    witness_epsilon: Optional[Fraction]


def check_P1(f: HardyExpr) -> P1Result:
    """Distance from every integer polynomial grows faster than some t^eps.

    Terms an integer polynomial can cancel exactly -- integer exponent,
    no log factor, integer rational coefficient -- are removed; the check
    asks whether the dominant survivor still grows like a positive power.
    """
    survivors = [t for t in f.terms
                 if not (t.is_polynomial and t.const is None and t.coeff.denominator == 1)]
    if not survivors:
        return P1Result(False, None)
    dom = max(survivors, key=lambda t: t.growth)
    if dom.power > 0:
        return P1Result(True, dom.power / 2)
    return P1Result(False, None)


@dataclass(frozen=True)
class P2Result:
    holds: bool
    limit: Optional[HardyTerm]  # constant term, None when holds with limit 0

    def limit_float(self) -> float:
        return self.limit.coeff_float() if self.limit is not None else 0.0


def check_P2(f: HardyExpr) -> P2Result:
    """True iff f(t) converges to a real number (every term bounded)."""
    g = classify(f)
    return P2Result(g.tends_to in (LimitKind.FINITE, LimitKind.ZERO), g.limit)


class Mod1Case(enum.Enum):
    EQUIDISTRIBUTED = "equidistributed"
    CONVERGES_NONZERO = "converges-nonzero"
    CONVERGES_ZERO_SIGNED = "converges-zero-signed"


@dataclass(frozen=True)
class Mod1Class:
    case: Mod1Case
    value: Optional[Fraction | float] = None  # limit of {f(n)} in (0,1), case 2
    sign: Optional[int] = None  # sign of approach to the integer limit, case 3


def _fractional_part_of_constant(t: Optional[HardyTerm]) -> Fraction | float:
    if t is None:
        return Fraction(0)
    if t.const is None:
        return t.coeff - math.floor(t.coeff)
    v = t.coeff_fraction_approx()
    return float(v - math.floor(v))


def _constant_is_integer(t: Optional[HardyTerm]) -> bool:
    if t is None:
        return True
    if t.const is None:
        return t.coeff.denominator == 1
    return not lookup(t.const).irrational and (t.coeff_fraction_approx().denominator == 1)


def classify_mod1(f: HardyExpr) -> Mod1Class:
    """Behaviour of f(n) mod 1: equidistributed, or convergent with known limit.

    Requires (P1) or (P2); for an integer limit the sign of approach comes
    from the dominant non-constant term (members of the family are
    eventually monotone).
    """
    p1 = check_P1(f)
    if p1.holds:
        return Mod1Class(Mod1Case.EQUIDISTRIBUTED)
    p2 = check_P2(f)
    if not p2.holds:
        raise PreconditionError("neither (P1) nor (P2) holds; mod-1 class undecided in v1")
    if not _constant_is_integer(p2.limit):
        return Mod1Class(Mod1Case.CONVERGES_NONZERO, value=_fractional_part_of_constant(p2.limit))
    nonconst = [t for t in f.terms if t.growth != (0, 0)]
    sign = _dominant_sign(max(nonconst, key=lambda t: t.growth)) if nonconst else 0
    return Mod1Class(Mod1Case.CONVERGES_ZERO_SIGNED, sign=sign)


# --------------------------------------------------------------------------
# growth basis (inductive elimination of shared non-polynomial growth rates)

@dataclass(frozen=True)
class GrowthBasis:
    snp_basis: tuple[HardyExpr, ...]
    poly_basis: tuple[HardyExpr, ...]
    coeff_matrix: tuple[tuple[Fraction, ...], ...]  # inputs[i] = sum_j M[i][j] basis[j]

    @property
    def basis(self) -> tuple[HardyExpr, ...]:
        return self.snp_basis + self.poly_basis

    def reconstruct(self, i: int) -> HardyExpr:
        out = HardyExpr.zero()
        for q, b in zip(self.coeff_matrix[i], self.basis):
            out = out + b.scaled(q)
        return out


def _coefficient_vectors(exprs: Sequence[HardyExpr]):
    axes = sorted({(t.growth, t.const) for f in exprs for t in f.terms})
    index = {ax: i for i, ax in enumerate(axes)}
    vecs = []
    for f in exprs:
        v = [Fraction(0)] * len(axes)
        for t in f.terms:
            v[index[(t.growth, t.const)]] = t.coeff
        vecs.append(v)
    return vecs


def _rank(vecs) -> int:
    rows = [list(v) for v in vecs]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                q = rows[r][c] / rows[rank][c]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def maximal_independent_subset(exprs: Sequence[HardyExpr]) -> list[int]:
    """Indices of a maximal Q-linearly-independent subset, greedily in order."""
    chosen: list[int] = []
    for i in range(len(exprs)):
        candidate = chosen + [i]
        vecs = _coefficient_vectors([exprs[j] for j in candidate])
        if _rank(vecs) == len(candidate):
            chosen.append(i)
    return chosen


def growth_basis(inputs: Sequence[HardyExpr]) -> GrowthBasis:
    """Basis (g_1..g_m, u_1..u_l) with pairwise distinct non-trivial
    non-polynomial growths and u_i of the form p_i(t) + o(1), plus the exact
    rational matrix expressing the inputs in it.

    Rejects Q-linearly dependent inputs; callers reduce with
    :func:`maximal_independent_subset` first.  Cancelling a shared growth
    rate needs the ratio of dominant coefficients to be rational, which in
    this coefficient domain means same-constant (or both rational) leading
    terms; other collisions raise :class:`UnrepresentableCoefficient`.
    """
    inputs = list(inputs)
    if not inputs:
        raise PreconditionError("growth_basis needs at least one input")
    if any(f.is_zero for f in inputs):
        raise PreconditionError("inputs linearly dependent (zero function present)")
    if _rank(_coefficient_vectors(inputs)) != len(inputs):
        raise PreconditionError("inputs linearly dependent")

    k = len(inputs)
    vectors = list(inputs)
    matrix = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]

    while True:
        doms: dict[GrowthPair, int] = {}
        clash = None
        for j, v in enumerate(vectors):
            g = nonpolynomial_growth(v)
            if g is None:
                continue
            if g in doms:
                clash = (doms[g], j)
                break
            doms[g] = j
        if clash is None:
            break
        i, j = clash
        _, resti = decompose(vectors[i])
        _, restj = decompose(vectors[j])
        ti, tj = resti.dominant, restj.dominant
        if ti.const != tj.const:
            raise UnrepresentableCoefficient(
                f"shared growth t^{ti.power}*log^{ti.logpow} has irrational coefficient "
                "ratio; cannot cancel with a rational multiple in v1")
        lam = tj.coeff / ti.coeff
        vectors[j] = vectors[j] - vectors[i].scaled(lam)
        if vectors[j].is_zero:
            raise PreconditionError("inputs linearly dependent")
        for r in range(k):
            matrix[r][i] += lam * matrix[r][j]

    with_growth = [(j, nonpolynomial_growth(v)) for j, v in enumerate(vectors)]
    snp_idx = sorted((j for j, g in with_growth if g is not None),
                     key=lambda j: nonpolynomial_growth(vectors[j]), reverse=True)
    poly_idx = [j for j, g in with_growth if g is None]
    order = snp_idx + poly_idx
    basis = GrowthBasis(
        snp_basis=tuple(vectors[j] for j in snp_idx),
        poly_basis=tuple(vectors[j] for j in poly_idx),
        coeff_matrix=tuple(tuple(matrix[r][j] for j in order) for r in range(k)),
    )
    for r in range(k):
        assert basis.reconstruct(r) == inputs[r]
    return basis


# --------------------------------------------------------------------------
# numeric evaluation

def coeff_pair(t: HardyTerm):
    """The term's coefficient as a DD pair."""
    p = DD.from_fraction(t.coeff)
    if t.const is not None:
        p = DD.mul(p, DD.from_fraction(lookup(t.const).as_fraction()))
    return p


def evaluate_kernel(f: HardyExpr, K, t):
    """Evaluate under a numeric kernel; ``t`` is a kernel value (scalar or array).

    log(t)^b with b < 0 requires t >= 2.
    """
    needs_ln = any(t_.logpow != 0 for t_ in f.terms) or any(
        t_.power.denominator != 1 for t_ in f.terms)
    lnt = K.ln(t) if needs_ln else None
    acc = None
    for term in f.terms:
        if term.power == 0:
            v = None
        elif term.power.denominator == 1:
            v = K.npow(t, term.power.numerator)
        else:
            v = K.pow_fraction_ln(t, term.power, lnt)
        if term.logpow != 0:
            lp = K.npow(lnt, term.logpow)
            v = lp if v is None else K.mul(v, lp)
        if K is DD:
            c = coeff_pair(term)
            tv = c if v is None else K.mul(v, (np.broadcast_to(c[0], np.shape(v[0])),
                                               np.broadcast_to(c[1], np.shape(v[0]))))
        else:
            c = K.from_float(term.coeff_float())
            tv = c if v is None else K.mul(v, c)
        acc = tv if acc is None else K.add(acc, tv)
    if acc is None:
        zero = K.from_float(np.zeros_like(K.to_float(t)))
        return zero
    return acc


def evaluate(f: HardyExpr, t: float) -> float:
    """Plain float64 evaluation at a single point."""
    return float(evaluate_kernel(f, FP, FP.from_float(t)))


def evaluate_dd(f: HardyExpr, t: float | Fraction) -> Fraction:
    """The exact value of the DD evaluation at one point; OverflowError if not finite."""
    tt = DD.from_fraction(Fraction(t)) if isinstance(t, (Fraction, int)) else DD.from_float(t)
    return to_fraction(evaluate_kernel(f, DD, tt))


def evaluate_mp(f: HardyExpr, n: int, prec_bits: int):
    """Arbitrary-precision evaluation at integer n via mpmath."""
    from mpmath import mp

    factories = {
        "sqrt2": lambda: mp.sqrt(2), "sqrt3": lambda: mp.sqrt(3), "sqrt5": lambda: mp.sqrt(5),
        "phi": lambda: (1 + mp.sqrt(5)) / 2, "pi": lambda: mp.pi, "e": lambda: mp.e,
    }
    with mp.workprec(prec_bits):
        total = mp.mpf(0)
        ln = mp.ln(n)
        for t in f.terms:
            v = mp.mpf(t.coeff.numerator) / t.coeff.denominator
            if t.const is not None:
                v *= factories[t.const]()
            if t.power != 0:
                v *= mp.power(n, mp.mpf(t.power.numerator) / t.power.denominator)
            if t.logpow != 0:
                v *= ln ** t.logpow
            total += v
        return total


def int_root(m: int, q: int) -> int:
    """Floor of the q-th root of a nonnegative integer, for integers of any size."""
    if m < 0:
        raise ValueError("negative radicand")
    if m == 0:
        return 0
    if q == 1:
        return m
    if q == 2:
        return math.isqrt(m)
    # integer Newton from above, started at a float estimate of the root raised
    # until r^q >= m: the iterates decrease to the floor of the root
    x = math.log2(m) / q  # math.log2 takes integers of any size
    k = max(int(x) - 52, 0)
    r = int(2.0 ** (x - k)) << k
    while r ** q < m:
        r += (r >> 32) + 1
    while True:
        nxt = ((q - 1) * r + m // r ** (q - 1)) // q
        if nxt >= r:
            return r
        r = nxt


def _term_exact_fraction(t: HardyTerm, n: int) -> Optional[Fraction]:
    """Exact rational value of a term at integer n >= 1, when it has one."""
    if t.const is not None:
        return None
    if t.logpow != 0:
        if n == 1 and t.logpow > 0:
            return Fraction(0)
        return None
    q = t.power.denominator
    p = t.power.numerator
    if q == 1:
        return t.coeff * Fraction(n) ** p
    m = n ** abs(p)
    r = int_root(m, q)
    if r ** q != m:
        return None
    return t.coeff * (Fraction(r) if p > 0 else Fraction(1, r))


def is_rational_polynomial(f: HardyExpr) -> bool:
    """Polynomial in t with rational coefficients (no logs, constants or negative powers)."""
    return all(t.is_polynomial and t.const is None for t in f.terms)


def rational_polynomial_numerator(f: HardyExpr, ns: np.ndarray) -> tuple[np.ndarray, int]:
    """(P, D) with f(n) = P(n)/D exactly at integers n >= 1, for a polynomial
    with rational coefficients.

    D is the lcm of the coefficient denominators and P = (D f)(n), in int64
    when every term provably fits, in Python integers otherwise.
    """
    D = math.lcm(*(t.coeff.denominator for t in f.terms))
    terms = [(int(t.coeff * D), int(t.power)) for t in f.terms]
    n_max = int(np.max(ns, initial=1))
    fits = sum(abs(c) * n_max ** a for c, a in terms) < 2 ** 63
    x = ns if fits else ns.astype(object)
    return sum((c * x ** a for c, a in terms), np.zeros(ns.shape, x.dtype)), D


def floor_at(f: HardyExpr, n: int, max_prec_bits: int = 4096) -> int:
    """Exact integer floor of f(n) for integer n >= 1.

    Rational-valued terms are summed exactly; any irrational remainder is
    evaluated with escalating mpmath precision until its distance from the
    nearest integer certifies the floor.  Raises if the working-precision cap
    cannot separate the value from an integer (an algebraic coincidence this
    family cannot rule out symbolically).
    """
    rational = Fraction(0)
    residual_terms = []
    for t in f.terms:
        v = _term_exact_fraction(t, n)
        if v is not None:
            rational += v
        else:
            residual_terms.append(t)
    if not residual_terms:
        return math.floor(rational)
    residual = HardyExpr(residual_terms)
    prec = 128
    while prec <= max_prec_bits:
        from mpmath import mp

        with mp.workprec(prec):
            v = evaluate_mp(residual, n, prec) + mp.mpf(rational.numerator) / rational.denominator
            fl = mp.floor(v)
            dist = min(v - fl, fl + 1 - v)
            scale = max(abs(v), mp.mpf(1))
            if dist > scale * mp.mpf(2) ** (-(prec // 2)):
                return int(fl)
        prec *= 2
    raise PreconditionError(
        f"floor of {f} at n={n} undecidable below {max_prec_bits} bits "
        "(value too close to an integer)")
