"""Parameters as monomials c q^r (ParamExpr), the points that assign them
(QPoint), and their command-line form.

The exponent r is an exact rational; the coefficient c is exact (int or
Fraction) where it was typed or written in the catalog, while a sampled real
is its own mpf coefficient with r = 0. Exact monomials multiply and divide
exactly, so the primitives decide cancellations, telescoping pairs and
vanishing factors 1 - q^-n q^n from exponents, in products and phi/psi
series alike. A point values its monomials once: its valuation table, which
they and the monomials formed from them carry, forms each c q^r once per
precision, and at a Section 3-4 map q -> q^k (QPoint.at_power) it forms
c (q^k)^r as c q^(k r) from the point's own q, by mpf_pow_int wherever k r
is an integer. Command-line grammar:

    expr     := number | ["-"] [number "*"] "q" ["^" rational]
    rational := integer | integer "/" positive-integer | decimal

So "0.35" is 7/20, "-q^3" is -(q cubed) and "-q^-5/3" is -(q to the -5/3).
Parsing, printing and re-parsing is stable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (finf, fnan, fninf, fone, from_int, fzero, mpf_div,
                          mpf_exp, mpf_lt, mpf_mul, mpf_pow_int,
                          round_nearest as RN)

from .errors import ParseError, QDomainError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real

__all__ = ["ParamExpr", "Q", "QPoint", "Valuation", "parse_param"]

_MAX_EXPONENT = 100

_NUMBER = r"\d+(?:\.\d+)?"
_LITERAL_RE = re.compile(rf"^-?{_NUMBER}$")
_QFORM_RE = re.compile(
    rf"^(?P<sign>-)?(?:(?P<coeff>{_NUMBER})\*)?q"
    rf"(?:\^(?P<exp>-?\d+(?:\.\d+|/0*[1-9]\d*)?))?$")


def _raw(c) -> tuple:
    """A coefficient's raw mpf, an exact one as mpf(num) / den rounds it."""
    prec = mp.prec
    if isinstance(c, mpf):
        return c._mpf_
    if isinstance(c, int):
        return from_int(c, prec, RN)
    return mpf_div(from_int(c.numerator, prec, RN), from_int(c.denominator),
                   prec, RN)


def _power(c, r, q, lq=None) -> mpf:
    """c q^r at the precision in force, in libmpf rounded as c * q**r for an
    integer r and c * exp(r * log q) otherwise, lq the raw log q if known."""
    prec, c = mp.prec, _raw(c)
    if r == 0:
        return mp.make_mpf(c)
    if r.denominator == 1:
        x = mpf_pow_int(q._mpf_, int(r), prec, RN)
    else:
        x = mpf_exp(mpf_mul(_raw(r), lq or mp.log(q)._mpf_, prec, RN),
                    prec, RN)
    return mp.make_mpf(x if c == fone else mpf_mul(c, x, prec, RN))


class Valuation:
    """The values of one point's monomials c (q^k)^r, in the base q^k of a
    Section 3-4 map (k = 1 at the point itself), formed as c q^(k r) from
    the point's own q: by mpf_pow_int where k r is an integer, through one
    log q per precision where it is not. Each distinct (c, k r) is formed
    once per precision, for every k of the point, and no value outlives
    the point. ``base`` is the raw q^k, at the precision in force when the
    table was made: a monomial is valued here only at that q."""

    def __init__(self, q: mpf, k: int = 1, memo=None):
        self.q, self.k, self._memo = q, k, {} if memo is None else memo
        self.base = q._mpf_ if k == 1 else mpf_pow_int(q._mpf_, k, mp.prec,
                                                       RN)

    def power(self, k: int) -> "Valuation":
        """The table of the same point in the base q^k."""
        return Valuation(self.q, k, self._memo)

    def value(self, c, r) -> mpf:
        """c (q^k)^r as c q^(k r), formed once per precision."""
        k, prec = self.k, mp.prec
        if k != 1 and r:
            n, d = r.numerator * k, r.denominator
            r = n // d if n % d == 0 else Fraction(n, d)
        key = (r, c._mpf_ if isinstance(c, mpf) else c, prec)
        v = self._memo.get(key)
        if v is None:
            lq = None
            if r.denominator != 1:
                lq = self._memo.get(prec) or self._memo.setdefault(
                    prec, mp.log(self.q)._mpf_)
            v = self._memo[key] = _power(c, r, self.q, lq)
        return v


def _combine(exact, inexact, x, y):
    """x times or over y: exact for two exact coefficients (an int times an
    int stays an int), else by libmpf's inexact at mp.prec, rounded to
    nearest as the mpf operators round."""
    if isinstance(x, mpf) or isinstance(y, mpf):
        return mp.make_mpf(inexact(_raw(x), _raw(y), mp.prec, RN))
    return exact(x, y)


def _shared(s, t):
    """The valuation table two monomials share: one's where the other has
    none, none where they have different ones."""
    return s if t is None or t is s else t if s is None else None


@dataclass(frozen=True)
class ParamExpr:
    """The monomial coefficient * q**exponent. A point's monomials, and the
    products and quotients formed from them, carry its valuation table,
    which equality and hashing leave out."""

    coefficient: int | Fraction | mpf = 1
    exponent: int | Fraction = 0
    valuation: Valuation | None = field(default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        c, r = self.coefficient, self.exponent
        # mpf first: a miss on Fraction, an ABC, is slow
        if not isinstance(c, (mpf, int, Fraction)):
            raise QDomainError(f"a monomial's coefficient must be an int, a "
                               f"Fraction or an mpf, got {c!r}")
        if not isinstance(r, (int, Fraction)):
            raise QDomainError(f"a monomial's exponent must be an int or a "
                               f"Fraction, got {r!r}")
        # an integral Fraction is kept as the int it is
        if type(c) is Fraction and c.denominator == 1:
            object.__setattr__(self, "coefficient", c.numerator)
        if type(r) is Fraction and r.denominator == 1:
            object.__setattr__(self, "exponent", r.numerator)

    @staticmethod
    def of(x, valuation: Valuation | None = None) -> "ParamExpr":
        """x itself, an int as an exact coefficient, any other real as its
        own mpf coefficient; with the valuation table given, where one is."""
        if isinstance(x, ParamExpr):
            if valuation is None or x.valuation is valuation:
                return x
            return ParamExpr(x.coefficient, x.exponent, valuation)
        return ParamExpr(x if isinstance(x, int) else to_real(x), 0,
                         valuation)

    @property
    def zero_index(self) -> int | None:
        """n >= 0 where this is exactly q^-n, so that 1 - x q^n = 0."""
        c, r = self.coefficient, self.exponent
        exact = not isinstance(c, mpf) and c == 1 and r.denominator == 1
        return -int(r) if exact and r <= 0 else None

    def value(self, q) -> mpf:
        """c q^r at the precision in force: from the valuation table where q
        is its base, else as _power forms it."""
        q, t = to_real(q), self.valuation
        if t is not None and q._mpf_ == t.base:
            return t.value(self.coefficient, self.exponent)
        return _power(self.coefficient, self.exponent, q)

    def eval(self, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
        """The value at q, at the ctx's working precision."""
        with ctx.working():
            return self.value(to_real(q))

    def __mul__(self, other: "ParamExpr") -> "ParamExpr":
        return ParamExpr(_combine(operator.mul, mpf_mul, self.coefficient,
                                  other.coefficient),
                         self.exponent + other.exponent,
                         _shared(self.valuation, other.valuation))

    def __truediv__(self, other: "ParamExpr") -> "ParamExpr":
        return ParamExpr(_combine(Fraction, mpf_div, self.coefficient,
                                  other.coefficient),
                         self.exponent - other.exponent,
                         _shared(self.valuation, other.valuation))

    def __str__(self) -> str:
        c, r = self.coefficient, self.exponent
        if r == 0:
            return _number(c)
        scale = "" if abs(c) == 1 else f"{_number(abs(c))}*"
        return ("-" if c < 0 else "") + scale + ("q" if r == 1 else f"q^{r}")


Q = ParamExpr(1, 1)


@dataclass(frozen=True)
class QPoint:
    """A parameter assignment: the base q in (0,1) plus named reals or
    ParamExprs, kept as ParamExprs in ``exprs`` and as their values at the
    precision in force in ``params``. The point's valuation table values
    its monomials, and those formed from them, once each (Valuation); a
    point made by ``at_power`` shares it with the point it came from."""

    q: mpf
    params: dict
    exprs: dict = field(init=False, repr=False)
    valuation: Valuation = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        q, table = to_real(self.q), self.valuation
        if table is None:
            table = Valuation(q)
        elif q._mpf_ != table.base:
            raise QDomainError(f"q = {q} is not the base of its valuation")
        exprs = {k: ParamExpr.of(v, table) for k, v in self.params.items()}
        _check_q(q, exprs.values(), exprs)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "exprs", exprs)
        object.__setattr__(self, "valuation", table)
        object.__setattr__(self, "params",
                           dict(zip(exprs, _values(exprs.values(), q))))

    def __getitem__(self, name):
        return self.params[name]

    def at_power(self, k: int, params: dict) -> "QPoint":
        """The point at the base q^k whose monomials ``params`` are written
        in that base, each valued as an integer power of this point's q
        where it is one."""
        table = self.valuation.power(k)
        return QPoint(mp.make_mpf(table.base), params, table)


def _check_q(q, params=(), names=()):
    """Reject q outside (0,1) and NaN or infinite parameters up front, by
    names read only to raise: they would run a product or series to its cap."""
    if not (mpf_lt(fzero, q._mpf_) and mpf_lt(q._mpf_, fone)):
        raise QDomainError(f"q must lie strictly in (0,1), got {q}")
    for i, x in enumerate(params):
        c = x.coefficient if isinstance(x, ParamExpr) else x
        if (type(c) not in (int, Fraction)
                and to_real(c)._mpf_ in (finf, fninf, fnan)):
            raise QDomainError(f"parameter {[*names][i]} is not finite, got {x}")


def _values(xs, q) -> list:
    """Reals or monomials in q as their values at q, a point's monomials
    from its valuation table."""
    return [x.value(q) if isinstance(x, ParamExpr) else to_real(x)
            for x in xs]


def _number(c) -> str:
    """A coefficient as text: an exact one as a decimal where it ends."""
    if isinstance(c, mpf):
        return str(c)
    return format(Decimal(c.numerator) / c.denominator, "f")


def parse_param(text: str) -> ParamExpr:
    """Parse one parameter expression; raises ParseError with the position
    of the first offending character."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty parameter expression", 0)
    s = text.strip()
    if _LITERAL_RE.match(s):
        return ParamExpr(Fraction(s))
    m = _QFORM_RE.match(s)
    if m is None:
        # locate the first character that cannot extend a valid prefix, or
        # the end where every prefix can be completed
        pos = len(s)
        for i in range(1, len(s) + 1):
            prefix = s[:i]
            if not (_LITERAL_RE.match(prefix) or _QFORM_RE.match(prefix)
                    or _is_viable_prefix(prefix)):
                pos = i - 1
                break
        raise ParseError(f"invalid parameter expression {text!r}", pos)
    exp = Fraction(m.group("exp") or 1)
    if abs(exp) > _MAX_EXPONENT:
        raise ParseError(f"exponent magnitude exceeds {_MAX_EXPONENT}")
    return ParamExpr(Fraction((m.group("sign") or "") + (m.group("coeff")
                                                         or "1")), exp)


def _is_viable_prefix(prefix: str) -> bool:
    """True when some suffix could still complete the grammar."""
    candidates = ["", "1", "q", "^1", "1*q", "*q", "q^1", "/1", ".5"]
    for suffix in candidates:
        if _LITERAL_RE.match(prefix + suffix) or _QFORM_RE.match(prefix + suffix):
            return True
    return False
