"""Parameters as monomials c q^r (ParamExpr), and their command-line form.

The exponent r is an exact rational; the coefficient c is exact (int or
Fraction) where it was typed or written in the catalog, while a sampled real
is its own mpf coefficient with r = 0. Exact monomials multiply and divide
exactly, so the primitives decide cancellations, telescoping pairs and
vanishing factors 1 - q^-n q^n from exponents, in products and phi/psi
series alike. Command-line grammar:

    expr     := number | ["-"] [number "*"] "q" ["^" rational]
    rational := integer | integer "/" positive-integer | decimal

So "0.35" is 7/20, "-q^3" is -(q cubed) and "-q^-5/3" is -(q to the -5/3).
Parsing, printing and re-parsing is stable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (fone, from_int, mpf_div, mpf_exp, mpf_mul,
                          mpf_pow_int, round_nearest as RN)

from .errors import ParseError, QDomainError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real

__all__ = ["ParamExpr", "Q", "parse_param"]

_MAX_EXPONENT = 100

_NUMBER = r"\d+(?:\.\d+)?"
_LITERAL_RE = re.compile(rf"^-?{_NUMBER}$")
_QFORM_RE = re.compile(
    rf"^(?P<sign>-)?(?:(?P<coeff>{_NUMBER})\*)?q"
    rf"(?:\^(?P<exp>-?\d+(?:\.\d+|/0*[1-9]\d*)?))?$")


def _raw(c) -> tuple:
    """A coefficient's raw mpf, an exact one as mpf(num) / den rounds it."""
    prec = mp.prec
    return c._mpf_ if isinstance(c, mpf) else mpf_div(
        from_int(c.numerator, prec, RN), from_int(c.denominator), prec, RN)


def _combine(op, x, y):
    """op on two coefficients: exact unless one of them is an mpf."""
    if isinstance(x, mpf) or isinstance(y, mpf):
        return op(mp.make_mpf(_raw(x)), mp.make_mpf(_raw(y)))
    return op(Fraction(x), y)


@dataclass(frozen=True)
class ParamExpr:
    """The monomial coefficient * q**exponent."""

    coefficient: int | Fraction | mpf = 1
    exponent: int | Fraction = 0

    def __post_init__(self):
        if not isinstance(self.exponent, (int, Fraction)):
            raise QDomainError(f"a monomial's exponent must be an int or a "
                               f"Fraction, got {self.exponent!r}")

    @staticmethod
    def of(x) -> "ParamExpr":
        """x itself, an int as an exact coefficient, any other real as its
        own mpf coefficient."""
        if isinstance(x, ParamExpr):
            return x
        return ParamExpr(x if isinstance(x, int) else to_real(x))

    @property
    def zero_index(self) -> int | None:
        """n >= 0 where this is exactly q^-n, so that 1 - x q^n = 0."""
        c, r = self.coefficient, self.exponent
        exact = not isinstance(c, mpf) and c == 1 and r.denominator == 1
        return -int(r) if exact and r <= 0 else None

    def value(self, q, lq=None) -> mpf:
        """c q^r at the precision in force, in libmpf rounded as c * q**r
        for an integer r and c * exp(r * log q) otherwise, lq the raw log q
        where a caller shares one."""
        prec, r, c = mp.prec, self.exponent, _raw(self.coefficient)
        if r == 0:
            return mp.make_mpf(c)
        if r.denominator == 1:
            x = mpf_pow_int(to_real(q)._mpf_, int(r), prec, RN)
        else:
            x = mpf_exp(mpf_mul(_raw(r), lq or mp.log(q)._mpf_, prec, RN),
                        prec, RN)
        return mp.make_mpf(x if c == fone else mpf_mul(c, x, prec, RN))

    def eval(self, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
        """The value at q, at the ctx's working precision."""
        with ctx.working():
            return self.value(to_real(q))

    def __mul__(self, other: "ParamExpr") -> "ParamExpr":
        return ParamExpr(_combine(operator.mul, self.coefficient,
                                  other.coefficient),
                         self.exponent + other.exponent)

    def __truediv__(self, other: "ParamExpr") -> "ParamExpr":
        return ParamExpr(_combine(operator.truediv, self.coefficient,
                                  other.coefficient),
                         self.exponent - other.exponent)

    def __str__(self) -> str:
        c, r = self.coefficient, self.exponent
        if r == 0:
            return _number(c)
        scale = "" if abs(c) == 1 else f"{_number(abs(c))}*"
        return ("-" if c < 0 else "") + scale + ("q" if r == 1 else f"q^{r}")


Q = ParamExpr(1, 1)


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
