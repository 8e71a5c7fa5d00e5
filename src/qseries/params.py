"""Parameter-expression mini-language.

Grammar (exact):

    expr     := number | ["-"] [number "*"] "q" ["^" rational]
    rational := integer | integer "/" positive-integer | decimal

So "0.35" is a literal, "-q^3" is -(q cubed) and "-q^-5/3" is -(q to the
-5/3). Parsing, printing and re-parsing is stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mpf

from .errors import ParseError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real
from .qcore import qpow

__all__ = ["ParamExpr", "parse_param"]

_MAX_EXPONENT = 100

_NUMBER = r"\d+(?:\.\d+)?"
_LITERAL_RE = re.compile(rf"^-?{_NUMBER}$")
_QFORM_RE = re.compile(
    rf"^(?P<sign>-)?(?:(?P<coeff>{_NUMBER})\*)?q"
    rf"(?:\^(?P<exp>-?\d+(?:\.\d+)?(?:/\d+)?))?$")


@dataclass(frozen=True)
class ParamExpr:
    """Either a plain literal or sign * coefficient * q**exponent."""

    literal: mpf | None = None
    sign: int = 1
    coefficient: mpf = mpf(1)
    exponent: Fraction | mpf = Fraction(1)

    @property
    def is_literal(self) -> bool:
        return self.literal is not None

    def eval(self, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
        with ctx.working():
            if self.is_literal:
                return to_real(self.literal)
            e = (mpf(self.exponent.numerator) / self.exponent.denominator
                 if isinstance(self.exponent, Fraction)
                 else to_real(self.exponent))
            return self.sign * self.coefficient * qpow(q, e, ctx)

    def __str__(self) -> str:
        if self.is_literal:
            return str(self.literal)
        out = "-" if self.sign < 0 else ""
        if self.coefficient != 1:
            out += f"{self.coefficient}*"
        out += "q"
        if isinstance(self.exponent, Fraction):
            if self.exponent != 1:
                if self.exponent.denominator == 1:
                    out += f"^{self.exponent.numerator}"
                else:
                    out += f"^{self.exponent}"
        elif self.exponent != 1:
            out += f"^{self.exponent}"
        return out


def _parse_rational(text: str) -> Fraction | mpf:
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    if "." in text:
        return mpf(text)
    return Fraction(int(text))


def parse_param(text: str) -> ParamExpr:
    """Parse one parameter expression; raises ParseError with the position
    of the first offending character.

    Decimal literals, coefficients and exponents are converted like
    ``mpf(text)``, at the precision in force: parse under ``ctx.working()``
    to keep every digit typed."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty parameter expression", 0)
    s = text.strip()
    if _LITERAL_RE.match(s):
        return ParamExpr(literal=mpf(s))
    m = _QFORM_RE.match(s)
    if m is None:
        # locate the first character that cannot extend a valid prefix
        pos = 0
        for i in range(1, len(s) + 1):
            prefix = s[:i]
            if not (_LITERAL_RE.match(prefix) or _QFORM_RE.match(prefix)
                    or _is_viable_prefix(prefix)):
                pos = i - 1
                break
        raise ParseError(f"invalid parameter expression {text!r}", pos)
    sign = -1 if m.group("sign") else 1
    coeff = mpf(m.group("coeff")) if m.group("coeff") else mpf(1)
    exp = _parse_rational(m.group("exp")) if m.group("exp") else Fraction(1)
    if abs(mpf(exp.numerator) / exp.denominator
           if isinstance(exp, Fraction) else exp) > _MAX_EXPONENT:
        raise ParseError(f"exponent magnitude exceeds {_MAX_EXPONENT}")
    return ParamExpr(sign=sign, coefficient=coeff, exponent=exp)


def _is_viable_prefix(prefix: str) -> bool:
    """True when some suffix could still complete the grammar."""
    candidates = ["", "1", "q", "^1", "1*q", "*q", "q^1", "/1", ".5"]
    for suffix in candidates:
        if _LITERAL_RE.match(prefix + suffix) or _QFORM_RE.match(prefix + suffix):
            return True
    return False
