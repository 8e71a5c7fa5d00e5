"""Precision context and arbitrary-precision real helpers.

All scalar arithmetic is done with mpmath ``mpf`` values; a
:class:`PrecisionCtx` decides the working precision (requested digits plus
ten guard digits to absorb cancellation), the truncation-error target
10**-digits and the hard cap on summed or multiplied terms.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .errors import QDomainError

__all__ = ["PrecisionCtx", "DEFAULT_CTX", "to_real", "real_str"]


# extra internal digits to absorb cancellation
_GUARD_DIGITS = 10


@dataclass(frozen=True)
class PrecisionCtx:
    """Evaluation context governing every series/product evaluation.

    digits     decimal precision of reported values; 10**-digits is both the
               relative truncation-error target and the floor of
               relative-error denominators
    max_terms  hard cap on summed/multiplied terms per evaluation
    """

    digits: int = 40
    max_terms: int = 500_000

    def __post_init__(self):
        _check_digits(self.digits)
        _check_int("max_terms", self.max_terms, QDomainError)
        if self.max_terms < 1:
            raise QDomainError("max_terms must be >= 1")

    @property
    def working_dps(self) -> int:
        return self.digits + _GUARD_DIGITS

    def tail_tol(self) -> mpf:
        """10**-digits."""
        return mpf(10) ** (-self.digits)

    def working(self):
        """Switch mpmath to the working precision where it is not in force."""
        if mp.prec == dps_to_prec(self.working_dps):  # mp.dps is then equal
            return nullcontext()
        return mp.workdps(self.working_dps)


def _check_int(name, x, error):
    """Raise ``error`` for an x that is not an int."""
    if not isinstance(x, int):
        raise error(f"{name} must be an integer, got {x!r}")


def _check_digits(digits, error=QDomainError):
    """Raise ``error`` for a non-int or fewer than 10 requested digits."""
    _check_int("digits", digits, error)
    if digits < 10:
        raise error("digits must be >= 10")


DEFAULT_CTX = PrecisionCtx()


def to_real(x) -> mpf:
    """Coerce a scalar to mpf. Strings are parsed decimally (preferred for
    exact decimal inputs); ints/floats/mpf pass through mpmath. Anything
    mpmath cannot read as a real raises QDomainError naming it."""
    if isinstance(x, mpf):
        return x
    try:
        return mpf(x.strip() if isinstance(x, str) else x)
    except (TypeError, ValueError):
        raise QDomainError(f"cannot read {x!r} as a real number") from None


def real_str(x, digits: int) -> str:
    """Decimal-string form of ``x`` at ``digits`` significant digits.

    Round-trips through :func:`to_real` to the context's digit count. The
    value is formatted at its own precision: no rounding to the ambient
    mpmath precision happens first, so all ``digits`` digits are meaningful.
    """
    return mp.nstr(to_real(x), digits)
