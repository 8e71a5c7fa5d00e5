"""Dedekind eta function in the nome and eta quotients."""

from __future__ import annotations

from mpmath import mpf

from .errors import QDomainError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real
from .qcore import (SeriesValue, _check_q, _int_within_cap,
                    pochhammer_inf, qpow)

__all__ = ["eta_nome", "eta_quotient"]


def eta_nome(q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """eta as a function of the nome: q^(1/24) * (q; q)_inf, for 0 < q < 1."""
    with ctx.working():
        q = to_real(q)
        _check_q(q)
        return qpow(q, mpf(1) / 24, ctx) * pochhammer_inf(q, q, ctx)


def eta_quotient(scales, q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """prod_m eta(q^m)^e for scales = {m: e}, each m > 0 and each e an
    integer, checked before its factor is computed. Each eta(q^m) is
    computed once and raised to the power e once, its relative error scaled
    by |e|."""
    out = SeriesValue.of(1)
    with ctx.working():
        q = to_real(q)
        for m, e in scales.items():
            if m <= 0:
                raise QDomainError(f"eta_quotient scale must be positive, got {m}")
            e = _int_within_cap(e, f"eta_quotient exponent of scale {m}", ctx)
            factor = eta_nome(q ** m, ctx)
            power = factor.value ** e
            out = out * SeriesValue(
                power, abs(power * e) * factor.err_estimate / abs(factor.value),
                factor.terms_used, factor.certified)
    return out
