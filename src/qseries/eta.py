"""Dedekind eta function in the nome and eta quotients."""

from __future__ import annotations

from mpmath import mp, mpf

from .errors import NumericalBreakdownError, QDomainError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real
from .qcore import (SeriesValue, _check_q, _int_within_cap,
                    pochhammer_inf, qpow)

__all__ = ["eta_nome", "eta_quotient"]


def eta_nome(q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """eta as a function of the nome: q^(1/24) * (q; q)_inf, for 0 < q < 1."""
    with ctx.working():
        q = to_real(q)
        _check_q(q)
        return pochhammer_inf(q, q, ctx) * qpow(q, mpf(1) / 24, ctx)


def eta_quotient(scales, q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """prod_m eta(q^m)^e for scales = {m: e}, each m > 0 and each e an
    integer, checked before its factor is computed. Each eta(q^m) is
    computed once and raised to the power e once: a value v within a
    relative delta = err / |v| < 1 moves v^e by at most |v^e| expm1(|e|
    delta / (1 - delta)), as |log(1 + u)| <= delta / (1 - delta) for |u| <=
    delta, and the power's rounding adds 2^(1-prec) of it."""
    out = SeriesValue.of(1)
    with ctx.working():
        q = to_real(q)
        for m, e in scales.items():
            if to_real(m) <= 0:
                raise QDomainError(f"eta_quotient scale must be positive, got {m}")
            e = _int_within_cap(e, f"eta_quotient exponent of scale {m}", ctx)
            factor = eta_nome(q ** m, ctx)
            delta = factor.err_estimate / abs(factor.value)
            if delta >= 1:
                raise NumericalBreakdownError(
                    f"eta(q^{m}) cannot be told from 0 within its estimate")
            power = abs(factor.value ** e)
            err = power * (mp.expm1(abs(e) * delta / (1 - delta))
                           + mp.ldexp(1, 1 - mp.prec))
            out = out * SeriesValue(factor.value ** e, err,
                                    factor.terms_used, factor.certified)
    return out
