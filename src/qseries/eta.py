"""Dedekind eta function in the nome and eta quotients."""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import (fhalf, fone, from_man_exp, mpf_abs, mpf_add,
                          mpf_div, mpf_le, mpf_lt, mpf_mul, mpf_mul_int,
                          mpf_sub, round_ceiling as UP, round_floor)

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
    """prod_m eta(q^m)^e for scales = {m: e}, each m a positive real read by
    to_real and each e an integer, checked before its factor is computed.
    Each eta(q^m) is computed once and raised to the power e once: a value
    v within a relative delta = err / |v| < 1 moves v^e by at most |v^e|
    expm1(x), x = |e| delta / (1 - delta), as |log(1 + u)| <= delta / (1 -
    delta) for |u| <= delta, and the power's rounding adds 2^(1-prec) of it.
    For x <= 1/2, expm1(x) is bounded by x (1 + x), and the whole radius is
    formed in libmpf with every operation rounded up; above 1/2, expm1(x)
    is mpmath's."""
    out = SeriesValue.of(1)
    with ctx.working():
        q, prec = to_real(q), mp.prec
        for m, e in scales.items():
            scale = to_real(m)
            if scale <= 0:
                raise QDomainError(f"eta_quotient scale must be positive, got {m}")
            e = _int_within_cap(e, f"eta_quotient exponent of scale {m}", ctx)
            factor = eta_nome(q ** scale, ctx)
            delta = mpf_div(factor.err_estimate._mpf_,
                            mpf_abs(factor.value._mpf_), prec, UP)
            if not mpf_lt(delta, fone):
                raise NumericalBreakdownError(
                    f"eta(q^{m}) cannot be told from 0 within its estimate")
            x = mpf_div(mpf_mul_int(delta, abs(e), prec, UP),
                        mpf_sub(fone, delta, prec, round_floor), prec, UP)
            if mpf_le(x, fhalf):
                grow = mpf_mul(x, mpf_add(fone, x, prec, UP), prec, UP)
            else:
                grow = mp.expm1(mp.make_mpf(x))._mpf_
            grow = mpf_add(grow, from_man_exp(1, 1 - prec), prec, UP)
            power = factor.value ** e
            err = mpf_mul(mpf_abs(power._mpf_), grow, prec, UP)
            out = out * SeriesValue(power, mp.make_mpf(err),
                                    factor.terms_used, factor.certified)
    return out
