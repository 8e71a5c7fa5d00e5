"""q-gamma function, Jackson q-integrals, classical gamma, and the
classical sides' helpers: a beta series, and a ball around a value computed
from k mpmath values by k - 1 rounded steps. Its radius k 2^(2-prec)|v|
assumes mpmath's gamma, power and sqrt within one ulp, 2^(1-prec)|v| at
most, of exact and pi within half of one: the values and steps need
(3k - 1) 2^-prec, and pi^(3/2) from the rounded pi 3/2 of that unit more."""

from __future__ import annotations

from dataclasses import replace
from itertools import count

from mpmath import mp, mpf
from mpmath.libmp import (from_int, fzero, mpf_add, mpf_div, mpf_mul,
                          mpf_rdiv_int)
from mpmath.libmp import round_nearest as RN

from .errors import NonConvergenceError, PoleError, QDomainError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real
from .qcore import SeriesValue, _check_q, accelerate, prodquot, qpow

__all__ = [
    "gamma_q",
    "classical_gamma",
    "jackson_integral_finite",
]


# --- q-gamma ----------------------------------------------------------------

def gamma_q(x, q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x), 0 < q < 1.

    Poles at x = 0, -1, -2, ... where (q^x;q)_inf vanishes.
    """
    with ctx.working():
        q, x = to_real(q), to_real(x)
        _check_q(q, [x], ["x"])
        _check_pole(x, "gamma_q")
        return prodquot([q], [qpow(q, x, ctx)], q, ctx) * mp.power(1 - q, 1 - x)


def _check_pole(x, what: str):
    """Gamma and Gamma_q have their poles at the nonpositive integers."""
    if x <= 0 and x == mp.floor(x):
        raise PoleError(f"{what} pole at nonpositive integer x={x}")


# --- classical gamma --------------------------------------------------------

def classical_gamma(x, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Gamma(x) for real x at the working precision (mpmath's gamma); a
    non-finite x raises QDomainError, and poles at nonpositive integers
    PoleError."""
    with ctx.working():
        x = to_real(x)
        if not mp.isfinite(x):
            raise QDomainError(f"parameter x is not finite, got {x}")
        _check_pole(x, "gamma")
        return mp.gamma(x)


# --- Jackson q-integrals ------------------------------------------------------

_DECAY_WINDOW = 5  # consecutive decaying terms required before trusting a tail


def jackson_integral_finite(f, c, q,
                            ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """int_0^c f(t) d_q t = c (1-q) sum_{n>=0} f(c q^n) q^n, summed until
    _DECAY_WINDOW successive term ratios lie below 1, with an observed-ratio
    tail estimate (heuristic, so certified=False)."""
    with ctx.working():
        q, c = to_real(q), to_real(c)
        _check_q(q, [c], ["c"])
        if c <= 0:
            raise QDomainError(
                f"jackson_integral_finite requires c > 0, got {c}")
        tol = ctx.tail_tol()
        s = mpf(0)
        prev = None
        ratios: list = []
        for n in range(ctx.max_terms):
            t = to_real(f(c * q ** n)) * q ** n
            s += t
            if prev is not None and prev != 0:
                ratios.append(abs(t) / abs(prev))
                if len(ratios) > _DECAY_WINDOW:
                    ratios.pop(0)
            if (len(ratios) == _DECAY_WINDOW and max(ratios) < 1
                    and abs(t) <= tol * max(abs(s), mpf(1))):
                r = max(ratios)
                return (SeriesValue(s, abs(t) * r / (1 - r), n + 1, False)
                        * (c * (1 - q)))
            prev = t
        raise NonConvergenceError(f"jackson_integral_finite: no geometric "
                                  f"decay within {ctx.max_terms} terms")


# --- helpers of the identity sides ------------------------------------------

def _rounded(x, k: int) -> SeriesValue:
    """x, from k mpmath values, as a ball (see the module docstring)."""
    return SeriesValue(x, k * mp.ldexp(abs(x), 2 - mp.prec), 0, True)


def _beta_series(c, alpha, beta, ctx: PrecisionCtx) -> SeriesValue:
    """Levin-accelerated sum of t_n = (alpha)_n/n! * beta/(n+beta) / c,
    which is beta/c * B(beta, 1 - alpha), fed to the transform as a
    generator of t_0 = 1/c, t_(n+1) = t_n * ((alpha+n)/(n+1) * (n+beta) /
    (n+1+beta)), each operation rounded to nearest in libmpf in that order,
    and n+1+beta kept as the next step's n+beta. The terms and the
    transform run at 3/2 of ctx's digits and the result is rounded back to
    ctx's working precision: the sweep's rounding floor grows with its
    order, so the estimate it selects is right to only about 0.6 of the
    working digits (at digits=40: 31 right digits at ctx's own precision,
    42 at 3/2 of it)."""
    def terms():
        prec = mp.prec  # the sweep's: the body first runs inside accelerate
        a, b = to_real(alpha)._mpf_, to_real(beta)._mpf_
        t = mpf_rdiv_int(1, to_real(c)._mpf_, prec, RN)
        n, nb = fzero, mpf_add(b, fzero, prec, RN)  # n and n + beta
        for m in map(from_int, count(1)):  # n + 1
            yield mp.make_mpf(t)
            mb = mpf_add(b, m, prec, RN)
            r = mpf_div(mpf_add(a, n, prec, RN), m, prec, RN)
            r = mpf_div(mpf_mul(r, nb, prec, RN), mb, prec, RN)
            t = mpf_mul(t, r, prec, RN)
            n, nb = m, mb

    v = accelerate(terms(), replace(ctx, digits=ctx.digits * 3 // 2))
    with ctx.working():
        return SeriesValue(+v.value, +v.err_estimate, v.terms_used,
                           v.certified)
