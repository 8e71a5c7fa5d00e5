"""q-gamma function, Jackson q-integrals, classical gamma (Spouge), and the
q-gamma / classical-limit identity entries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from mpmath import mp, mpf

from .errors import NonConvergenceError, PoleError, QDomainError
from .precision import DEFAULT_CTX, PrecisionCtx, to_real
from .qcore import (_LEVIN_MAX_ORDER, QPoint, SeriesValue, accelerate, phi,
                    pochhammer_inf, prodquot, qpow)
from .registry import IdentityEntry
from .rng import SplitMix64

__all__ = [
    "gamma_q",
    "classical_gamma",
    "QIntegrand",
    "jackson_integral_finite",
    "jackson_integral_infinite",
    "register_qgamma_identities",
    "classical_limit_identities",
]

QGAMMA_TOL = 1e-22
CLASSICAL_TOL = 1e-10


# --- q-gamma ----------------------------------------------------------------

def gamma_q(x, q, ctx: PrecisionCtx | None = None) -> SeriesValue:
    """Gamma_q(x) = (q;q)_inf / (q^x;q)_inf * (1-q)^(1-x), 0 < q < 1.

    Poles at x = 0, -1, -2, ... where (q^x;q)_inf vanishes.
    """
    return _gamma_q(x, q, ctx or PrecisionCtx())


def _gamma_q(x, q, ctx: PrecisionCtx, qq: SeriesValue | None = None):
    """gamma_q(x, q, ctx), taking (q;q)_inf as qq when given, so that the
    Gamma_q factors of one identity side share one product."""
    q, x = to_real(q), to_real(x)
    if not (0 < q < 1):
        raise QDomainError(f"gamma_q requires 0 < q < 1, got q={q}")
    if x <= 0 and x == mp.floor(x):
        raise PoleError(f"gamma_q pole at nonpositive integer x={x}")
    with ctx.working():
        den = pochhammer_inf(qpow(q, x, ctx), q, ctx)
        if den.value == 0:
            raise PoleError(f"gamma_q pole: (q^x;q)_inf = 0 at x={x}")
        if qq is None:
            qq = pochhammer_inf(q, q, ctx)
        scale = mp.power(1 - q, 1 - x)
        return scale * (qq / den)


def _gamma_q_side(q, ctx: PrecisionCtx):
    """x -> gamma_q(x, q, ctx) for every Gamma_q factor of one identity
    side, all sharing one (q;q)_inf; each factor's value, error estimate and
    term count are those of gamma_q."""
    qq = pochhammer_inf(q, q, ctx)
    return lambda x: _gamma_q(x, q, ctx, qq)


# --- classical gamma (Spouge's approximation) -------------------------------

_SPOUGE_CACHE: dict = {}


def _spouge_coeffs(a: int):
    key = (a, mp.prec)
    cached = _SPOUGE_CACHE.get(key)
    if cached is not None:
        return cached
    coeffs = [mp.sqrt(2 * mp.pi)]
    for k in range(1, a):
        c = (mpf((-1) ** (k - 1)) / math.factorial(k - 1)
             * mp.power(a - k, k - mpf(1) / 2) * mp.e ** (a - k))
        coeffs.append(c)
    _SPOUGE_CACHE[key] = coeffs
    return coeffs


def classical_gamma(x, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Gamma(x) for real x via Spouge's series.

    Uses the recurrence Gamma(x) = Gamma(x+1)/x on (0,1) and the reflection
    formula only for x < 0 (poles at nonpositive integers raise PoleError).
    """
    with ctx.working():
        x = to_real(x)
        if x <= 0:
            if x == mp.floor(x):
                raise PoleError(f"gamma pole at nonpositive integer x={x}")
            return mp.pi / (mp.sin(mp.pi * x) * classical_gamma(1 - x, ctx))
        if x < 1:
            return classical_gamma(x + 1, ctx) / x
        a = int(1.26 * mp.dps) + 2
        coeffs = _spouge_coeffs(a)
        z = x - 1
        s = coeffs[0]
        for k in range(1, a):
            s += coeffs[k] / (z + k)
        return mp.power(z + a, z + mpf(1) / 2) * mp.exp(-(z + a)) * s


# --- Jackson q-integrals ------------------------------------------------------

@dataclass(frozen=True)
class QIntegrand:
    """An integrand for Jackson q-integration.

    ``support`` = (lo, hi): fn is identically zero outside [lo, hi], which
    lets the q-sum terminate exactly once the abscissae leave the support.
    Use lo=0 / hi=None for full-line support.
    """

    fn: Callable[[mpf], mpf]
    support: Tuple[float, Optional[float]] = (0.0, None)

    def __call__(self, x: mpf) -> mpf:
        lo, hi = self.support
        if x < lo or (hi is not None and x > hi):
            return mpf(0)
        return to_real(self.fn(x))


def _as_integrand(f) -> QIntegrand:
    return f if isinstance(f, QIntegrand) else QIntegrand(f)


_DECAY_WINDOW = 5  # consecutive decaying terms required before trusting a tail


def _geometric_sum(term_fn, ctx: PrecisionCtx, tol, max_terms,
                   what: str) -> SeriesValue:
    """Sum term_fn(n) for n >= 0 assuming eventual geometric decay, with an
    observed-ratio tail estimate (heuristic, so certified=False)."""
    s = mpf(0)
    prev = None
    ratios: list = []
    n = 0
    while n < max_terms:
        t = term_fn(n)
        if t is None:  # exact end of support
            return SeriesValue(s, mpf(0), n, True)
        s += t
        if prev is not None and prev != 0:
            ratios.append(abs(t) / abs(prev))
            if len(ratios) > _DECAY_WINDOW:
                ratios.pop(0)
        if (len(ratios) == _DECAY_WINDOW and max(ratios) < 1
                and abs(t) <= tol * max(abs(s), mpf(1))):
            r = max(ratios)
            return SeriesValue(s, abs(t) * r / (1 - r), n + 1, False)
        prev = t
        n += 1
    raise NonConvergenceError(
        f"{what}: no geometric decay within {max_terms} terms")


def jackson_integral_finite(f, c, q,
                            ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """int_0^c f(t) d_q t = c (1-q) sum_{n>=0} f(c q^n) q^n."""
    fn = _as_integrand(f)
    q, c = to_real(q), to_real(c)
    if not (0 < q < 1):
        raise QDomainError(f"jackson_integral_finite requires 0 < q < 1, got {q}")
    if c <= 0:
        raise QDomainError(f"jackson_integral_finite requires c > 0, got {c}")
    lo = to_real(fn.support[0])
    with ctx.working():
        def term(n):
            x = c * q ** n
            if lo > 0 and x < lo:
                return None
            return fn(x) * q ** n

        s = _geometric_sum(term, ctx, ctx.tail_tol(), ctx.max_terms,
                           "jackson_integral_finite")
        return (c * (1 - q)) * s


def jackson_integral_infinite(f, q,
                              ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """int_0^inf f(t) d_q t = (1-q) sum_{n in Z} f(q^n) q^n."""
    fn = _as_integrand(f)
    q = to_real(q)
    if not (0 < q < 1):
        raise QDomainError(f"jackson_integral_infinite requires 0 < q < 1, got {q}")
    lo = to_real(fn.support[0])
    hi = fn.support[1]
    with ctx.working():
        def pos_term(n):
            x = q ** n
            if lo > 0 and x < lo:
                return None
            return fn(x) * q ** n

        def neg_term(m):  # n = -m, m >= 1
            x = q ** (-m)
            if hi is not None and x > to_real(hi):
                return None
            return fn(x) * x

        pos = _geometric_sum(pos_term, ctx, ctx.tail_tol(), ctx.max_terms,
                             "jackson_integral_infinite (n >= 0)")
        neg = _geometric_sum(lambda m: neg_term(m + 1), ctx, ctx.tail_tol(),
                             ctx.max_terms, "jackson_integral_infinite (n < 0)")
        return (1 - q) * (pos + neg)


# --- classical series via acceleration ---------------------------------------

def _levin_sum(c, ratio_fn, ctx: PrecisionCtx) -> SeriesValue:
    """Levin-accelerated sum of t_0 = 1/c, t_(n+1) = t_n * ratio_fn(n), with
    every term built at the working precision whatever precision the caller
    is in."""
    # the transform reads at most _LEVIN_MAX_ORDER + 1 terms (kmax = len - 2)
    with ctx.working():
        terms = []
        t = 1 / to_real(c)
        for n in range(_LEVIN_MAX_ORDER + 2):
            terms.append(t)
            t = t * ratio_fn(n)
    return accelerate(terms, kind="levin-u", ctx=ctx)


# --- identity entries ---------------------------------------------------------

def _lhs_gamma_quotient(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    gq = _gamma_q_side(q, ctx)
    num = gq(b) * gq(1 - a) * gq(z) * gq(b - a - z)
    den = gq(b - a) * gq(a + z) * gq(1 - a - z)
    return num / den


def _rhs_thm51(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    gq = _gamma_q_side(q, ctx)
    pre = mp.power(1 - q, a + 1 - b)
    qa = qpow(q, a, ctx)
    t1 = (pre * (gq(b) * gq(z) / (gq(b - a) * gq(a + z)))
          * phi([qpow(q, a + 1 + z - b, ctx), qa],
                [qpow(q, a + z, ctx)], q, qpow(q, b - a, ctx), ctx))
    t2 = ((gq(1 - a) * gq(b - a - z) / (gq(1 - b) * gq(b + 1 - a - z)))
          * phi([qpow(q, b - a, ctx), qpow(q, b - z - a, ctx)],
                [qpow(q, b + 1 - a - z, ctx)], q, qpow(q, 1 - b, ctx), ctx))
    return t1 + t2 - pre


def _rhs_eq58(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    gq = _gamma_q_side(q, ctx)
    pre = mp.power(1 - q, a + 1 - b)
    t1 = ((gq(b) * gq(z) / (gq(a) * gq(z + 1)))
          * phi([qpow(q, b - a, ctx), qpow(q, z, ctx)],
                [qpow(q, 1 + z, ctx)], q, qpow(q, a, ctx), ctx))
    t2 = (pre * (gq(1 - a) * gq(b - a - z) / (gq(1 - a - z) * gq(b - a)))
          * phi([qpow(q, 1 - z, ctx), qpow(q, 1 - b, ctx)],
                [qpow(q, 1 - a - z, ctx)], q, qpow(q, b - a, ctx), ctx))
    return t1 + t2 - pre


def _jackson_2phi1(v1, v2, u, s, q, ctx: PrecisionCtx) -> SeriesValue:
    """int_0^1 t^(s-1) (tq;q)_inf (tu;q)_inf / ((t v1;q)_inf (t v2;q)_inf) d_q t.

    At the node t = q^n each (t c;q)_inf is (c;q)_inf / (c;q)_n, so the
    Jackson sum is (1-q) (q;q)_inf (u;q)_inf / ((v1;q)_inf (v2;q)_inf)
    times 2phi1(v1, v2; u; q, q^s) (Gasper & Rahman, section 1.11), with the
    certified tail bounds of both. ``jackson_integral_finite`` of the
    integrand is the oracle in the tests.
    """
    return ((1 - q) * prodquot([q, u], [v1, v2], q, ctx)
            * phi([v1, v2], [u], q, qpow(q, s, ctx), ctx))


def _rhs_thm53(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    gq = _gamma_q_side(q, ctx)
    pre = mp.power(1 - q, a + 1 - b)
    int_f = _jackson_2phi1(qpow(q, 1 - z, ctx), qpow(q, 1 - b, ctx),
                           qpow(q, 1 - a - z, ctx), b - a, q, ctx)
    int_g = _jackson_2phi1(qpow(q, a + 1 + z - b, ctx), qpow(q, a, ctx),
                           qpow(q, a + z, ctx), b - a, q, ctx)
    t1 = (gq(1 - a) * gq(b - a - z)
          / (gq(b - a) * gq(1 - z) * gq(1 - b))) * int_f
    t2 = (gq(b) * gq(z)
          / (gq(b - a) * gq(a + 1 + z - b) * gq(a))) * int_g
    return t1 + t2 - pre


def _lhs_eq55(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    b, z = p["b"], p["z"]
    return SeriesValue.of(classical_gamma(1 - b, ctx)
                          * classical_gamma(b + 1 - z, ctx)
                          / classical_gamma(1 - z, ctx))


def _rhs_eq55(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    b, z = p["b"], p["z"]
    # t_n = (b)_n/n! * (b-z)/(b-z+n)
    return _levin_sum(1, lambda n: ((b + n) / (n + 1)
                                    * (b - z + n) / (b - z + n + 1)),
                      ctx)


def _lhs_eq56(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    x, y = p["x"], p["y"]
    return SeriesValue.of(classical_gamma(x, ctx) * classical_gamma(y, ctx)
                          / classical_gamma(x + y, ctx))


def _rhs_eq56(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    x, y = p["x"], p["y"]
    # u_n = prod_{k<=n}(k-x)/n! * 1/(n+y)
    return _levin_sum(y,
                      lambda n: ((n + 1 - x) / (n + 1) * (n + y) / (n + 1 + y)),
                      ctx)


def _lhs_eq57(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z = p["a"], p["b"], p["z"]
    num = (classical_gamma(a, ctx) * classical_gamma(z, ctx)
           * classical_gamma(1 - a, ctx) * classical_gamma(b - a - z, ctx))
    den = (classical_gamma(a + z, ctx) * classical_gamma(b - a, ctx)
           * classical_gamma(1 - a - z, ctx))
    return SeriesValue.of(num / den)


def _rhs_eq57(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z = p["a"], p["b"], p["z"]
    # t_n = (b-a)_n/(n! (n+z))
    return _levin_sum(z,
                      lambda n: ((b - a + n) / (n + 1) * (n + z) / (n + 1 + z)),
                      ctx)


def _lhs_eq59(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    g34 = classical_gamma(mpf(3) / 4, ctx)
    return SeriesValue.of(mp.power(mp.pi, mpf(3) / 2)
                          / (2 * mp.sqrt(2) * g34 ** 2))


def _rhs_eq59(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    # t_n = (1/2)_n/(n! (4n+1))
    half = mpf(1) / 2
    return _levin_sum(1,
                      lambda n: ((n + half) / (n + 1)
                                 * (4 * n + 1) / (4 * n + 5)),
                      ctx)


def _lhs_eq512(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z = p["a"], p["b"], p["z"]
    num = (classical_gamma(b, ctx) * classical_gamma(1 - a, ctx)
           * classical_gamma(z, ctx) * classical_gamma(b - a - z, ctx))
    den = classical_gamma(a + z, ctx) * classical_gamma(1 - a - z, ctx)
    return SeriesValue.of(num / den)


def _rhs_eq512(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z = p["a"], p["b"], p["z"]
    beta = (classical_gamma(b - a, ctx) * classical_gamma(a - b + 1, ctx)
            / classical_gamma(1, ctx))
    bracket = (classical_gamma(1 - a, ctx) * classical_gamma(b - a - z, ctx)
               / (classical_gamma(1 - z, ctx) * classical_gamma(1 - b, ctx))
               + classical_gamma(b, ctx) * classical_gamma(z, ctx)
               / (classical_gamma(a, ctx)
                  * classical_gamma(a + 1 + z - b, ctx)))
    return SeriesValue.of(bracket * beta)


# --- domains & samplers -------------------------------------------------------

def _domain_strip(require_b_lt_1=False):
    """0 < z < b - a < 1 with a > 0 (the common q-gamma strip)."""

    def check(p: QPoint):
        v = []
        a, b, z = p["a"], p["b"], p["z"]
        if not a > 0:
            v.append("a > 0 violated")
        if not (0 < z):
            v.append("z > 0 violated")
        if not (z < b - a):
            v.append("z < b - a violated")
        if not (b - a < 1):
            v.append("b - a < 1 violated")
        if require_b_lt_1 and not (b < 1):
            v.append("b < 1 violated")
        return v

    return check


def _strip_sampler(q_lo, q_hi):
    def sample(rng: SplitMix64) -> QPoint:
        q = rng.uniform(q_lo, q_hi)
        a = rng.uniform(0.05, 0.35)
        b = rng.uniform(a + 0.2, 0.95)
        z = rng.uniform(0.05, (b - a) - 0.05)
        return QPoint(q, {"a": a, "b": b, "z": z})

    return sample


_PLACEHOLDER_Q = 0.5  # classical (q -> 1 limit) identities ignore q


def _domain_eq55(p: QPoint):
    v = []
    if not (0 < p["z"] < p["b"] < 1):
        v.append("0 < z < b < 1 violated")
    return v


def _sample_eq55(rng: SplitMix64) -> QPoint:
    b = rng.uniform(0.2, 0.9)
    z = rng.uniform(0.05, b - 0.05)
    return QPoint(_PLACEHOLDER_Q, {"b": b, "z": z})


def _domain_eq56(p: QPoint):
    v = []
    if not (0 < p["x"] < 1):
        v.append("0 < x < 1 violated")
    if not p["y"] > 0:
        v.append("y > 0 violated")
    return v


def _sample_eq56(rng: SplitMix64) -> QPoint:
    return QPoint(_PLACEHOLDER_Q,
                  {"x": rng.uniform(0.1, 0.9), "y": rng.uniform(0.1, 1.5)})


def _sample_strip_classical(rng: SplitMix64) -> QPoint:
    a = rng.uniform(0.05, 0.35)
    b = rng.uniform(a + 0.2, 0.95)
    z = rng.uniform(0.05, (b - a) - 0.05)
    return QPoint(_PLACEHOLDER_Q, {"a": a, "b": b, "z": z})


def _domain_none(p: QPoint):
    return []


def _sample_fixed(rng: SplitMix64) -> QPoint:
    return QPoint(_PLACEHOLDER_Q, {})


def register_qgamma_identities() -> list:
    return [
        IdentityEntry(
            id="thm-5.1",
            paper_ref="Theorem 5.1, Eq. (5.4)",
            param_names=("a", "b", "z"),
            domain_desc="0 < z < b - a < 1, a > 0, b < 1",
            default_tol=QGAMMA_TOL,
            domain=_domain_strip(require_b_lt_1=True),
            lhs=_lhs_gamma_quotient,
            rhs=_rhs_thm51,
            sampler=_strip_sampler(0.05, 0.7),
        ),
        IdentityEntry(
            id="eq-5.8",
            paper_ref="Eq. (5.8), q-analogue behind Theorem 5.2",
            param_names=("a", "b", "z"),
            domain_desc="0 < z < b - a < 1, a > 0",
            default_tol=QGAMMA_TOL,
            domain=_domain_strip(),
            lhs=_lhs_gamma_quotient,
            rhs=_rhs_eq58,
            sampler=_strip_sampler(0.05, 0.7),
        ),
        IdentityEntry(
            id="thm-5.3",
            paper_ref="Theorem 5.3, Eq. (5.10)",
            param_names=("a", "b", "z"),
            domain_desc="0 < z < b - a < 1, a > 0",
            default_tol=QGAMMA_TOL,
            domain=_domain_strip(),
            lhs=_lhs_gamma_quotient,
            rhs=_rhs_thm53,
            sampler=_strip_sampler(0.1, 0.55),
        ),
    ]


def classical_limit_identities() -> list:
    return [
        IdentityEntry(
            id="eq-5.5",
            paper_ref="Eq. (5.5), q -> 1 corollary of Theorem 5.1 at a = 0",
            param_names=("b", "z"),
            domain_desc="0 < z < b < 1 (q unused)",
            default_tol=CLASSICAL_TOL,
            domain=_domain_eq55,
            lhs=_lhs_eq55,
            rhs=_rhs_eq55,
            sampler=_sample_eq55,
        ),
        IdentityEntry(
            id="eq-5.6",
            paper_ref="Eq. (5.6), beta function series B(x, y)",
            param_names=("x", "y"),
            domain_desc="0 < x < 1, y > 0 (q unused)",
            default_tol=CLASSICAL_TOL,
            domain=_domain_eq56,
            lhs=_lhs_eq56,
            rhs=_rhs_eq56,
            sampler=_sample_eq56,
        ),
        IdentityEntry(
            id="eq-5.7",
            paper_ref="Theorem 5.2, Eq. (5.7)",
            param_names=("a", "b", "z"),
            domain_desc="0 < z < b - a < 1, a > 0 (q unused)",
            default_tol=CLASSICAL_TOL,
            domain=_domain_strip(),
            lhs=_lhs_eq57,
            rhs=_rhs_eq57,
            sampler=_sample_strip_classical,
        ),
        IdentityEntry(
            id="eq-5.9",
            paper_ref="Eq. (5.9), remark after Theorem 5.2",
            param_names=(),
            domain_desc="no parameters (q unused)",
            default_tol=CLASSICAL_TOL,
            domain=_domain_none,
            lhs=_lhs_eq59,
            rhs=_rhs_eq59,
            sampler=_sample_fixed,
        ),
        IdentityEntry(
            id="eq-5.12",
            paper_ref="Eq. (5.12), q -> 1 corollary of Theorem 5.3",
            param_names=("a", "b", "z"),
            domain_desc="0 < z < b - a < 1, a > 0 (q unused)",
            default_tol=CLASSICAL_TOL,
            domain=_domain_strip(),
            lhs=_lhs_eq512,
            rhs=_rhs_eq512,
            sampler=_sample_strip_classical,
        ),
    ]
