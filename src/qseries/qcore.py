"""Arbitrary-precision q-series primitives.

Powers of q (fractional exponents included), q-Pochhammer symbols for all
integer orders, unilateral and bilateral basic hypergeometric series, and
convergence acceleration for slowly convergent classical series.

Truncation rule, with tol = 10**-digits. A product quotient splits each
(x;q)_inf at theta = min(1/2, 3(1-q)): a head of explicit factors
1 - x q^n while |x q^n| > theta, which holds every factor that can vanish,
and Euler's series (r;q)_inf = sum_k (-r)^k q^(k(k-1)/2) / (q;q)_k on the
remainder r = x q^n0 (Gasper & Rahman, Basic Hypergeometric Series,
1.3.16). Its terms are t_(k+1) = t_k s c_k, s = -r/(1-q), |s| <= 3, c_k =
q^k / (1 + q + ... + q^k) <= 1/(k+1), so |t_k| <= 3^k / k! and the tail
from term N is at most |t_N| / (1 - rho_N), rho_N = |s| c_N. One pass at
R = max |r| finds the first N where that bound meets tol 2^-10 / #series,
and every series of the quotient is summed to N. As |(r;q)_inf| >= e^-6,
the relative truncation error is below tol / 2. terms_used counts the head
factors and N terms per series; a quotient whose heads alone need more
than max_terms factors, at least log(theta/|x|) / log(q) each, is refused
up front, and one whose N passes the cap before any series term.

A phi/psi series, t_(k+1) = arg r(q^k) t_k, r(x) = prod (1 - u x) / prod
(1 - b x) over its nums u and dens b (q is one of phi's), closes its tail
at x = q^n as t T(x), T(x) = 1 + arg r(x) T(q x) (Gasper & Rahman, 1.2),
whose Taylor terms sigma_k = tau_k x^k obey sigma_k (1 - arg q^k) = b_k +
sum_(j=1..p) (a_j arg q^(k-j) - b_j) sigma_(k-j), a_j and b_j the
coefficients of w^j in prod (1 - u x w) and prod (1 - b x w); K = 1 is the
second-order closure t / (1 - arg) (1 + d x arg / (1 - q arg)), d = sum b
- sum u. As |T| <= e^(L1 + L2) / (1 - |arg|) on |w| = y, L1 = |d| y /
(1-q), L2 = sum c^2 y^2 / (2 (1 - q^2) (1 - |c| y)), Cauchy's estimate
puts V = s + t sum_(k<=K) sigma_k within B = |t| (x/y)^(K+1) e^(L1 + L2)
/ ((1 - x/y) (1 - |arg|)) for x < y < 1 / max |c| (Mezzarobba & Salvy, J.
Symbolic Comput. 45, 2010). need(n), the least real K + 1 with B <= tol
max(|V1|, tol), V1 = s + t / (1 - arg) (or V of a close that fell short,
where less), is minimised over y; the sum stops at the first n where
need(n) <= n + 1 and need(n - 1) <= min(n + 1, need(n) + 2), once B <= tol
max(|V|, tol) at K = ceil(need) - 1. That is terms_used = n + K + 1 <=
max_terms + 1, about 2 sqrt(log(1/tol) / log(1/q)) where the terms do not
shrink: 3,852 over the 235 series of the seed-1 campaign at 5 points,
1,186 for eq-4.2's phi at q = 0.999. The Levin limits carry only a
heuristic, non-certified estimate.

Every product and series loop runs in one fixed point, as mpmath's own
hypergeometric summation does: q^n, the parameters, the factors and the
sums are Python ints scaled by 2^wp, wp = prec + 32 (19 guard bits for
log2 of the default 500,000-term cap, 13 to spare) plus log2 of the
largest |parameter| above 1. Each carries a radius, in midpoint-radius
(ball) arithmetic (van der Hoeven, "Ball arithmetic", 2009; Johansson,
"Arb", IEEE TC 66, 2017): an int R in the units of its midpoint M, the
exact value of the same expression in the rounded inputs lying within M
+- R. Every radius is rounded up, by one rule per operation:
- an mpf read into the fixed point has radius 1;
- a floored product of balls (a, r) and (b, s) at 2^-wp has radius (|a| s
  + |b| r + r s) 2^-wp + 1, an exact sum the sum of the radii, and a
  quotient a / b, b's ball clear of 0, (r |b| + |a| s) / (|b| (|b| - s))
  + 1 in the quotient's units;
- a term with a relative radius e (units of 2^-wp) times a ball of
  relative radius f has e + f + e f 2^-wp; a factor of at least 1/2 with a
  radius r <= 2^wp / 12 (every one here: r 2^-wp < 2^-30 as wp >= prec +
  32 + log2 |x|) has a relative radius of at most 3 r, factors whose
  relative radii sum to f < 2^wp have f + f^2 2^-wp together, and a floor
  to a term of at least 2^wp adds 2 + e 2^-wp;
- a rounding to mpf at prec adds 2^-prec of its result.
In products and series alike, 1 - x q^n is exactly 0 at x's zero index n
(x exactly q^-n). A den's is a PoleError before any cap screen or factor,
unless a series ends first at a num's. A factor whose ball, widened by
the rounding (n + 2) |x q^n| 2^-prec of the same expression in libmpf,
reaches 0 is recomputed in libmpf at prec, q^n by n roundings: exactly 0
there, it is a zero too, else it has their radius. A zero is 0 over the
line (of a product, of a series' later terms) and a PoleError under it; a
series factor's or product den's ball still at 0 is NumericalBreakdownError.

A product holds its heads as balls P 2^E, P renormalised to wp + 2 bits
after each factor, and Euler's terms in absolute units, T_(k+1) = T_k S
C_k >> 2wp, C_k = q^k 2^wp / (1 + ... + q^k), so that 1 - q^(k+1) keeps
its relative precision as q -> 1. The pass that finds N also carries one
radius for the terms of all the quotient's series, from the largest |s|
and radius of s and |T_k| <= tau_k + radius; each sum's ball adds the
truncation tail to that radius. The estimate is the radius of the
quotient of the two products' balls, plus its floor and its rounding.

The phi/psi loop (_ratio_kernel) gives each term its own scale 2^-(wp +
sh), sh of either sign, so that it keeps about wp bits however small or
large it gets; a step is T A prod(1 - x q^n) // prod(1 - y q^n). Its stop
test runs in doubles from the ints' logs and bit lengths, within margins
of 2^-28 of their sizes, screened from bit lengths, and _never_stops
refuses a series that cannot stop within the cap. Each term carries a
relative radius: a head step's from its factors' balls, a bulk step's one
constant, as every |x q^n| <= 1/2 there and q^n's radius below min(3n, 3
/ (1 - q - 2^-wp)) 2^-wp; an argument known only to within a relative
radius (psi's w) adds it at every step and to 1/(1 - arg). The sum keeps
the scale 2^-(wp + ss) of its largest term, its radius formed at the stop
from sum (|t| + 1) and t's relative radius, which never falls. The
estimate is B at the upper ends of t's, x's and arg's balls plus the
radius of V (_tail_sum's, in ints by the rules above) and its rounding to
mpf. Where that radius passes 2^-4 of the limit, the series is rerun once
with wp raised by the bits it says were lost. The Levin sweep (_levin_u)
rounds each s_j/omega_j and 1/omega_j once in libmpf, forms every order's
sums exactly in ints, rounds once per order and returns accelerate's pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import ceil, exp, expm1, floor, inf, log, log1p, prod
from operator import mul, sub

# unused here; perfbench's tracer counts mpmath binomial calls by this name
from mpmath import binomial, mp, mpf  # noqa: F401
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_ge, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_pos, mpf_rdiv_int,
                          mpf_shift, mpf_sub, round_ceiling, to_float)
from mpmath.libmp import round_nearest as RN

from .errors import (
    CapExceededError,
    DivergenceError,
    InsufficientTermsError,
    NumericalBreakdownError,
    PoleError,
    QDomainError,
)
from .params import ParamExpr, Q, QPoint, _check_q, _values
from .precision import DEFAULT_CTX, PrecisionCtx, to_real

__all__ = [
    "SeriesValue",
    "QPoint",
    "qpow",
    "pochhammer_inf",
    "pochhammer_n",
    "prodquot",
    "phi",
    "psi_bilateral",
    "accelerate",
    "sum_with_ratio_bound",
]


@dataclass(frozen=True)
class SeriesValue:
    """An evaluated sum/product with a truncation-error estimate.

    ``certified`` is True only when ``err_estimate`` comes from a geometric
    or monotone tail bound (never from a heuristic).
    """

    value: mpf
    err_estimate: mpf
    terms_used: int
    certified: bool

    # Error propagation so identity evaluators can assemble values from
    # certified pieces without losing the error bookkeeping: each operation
    # bounds what its operands' errors can do to the exact result, and adds
    # its own rounding, ldexp(abs(value), -prec), to err, in libmpf on raw
    # mpfs rounded as the mpf expression in its comment. Keep a SeriesValue
    # left of a plain mpf: mpf * sv first has mpmath try to convert sv,
    # which fails only after formatting repr(sv) into a TypeError message,
    # before Python falls back to the same __rmul__ or __radd__: at 50
    # digits mpf * sv takes about three times as long as sv * mpf.

    @staticmethod
    def of(x) -> "SeriesValue":
        """x as an exact SeriesValue, or x itself if it is one."""
        if isinstance(x, SeriesValue):
            return x
        return SeriesValue(to_real(x), mpf(0), 0, True)

    def _balls(self, other):  # o = of(other); a, ea, b, eb raw; mp.prec
        o = self.of(other)
        return (o, self.value._mpf_, self.err_estimate._mpf_, o.value._mpf_,
                o.err_estimate._mpf_, mp.prec)

    def _result(self, o, value, err, p) -> "SeriesValue":
        return SeriesValue(mp.make_mpf(value), mp.make_mpf(mpf_add(
            err, mpf_shift(mpf_abs(value), -p), p, RN)),
            self.terms_used + o.terms_used, self.certified and o.certified)

    def __add__(self, other):
        o, a, ea, b, eb, p = self._balls(other)  # a + b, ea + eb
        return self._result(o, mpf_add(a, b, p, RN), mpf_add(ea, eb, p, RN), p)

    __radd__ = __add__

    def __neg__(self):
        return SeriesValue(mp.make_mpf(mpf_neg(self.value._mpf_, mp.prec, RN)),
                           self.err_estimate, self.terms_used, self.certified)

    def __sub__(self, other):
        return self + (-self.of(other))

    def __rsub__(self, other):
        return self.of(other) + (-self)

    def __mul__(self, other):
        o, a, ea, b, eb, p = self._balls(other)  # |a| eb + |b| ea + ea eb
        err = mpf_add(mpf_mul(mpf_abs(a, p, RN), eb, p, RN),
                      mpf_mul(mpf_abs(b, p, RN), ea, p, RN), p, RN)
        return self._result(o, mpf_mul(a, b, p, RN),
                            mpf_add(err, mpf_mul(ea, eb, p, RN), p, RN), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Within (e_a + |a/b| e_b) / (|b| - e_b) over the balls a +- e_a."""
        o, a, ea, b, eb, p = self._balls(other)
        if b == fzero:
            raise PoleError("division by an exactly-zero series value")
        if mpf_ge(eb, mpf_abs(b, p, RN)):  # eb >= abs(b)
            raise NumericalBreakdownError(
                "a divisor cannot be told from 0 within its error estimate")
        val = mpf_div(a, b, p, RN)  # (ea + abs(val)*eb) / (abs(b) - eb)
        return self._result(o, val, mpf_div(
            mpf_add(ea, mpf_mul(mpf_abs(val), eb, p, RN), p, RN),
            mpf_sub(mpf_abs(b, p, RN), eb, p, RN), p, RN), p)

    def __rtruediv__(self, other):
        return self.of(other) / self


def _series_names(upper, lower, *rest):
    """The upper and lower parameters' r_phi_s names a1.., b1.., then rest."""
    return chain((f"a{i}" for i in range(1, len(upper) + 1)),
                 (f"b{j}" for j in range(1, len(lower) + 1)), rest)


def qpow(q, e, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """q**e for q in (0,1) and finite real e: 1 and q at e = 0 and 1, else
    exp(e*ln q)."""
    with ctx.working():
        q, e = to_real(q), to_real(e)
        _check_q(q, [e], ["e"])
        return mpf(1) if e == 0 else q if e == 1 else mp.exp(e * mp.log(q))


def pochhammer_inf(a, q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """(a;q)_inf = prod_{n>=0} (1 - a q^n), certified as prodquot([a], []).
    Returns exact 0 when some factor vanishes."""
    return prodquot([a], [], q, ctx)


def _int_within_cap(x, what, ctx: PrecisionCtx) -> int:
    """x as an int: QDomainError unless x is an integer, CapExceededError
    when the |x| factors it asks for exceed ctx.max_terms."""
    if not (isinstance(x, (int, float, mpf)) and mp.isfinite(x)
            and x == int(x)):
        raise QDomainError(f"{what} must be an integer, got {x!r}")
    if abs(x) > ctx.max_terms:
        raise CapExceededError(f"{what} = {x} exceeds the cap of "
                               f"{ctx.max_terms} factors")
    return int(x)


def pochhammer_n(a, q, n: int, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """(a;q)_n for any integer n, as (a;q)_inf / (a q^n;q)_inf, which
    prodquot telescopes to prod_{k=0}^{n-1}(1 - a q^k) for n >= 0 and to
    1 / prod_{k=1}^{|n|}(1 - a q^-k) for n < 0, where a vanishing factor
    raises PoleError (the symbol is infinite)."""
    n = _int_within_cap(n, "(a;q)_n index n", ctx)
    with ctx.working():
        a = ParamExpr.of(a)
        return prodquot([a], [a * ParamExpr(1, n)], q, ctx)


class _DenominatorPole(PoleError):
    """The factor 1 - b q^n of a den b of prodquot or _ratio_series is 0."""

    def __init__(self, b, n):
        super().__init__(f"pole: vanishing denominator factor "
                         f"1 - ({b})*q^{n}")
        self.b, self.n = b, n


def _exact_pole(dens, zeros, m):
    """Raise _DenominatorPole at the first den exactly q^-n, n its zero index
    in zeros[m:], unless a num's j < n in zeros[:m] ends the sum at term j."""
    end = min([j for j in zeros[:m] if j is not None], default=inf)
    for y, n in zip(dens, zeros[m:]):
        if n is not None and n <= end:
            raise _DenominatorPole(y, n)


def _telescope(xs, ys):
    """Pair each den y with a num x of equal coefficient and an integer gap
    k = x.exponent - y.exponent, least |k| first. k = 0 cancels; otherwise
    (x;q)_inf / (x q^-k;q)_inf is (x;q)_-k over the line for k < 0 and
    (y;q)_k under it for k > 0. Returns the unpaired nums and dens and the
    finite products as (start, count, over)."""
    xs, rest, finite = list(xs), [], []
    for y in ys:
        gaps = [(x, x.exponent - y.exponent) for x in xs
                if x.coefficient == y.coefficient]
        gaps = [(x, int(k)) for x, k in gaps if k.denominator == 1]
        if not gaps:
            rest.append(y)
            continue
        x, k = min(gaps, key=lambda gap: abs(gap[1]))
        xs.remove(x)
        if k:
            finite.append((x, -k, True) if k < 0 else (y, k, False))
    return xs, rest, finite


def prodquot(nums, dens, q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """prod (x;q)_inf over nums divided by the same over dens, each x a real
    or a monomial (ParamExpr) in q. _telescope cancels and telescopes the
    pairs it can, and a factor 1 - q^-n q^n is decided from exponents: exact
    0 over the line, PoleError under it. Each infinite product left is its
    head of factors 1 - x q^n while |x q^n| > theta = min(1/2, 3(1-q)),
    times Euler's series on the remainder, every series summed to the one
    N its largest remainder needs (module docstring). Every factor that can
    vanish lies in a head: one that is 0 as a value makes the value exact 0
    over the line and raises PoleError under it. terms_used counts the
    finite factors, the head factors and N terms for each series."""
    with ctx.working():
        q = to_real(q)
        _check_q(q, [*nums, *dens], _series_names(nums, dens))
        return _quotient([*map(ParamExpr.of, nums)],
                         [*map(ParamExpr.of, dens)], q, ctx)


def _cap_error(ctx: PrecisionCtx) -> CapExceededError:
    return CapExceededError(f"(a;q)_inf cannot be certified within "
                            f"{ctx.max_terms} factors and terms")


def _ln(x) -> float:
    """log|x| as a double from the raw nonzero finite mpf x's mantissa and
    exponent, at any magnitude: within a few 2^-52 of log|man| + |exp| ln 2."""
    return log(x[1]) + x[2] * _LN2


def _log_inv_q(q_, iq, wp) -> float:
    """log(1/q) as a double from the raw mpf q and iq = 2^wp / (1-q) rounded
    up: from 1 - q while q >= 2^-26, from q's mantissa and exponent below,
    where 1 - q as a double loses q's digits; within 2^-30 either way."""
    of = (1 << wp) / iq
    return -log1p(-of) or 5e-324 if of < 1 - 2 ** -26 else -_ln(q_)


def _heads_beyond_cap(runs, theta_, lq, cap) -> bool:
    """True where the runs surely take more than cap factors. A head takes
    at least log(|x|/theta) / log(1/q) - 1 of them, one less for a head that
    stops one early where |x q^n| rounds to theta; the logs are doubles
    (_ln, _log_inv_q), and a margin of 2^-20 of the total covers their
    rounding."""
    need = sum(count for _, _, count, _ in runs if count is not None)
    need += sum(max(0, (_ln(v) - _ln(theta_)) / lq - 1)
                for _, v, count, _ in runs if count is None and v[1])
    return need * (1 - 2 ** -20) > cap


# bits of the fixed point beyond the working precision: 19 for log2 of the
# default 500,000-term cap, 13 to spare
_GUARD_BITS = 32
_LN2, _LN10 = log(2), log(10)


def _working_bits(prec, raws) -> int:
    """wp for the raw mpf parameters: a parameter |x| > 1 multiplies q^n's
    radius by |x|, so as many more bits."""
    return prec + _GUARD_BITS + max([0, *map(_mag, raws)])


def _fixed(x, wp) -> int:
    """The raw mpf x as an int X with |X - x 2^wp| < 1."""
    sign, man, exp, _ = x
    v = man << exp + wp if exp + wp >= 0 else man >> -exp - wp
    return -v if sign else v


def _mag(x) -> int:
    """e with 2^(e-1) <= |x| < 2^e, for a raw nonzero finite mpf x."""
    return x[2] + x[3]


def _shift(x, s) -> int:
    """x 2^-s, floored: every change of scale by a shift of either sign."""
    return x >> s if s >= 0 else x << -s


def _ceil_shift(x, s) -> int:
    """x 2^-s rounded up: every radius's change of scale."""
    return -(-x >> s) if s >= 0 else x << -s


def _rel(e, f, wp) -> int:
    """The relative radius of a product of balls of relative radii e and f,
    all in units of 2^-wp."""
    return e + f - (-e * f >> wp)


def _inv_one_minus(x, wp, e=0) -> int:
    """2^wp / (1 - |x| (1 + e 2^-wp)) rounded up, for the raw mpf x and a
    relative radius e of x, |x| (1 + e 2^-wp) < 1: the upper end over x's
    ball."""
    _, xm, xe, _ = x
    return -((-1 << 2 * wp - xe) // ((1 << wp - xe) - xm * ((1 << wp) + e)))


def _factor(XQ, r, x, n, zero, q_, prec, wp):
    """The ball of 1 - x q^n at 2^-wp from the ball (XQ, r) of x q^n, x the
    raw mpf: (0, 0) at n = zero, x's zero index. Where it may reach 0, within
    r and the rounding (n + 2) |x q^n| 2^-prec of the same expression in
    libmpf, it is recomputed at prec, q^n by n roundings: (0, 0) where 0."""
    if n == zero:
        return 0, 0
    F = (1 << wp) - XQ
    if abs(F) > r + (abs(XQ) * (n + 2) >> prec):
        return F, r
    qn = fone
    for _ in range(n):
        qn = mpf_mul(q_, qn, prec, RN)
    xq = mpf_mul(x, qn, prec, RN)
    f = mpf_sub(fone, xq, prec, RN)
    if f == fzero:
        return 0, 0
    F = _fixed(f, wp)
    # q^n's n roundings and x q^n's, within (n + 2) |x q^n| 2^-prec while
    # (n + 2)^2 < 2^prec, the subtraction's and F's own floor
    return F, _ceil_shift((abs(XQ) + r) * (n + 2) + abs(F) + 1, prec) + 1


def _times(P, E, R, F, rF, wp):
    """The ball P 2^E, radius R in its units, times the ball F 2^-wp, radius
    rF, renormalised to wp + 2 bits."""
    M, R = P * F, abs(P) * rF + abs(F) * R + R * rF
    s = M.bit_length() - wp - 2
    if s < 0:
        return M << -s, E + s - wp, (R << -s) + 1
    return M >> s, E + s - wp, -(-R >> s) + 1


def _head(P, E, R, x, zero, count, Q, theta, q_, prec, wp):
    """The ball P 2^E, radius R, times the factors 1 - x q^n, x the raw mpf
    of zero index zero, from n = 0, count of them, or while |x q^n| > theta
    2^-wp where count is None, leaving out each that is 0. Returns the
    product as a ball P 2^E, the number of factors, the ball of x q^n past
    the last one at 2^-wp, and the first n whose factor is 0 (or None)."""
    X, QN, rQ, n, first_zero = _fixed(x, wp), 1 << wp, 0, 0, None
    while True:
        XQ = X * QN >> wp
        r = -(-(abs(X) * rQ + QN + rQ) >> wp) + 1
        if n == count or (count is None and abs(XQ) <= theta):
            return P, E, R, n, XQ, r, first_zero
        F, rF = _factor(XQ, r, x, n, zero, q_, prec, wp)
        if F:
            P, E, R = _times(P, E, R, F, rF, wp)
        elif first_zero is None:
            first_zero = n
        rQ = -(-(rQ * Q + QN + rQ) >> wp) + 1
        QN = QN * Q >> wp
        n += 1


def _euler_terms(big, rs, Q, K, room, wp):
    """The shared c_n = q^n / (1 + q + ... + q^n) 2^wp, n < N, of Euler's
    series for every s = -r / (1-q) whose ball at 2^-wp has radius at most
    rs and upper end at most big, N the first n <= room where tau_n / (1 -
    rho_n) meets 1/K, tau_n >= e_n R^n and rho_n >= |s| c_n from the upper
    ends of the balls; with the radius of every such series' sum to N, its
    tail included, or None past room. A term's radius comes from its
    predecessor's, |T| <= tau + radius, and the balls of s and c_n."""
    one, cs = 1 << wp, []
    QN, G, rQ, rG = one, one, 0, 0
    tau, rT, rad, kb = one, 0, 0, K.bit_length()
    for n in range(room + 1):
        C = (QN << wp) // G
        # the quotient of the balls q^n and G, as QN / G <= (C + 1) 2^-wp
        rC = -(-((rQ << wp) + (C + 1) * rG) // (G - rG)) + 1
        CU = C + rC
        bc = big * CU
        if tau.bit_length() + kb <= wp + 2:
            rho = (bc >> wp) + 1
            if rho < one and tau * K <= one - rho:
                return cs, rad - (-tau << wp) // (one - rho)
        cs.append(C)
        rad += rT
        rT = -(-(rT * bc + (tau + rT) * (rs * CU + big * rC)) >> 2 * wp) + 1
        tau = -(-tau * bc >> 2 * wp)
        rQ = -(-(rQ * Q + QN + rQ) >> wp) + 1
        QN = QN * Q >> wp
        G, rG = G + QN, rG + rQ
    return None


def _quotient(nums, dens, q, ctx: PrecisionCtx) -> SeriesValue:
    """prodquot of checked monomials, at the precision in force."""
    nums, dens, finite = _telescope(nums, dens)
    _exact_pole(dens, [y.zero_index for y in dens], 0)
    # q and the values rounded to the working precision first
    prec, q = mp.prec, +q
    theta = min(mpf(0.5), 3 * (1 - q))
    runs = (finite + [(x, None, True) for x in nums]
            + [(y, None, False) for y in dens])
    runs = [(x, mpf_pos(v._mpf_, prec, RN), n, over) for (x, n, over), v
            in zip(runs, _values([x for x, _, _ in runs], q))]
    q_, theta_ = q._mpf_, theta._mpf_
    wp = _working_bits(prec, [v for _, v, _, _ in runs])
    one, Q, iq = 1 << wp, _fixed(q_, wp), _inv_one_minus(q_, wp)
    if _heads_beyond_cap(runs, theta_, _log_inv_q(q_, iq, wp),
                         ctx.max_terms):
        raise _cap_error(ctx)
    th = _fixed(theta_, wp)
    # the numerator and denominator products as balls P 2^E
    parts = dict.fromkeys((True, False), (1 << wp + 1, -wp - 1, 0))
    used, zero, series = 0, False, []
    for x, v, count, over in runs:
        P, E, R, n, XQ, r, first = _head(*parts[over], v, x.zero_index,
                                         count, Q, th, q_, prec, wp)
        if first is not None and not over:
            raise _DenominatorPole(x if count is not None else mp.make_mpf(v),
                                   first)
        parts[over], used = (P, E, R), used + n
        zero = zero or first is not None
        if count is None:
            series.append((XQ, r, over))
    if used > ctx.max_terms:
        raise _cap_error(ctx)
    if series:
        # the balls of s = -r / (1-q) 2^wp, |s| <= 3, from r's and iq's
        ss = [(-XQ * iq >> wp, _ceil_shift(abs(XQ) + (iq + 1) * r, wp) + 1)
              for XQ, r, _ in series]
        K = 10 ** ctx.digits * len(ss) << 10
        found = _euler_terms(max(abs(s) + r for s, r in ss),
                             max(r for _, r in ss), Q, K,
                             (ctx.max_terms - used) // len(ss), wp)
        if found is None:
            raise _cap_error(ctx)
        cs, rad = found
        used += len(cs) * len(ss)
        for (s, _), (_, _, over) in zip(ss, series):
            S, T = 0, one
            for C in cs:
                S += T
                T = T * s * C >> 2 * wp
            parts[over] = _times(*parts[over], S, rad, wp)
    if zero:
        return SeriesValue(mpf(0), mpf(0), used, True)
    (top, et, rt), (bottom, eb, rb) = parts[True], parts[False]
    B = abs(bottom)
    if rb >= B:
        raise NumericalBreakdownError("a denominator cannot be told from 0")
    V = (top << wp + 4) // bottom
    # the quotient's radius and floor, and the rounding to prec
    rad = (-(-(rt * B + abs(top) * rb << wp + 4) // (B * (B - rb))) + 2
           + _ceil_shift(abs(V), prec))
    scale = et - eb - wp - 4
    return SeriesValue(mp.make_mpf(from_man_exp(V, scale, prec, RN)),
                       mp.make_mpf(from_man_exp(rad, scale, prec,
                                                round_ceiling)), used, True)


def _log1m(z, pos) -> float:
    """log|1 - s e^z| for s = 1 (pos) or -1, as a double: -inf at s e^z = 1."""
    if z > 0:
        return z + _log1m(-z, pos)
    return (log(-expm1(z)) if z else -inf) if pos else log1p(exp(z))


def _never_stops(nums, dens, q_, arg_, digits, n) -> bool:
    """True where _ratio_kernel cannot stop within n terms, from the raw
    mpfs in log-space doubles. If every term ratio |arg prod (1 - u q^k) /
    prod (1 - b q^k)| is at least 1 for k <= n, |t_k| >= 1 and |V| <= (k +
    E) |t_k| + B at x = q^k, E = e^(L1(x) + L2(x)) / (1 - |arg|) and B the
    bound, so a stop needs e^h <= tol (n + 1) / (1 - tol), h = log(B / (E
    |t_k|)) >= (a + 2b - n - 1) v + (a/2 + 2b) v^2 - log v at y = x e^v, a
    = |d| x / (1-q), b = sum c^2 x^2 / (2 (1 - q^2)), x = q^n. Each log|1 -
    u q^k| is monotone in k unless a numerator's factor may vanish. Margins
    of 2^-20, 2^-28 (1 + |log u| + n log(1/q)) and 2^-48 sum |c| (in d)
    cover the doubles' rounding."""
    iq = _inv_one_minus(q_, 64)
    lq = _log_inv_q(q_, iq, 64)
    logs = [(_ln(c), not c[0], i < len(nums))
            for i, c in enumerate(nums + dens) if c[1]]
    top, l1 = max(lc for lc, _, _ in logs), log(iq - 1) - 64 * _LN2 - n * lq
    if top + l1 < -50:
        return False  # a + 2b is far below n + 1
    fs = [to_float(c) for c in nums + dens] if top < 690 else [0]
    d = abs(sum(fs[len(nums):]) - sum(fs[:len(nums)])) - 2 ** -48 * sum(
        map(abs, fs))
    a = exp(min(300, log(d) + l1)) if d > 0 else 0
    b = exp(min(300, 2 * top + log(sum(exp(2 * (lc - top)) for lc, _, _ in
                                       logs)) + l1 - n * lq
                - log1p(to_float(q_)) - _LN2))
    al, be = a + 2 * b - n - 1, a / 2 + 2 * b
    # least at v = (sqrt(al^2 + 8 be) - al) / (4 be), and at least 1/2 +
    # log(2 be) / 2 where al >= 0
    v = ((al * al + 8 * be) ** 0.5 - al) / (4 * be) if be and al < 0 else 1
    h = (al * v + be * v * v - log(v) if al < 0 else 0.5 + log(2 * be) / 2
         if be else -inf)
    if h <= log(n + 1) - digits * _LN10 + 2 ** -20 + 2 ** -28 * (
            abs(top) + n * lq + abs(h)):
        return False
    ratio = _ln(arg_)
    for lc, pos, num in logs:
        slack = 2 ** -28 * (1 + abs(lc) + n * lq)
        lo, hi = lc - n * lq - slack, lc + slack
        ends = _log1m(lo, pos), _log1m(hi, pos)
        if num and pos and lo <= 0 <= hi:
            return False
        ratio += min(ends) if num else -max(ends)
    return ratio > 2 ** -20


def _head_step(T, sh, e, A, D0, params, m, QN, rQ, n, q_, prec, wp):
    """T's next value in _ratio_kernel at a term n where some |x q^n| may
    exceed 1/2, T of relative radius e (A's included), each factor a ball
    from _factor of the params (X, x, zero), the first m nums: an exact 0
    makes the next term 0 or raises _DenominatorPole, and a ball that still
    reaches 0 raises NumericalBreakdownError. Returns the next term near
    2^(wp+2), its scale sh, of either sign, and its relative radius."""
    P, D = T * A, D0
    for i, (X, x, zero) in enumerate(params):
        F, r = _factor(X * QN >> wp, -(-(abs(X) * rQ + QN + rQ) >> wp) + 1, x,
                       n, zero, q_, prec, wp)
        if not F and i >= m:
            raise _DenominatorPole(mp.make_mpf(x), n)
        if F and abs(F) <= r:
            raise NumericalBreakdownError(f"1 - ({mp.make_mpf(x)})*q^{n} "
                                          f"cannot be told from 0")
        P, D = (P * F, D) if i < m else (P, D * F)
        e = _rel(e, -(-r << wp) // (abs(F) - r), wp) if F else e
    if not P:
        return 0, 0, 0
    shift = wp + 2 + D.bit_length() - P.bit_length()
    return ((P << shift) // D if shift >= 0 else P // (D << -shift),
            sh + shift, e + (e >> wp) + 2)


def _tail_sum(xs, m, QN, rQ, Q, Z, rZ, K, wp):
    """sum_(k<=K) sigma_k (module docstring) as a ball at 2^-wp, its radius
    None where the ball of a 1 - arg q^k reaches 0: x = q^n the ball (QN,
    rQ), arg the ball (Z, rZ) and the first m xs the nums. a_j and b_j are
    balls; the rest runs on midpoints, arg q^i within dz = rZ + 2K units and
    c_jk = a_j arg q^(k-j) - b_j within d_j units. By the ball rules, N_k =
    b_k 2^wp + sum_j c_jk sigma_(k-j) at 2^-2wp has the radius R_k = r(b_k)
    2^wp + sum_j ((|c_jk| + d_j) e_(k-j) + d_j |sigma_(k-j)|), and sigma_k =
    N_k // (1 - arg q^k) the radius e_k = ceil((R_k + (|sigma_k| + 1) dz) /
    (|1 - arg q^k| - dz)) + 1; the sum's radius is the sum of the e_k."""
    one, polys, p = 1 << wp, [], min(max(m, len(xs) - m), K)
    for group in (xs[:m], xs[m:]):
        P, R = [one] + [0] * p, [0] * (p + 1)
        for i, X in enumerate(group, 1):
            V, rV = X * QN >> wp, -(-(abs(X) * rQ + QN + rQ) >> wp) + 1
            for j in range(min(i, p), 0, -1):
                R[j] += (abs(V) * R[j - 1] + abs(P[j - 1]) * rV
                         + rV * R[j - 1] >> wp) + 2
                P[j] -= V * P[j - 1] >> wp
        polys += P, R
    (a, ra, b, rb), dz = polys, rZ + 2 * K
    ds = [(abs(A) * dz + r * (abs(Z) + rZ + dz)) // one + 2 + rB
          for A, r, rB in zip(a, ra, rb)]
    ws, sig, errs = [Z], [], []
    for k in range(K + 1):
        N, R = (b[k] << wp, rb[k] << wp) if k <= p else (0, 0)
        for j in range(1, min(k, p) + 1):
            c = (a[j] * ws[k - j] >> wp) - b[j]
            N += c * sig[k - j]
            R += (abs(c) + ds[j]) * errs[k - j] + ds[j] * abs(sig[k - j])
        D = one - ws[k]
        gd = abs(D) - dz
        if gd <= 0:
            return sum(sig), None
        sig.append(N // D)
        errs.append(-(-(R + (abs(sig[k]) + 1) * dz) // gd) + 1)
        ws.append(ws[k] * Q >> wp)
    return sum(sig), sum(errs)


def _need(C, lxi, A1, A2, h2, ws, u, n):
    """The least real K + 1 >= 1 with (K + 1) v >= C + L(v) for a v =
    log(y/x) in (0, -lxi), lxi = log(max |c| x): L(v) = A1 u + h2 sum s^2 /
    (1 - s) - log(1 - e^-v) + mu, s = w u, u = e^(lxi + v), mu = 2^-28 (1 +
    |C| + L / (1 - u) + (n + 1) (v - lxi)) for the doubles' rounding. min
    (C + L) / v lies at the root of v L' - C - L, which grows with v: taken
    after one Newton step, kept within [v/2, (v + hi) / 2], hi = min(-lxi,
    700), from u, or from the u best for A1 u + A2 u^2 or for the pole's
    share of L alone; or 1 at a v that reaches 1. Returns it with the v, L
    and u it was taken at."""
    r = ((n + 1) / A2) ** 0.5
    u = u or min(2 * (n + 1) / (A1 + (A1 * A1 + 8 * A2 * (n + 1)) ** 0.5),
                 r / (1 + r))
    hi, v = min(-lxi, 700), log(u) - lxi
    v = v if 0 < v < hi * (1 - 2 ** -20) else hi / 2
    for last in (False, True):
        u, e = exp(lxi + v), expm1(v)
        f1 = f2 = A1 * u
        L = f1 + log1p(1 / e)
        for w in ws:
            s = w * u
            d = 1 / (1 - s)
            t = h2 * s * s * d
            L, f1, f2 = (L + t, f1 + t * (2 - s) * d,
                         f2 + t * (4 - 3 * s + s * s) * d * d)
        L += 2 ** -28 * (1 + abs(C) + L / (1 - u) + (n + 1) * (v - lxi))
        if C + L <= v:
            return 1, v, L, u
        step = 0 if last else (v * (f1 - 1 / e) - C - L) / (
            v * (f2 + (e + 1) / (e * e)))
        if abs(step) < 2 ** -10 * v:
            break
        v = max(min(max(v - step, v / 2), (v + hi) / 2), 2 ** -40)
    return (C + L) / v, v, L, u


def _ratio_kernel(nums, dens, zeros, q_, arg_, arg_ulps, digits, max_terms,
                  prec, wp):
    """One run of _ratio_series over the raw mpfs nums, dens (zeros their
    zero indices), q_ and arg_, arg_ known to within a relative arg_ulps
    2^-prec, in wp-bit fixed point (module docstring), stopping at tol =
    10^-digits. Returns the value, its estimate (the closure's bound plus
    the value's radius), terms_used and the radius alone, raw mpfs at prec."""
    one, m = 1 << wp, len(nums)
    xs = [_fixed(x, wp) for x in nums + dens]
    params = [*zip(xs, nums + dens, zeros)]
    Q = _fixed(q_, wp)
    # arg = A 2^-(wp + ea) with 2^(wp-1) <= |A| < 2^wp: a term carries its
    # own scale 2^-(wp + sh), and each step adds ea to sh; A is exact, and
    # arg's relative radius is eA; Z is arg at 2^-wp, with its radius
    ea = -_mag(arg_)
    A = _fixed(arg_, wp + ea)
    eA = _ceil_shift(arg_ulps, prec - wp)
    Z = _fixed(arg_, wp)
    rZ = -(-(abs(Z) + 1) * eA >> wp) + 1
    # the next term is T A prod(num factors) // (D0 prod(den factors))
    shift = (m + 1 - len(dens)) * wp
    A, D0 = (A << -shift, 1) if shift < 0 else (A, 1 << shift)
    # 1 - arg is exactly oma 2^aexp
    neg, am, aexp, _ = arg_
    oma = (1 << -aexp) + (am if neg else -am)
    iq = _inv_one_minus(q_, wp)
    # q^n's radius stays below rQ: rQ_(n+1) <= rQ_n (Q + 1) 2^-wp + 3, so
    # rQ_n <= 3n, and below 3 2^wp / (2^wp - Q - 1) where that is positive
    rQ = min(3 * max_terms + 3, -(-3 << wp) // max(one - Q - 1, 1))
    # every |x q^n| <= 1/2 from the term head on, so every factor is at
    # least 1/2 and has a relative radius of at most 3 times its radius: at
    # most (|X| + 1) rQ 2^-wp + 2 rounded up (q^n <= 1), so that a bulk
    # step's factors and A have f <= eA + 9k + 3 XK rQ 2^-wp over the k
    # parameters, XK = sum (|X| + 1), and f + f^2 together
    lq = _log_inv_q(q_, iq, wp)
    head = max([int(min(max_terms + 1, log(2 * c) / lq + 2)) for c in
                map(abs, map(to_float, nums + dens)) if c > 0.5], default=0)
    low = wp + len(xs) + 3
    cs = [abs(X) + 1 for X in xs]
    f = eA + 9 * len(xs) - 3 * (-sum(cs) * rQ >> wp)
    f -= -f * f >> wp
    # the stop test's doubles: logs of upper bounds on every |c|, 1/(1-q)
    # and 1/(1 - |arg|) over arg's ball, w = |c| / max |c|, L1 = A1 u and
    # L2 = h2 sum (w u)^2 / (1 - w u) >= A2 u^2 at u = max |c| y; no stop
    # where 1/(1-q) passes the doubles' range
    lcs, lqi = [log(c) - wp * _LN2 for c in cs], log(iq) - wp * _LN2
    lcm, ltol = max(lcs) if lqi < 700 else inf, -digits * _LN10
    ws, iqd = [exp(lc - lcm) for lc in lcs], exp(min(lqi, 700))
    lz = log(_inv_one_minus(arg_, wp, eA)) - wp * _LN2
    h2, bia = iqd / (2 + 2 * Q / one), wp + int(lz / _LN2) + 2
    A1 = exp(log(abs(sum(xs[m:]) - sum(xs[:m])) + len(xs)) - wp * _LN2
             - lcm) * iqd
    A2 = h2 * sum(w * w for w in ws)
    # S at 2^-(wp + ss), ss the least sh so far, with U and F below; T with
    # its relative radius, q^n, the last step's need and u, the last K
    # whose tail radius was too wide and log|V| of the last close that fell
    # short
    S, U, F, ss, T, rel, QN, sh = 0, 0, 0, 0, one, 0, one, 0
    last, uw, kf, lvf = inf, None, inf, inf
    ups, downs = xs[:m], xs[m:]
    for n in range(max_terms + 1):
        bt, need, gs = T.bit_length(), inf, n * lq * (1 + 2 ** -28) - lcm
        # need <= n + 2 needs (n + 2) gs >= C = log(|t| / ((1 - |arg|) tol
        # M)), screened from bit lengths (|V1| < 2^bv); x <= q^n <= e^(-n lq
        # (1 - 2^-28)), log(1 + r) <= r
        if gs > 0 and (n + 2) * gs >= (bt - 1 - wp - sh) * _LN2 + lz - max(
                (max(S.bit_length(), bt + ss - sh + bia - wp) + 1 - wp - ss)
                * _LN2, ltol) - ltol and n * lq * (1 - 2 ** -28) > lcm:
            lt = (log(abs(T)) + _ceil_shift(rel, wp - 60) * 2.0 ** -60
                  - (wp + sh) * _LN2)
            # M from V1, or from a smaller V of a close that fell short
            V = S + _shift(T << -aexp, sh - ss) // oma
            need, v, L, uw = _need(
                lt + lz - ltol - max(min(log(abs(V)) - (wp + ss) * _LN2 if V
                                         else ltol, lvf), ltol),
                lcm - n * lq * (1 - 2 ** -28), A1, A2, h2, ws, uw, n)
        # stop where the last step lowered the need by at most 2, and the
        # tail sum's radius, which follows the majorant of its terms, does
        # not pass the limit by more than a factor 2^wp (a rerun that more
        # than doubles wp): where it does, the next try waits for half that K
        K = max(0, ceil(min(need, n + 1)) - 1)
        if (need <= n + 1 and last - need <= 2 and n + K <= max_terms
                and 2 * K <= kf):
            G, rG = _tail_sum(xs, m, QN, rQ, Q, Z, rZ, K, wp)
            d, lb = wp + sh - ss, lt - (K + 1) * v + L + lz
            V = S + _shift(T * G, d)
            lv = log(abs(V)) - (wp + ss) * _LN2 if V else ltol
            lim = ltol + max(lv, ltol) - 2 ** -28 * (1 + abs(lv) - ltol)
            # the tail's radius, t's and G's balls and the product's floor
            rt = _ceil_shift(-(-abs(T) * rel >> wp) * (abs(G) + rG)
                             + abs(T) * rG, d) + 1 if rG is not None else 0
            if not rt or log(rt) - (wp + ss) * _LN2 > lim + wp * _LN2:
                kf = K
            elif lb > lim:
                lvf = lv
            else:
                # with the sum's radius and V's rounding; e^lb rounded up
                # from its double's 53 bits to S's units
                rad = rt - (-U * rel >> wp) + F + _ceil_shift(abs(V), prec)
                e = floor(lb / _LN2)
                trunc = _ceil_shift(int(2 ** (lb / _LN2 - e + 53)) + 1,
                                    53 - e - wp - ss)
                return (from_man_exp(V, -wp - ss, prec, RN),
                        from_man_exp(rad + trunc, -wp - ss, prec,
                                     round_ceiling), n + K + 1,
                        from_man_exp(rad, -wp - ss, prec, round_ceiling))
        last = need if need <= n + 2 else inf
        # the term at S's scale, rescaling S first where the term is larger:
        # floored below (|t| + 1), its radius below rel times that, and t's
        # floor adds 1, so that S and t keep about wp bits however large
        # the terms get; as rel never falls, the sum's radius is at most
        # U rel 2^-wp + F, U = sum (|t| + 1) and F the floors' units
        if sh < ss:
            U, F = _ceil_shift(U, ss - sh), _ceil_shift(F, ss - sh) + 1
            S, ss = S >> ss - sh, sh
        t = T >> sh - ss
        S, U, F = S + t, U + abs(t) + 1, F + 2
        if n < head:
            T, sh, e = _head_step(T, sh, _rel(rel, eA, wp), A, D0, params,
                                  m, QN, rQ, n, q_, prec, wp)
            if not T and n < max_terms:
                # a numerator factor vanished; every later term carries it
                rad = from_man_exp(-(-U * rel >> wp) + F + _ceil_shift(
                    abs(S), prec), -wp - ss, prec, round_ceiling)
                return from_man_exp(S, -wp - ss, prec, RN), rad, n + 1, rad
            rel = e
        else:
            if bt < low:
                # keep T at 2^wp or more after the step
                T <<= low + 32 - bt
                sh += low + 32 - bt
            P = T * A
            for X in ups:
                P *= one - (X * QN >> wp)
            D = D0
            for X in downs:
                D *= one - (X * QN >> wp)
            T = P // D
            rel += f - (-rel * f >> wp)
            rel += (rel >> wp) + 2
        sh += ea
        QN = QN * Q >> wp
    raise CapExceededError(f"series not certified within {max_terms} terms")


def _ratio_series(num_params, den_params, zeros, q, arg, ctx, arg_ulps=0):
    """Sum over n >= 0 of prod (num;q)_n / prod (den;q)_n * arg^n for |arg|
    < 1, phi passing q as its first den parameter, for the (q;q)_n: the
    terms t_(k+1) = arg r(q^k) t_k in fixed point (_ratio_kernel) up to the
    stop n, closed by K Taylor terms of the tail (module docstring), with
    terms_used = n + K + 1 and the closure's bound plus the kernel's radius
    as the certified estimate, zeros the nums' and dens' zero indices. An
    arg known to within a relative arg_ulps 2^-prec carries that radius into
    every term and the closure."""
    _exact_pole(den_params, zeros, len(num_params))
    prec, max_terms = mp.prec, ctx.max_terms
    nums, dens = [u._mpf_ for u in num_params], [b._mpf_ for b in den_params]
    if _never_stops(nums, dens, q._mpf_, arg._mpf_, ctx.digits, max_terms):
        raise CapExceededError(f"series cannot be certified within "
                               f"{max_terms} terms")
    wp = _working_bits(prec, nums + dens)
    kernel = (nums, dens, zeros, q._mpf_, arg._mpf_, arg_ulps, ctx.digits,
              max_terms, prec)
    value, err, used, rad = _ratio_kernel(*kernel, wp)
    # log(tol max(|V|, tol)) and log(rad) in doubles
    ltol = -ctx.digits * _LN10
    lim = ltol + max(_ln(value) if value[1] else ltol, ltol)
    if rad[1] and _ln(rad) > lim - 4 * _LN2:
        # cancellation: rerun once with the bits the radius says were lost
        wp += ceil((_ln(rad) - lim) / _LN2) + 7
        value, err, used, _ = _ratio_kernel(*kernel, wp)
    return SeriesValue(mp.make_mpf(value), mp.make_mpf(err), used, True)


def _series_values(upper, lower, q, z) -> tuple:
    """q, the parameters and z, checked and valued."""
    q, xs = to_real(q), [*upper, *lower, z]
    _check_q(q, xs, _series_names(upper, lower, "z"))
    *xs, z = _values(xs, q)
    return q, xs[:len(upper)], xs[len(upper):], z


def phi(upper, lower, q, z, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Generalized basic hypergeometric series r_phi_s.

    sum_{n>=0} [prod (a_i;q)_n / ((q;q)_n prod (b_j;q)_n)] z^n for |z| < 1.
    """
    with ctx.working():
        zeros = [ParamExpr.of(x).zero_index for x in (*upper, Q, *lower)]
        q, upper, lower, z = _series_values(upper, lower, q, z)
        if abs(z) >= 1:
            raise DivergenceError(f"phi requires |z| < 1, got |z| = {abs(z)}")
        if z == 0:
            return SeriesValue(mpf(1), mpf(0), 1, True)
        return _ratio_series(upper, [q] + lower, zeros, q, z, ctx)


def psi_bilateral(upper, lower, q, z,
                  ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Bilateral basic hypergeometric series r_psi_r.

    sum_{n in Z} prod (a_i;q)_n / prod (b_j;q)_n * z^n, convergent in the
    annulus |b_1...b_r/(a_1...a_r)| < |z| < 1: its two ratio-series halves
    minus the 1 they share, the negative-index one by Pochhammer inversion
    sum_{n<0} = sum_{m>=0} prod (q/b;q)_m / prod (q/a;q)_m * w^m - 1,
    w = prod b/(prod a * z), whose terms include the exact 1 at m = 0; an
    a_i = q^k, k >= 1 (or the value q), is a pole at m = k, before either sum.
    w's 2r + 2 roundings, at most (2r + 1) 2^(1-prec) relative, are the
    radius of that series' argument."""
    with ctx.working():
        ups, lows = [*map(ParamExpr.of, upper)], [*map(ParamExpr.of, lower)]
        q, upper, lower, z = _series_values(upper, lower, q, z)
        if len(upper) != len(lower) or not upper:
            raise QDomainError(
                "bilateral series needs equally many upper and lower parameters")
        if any(x == 0 for x in upper + lower):
            raise QDomainError("bilateral parameters must be nonzero")
        if abs(z) >= 1 or z == 0:
            # z = 0 lies inside the inner circle of the annulus
            raise DivergenceError(
                f"bilateral series requires 0 < |z| < 1, got |z| = {abs(z)}")
        w = prod(lower) / prod([z] + upper)
        w_ulps = 2 * (2 * len(upper) + 1)
        zeros = [x.zero_index for x in ups + lows]
        if any(b_j == q for b_j in lower):
            # some (b;q)_{-m} is infinite for every m >= 1: the negative
            # half vanishes identically and only |z| < 1 is needed
            return _ratio_series(upper, lower, zeros, q, z, ctx)
        if abs(w) * (1 + mp.ldexp(2 * w_ulps, -mp.prec)) >= 1:
            # beyond |w| < 1, or within twice w's rounding of it
            raise DivergenceError(
                f"bilateral domain |b../a..| < |z| < 1 violated: "
                f"|b../(a..z)| = {abs(w)}, |z| = {abs(z)}")
        nums, dens = [q / b for b in lower], [q / a for a in upper]
        neg_zeros = [(Q / B).zero_index for B in lows] + [
            0 if a == q else (Q / A).zero_index for A, a in zip(ups, upper)]
        try:
            _exact_pole(dens, neg_zeros, len(nums))  # before either sum
            pos = _ratio_series(upper, lower, zeros, q, z, ctx)
            neg = _ratio_series(nums, dens, neg_zeros, q, w, ctx, w_ulps)
        except _DenominatorPole as exc:
            if exc.b not in dens:
                raise  # a pole of the positive half
            # the factor 1 - (q/a_i) q^n of term n is (q/a_i;q)_m's at m = n + 1
            i, qm = dens.index(exc.b) + 1, ParamExpr(1, exc.n + 1)
            raise PoleError(f"bilateral pole: 1 - {qm}/a{i} vanishes at m = "
                            f"{qm.exponent} (a{i}={upper[i - 1]})") from None
        return pos + (neg - 1)


# no identity side calls this any more; perfbench's tracer looks it up by name
def sum_with_ratio_bound(term_fn, rho_fn, ctx: PrecisionCtx,
                         start: int = 0) -> SeriesValue:
    """Sum term_fn(n) for n >= start with a caller-supplied certified bound
    rho_fn(n) >= |t_{m+1}/t_m| for all m >= n, which must itself be >= 0.
    Stops once the geometric tail |t_n|/(1-rho) meets the context's
    relative tolerance.

    For 0 <= rho < 1 the rounded 1 - rho is at most 1, so the rounded tail is
    at least |t_n|: rho_fn is called only once |t_n| itself meets the
    tolerance, and the sum stops at the same term as one that calls it at
    every term."""
    tol = ctx.tail_tol()
    s = mpf(0)
    n = start
    while True:
        t = term_fn(n)
        abs_t = abs(t)
        limit = tol * max(abs(s), tol)
        if abs_t <= limit:
            rho = rho_fn(n)
            if rho < 1:
                tail = abs_t / (1 - rho)
                if tail <= limit:
                    return SeriesValue(s, tail, n - start, True)
        s += t
        n += 1
        if n - start > ctx.max_terms:
            raise CapExceededError(
                f"series not certified within {ctx.max_terms} terms")


# --- convergence acceleration -------------------------------------------

def _levin_max_order():
    """The sweep's order cap: 120 up to 160 working digits (a 100-digit
    classical side's sweep), then one more a digit."""
    return max(120, mp.dps - 40)


# a sweep stops once an order's rounding floor exceeds the smallest
# successive difference by this factor; on 100 classical-limit series at 40
# digits (summed at 60) every factor from 10**2 to 10**6 selects the
# estimate the full sweep selects, and a factor of 1 does so for only 81
_LEVIN_STOP_FACTOR = 10 ** 4


def _scaled(xs, e, x, w):
    """Append w times the raw mpf x to xs, ints at the common scale 2^e,
    and return the scale, lowered to x's exponent where that is less."""
    sign, man, exp, _ = x
    if e is None or exp < e:
        xs[:] = [v << (e - exp) for v in xs]  # xs is empty while e is None
        e = exp
    man = w * man << (exp - e)
    xs.append(-man if sign else man)
    return e


def _levin_u(terms):
    """accelerate's pick among the Levin u-transform estimates L_1, L_2, ...
    (beta = 1, remainder model omega_j = (j+1) a_j) of the raw mpf terms,
    read only as far as the sweep goes: (L, d, read), d the least |L_k -
    L_(k-1)| rounded to the working precision, L the first estimate with it
    (the last where its own ties it) and read one more than the last order.

    L_k = sum_j c_kj s_j/omega_j / sum_j c_kj/omega_j with the exact integer
    weights c_kj = (-1)^j C(k,j) (j+1)^(k-1): the factor (k+1)^-(k-1) of
    the textbook weights cancels between the two sums. Each s_j/omega_j and
    1/omega_j is rounded once to the working precision and held as an int
    at a common binary exponent, times (j+1)^(k-1) at order k, so both sums
    are exact and an order rounds once, at their quotient. The sweep ends
    before order j when omega_j = 0, at order _levin_max_order(), and once
    kappa_k * 2^-prec * |L_k| exceeds _LEVIN_STOP_FACTOR times the smallest
    successive difference so far, where kappa_k = sum |c_kj/omega_j| / |sum
    c_kj/omega_j| is the condition number of the order's denominator: past
    that point higher orders are rounding noise (Weniger, Comput. Phys. Rep.
    10, 1989). The test is exact in the rounded L_k. An order whose
    denominator vanishes gives no estimate.
    """
    prec = mp.prec
    # (j+1)^(k-1) s_j/omega_j at 2^es and (j+1)^(k-1)/omega_j at 2^ei
    s_om, inv_om = [], []
    es = ei = None
    binom = [1]  # (-1)^j C(k, j)
    psum = fzero
    est = best_diff = pick = None
    read = 0
    for k, t in enumerate(islice(terms, _levin_max_order() + 1)):
        psum = mpf_add(psum, t, prec, RN)
        om = mpf_mul_int(t, k + 1, prec, RN)
        if om == fzero:
            break
        s_om = list(map(mul, s_om, range(1, k + 1)))
        inv_om = list(map(mul, inv_om, range(1, k + 1)))
        w = (k + 1) ** (k - 1) if k else 1
        es = _scaled(s_om, es, mpf_div(psum, om, prec, RN), w)
        ei = _scaled(inv_om, ei, mpf_rdiv_int(1, om, prec, RN), w)
        if k == 0:
            continue
        binom = list(map(sub, binom + [0], [0] + binom))
        ws = list(map(mul, binom, inv_om))
        den = sum(ws)
        read = k + 1
        if not den:
            continue
        num = sum(map(mul, binom, s_om))
        prev, est = est, mpf_shift(
            mpf_div(from_int(num), from_int(den), prec, RN), es - ei)
        if prev is None:
            continue
        d = mpf_abs(mpf_sub(est, prev))
        if best_diff is None or mpf_lt(d, best_diff):
            best_diff = d
        d = mpf_pos(d, prec, RN)  # the pick compares rounded differences
        if pick is None or mpf_lt(d, least):
            pick, least = est, d
        # the stop test times |den| 2^prec, in ints at a common exponent
        floor = sum(map(abs, ws)) * est[1]
        limit = _LEVIN_STOP_FACTOR * abs(den) * best_diff[1]
        sh = est[2] - best_diff[2] - prec
        if floor << max(sh, 0) > limit << max(-sh, 0):
            break
    if pick is None:
        raise NumericalBreakdownError("levin-u transform produced no estimates")
    return (est if d == least else pick), least, read


def _finite(partial_terms):
    """The terms as raw mpf values, refusing a non-finite one as it is read."""
    for k, t in enumerate(partial_terms):
        t = to_real(t)
        if not mp.isfinite(t):
            raise QDomainError(f"accelerate: term {k} is {t}, not finite")
        yield t._mpf_


def accelerate(partial_terms, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Levin u-transform limit estimate for a convergent series given its
    terms, any iterable: the transform reads it at the context's working
    precision and only as far as its sweep goes.

    A non-finite term raises QDomainError once it is read, and an iterable
    of fewer than 8 terms InsufficientTermsError. The error estimate comes
    from the stability of successive transform orders and is never
    certified. ``terms_used`` is the number of terms the transform read:
    the last evaluated order plus one.
    """
    with ctx.working():
        terms = _finite(partial_terms)
        head = list(islice(terms, 8))
        if len(head) < 8:
            raise InsufficientTermsError(f"need >= 8 terms, got {len(head)}")
        value, diff, used = _levin_u(chain(head, terms))
        # successive-order agreement is a heuristic; pad it a little
        return SeriesValue(mp.make_mpf(value), mp.make_mpf(mpf_shift(diff, 2)),
                           used, False)
