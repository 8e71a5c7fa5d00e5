"""Arbitrary-precision q-series primitives.

Powers of q (fractional exponents included), q-Pochhammer symbols for all
integer orders, unilateral and bilateral basic hypergeometric series, and
convergence acceleration for slowly convergent classical series.

Truncation rule: a product/series is stopped once the next term t and a
certified upper bound rho < 1 on all subsequent term ratios satisfy
|t| / (1 - rho) <= tail_rel_tol * |sum|; the geometric tail bound is then
recorded as the error estimate. Accelerated limits carry only a heuristic
estimate and are flagged non-certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

# unused here; perfbench's tracer counts mpmath binomial calls by this name
from mpmath import binomial, mp, mpf  # noqa: F401

from .errors import (
    CapExceededError,
    DivergenceError,
    InsufficientTermsError,
    NumericalBreakdownError,
    PoleError,
    QDomainError,
)
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

    # First-order error propagation so identity evaluators can assemble
    # values from certified pieces without losing the error bookkeeping.

    @staticmethod
    def of(x) -> "SeriesValue":
        return SeriesValue(to_real(x), mpf(0), 0, True)

    @staticmethod
    def _lift(other) -> "SeriesValue":
        if isinstance(other, SeriesValue):
            return other
        return SeriesValue.of(other)

    def __add__(self, other):
        o = self._lift(other)
        return SeriesValue(self.value + o.value,
                           self.err_estimate + o.err_estimate,
                           self.terms_used + o.terms_used,
                           self.certified and o.certified)

    __radd__ = __add__

    def __neg__(self):
        return SeriesValue(-self.value, self.err_estimate,
                           self.terms_used, self.certified)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        err = (abs(self.value) * o.err_estimate
               + abs(o.value) * self.err_estimate
               + self.err_estimate * o.err_estimate)
        return SeriesValue(self.value * o.value, err,
                           self.terms_used + o.terms_used,
                           self.certified and o.certified)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.value == 0:
            raise PoleError("division by an exactly-zero series value")
        val = self.value / o.value
        err = (self.err_estimate + abs(val) * o.err_estimate) / abs(o.value)
        return SeriesValue(val, err,
                           self.terms_used + o.terms_used,
                           self.certified and o.certified)

    def __rtruediv__(self, other):
        return self._lift(other) / self


@dataclass(frozen=True)
class QPoint:
    """A parameter assignment: the base q in (0,1) plus named reals."""

    q: mpf
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "q", to_real(self.q))
        object.__setattr__(
            self, "params", {k: to_real(v) for k, v in self.params.items()})
        if not (0 < self.q < 1):
            raise QDomainError(f"q must lie strictly in (0,1), got {self.q}")
        for name, v in self.params.items():
            if not mp.isfinite(v):
                raise QDomainError(f"parameter {name} is not finite")

    def __getitem__(self, name):
        return self.params[name]


def _check_q(q):
    if not (0 < q < 1):
        raise QDomainError(f"q must lie strictly in (0,1), got {q}")


def qpow(q, e, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """q**e = exp(e*ln q) for q in (0,1) and finite real e."""
    with ctx.working():
        q, e = to_real(q), to_real(e)
        _check_q(q)
        if not mp.isfinite(e):
            raise QDomainError("exponent must be finite")
        if e == 0:
            return mpf(1)
        if e == 1:
            return q
        return mp.exp(e * mp.log(q))


def pochhammer_inf(a, q, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """(a;q)_inf = prod_{n>=0} (1 - a q^n), with a certified log-product
    tail bound. Returns exact 0 when some factor vanishes."""
    with ctx.working():
        a, q = to_real(a), to_real(q)
        _check_q(q)
        tol = ctx.tail_tol()
        prod = mpf(1)
        qn = mpf(1)  # q^n
        n = 0
        aa = abs(a)
        while True:
            f = 1 - a * qn
            if f == 0:
                return SeriesValue(mpf(0), mpf(0), n + 1, True)
            prod *= f
            n += 1
            qn *= q
            u = aa * qn
            if u < mpf("0.5"):
                # |log of remaining product| <= u/((1-q)(1-u)); since
                # expm1(b) >= b, expm1 can only meet tol once bound does
                bound = u / ((1 - q) * (1 - u))
                if bound <= tol:
                    rel = mp.expm1(bound)
                    if rel <= tol:
                        return SeriesValue(prod, abs(prod) * rel, n, True)
            if n >= ctx.max_terms:
                raise CapExceededError(
                    f"(a;q)_inf not certified within {ctx.max_terms} factors")


def pochhammer_n(a, q, n: int, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """(a;q)_n for any integer n per (a)_n = (a)_inf / (a q^n)_inf.

    n >= 0: finite product prod_{k=0}^{n-1}(1 - a q^k).
    n < 0: reciprocal finite product 1 / prod_{k=1}^{|n|}(1 - a q^-k);
    raises PoleError when a factor vanishes (the symbol is infinite).
    """
    with ctx.working():
        a, q = to_real(a), to_real(q)
        _check_q(q)
        if n >= 0:
            prod = mpf(1)
            qk = mpf(1)
            for _ in range(n):
                prod *= 1 - a * qk
                qk *= q
            return SeriesValue(prod, mpf(0), max(n, 1), True)
        prod = mpf(1)
        qk = mpf(1)
        for k in range(1, -n + 1):
            qk /= q
            f = 1 - a * qk
            if f == 0:
                raise PoleError(
                    f"(a;q)_n pole: factor 1 - a*q^-{k} vanishes (a={a}, q={q})")
            prod *= f
        return SeriesValue(1 / prod, mpf(0), -n, True)


def prodquot(nums, dens, q, ctx) -> SeriesValue:
    """prod (x;q)_inf over nums divided by the same over dens."""
    out = SeriesValue.of(1)
    for x in nums:
        out = out * pochhammer_inf(x, q, ctx)
    for x in dens:
        out = out / pochhammer_inf(x, q, ctx)
    return out


def _ratio_series(num_params, den_params, q, arg, ctx, extra_q_factorial,
                  start_at_one=False):
    """Sum of prod (num;q)_n / [((q;q)_n if extra_q_factorial) prod (den;q)_n] * arg^n.

    Terms are generated by the one-step recurrence; the tail is certified by
    the geometric bound rho(n) = |arg| * prod(1+|num|s) / ((1-qs) * prod(1-|den|s))
    with s = q^n, valid for every subsequent ratio.
    """
    tol = ctx.tail_tol()
    floor = ctx.rel_floor()
    s_val = mpf(0)
    qn = mpf(1)  # q^n for the current term index n
    n = 0
    if start_at_one:
        t = arg
        for u in num_params:
            t *= 1 - u
        for b in den_params:
            d = 1 - b
            if d == 0:
                raise PoleError("vanishing denominator factor at n=1")
            t /= d
        if extra_q_factorial:
            t /= 1 - q
        qn = q
        n = 1
    else:
        t = mpf(1)

    while True:
        if t == 0:
            # a numerator factor vanished; every later term carries it too
            return SeriesValue(s_val, mpf(0), n, True)
        # certified bound on ratios of terms beyond index n
        rho = abs(arg)
        usable = True
        for u in num_params:
            rho *= 1 + abs(u) * qn
        den_bound = mpf(1)
        if extra_q_factorial:
            den_bound *= 1 - q * qn
        for b in den_params:
            d = 1 - abs(b) * qn
            if d <= 0:
                usable = False
                break
            den_bound *= d
        if usable and den_bound > 0:
            rho /= den_bound
            if rho < 1:
                tail = abs(t) / (1 - rho)
                if tail <= tol * max(abs(s_val), floor):
                    return SeriesValue(s_val, tail, n, True)
        s_val += t
        num = mpf(1)
        for u in num_params:
            num *= 1 - u * qn
        den = mpf(1)
        if extra_q_factorial:
            den *= 1 - q * qn
        for b in den_params:
            f = 1 - b * qn
            if f == 0:
                raise PoleError(
                    f"vanishing denominator factor 1 - ({b})*q^{n}")
            den *= f
        if den == 0:
            raise PoleError(f"vanishing (q;q)_n factor at n={n}")
        t = t * num / den * arg
        qn *= q
        n += 1
        if n > ctx.max_terms:
            raise CapExceededError(
                f"series not certified within {ctx.max_terms} terms")


def phi(upper, lower, q, z, ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Generalized basic hypergeometric series r_phi_s.

    sum_{n>=0} [prod (a_i;q)_n / ((q;q)_n prod (b_j;q)_n)] z^n for |z| < 1.
    """
    with ctx.working():
        upper = [to_real(u) for u in upper]
        lower = [to_real(b) for b in lower]
        q, z = to_real(q), to_real(z)
        _check_q(q)
        if abs(z) >= 1:
            raise DivergenceError(f"phi requires |z| < 1, got |z| = {abs(z)}")
        if z == 0:
            return SeriesValue(mpf(1), mpf(0), 1, True)
        return _ratio_series(upper, lower, q, z, ctx, extra_q_factorial=True)


def psi_bilateral(upper, lower, q, z,
                  ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Bilateral basic hypergeometric series r_psi_r.

    sum_{n in Z} prod (a_i;q)_n / prod (b_j;q)_n * z^n, convergent in the
    annulus |b_1...b_r/(a_1...a_r)| < |z| < 1. The negative-index half is
    rewritten by the Pochhammer inversion
    prod (a)_|n| / prod (b)_|n| * z^-|n|
      = prod (q/b;q)_m / prod (q/a;q)_m * (prod b/(prod a * z))^m,
    so both halves carry certified geometric tail bounds.
    """
    with ctx.working():
        upper = [to_real(u) for u in upper]
        lower = [to_real(b) for b in lower]
        q, z = to_real(q), to_real(z)
        _check_q(q)
        if len(upper) != len(lower) or not upper:
            raise QDomainError(
                "bilateral series needs equally many upper and lower parameters")
        for a_i in upper:
            if a_i == 0:
                raise QDomainError("bilateral upper parameters must be nonzero")
        num = mpf(1)
        for b_j in lower:
            num *= b_j
        den = z
        for a_i in upper:
            den *= a_i
        w = num / den
        if abs(z) >= 1:
            raise DivergenceError(
                f"bilateral series requires |z| < 1, got |z| = {abs(z)}")
        if any(b_j == q for b_j in lower):
            # some (b;q)_{-m} is infinite for every m >= 1: the negative
            # half vanishes identically and only |z| < 1 is needed
            return _ratio_series(upper, lower, q, z, ctx,
                                 extra_q_factorial=False)
        if abs(w) >= 1:
            raise DivergenceError(
                f"bilateral domain |b../a..| < |z| < 1 violated: "
                f"|b../(a..z)| = {abs(w)}, |z| = {abs(z)}")
        pos = _ratio_series(upper, lower, q, z, ctx, extra_q_factorial=False)
        neg = _ratio_series([q / b for b in lower], [q / a for a in upper],
                            q, w, ctx, extra_q_factorial=False,
                            start_at_one=True)
        return pos + neg


def sum_with_ratio_bound(term_fn, rho_fn, ctx: PrecisionCtx,
                         start: int = 0) -> SeriesValue:
    """Sum term_fn(n) for n >= start with a caller-supplied certified bound
    rho_fn(n) >= |t_{m+1}/t_m| for all m >= n. Stops once the geometric
    tail |t_n|/(1-rho) meets the context's relative tolerance."""
    tol = ctx.tail_tol()
    floor = ctx.rel_floor()
    s = mpf(0)
    n = start
    while True:
        t = term_fn(n)
        rho = rho_fn(n)
        if rho < 1:
            tail = abs(t) / (1 - rho)
            if tail <= tol * max(abs(s), floor):
                return SeriesValue(s, tail, n - start, True)
        s += t
        n += 1
        if n - start > ctx.max_terms:
            raise CapExceededError(
                f"series not certified within {ctx.max_terms} terms")


# --- convergence acceleration -------------------------------------------

_LEVIN_MAX_ORDER = 120
# a sweep stops once an order's rounding floor exceeds the smallest
# successive difference by this factor; on 100 classical-limit series at 40
# digits every factor from 10**2 to 10**6 selects the estimate the full
# sweep selects, and a factor of 1 does so for only 67
_LEVIN_STOP_FACTOR = 10 ** 4


def _levin_u(terms):
    """Levin u-transform estimates L_1, L_2, ... (beta = 1, remainder
    model omega_j = (j+1) a_j) and the number of terms they read, one more
    than the last order evaluated.

    L_k = sum_j c_kj s_j/omega_j / sum_j c_kj/omega_j with the exact integer
    weights c_kj = (-1)^j C(k,j) (j+1)^(k-1): the factor (k+1)^-(k-1) of
    the textbook weights cancels between the two sums. The sweep ends
    before order j when omega_j = 0, at order _LEVIN_MAX_ORDER, and once
    kappa_k * 2^-prec * |L_k| exceeds _LEVIN_STOP_FACTOR times the smallest
    successive difference so far, where kappa_k = sum |c_kj/omega_j| /
    |sum c_kj/omega_j| is the condition number of the order's denominator:
    past that point higher orders are rounding noise (Weniger, Comput. Phys.
    Rep. 10, 1989). An order whose denominator vanishes gives no estimate.
    """
    kmax = min(len(terms) - 2, _LEVIN_MAX_ORDER)
    eps = mp.ldexp(mpf(1), -mp.prec)
    inv_om = []  # 1/omega_j
    s_om = []  # s_j/omega_j
    psum = mpf(0)
    estimates = []
    best_diff = mp.inf
    read = 0
    for k in range(kmax + 1):
        psum += terms[k]
        om = (k + 1) * terms[k]
        if om == 0:
            break
        inv_om.append(1 / om)
        s_om.append(psum / om)
        if k == 0:
            continue
        num = den = den_abs = mpf(0)
        for j in range(k + 1):
            c = (-1) ** j * comb(k, j) * (j + 1) ** (k - 1)
            num += c * s_om[j]
            w = c * inv_om[j]
            den += w
            den_abs += abs(w)
        read = k + 1
        if den == 0:
            continue
        est = num / den
        if estimates:
            best_diff = min(best_diff, abs(est - estimates[-1]))
        estimates.append(est)
        if den_abs / abs(den) * eps * abs(est) > _LEVIN_STOP_FACTOR * best_diff:
            break
    if len(estimates) < 2:
        raise NumericalBreakdownError("levin-u transform produced no estimates")
    return estimates, read


def _wynn_epsilon(terms):
    """Even columns of Wynn's epsilon table applied to the partial sums."""
    psums = []
    acc = mpf(0)
    for t in terms:
        acc += t
        psums.append(acc)
    prev_col = [mpf(0)] * (len(psums) + 1)
    col = list(psums)
    even_tails = [col[-1]]
    k = 0
    while len(col) >= 2:
        nxt = []
        for i in range(len(col) - 1):
            d = col[i + 1] - col[i]
            if d == 0:
                # exact agreement: the table is converged at this depth
                if k % 2 == 0:
                    even_tails.append(col[i + 1])
                return even_tails
            nxt.append(prev_col[i + 1] + 1 / d)
        prev_col, col = col, nxt
        k += 1
        if k % 2 == 0:
            even_tails.append(col[-1])
    return even_tails


def _raw_with_tail(terms):
    """Partial sum plus a power-law tail estimate fitted to the last terms,
    a_n ~ C n^-p (Euler-Maclaurin style integral tail)."""
    n_terms = len(terms)
    partial = mpf(0)
    for t in terms:
        partial += t

    def fit_p(i, j):
        ti, tj = abs(terms[i]), abs(terms[j])
        if ti == 0 or tj == 0:
            raise NumericalBreakdownError("zero terms in tail fit")
        return mp.log(ti / tj) / mp.log(mpf(j + 1) / (i + 1))

    p1 = fit_p(n_terms // 2, n_terms - 1)
    p2 = fit_p(3 * n_terms // 4, n_terms - 1)
    if min(p1, p2) <= 1:
        raise NumericalBreakdownError(
            f"fitted decay exponent {min(p1, p2)} <= 1; tail estimate invalid")

    def tail(p):
        return abs(terms[-1]) * mpf(n_terms) / (p - 1)

    t1, t2 = tail(p1), tail(p2)
    sign = 1 if terms[-1] >= 0 else -1
    value = partial + sign * t1
    err = abs(t1 - t2) + abs(terms[-1])
    return value, err


def accelerate(partial_terms, kind: str = "levin-u",
               ctx: PrecisionCtx = DEFAULT_CTX) -> SeriesValue:
    """Accelerated limit estimate for a convergent series given its terms.

    kinds: "levin-u" (default), "wynn-epsilon", "raw-with-tail". The error
    estimate comes from the stability of successive transform orders and is
    never certified. ``terms_used`` is the number of terms the transform
    read: the last evaluated Levin order plus one, or every term given.
    """
    if len(partial_terms) < 8:
        raise InsufficientTermsError(
            f"need >= 8 terms, got {len(partial_terms)}")
    with ctx.working():
        terms = [to_real(t) for t in partial_terms]
        used = len(terms)
        if kind == "levin-u":
            ests, used = _levin_u(terms)
        elif kind == "wynn-epsilon":
            ests = _wynn_epsilon(terms)
        elif kind == "raw-with-tail":
            value, err = _raw_with_tail(terms)
            return SeriesValue(value, err, len(terms), False)
        else:
            raise QDomainError(f"unknown acceleration kind: {kind!r}")
        best_val = ests[-1]
        best_err = abs(ests[-1] - ests[-2])
        for i in range(1, len(ests)):
            d = abs(ests[i] - ests[i - 1])
            if d < best_err:
                best_err = d
                best_val = ests[i]
        # successive-order agreement is a heuristic; pad it a little
        return SeriesValue(best_val, 4 * best_err, used, False)
