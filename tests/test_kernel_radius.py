"""The fixed-point kernels' radii at a deliberately small working precision:
for the same rounded inputs, the exact rational value lies within the
midpoint plus or minus the radius. Inputs are short binary fractions, and
every exact value is held as an integer numerator and denominator, so no
gcd is taken on the way, but for the few Taylor terms of a series' tail."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from qseries import qcore
from qseries.params import ParamExpr

_WPS = (24, 40, 64)


def _dyadic(rng, lo, hi):
    """A random mpf in [lo, hi] of 16 bits, exact at every precision used."""
    with mp.workprec(16):
        return +mpf(rng.uniform(lo, hi))


def _ratio(x):
    """The mpf x as (numerator, denominator), the denominator a power of 2."""
    sign, man, exp, _ = x._mpf_
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _one_minus(x, y, k):
    """1 - x y^k as (numerator, denominator)."""
    (a, b), (c, d) = _ratio(x), _ratio(y)
    return b * d ** k - a * c ** k, b * d ** k


def _within(num, den, mid, rad):
    """|num/den - mid| <= rad for the mpfs mid and rad, in integers."""
    if den < 0:
        num, den = -num, -den
    (m, md), (r, rd) = _ratio(mid), _ratio(rad)
    return abs(num * md - m * den) * rd <= r * den * md


def _series(nums, dens, q, arg, n, K):
    """sum_{k<n} t_k + t_n sum_{k<=K} sigma_k for the ratio series t_(k+1)
    = t_k arg prod (1 - u q^k) / prod (1 - b q^k), t_0 = 1, sigma_k the
    Taylor terms at x = q^n of its tail T(x) = 1 + arg r(x) T(q x), from
    sigma_k (1 - arg q^k) = b_k + sum_j (a_j arg q^(k-j) - b_j)
    sigma_(k-j), a_j and b_j the coefficients of w^j in prod (1 - u x w)
    and prod (1 - b x w), these as Fractions."""
    a, d = _ratio(arg)
    t, s, den = 1, 0, 1
    for k in range(n):
        up, down = a, d
        for u in nums:
            f, g = _one_minus(u, q, k)
            up, down = up * f, down * g
        for b in dens:
            f, g = _one_minus(b, q, k)
            up, down = up * g, down * f
        s, t, den = (s + t) * down, t * up, den * down
    qf, z = Fraction(*_ratio(q)), Fraction(a, d)
    x, polys = qf ** n, []
    for group in (nums, dens):
        coeffs = [Fraction(1)] + [Fraction(0)] * K
        for c in group:
            c = Fraction(*_ratio(c)) * x
            coeffs = [coeffs[0]] + [coeffs[j] - c * coeffs[j - 1]
                                    for j in range(1, K + 1)]
        polys.append(coeffs)
    (ca, cb), sig = polys, []
    for k in range(K + 1):
        sig.append((cb[k] + sum((ca[j] * z * qf ** (k - j) - cb[j])
                                * sig[k - j] for j in range(1, k + 1)))
                   / (1 - z * qf ** k))
    G = sum(sig)
    return s * G.denominator + t * G.numerator, den * G.denominator


def _euler(r, q, terms):
    """sum_{k<terms} (-r)^k q^(k(k-1)/2) / (q;q)_k, the series of (r;q)_inf."""
    (a, b), (c, d) = _ratio(r), _ratio(q)
    t, s, den, ck, dk = 1, 0, 1, 1, 1
    for _ in range(terms):
        # t_(k+1) = t_k (-r) q^k / (1 - q^(k+1))
        up, down = -a * ck * d, b * (dk * d - ck * c)
        s, t, den = (s + t) * down, t * up, den * down
        ck, dk = ck * c, dk * d
    return s, den


@pytest.mark.parametrize("wp", _WPS)
def test_ratio_kernel_radius_holds_at_small_wp(monkeypatch, wp):
    # parameters shrink as q -> 1, so that the closure's L falls below the
    # stop within a few hundred terms however close q is to 1; the kernel
    # closes its sum at n = used - K - 1 with the K Taylor terms of its last
    # tail sum, which must be the one taken at that n's q^n
    tail, calls = qcore._tail_sum, []
    monkeypatch.setattr(qcore, "_tail_sum", lambda *args: calls.append(
        (args[2], args[7])) or tail(*args))
    rng = random.Random(wp)
    prec = wp - 4
    for _ in range(20):
        q = _dyadic(rng, 0.05, 1 - 1e-4)
        big = min(2.5, 1e-3 * (1 - q) * q ** -80)
        nums = [_dyadic(rng, -big, big) for _ in range(rng.randint(1, 2))]
        dens = [_dyadic(rng, -big, big) for _ in range(rng.randint(0, 2))]
        arg = _dyadic(rng, 0.05, 0.9) * rng.choice([1, -1])
        calls.clear()
        value, _, used, rad = qcore._ratio_kernel(
            [x._mpf_ for x in nums], [x._mpf_ for x in dens],
            [None] * len(nums + dens), q._mpf_, arg._mpf_, 0, 6, 2000, prec,
            wp)
        assert calls, ("no tail sum taken", wp, q, nums, dens, arg)
        QN, K = calls[-1]
        n, Q, qn = used - K - 1, qcore._fixed(q._mpf_, wp), 1 << wp
        for _ in range(n):
            qn = qn * Q >> wp
        assert n >= 0 and qn == QN, ("stop not at the last tail sum", wp, q)
        num, den = _series(nums, dens, q, arg, n, K)
        assert _within(num, den, mp.make_mpf(value), mp.make_mpf(rad)), (
            wp, q, nums, dens, arg)


@pytest.mark.parametrize("wp", _WPS)
def test_product_radius_holds_at_small_wp(monkeypatch, wp):
    # finite products over and under the line, whose value is rational, and
    # Euler's series alone (|x| <= theta), summed exactly far past the
    # kernel's stop: its tail from 60 terms on, below 3^60/60! < 1e-53, is
    # far below the radius; the tolerance is one that wp bits can meet
    monkeypatch.setattr(qcore, "_working_bits", lambda prec, raws: wp)
    rng = random.Random(wp)
    ctx = SimpleNamespace(digits=(wp - 16) * 3 // 10, max_terms=10 ** 5)
    for _ in range(12):
        q = _dyadic(rng, 0.05, 1 - 1e-4)
        theta = min(mpf(0.5), 3 * (1 - q))
        x, k = _dyadic(rng, -2.5, 2.5), rng.randint(1, 30)
        rs = [_dyadic(rng, -theta, theta) for _ in range(3)]
        with mp.workprec(wp - 4):
            over = qcore._quotient([ParamExpr.of(x)], [ParamExpr(x, k)], q,
                                   ctx)
            under = qcore._quotient([ParamExpr(x, k)], [ParamExpr.of(x)], q,
                                    ctx)
            euler = qcore._quotient([ParamExpr.of(r) for r in rs[:2]],
                                    [ParamExpr.of(rs[2])], q, ctx)
        num, den = 1, 1
        for j in range(k):
            f, g = _one_minus(x, q, j)
            num, den = num * f, den * g
        assert _within(num, den, over.value, over.err_estimate), (wp, q, x, k)
        assert _within(den, num, under.value, under.err_estimate), (
            wp, q, x, k)
        (a, b), (c, d), (e, f) = (_euler(r, q, 60) for r in rs)
        assert _within(a * c * f, b * d * e, euler.value,
                       euler.err_estimate), (wp, q, rs)
