"""Core evaluation engine: powers, Pochhammer symbols, phi/psi series,
custom bounded sums, and acceleration."""

import functools
import itertools
import math
import random
import re
import time
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from qseries import (
    CapExceededError,
    DivergenceError,
    InsufficientTermsError,
    NumericalBreakdownError,
    ParamExpr,
    PoleError,
    PrecisionCtx,
    QDomainError,
    QPoint,
    RunConfig,
    SamplingError,
    SeriesValue,
    SplitMix64,
    accelerate,
    classical_gamma,
    eta_quotient,
    eval_identity,
    phi,
    pochhammer_inf,
    pochhammer_n,
    psi_bilateral,
    qpow,
    run,
    sample_domain,
)
from qseries import identities, qcore, qgamma
from qseries.precision import to_real
from qseries.qcore import sum_with_ratio_bound
from qseries.registry import CATALOG, sample_domain


def rel_diff(x, y):
    x, y = mpf(x), mpf(y)
    return abs(x - y) / max(abs(x), abs(y), mpf("1e-40"))


# --- qpow --------------------------------------------------------------------

def test_qpow_zero_exponent():
    assert qpow(0.5, 0) == 1


def test_qpow_exact_square_root():
    assert rel_diff(qpow(0.25, 0.5), 0.5) < mpf("1e-45")


def test_qpow_fractional(ctx40):
    with ctx40.working():
        expected = mp.exp(mp.log(mpf("0.1")) / 24)
    got = qpow("0.1", mpf(1) / 24, ctx40)
    assert rel_diff(got, expected) < mpf("1e-45")
    assert mp.nstr(got, 25).startswith("0.908517")


def test_qpow_rejects_bad_base():
    with pytest.raises(QDomainError):
        qpow(1.2, 0.5)
    with pytest.raises(QDomainError):
        qpow(0, 2)


# --- pochhammer_inf ------------------------------------------------------------

def test_pochhammer_inf_a_zero():
    assert pochhammer_inf(0, 0.5).value == 1


def test_pochhammer_inf_vanishing_factor():
    v = pochhammer_inf(1, 0.3)
    assert v.value == 0 and v.certified


def test_pochhammer_inf_frozen_value(ctx40):
    # independent oracle: factors multiplied until a*q^N < 1e-40
    v = pochhammer_inf("0.5", "0.5", ctx40)
    assert mp.nstr(v.value, 25) == "0.2887880950866024212788997"


def test_pochhammer_inf_matches_brute_force(ctx40):
    rng = SplitMix64(11)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0)
        q = rng.uniform(0.05, 0.9)
        v = pochhammer_inf(a, q, ctx40)
        with mp.workdps(60):
            prod, qa, qn = mpf(1), mpf(a), mpf(1)
            while abs(qa) * qn > mpf("1e-55"):
                prod *= 1 - qa * qn
                qn *= mpf(q)
            assert rel_diff(v.value, prod) < mpf("1e-38")


def test_pochhammer_inf_error_contract(ctx40):
    v = pochhammer_inf(0.3, 0.6, ctx40)
    assert v.certified
    assert v.err_estimate <= ctx40.tail_tol() * abs(v.value)


def test_pochhammer_inf_cap():
    tiny = PrecisionCtx(digits=40, max_terms=3)
    with pytest.raises(CapExceededError):
        pochhammer_inf(0.5, 0.99, tiny)


def _pochhammer_inf_expm1_every_factor(a, q, ctx, expm1):
    """Reference loop that tests expm1(L) <= tol, L built as g + x^2 /
    ((1-q)(1-x)), x = |a| q^n, at every factor where x < 1 and g = x / (1-q)
    <= 2 tol. The rounded L is at least g, so a factor with g > 2 tol cannot
    stop. It runs at 20 digits above ctx's working precision, so that its
    rounding, which its estimate leaves out, stays far below the estimates
    compared."""
    with mp.workdps(ctx.working_dps + 20):
        tol = ctx.tail_tol()
        prod, qn, n, aa, omq = mpf(1), mpf(1), 0, abs(a), 1 - q
        c_over_omq = aa / omq
        while True:
            prod *= 1 - a * qn
            n += 1
            qn *= q
            g = c_over_omq * qn
            x = aa * qn
            if g <= 2 * tol and x < 1:
                rel = expm1(g + x * x / (omq * (1 - x)))
                if rel <= tol:
                    return SeriesValue(prod, abs(prod) * rel, n, True)


def test_pochhammer_inf_agrees_with_factor_loop_and_qp(monkeypatch):
    # Euler's series after the head agrees with the factor-by-factor
    # reference loop within both error bounds, and with mpmath's qp at 60
    # digits within its own bound plus 10^-60; its stop index is found in
    # one pass over the shared coefficients, and no expm1 is called
    expm1 = mp.expm1
    calls, built = [], []
    euler_terms = qcore._euler_terms

    def counting_euler_terms(*args):
        built.append(args)
        return euler_terms(*args)

    monkeypatch.setattr(mp, "expm1", lambda x: calls.append(x) or expm1(x))
    monkeypatch.setattr(qcore, "_euler_terms", counting_euler_terms)
    oracles = {}
    for ctx in [PrecisionCtx(digits=digits) for digits in (20, 40, 100)]:
        for q in ("0.1", "0.5", "0.9", "0.99"):
            for a in dict.fromkeys(("-0.99", "-0.9", "0.3", "0.99", q)):
                a, q = mpf(a), mpf(q)
                ref = _pochhammer_inf_expm1_every_factor(a, q, ctx, expm1)
                calls.clear()
                built.clear()
                got = pochhammer_inf(a, q, ctx)
                assert got.certified
                assert (abs(got.value - ref.value)
                        <= got.err_estimate + ref.err_estimate), (a, q, ctx)
                with mp.workdps(60):
                    if (a, q) not in oracles:
                        oracles[a, q] = mp.qp(a, q, maxterms=10 ** 6)
                    oracle = oracles[a, q]
                    assert abs(got.value - oracle) <= (
                        got.err_estimate + mpf(10) ** -60 * abs(oracle)), (
                        a, q, ctx)
                assert not calls and len(built) == 1, (a, q, ctx, built)


def test_pochhammer_inf_wide_input_bit_identical():
    # inputs wider than the working precision give the result of the same
    # inputs rounded to it first
    with mp.workdps(200):
        a, q = mp.pi / 4, 1 / mp.e
        wide = ((a, q), (-a, q))
    for digits in (20, 40):
        ctx = PrecisionCtx(digits=digits)
        for x, y in wide:
            with ctx.working():
                rx, ry = +x, +y
            assert rx != x and ry != y
            assert pochhammer_inf(x, y, ctx) == pochhammer_inf(rx, ry, ctx), (
                x, digits)


# --- prodquot ------------------------------------------------------------------

# (#nums, #dens) of the quotients checked at each q and precision: every
# count from 1 to 4 numerators and from 0 to 4 denominators
_PRODQUOT_SHAPES = ((1, 0), (1, 3), (2, 4), (3, 1), (4, 2))


def _documented_terms(params, q, ctx):
    """prodquot's terms_used for parameters that neither cancel nor
    telescope, by its documented rule: each head runs while |x q^n| >
    theta = min(1/2, 3(1-q)), and Euler's series on the remainders r stop
    at the first N where e_N R^N / (1 - R q^N / (1 - q^(N+1))), R = max |r|,
    meets tol 2^-10 / #params."""
    with ctx.working():
        theta = min(mpf(1) / 2, 3 * (1 - q))
        heads, rs = 0, []
        for x in params:
            n = 0
            while abs(x * q ** n) > theta:
                n += 1
            heads += n
            rs.append(abs(x * q ** n))
        big, m = max(rs), len(params)
        limit = ctx.tail_tol() / 1024 / m
        n = 0
        while True:
            e = q ** (n * (n - 1) // 2) / mp.qp(q, q, n)
            rho = big * q ** n / (1 - q ** (n + 1))
            if rho < 1 and e * big ** n / (1 - rho) <= limit:
                return heads + m * n
            n += 1


@pytest.mark.parametrize("q", ["0.05", "0.5", "0.9", "0.99"])
def test_prodquot_matches_qp_oracle(q):
    # four parameters of each sign, drawn once, and a tiny numerator whose
    # own bound would stop the loop long before the denominators' does; the
    # oracle is mpmath's qp at 60 digits, at least 20 above every precision
    # checked
    rng = SplitMix64(int(q[2:]))
    pos = [mpf(rng.uniform(0.05, 1.9)) for _ in range(4)]
    neg = [mpf(rng.uniform(-1.9, -0.05)) for _ in range(4)]
    tiny = mpf("1e-9")
    q = mpf(q)
    with mp.workdps(60):
        qp = {x: mp.qp(x, q, maxterms=10 ** 6) for x in pos + neg + [tiny]}
    # alternate signs, so that every side with two or more parameters
    # mixes them
    cases = [([(pos, neg)[i % 2][i // 2] for i in range(n_num)],
              [(neg, pos)[i % 2][i // 2 + 2] for i in range(n_den)])
             for n_num, n_den in _PRODQUOT_SHAPES]
    cases.append(([tiny], [neg[2], pos[2], neg[3], pos[3]]))
    for digits in (20, 40):
        ctx = PrecisionCtx(digits=digits)
        for nums, dens in cases:
            got = qcore.prodquot(nums, dens, q, ctx)
            assert got.certified
            assert got.terms_used == _documented_terms(nums + dens, q, ctx)
            with mp.workdps(60):
                oracle = mp.fprod(qp[x] for x in nums) / mp.fprod(
                    qp[y] for y in dens)
                bound = got.err_estimate + mpf(10) ** -digits * abs(oracle)
                assert abs(got.value - oracle) <= bound, (nums, dens, digits)


@pytest.mark.parametrize("q", ["0.3", "0.7", "0.9"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_prodquot_err_estimate_carries_rounding(q, n):
    # 1 - x q^n is about 1e-25 for x = q^-n (1 + 1e-25), so the rounding of
    # q^n, amplified 10^25 times, leaves an error far above 10^-20; the
    # certified estimate still covers it
    ctx = PrecisionCtx(digits=20)
    with ctx.working():
        q = mpf(q)
        x = q ** -n * (1 + mpf("1e-25"))
    got = qcore.prodquot([x], [mpf("0.5")], q, ctx)
    with mp.workdps(80):
        oracle = mp.qp(x, q) / mp.qp(mpf("0.5"), q)
        err = abs(got.value - oracle)
    assert mpf(10) ** -20 * abs(oracle) < err <= got.err_estimate


def test_prodquot_vanishing_numerator_is_exact_zero():
    # 1 - 8 q^3 = 0 at q = 1/2; the loop still runs to its normal stop
    got = qcore.prodquot([8, mpf("0.3")], [mpf("-0.4")], mpf("0.5"))
    assert got.value == 0 and got.err_estimate == 0 and got.certified
    assert got.terms_used > 3 * 3


@pytest.mark.parametrize("nums, dens, factor", [
    ([mpf("0.3")], [4], r"1 - \(4\.0\)\*q\^2"),
    ([8], [4], r"1 - \(4\.0\)\*q\^2"),
    ([4], [8], r"1 - \(8\.0\)\*q\^3"),
    # |x| beyond a double's range: its head of 1,330 factors passes the
    # up-front cap check
    ([mpf("1e400")], [4], r"1 - \(4\.0\)\*q\^2"),
], ids=["pole", "pole-before-zero", "pole-after-zero", "pole-after-huge-head"])
def test_prodquot_vanishing_denominator_is_a_pole(nums, dens, factor):
    # at q = 1/2, 1 - 4 q^2 and 1 - 8 q^3 vanish; a pole raises even after
    # a numerator factor has made the value 0
    with pytest.raises(PoleError, match=factor):
        qcore.prodquot(nums, dens, mpf("0.5"))


def _qp60(x, q):
    return mp.qp(x, q, maxterms=10 ** 6)


@pytest.mark.parametrize("q", ["0.3", "0.8"])
@pytest.mark.parametrize("k", [-4, -3, -2, -1, 1, 2, 3, 4])
def test_prodquot_reduces_exact_monomials(q, k):
    # x = -3/7 q^(1/2) over x q^k is the |k| finite factors of (x;q)_k or
    # 1/(x q^k;q)_-k, the equal pair 5/4 q^(3/2) cancels, and only the
    # sampled real 0.61 is left to the loop, so terms_used is |k| plus that
    # loop's factors; the oracle is mpmath's qp at 60 digits
    ctx = PrecisionCtx(digits=40)
    q = mpf(q)
    x = ParamExpr(Fraction(-3, 7), Fraction(1, 2))
    pair = ParamExpr(Fraction(5, 4), Fraction(3, 2))
    real = mpf("0.61")
    got = qcore.prodquot([x, pair, real], [pair, x * ParamExpr(1, k)], q, ctx)
    assert got.certified
    assert got.terms_used == abs(k) + pochhammer_inf(real, q, ctx).terms_used
    with mp.workdps(60):
        xv = mpf(-3) / 7 * mp.sqrt(q)
        oracle = _qp60(xv, q) * _qp60(real, q) / _qp60(xv * q ** k, q)
        bound = got.err_estimate + mpf(10) ** -40 * abs(oracle)
        assert abs(got.value - oracle) <= bound


@pytest.mark.parametrize("q", ["0.3", "0.8"])
def test_prodquot_exact_zero_numerator(q):
    # 1 - q^-2 q^2 vanishes exactly, as an infinite product and inside a
    # telescoped (q^-2;q)_3, whatever the rounded q^-2 q^2 is
    q = mpf(q)
    zero = ParamExpr(1, -2)
    for nums, dens in (([zero, mpf("0.4")], [mpf("-0.3")]),
                       ([zero], [ParamExpr(1, 1)])):
        got = qcore.prodquot(nums, dens, q)
        assert got.value == 0 and got.err_estimate == 0 and got.certified
    # over (q^-1;q)_inf, which vanishes too, the quotient telescopes to the
    # one factor 1 - q^-2
    got = qcore.prodquot([zero], [ParamExpr(1, -1)], q)
    with mp.workdps(60):
        assert rel_diff(got.value, 1 - q ** -2) < mpf("1e-45")
    assert got.terms_used == 1


@pytest.mark.parametrize("q", ["0.3", "0.8"])
@pytest.mark.parametrize("nums, dens, factor", [
    ([mpf("0.4")], [ParamExpr(1, -3)], r"1 - \(q\^-3\)\*q\^3"),
    ([ParamExpr(1, 1)], [ParamExpr(1, -1)], r"1 - \(q\^-1\)\*q\^1"),
], ids=["infinite", "telescoped"])
def test_prodquot_exact_pole_denominator(q, nums, dens, factor):
    # (q^-n;q) under the line vanishes at its factor n: a PoleError decided
    # from exponents, before any factor is computed
    with pytest.raises(PoleError, match=factor):
        qcore.prodquot(nums, dens, mpf(q))


@pytest.mark.parametrize("a, q", [("0.5", "0.5"), ("-1.7", "0.3"),
                                  ("0.9", "0.7"), ("-1.7", "1e-400")])
def test_prodquot_refuses_a_stop_beyond_the_cap(monkeypatch, a, q):
    # a product stops after terms_used head factors and series terms: under
    # a cap at or just above that it is certified as without a cap, under
    # one just below it raises, and under one far below it is refused by
    # the pass that finds the stop index, before any series term is summed
    a, q = mpf(a), mpf(q)
    free = pochhammer_inf(a, q, PrecisionCtx(digits=20))
    stop = free.terms_used
    assert stop < 200
    for cap in (stop, stop + 1):
        assert pochhammer_inf(a, q, PrecisionCtx(digits=20,
                                                 max_terms=cap)) == free
    with pytest.raises(CapExceededError):
        pochhammer_inf(a, q, PrecisionCtx(digits=20, max_terms=stop - 1))
    found = []
    euler_terms = qcore._euler_terms
    monkeypatch.setattr(qcore, "_euler_terms",
                        lambda *args: found.append(euler_terms(*args)))
    with pytest.raises(CapExceededError, match="cannot be certified"):
        pochhammer_inf(a, q, PrecisionCtx(digits=20, max_terms=stop // 2))
    assert found == [None]


def test_prodquot_cap_never_refuses_a_certified_product():
    # at every cap from the stop index up, the up-front check lets through
    # what the loop certifies, on products of one to three parameters
    rng = SplitMix64(23)
    for _ in range(40):
        q = mpf(rng.uniform(0.05, 0.95))
        nums = [mpf(rng.uniform(-2, 2)) for _ in range(1 + rng.next_u64() % 2)]
        dens = [mpf(rng.uniform(-0.9, 0.9)) for _ in range(rng.next_u64() % 2)]
        free = qcore.prodquot(nums, dens, q, PrecisionCtx(digits=20))
        capped = PrecisionCtx(digits=20, max_terms=free.terms_used)
        assert qcore.prodquot(nums, dens, q, capped) == free


@pytest.mark.parametrize("call, error", [
    (lambda: pochhammer_inf(0.5, 0.9999999), CapExceededError),
    (lambda: qgamma.gamma_q(0.5, 0.9999999), CapExceededError),
    (lambda: phi([0.5], [], 0.9999999, 0.5), CapExceededError),
    (lambda: psi_bilateral([2.5], [0.999], 0.9999999, 0.9), CapExceededError),
    # a den exactly q^-n is a pole decided from exponents before any cap
    # screen or factor, in products and series alike; psi decides its
    # negative half's before it sums its positive half, which would run to
    # the cap
    (lambda: qcore.prodquot([0.4], [ParamExpr(1, -3)], 0.9999999),
     PoleError),
    (lambda: psi_bilateral([ParamExpr(1, 3)], [1e-9], 0.9999999, 0.999),
     PoleError),
    (lambda: phi([0.5], [ParamExpr(1, -2)], 0.9999999, 0.5), PoleError),
], ids=["pochhammer_inf", "gamma_q", "phi", "psi_bilateral",
        "prodquot-exact-pole", "psi-exact-pole", "phi-exact-pole"])
def test_q_near_one_fails_fast(call, error):
    # about 10^8 head factors, or series terms that keep growing past the
    # cap: refused at once, not after seconds
    start = time.process_time()
    with pytest.raises(error):
        call()
    assert time.process_time() - start < 0.1


def test_q_within_a_fixed_point_unit_of_one_is_a_typed_error():
    # q = 1 - 1e-150, an mpf finer than the 40-digit working precision,
    # lies within 2^-wp of 1, where q^n's radius has no fixed point: a
    # typed error (the factor 1 - q rounds to 0), never ZeroDivisionError
    with mp.workdps(200):
        q = 1 - mpf(10) ** -150
    with pytest.raises(PoleError):
        phi([0.5], [], q, mpf("1e-30"))


def test_ratio_series_near_one_certifies_what_it_can():
    # under a cap at its stop index, g at the cap is about 12, far above
    # tol, yet the terms of (0.5;q)_n/(q;q)_n 0.5^n shrink after n = 25:
    # the sum is certified as without a cap, as the q-binomial theorem's
    # (0.25;q)_inf / (0.5;q)_inf, and not refused up front
    q = mpf("0.99")
    free = phi([0.5], [], q, 0.5)
    capped = phi([0.5], [], q, 0.5, PrecisionCtx(max_terms=free.terms_used))
    assert capped == free and free.certified
    with mp.workdps(60):
        oracle = _qp60(mpf("0.25"), q) / _qp60(mpf("0.5"), q)
        assert abs(free.value - oracle) <= (
            free.err_estimate + mpf(10) ** -40 * abs(oracle))


# --- pochhammer_n ---------------------------------------------------------------

def test_pochhammer_n_empty_product():
    assert pochhammer_n(0.7, 0.5, 0).value == 1


def test_pochhammer_n_vanishing_factor():
    assert pochhammer_n(2, 0.5, 3).value == 0


def test_pochhammer_n_negative_index():
    # 1/(1 - 0.25/0.5) = 2
    assert rel_diff(pochhammer_n(0.25, 0.5, -1).value, 2) < mpf("1e-45")


def test_pochhammer_n_negative_pole():
    with pytest.raises(PoleError):
        pochhammer_n(0.5, 0.5, -1)  # 1 - a/q = 0


def test_pochhammer_n_recurrence(ctx40):
    rng = SplitMix64(5)
    for _ in range(50):
        a = rng.uniform(-3.0, 3.0)
        q = rng.uniform(0.05, 0.9)
        n = int(rng.next_u64() % 15)
        with mp.workdps(60):
            lhs = pochhammer_n(a, q, n + 1, ctx40).value
            rhs = (pochhammer_n(a, q, n, ctx40).value
                   * (1 - mpf(a) * mpf(q) ** n))
            assert abs(lhs - rhs) <= mpf("1e-38") * max(1, abs(lhs))


# --- phi -------------------------------------------------------------------------

def test_phi_z_zero():
    assert phi([0.3], [], 0.5, 0).value == 1


def test_phi_geometric_reduction():
    # upper parameter q cancels (q;q)_n: plain geometric series
    v = phi([0.5], [], 0.5, 0.5)
    assert rel_diff(v.value, 2) < mpf("1e-45")


def test_phi_matches_term_oracle(ctx40):
    v = phi([0.2], [0.7], 0.5, 0.4, ctx40)
    with mp.workdps(60):
        a, b, q, z = mpf(0.2), mpf(0.7), mpf(0.5), mpf(0.4)
        s, t = mpf(0), mpf(1)
        for n in range(200):
            s += t
            t *= (1 - a * q ** n) / ((1 - q ** (n + 1)) * (1 - b * q ** n)) * z
        assert rel_diff(v.value, s) < mpf("1e-30")


def test_phi_divergent_argument():
    with pytest.raises(DivergenceError):
        phi([0.2], [0.3], 0.5, 1.0)


def test_phi_lower_pole():
    # lower parameter q^-1 makes (b;q)_n vanish at n=1
    with pytest.raises(PoleError):
        phi([0.3], [2.0], 0.5, 0.4)


_EXACT_GRID_QS = ["0.3", "0.37", "0.61", "0.9", "0.99", "0.123"]


@pytest.mark.parametrize("q", _EXACT_GRID_QS)
def test_phi_exact_upper_q_power_terminates(q):
    # an upper q^-k, typed exactly, ends the series at its term k, decided
    # from the exponent as prodquot decides 1 - q^-k q^k = 0; from its
    # rounded value the factor was 0 or a NumericalBreakdownError by the
    # luck of libmpf's rounding. The sum is certified for the rounded
    # inputs, so the oracle at the exact monomial gets 10^-40 of slack
    ctx = PrecisionCtx(digits=40)
    with ctx.working():
        q = mpf(q)
    c, h = ParamExpr(Fraction(3, 10)), ParamExpr(Fraction(1, 2))
    for k in range(1, 16):
        got = phi([ParamExpr(1, -k), c], [h], q, mpf(1) / 2, ctx)
        assert got.certified and got.terms_used == k + 1, k
        with mp.workdps(80):
            oracle = mp.qhyper([q ** -k, mpf(3) / 10], [mpf(1) / 2], q,
                               mpf(1) / 2)
            assert abs(got.value - oracle) <= (
                got.err_estimate + mpf(10) ** -40 * abs(oracle)), k


@pytest.mark.parametrize("q", _EXACT_GRID_QS)
def test_phi_exact_lower_q_power_is_a_pole(q):
    # a lower q^-k, typed exactly, makes (b;q)_n vanish from n = k + 1 on:
    # a PoleError naming the factor 1 - b q^k, raised before any term
    ctx = PrecisionCtx(digits=40)
    with ctx.working():
        q = mpf(q)
    c, h = ParamExpr(Fraction(3, 10)), mpf(1) / 2
    for k in range(1, 16):
        with pytest.raises(PoleError, match=rf"1 - \(.*\)\*q\^{k}$"):
            phi([c], [ParamExpr(1, -k)], q, h, ctx)


@pytest.mark.parametrize("q", _EXACT_GRID_QS)
def test_phi_ends_before_its_exact_lower_pole(q):
    # an upper q^-j ends the series at its term j, before a lower q^-k, j <
    # k, makes (b;q)_n vanish: the finite sum of Gasper & Rahman's
    # convention, not a pole; at j = k the term after the last is 0/0, a
    # pole. The oracle sums the same j + 1 terms at the exact monomials
    ctx = PrecisionCtx(digits=40)
    with ctx.working():
        q = mpf(q)
    c, h = ParamExpr(Fraction(3, 10)), mpf(1) / 2
    for k in range(2, 16):
        for j in (1, k - 1):
            got = phi([ParamExpr(1, -j), c], [ParamExpr(1, -k)], q, h, ctx)
            assert got.certified and got.terms_used == j + 1, (j, k)
            with mp.workdps(80):
                a, b, c3 = q ** -j, q ** -k, mpf(3) / 10
                oracle = mp.fsum(mp.qp(a, q, n) * mp.qp(c3, q, n) * h ** n
                                 / (mp.qp(q, q, n) * mp.qp(b, q, n))
                                 for n in range(j + 1))
                assert abs(got.value - oracle) <= (
                    got.err_estimate + mpf(10) ** -40 * abs(oracle)), (j, k)
        with pytest.raises(PoleError, match=rf"1 - \(.*\)\*q\^{k}$"):
            phi([ParamExpr(1, -k), c], [ParamExpr(1, -k)], q, h, ctx)


def test_phi_q_binomial_theorem(ctx40):
    # sum (a)_n/(q)_n z^n = (az)_inf/(z)_inf
    rng = SplitMix64(7)
    for _ in range(30):
        a = rng.uniform(-2.0, 2.0)
        q = rng.uniform(0.05, 0.8)
        z = rng.uniform(0.05, 0.9)
        with mp.workdps(60):
            lhs = phi([a], [], q, z, ctx40).value
            rhs = (pochhammer_inf(mpf(a) * mpf(z), q, ctx40)
                   / pochhammer_inf(z, q, ctx40)).value
            assert rel_diff(lhs, rhs) < mpf("1e-32")


def test_phi_far_above_the_fixed_point_scale(ctx40):
    # the terms of (-10^60;q)_n / (q;q)_n 2^-n grow for about 200 head steps
    # to near the value 1.16e5951, far above 2^wp, so the stop test runs
    # with each term at a scale 2^-(wp + sh), wp + sh < 0; the oracle is
    # mpmath's qhyper at 60 digits
    got = phi([-1e60], [], 0.5, 0.5, ctx40)
    assert got.certified
    with mp.workdps(60):
        oracle = mp.qhyper([mpf(-1e60)], [], mpf(0.5), mpf(0.5))
        assert mpf("1e5951") < oracle < mpf("1e5952")
        assert abs(got.value - oracle) <= (got.err_estimate
                                           + mpf(10) ** -40 * abs(oracle))


def test_psi_growing_head_terms_fail_fast():
    # the negative half has upper parameters near 1e270 and argument about
    # -6e-263: its terms grow by up to 1e270 a step until c q^n < 1 near n =
    # 29,000; the screen refuses it at once, and the kernel itself keeps
    # each term and the sum at about wp bits, so that it reaches a cap of
    # 1,000 or 4,000 in linear, not quadratic, time
    a = [0.6588746115419815, 9.004478993653168e-09]
    b = [5.520942258610341e-271, 7.385324949087026e-271]
    q, z = 0.9789538883489872, -1.0955444237645575e-270
    for cap in (1000, 4000):
        ctx = PrecisionCtx(20, max_terms=cap)
        start = time.process_time()
        with pytest.raises(CapExceededError):
            psi_bilateral(a, b, q, z, ctx)
        with ctx.working(), pytest.raises(CapExceededError):
            q_, w = mpf(q), mpf(b[0]) * mpf(b[1]) / (mpf(z) * a[0] * a[1])
            nums = [(q_ * q_ / mpf(x))._mpf_ for x in b]
            dens = [(q_ * q_ / mpf(x))._mpf_ for x in a]
            qcore._ratio_kernel(nums, dens, [None] * 4, q_._mpf_, w._mpf_, 6,
                                20, cap, mp.prec,
                                qcore._working_bits(mp.prec, nums + dens))
        assert time.process_time() - start < 1, cap


@pytest.mark.parametrize("q", ["1e-17", "1e-80", "1e-400"])
def test_phi_q_binomial_theorem_at_tiny_q(ctx40, q):
    # 1 - q rounds to 1 as a float for q this small, and log1p(-1) raised a
    # bare ValueError before the first term
    q = mpf(q)
    got = phi([0.5], [], q, 0.3, ctx40)
    want = qcore.prodquot([mpf(0.5) * mpf(0.3)], [mpf(0.3)], q, ctx40)
    with mp.workdps(60):
        assert got.certified
        assert abs(got.value - want.value) <= (got.err_estimate
                                               + want.err_estimate)


def _closure_oracle_cases():
    """(label, series, oracle) with the series a thunk evaluated at ctx and
    the oracle a closed form built from mpmath's qp: the q-binomial theorem
    for 1phi0, q-Gauss for 2phi1 at z = c/(ab) and Ramanujan's 1psi1 sum,
    at |z| and |b/(az)| from 0.75 up to 1 - 2^-64, where 1 - z is below 2^-60
    of the working scale. Every parameter but q is a short binary fraction,
    so the arguments z and b/(az), to which the sums near 1 are
    ill-conditioned, are exact at every precision."""
    qp = mp.qp
    for z in (mpf("0.75"), mpf("-0.75"), 1 - mpf(2) ** -10,
              -1 + mpf(2) ** -10, 1 - mpf(2) ** -17, 1 - mpf(2) ** -64):
        q, a = mpf("0.5"), mpf("0.375")
        yield (f"1phi0 z={z}",
               lambda ctx, q=q, a=a, z=z: phi([a], [], q, z, ctx),
               qp(a * z, q) / qp(z, q))
        a, b = mpf("0.5"), mpf("-0.375")
        c = z * a * b
        yield (f"2phi1 z={z}",
               lambda ctx, q=q, a=a, b=b, c=c, z=z: phi([a, b], [c], q, z, ctx),
               qp(c / a, q) * qp(c / b, q) / (qp(c, q) * qp(z, q)))
        # |b/a| just inside |z|, so both halves of the 1psi1 are near 1
        q, a = mpf("0.3"), mpf("0.5")
        b = a * z * (1 - mpf(2) ** -20)
        yield (f"1psi1 z={z}",
               lambda ctx, q=q, a=a, b=b, z=z: psi_bilateral([a], [b], q, z,
                                                             ctx),
               qp(q, q) * qp(b / a, q) * qp(a * z, q) * qp(q / (a * z), q)
               / (qp(b, q) * qp(q / a, q) * qp(z, q) * qp(b / (a * z), q)))
    # the negative half's w = b/(az) at 1 - 2^-64, z = 0.75
    q, a, z = mpf("0.3"), mpf("0.5"), mpf("0.75")
    b = a * z * (1 - mpf(2) ** -64)
    yield ("1psi1 w=1-2^-64",
           lambda ctx: psi_bilateral([a], [b], q, z, ctx),
           qp(q, q) * qp(b / a, q) * qp(a * z, q) * qp(q / (a * z), q)
           / (qp(b, q) * qp(q / a, q) * qp(z, q) * qp(b / (a * z), q)))


@pytest.mark.parametrize("digits", [20, 40, 100])
def test_geometric_closure_is_sound(digits):
    # the closed tail t_n/(1-z) must lie within err_estimate of the closed
    # forms, and |z| -> 1 must cost about log(tol)/log(q) terms, not
    # log(tol)/log|z| (about 94,000 at z = 1 - 2^-10 and 40 digits)
    ctx = PrecisionCtx(digits=digits)
    with mp.workdps(digits + 20):
        for label, series, oracle in _closure_oracle_cases():
            v = series(ctx)
            assert v.certified, label
            assert abs(v.value - oracle) <= (
                v.err_estimate + mpf(10) ** -(digits + 5) * abs(oracle)), label
            assert v.terms_used < 1000, (label, v.terms_used)


def _tail_terms(num_params, den_params, q, arg, x, K):
    """sigma_0..sigma_K of the tail T(x) = 1 + arg r(x) T(q x) in mpf, by
    sigma_k (1 - arg q^k) = b_k + sum_j (a_j arg q^(k-j) - b_j) sigma_(k-j),
    a_j and b_j the coefficients of w^j in prod (1 - u x w) and prod (1 - b
    x w)."""
    polys = []
    for group in (num_params, den_params):
        coeffs = [mpf(1)]
        for c in group:
            coeffs = [p - c * x * r for p, r in
                      zip(coeffs + [mpf(0)], [mpf(0)] + coeffs)]
        polys.append(coeffs)
    (a, b), sig, zq = polys, [], [arg]
    p = max(len(a), len(b)) - 1
    a, b = a + [0] * (p + 1 - len(a)), b + [0] * (p + 1 - len(b))
    for k in range(K + 1):
        total = b[k] if k <= p else mpf(0)
        for j in range(1, min(k, p) + 1):
            total += (a[j] * zq[k - j] - b[j]) * sig[k - j]
        sig.append(total / (1 - zq[k]))
        zq.append(zq[k] * q)
    return sig


def _least_need(C, cs, d, q, x, n):
    """min over 0 < v < log(1 / (max|c| x)) of (C + L(v)) / v, at least 1,
    by golden section in doubles: L(v) = |d| y / (1-q) + sum c^2 y^2 / (2
    (1 - q^2) (1 - |c| y)) - log(1 - x/y) at y = x e^v, plus the kernel's
    margin 2^-28 (1 + |C| + L / (1 - max|c| y) + (n + 1) log(y / (max|c|
    x))) for its doubles' rounding. Returns it with its v and L."""
    cm, q, x = max(cs), float(q), float(x)

    def big_l(v):
        y = x * math.exp(v)
        L = (d * y / (1 - q) - math.log(-math.expm1(-v))
             + sum(c * c * y * y / (2 * (1 - q * q) * (1 - c * y))
                   for c in cs))
        return L + 2 ** -28 * (1 + abs(C) + L / (1 - cm * y)
                               + (n + 1) * (v - math.log(cm * x)))

    lo, hi = 0.0, -math.log(cm * x)
    g = (math.sqrt(5) - 1) / 2
    for _ in range(100):
        v1, v2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if (C + big_l(v1)) / v1 <= (C + big_l(v2)) / v2:
            hi = v2
        else:
            lo = v1
    v = (lo + hi) / 2
    return max(1.0, (C + big_l(v)) / v), v, big_l(v)


def _ratio_series_every_term(num_params, den_params, q, arg, ctx):
    """Reference loop of the Taylor closure's stop rule, the terms and sums
    in mpf and the rule in doubles: need(n), the least real K + 1 with |t|
    (x/y)^(K+1) e^L / (1 - |arg|) <= tol max(|V1|, tol) at x = q^n, V1 = s
    + t / (1 - arg), or V of the last close that fell short where that is
    less, minimised over y wherever every |c| x < 1; the sum stops at the
    first n with need(n) <= n + 1 and need(n - 1) <= min(n + 1, need(n) +
    2), once that bound at K = ceil(need) - 1 meets tol max(|V|, tol), V =
    s + t sum_(k<=K) sigma_k."""
    ltol = -ctx.digits * math.log(10)
    cs = [abs(float(c)) for c in num_params + den_params]
    d = abs(float(sum(den_params) - sum(num_params)))
    lz = -math.log(1 - abs(float(arg)))
    s, t, qn, last, lvf = mpf(0), mpf(1), mpf(1), math.inf, math.inf
    for n in itertools.count():
        if t == 0:
            return SeriesValue(s, mpf(0), n, True)
        need = math.inf
        if max(cs) * float(qn) < 1:
            v1 = s + t / (1 - arg)
            lt = float(mp.log(abs(t)))
            C = lt + lz - ltol - max(
                min(float(mp.log(abs(v1))) if v1 else ltol, lvf), ltol)
            need, v, L = _least_need(C, cs, d, q, qn, n)
        if need <= n + 1 and last - need <= 2:
            K = max(0, math.ceil(need) - 1)
            value = s + t * sum(_tail_terms(num_params, den_params, q, arg,
                                            qn, K))
            lb = lt - (K + 1) * v + L + lz
            lv = float(mp.log(abs(value))) if value else ltol
            if lb <= ltol + max(lv, ltol) - 2 ** -28 * (1 + abs(lv) - ltol):
                return SeriesValue(value, mpf(math.exp(lb)), n + K + 1, True)
            lvf = lv
        last = need if need <= n + 2 else math.inf
        s += t
        num = mpf(1)
        for u in num_params:
            num *= 1 - u * qn
        den = mpf(1)
        for b in den_params:
            f = 1 - b * qn
            if f == 0:
                raise PoleError(f"vanishing denominator factor at n={n}")
            den *= f
        t = t * num / den * arg
        qn *= q


def _ratio_series_cases():
    """(num, den, q, arg) as phi and psi_bilateral pass them, built at the
    precision in force: phi puts q first among the den parameters, for the
    (q;q)_n."""
    q = mpf("0.6")
    for z in (mpf("0.7"), mpf("-0.7")):
        yield [mpf("0.3")], [q], q, z  # 1phi0
        yield [mpf("0.2"), mpf("-0.5")], [q, mpf("0.7")], q, z
        yield ([mpf("0.1"), mpf("0.4"), mpf("-0.6")],
               [mpf("0.9"), mpf("0.3"), mpf("0.8")], mpf("0.9"), z)  # 3phi2
    # |b| > 1: the tail cannot close until |b| q^n < 1
    yield [mpf("0.5")], [q, mpf("1.7")], q, mpf("0.6")
    yield [mpf("0.5")], [q, mpf("-2.5")], q, mpf("-0.6")
    # even where a tiny argument makes g |t|/(1-|arg|) small early: this
    # one stops at n = 8 with L = 5.165, so the bound on expm1(L) must hold
    # far beyond L < 1
    yield [mpf("0.5")], [q, mpf(-40)], q, mpf("1e-20")
    # |b| q^n = 1 exactly at n = 2 does not close the tail there
    yield [mpf("0.5")], [mpf("0.5"), mpf(-4)], mpf("0.5"), mpf("1e-20")
    # an upper parameter q^-2 ends the sum after n = 2 with no closure
    # error: its estimate is the rounding bound alone
    yield [mpf(4)], [mpf("0.5"), mpf("0.3")], mpf("0.5"), mpf("0.7")
    # psi_bilateral with b = q sums the positive half alone
    yield [mpf("0.4")], [q], q, mpf("0.5")
    # the negative half of psi_bilateral([a], [b], q, z), its exact 1 at
    # m = 0 included
    a, b = mpf("0.5"), mpf("0.3")
    for z in (mpf("0.7"), mpf("-0.9")):
        yield [q / b], [q / a], q, b / (a * z)


@pytest.mark.parametrize("ctx", [PrecisionCtx(digits=20),
                                 PrecisionCtx(digits=40),
                                 PrecisionCtx(digits=100)],
                         ids=["d20", "d40", "d100"])
def test_ratio_series_matches_every_term_reference(monkeypatch, ctx):
    # the kernel's stop rule, its need minimised by Newton's method in
    # doubles from the fixed point and screened only where it cannot stop,
    # must stop at the same term and K as the reference's golden section
    # over terms in mpf; the fixed-point sum must lie within its estimate,
    # rounding included, of the reference summed with 64 more bits; and
    # phi/psi call no mpmath expm1
    expm1 = mp.expm1
    calls = []
    monkeypatch.setattr(mp, "expm1", lambda x: calls.append(x) or expm1(x))
    with ctx.working():
        for case in _ratio_series_cases():
            ref = _ratio_series_every_term(*case, ctx)
            with mp.workprec(mp.prec + 64):
                fine = _ratio_series_every_term(*case, ctx)
            calls.clear()
            nums, dens, q, arg = case
            got = qcore._ratio_series(nums, dens, [None] * len(nums + dens),
                                      q, arg, ctx)
            assert not calls, case
            assert got.certified and got.terms_used == ref.terms_used, case
            with mp.workprec(mp.prec + 64):
                assert abs(got.value - fine.value) <= got.err_estimate, case


@pytest.mark.parametrize("kind, upper, lower, q, z, digits", [
    # d = sum den - sum num = 0 (q counts among phi's dens): L1 = 0
    ("phi", ["0.6", "0.3"], ["0.4"], "0.5", "0.9", 40),
    # d = q + 1.25 >= 2 as q -> 1, where L1 = |d| y / (1-q) dominates L
    ("phi", ["-1.5", "0.5"], ["0.25"], "0.9", "0.9", 40),
    ("phi", ["-1.5", "0.5"], ["0.25"], "0.99", "0.9", 40),
    ("phi", ["-1.5", "0.5"], ["0.25"], "0.999", "0.9", 20),
    ("phi", ["-1.5", "0.5"], ["0.25"], "0.9999", "0.9", 20),
    # a psi whose negative half has |w| = |b/(az)| = 0.999
    ("psi", ["0.375"], ["0.280968750"], "0.5", "0.75", 40),
    # psi([2], [b], 0.3, 0.45): at small |w| the negative half's series is
    # its exact 1 plus little, so that half, the series less the 1, is
    # small; at b = 0.8991, |w| = 0.999 at the annulus edge
    ("psi", ["2"], ["1e-12"], "0.3", "0.45", 40),
    ("psi", ["2"], ["1e-30"], "0.3", "0.45", 40),
    ("psi", ["2"], ["0.2"], "0.3", "0.45", 40),
    ("psi", ["2"], ["0.8991"], "0.3", "0.45", 40),
], ids=["d0", "d2-q0.9", "d2-q0.99", "d2-q0.999", "d2-q0.9999", "psi-w0.999",
        "psi-b1e-12", "psi-b1e-30", "psi-b0.2", "psi-b0.8991-w0.999"])
def test_taylor_closure_within_its_bound(kind, upper, lower, q, z, digits):
    # the value s + t sum_(k<=K) sigma_k lies within the closure's bound
    # plus its radius of qhyper, summed far past the stop, or of Ramanujan's
    # 1psi1 product
    ctx = PrecisionCtx(digits=digits)
    with ctx.working():
        upper, lower = [mpf(x) for x in upper], [mpf(x) for x in lower]
        q, z = mpf(q), mpf(z)
    got = (phi if kind == "phi" else psi_bilateral)(upper, lower, q, z, ctx)
    with mp.workdps(digits + 30):
        if kind == "phi":
            oracle = mp.qhyper(upper, lower, q, z, maxterms=10 ** 6)
        else:
            (a,), (b,) = upper, lower
            oracle = (_qp60(q, q) * _qp60(b / a, q) * _qp60(a * z, q)
                      * _qp60(q / (a * z), q)
                      / (_qp60(b, q) * _qp60(q / a, q) * _qp60(z, q)
                         * _qp60(b / (a * z), q)))
        assert got.certified and abs(got.value - oracle) <= got.err_estimate


def test_readme_examples_take_second_order_terms():
    # the Taylor closure takes 23 and 7,551 terms
    assert phi([0.5], [], 0.5, 1 - 2 ** -10).terms_used <= 25
    assert phi([0.5], [], 0.99985, 0.5).terms_used <= 7_600


def test_near_one_phi_closes_in_one_kernel_run(monkeypatch):
    # eq-4.2's phi at q = 0.9999 closes with K = 3,930 Taylor terms, whose
    # radius, carried in the fixed point's ints, is 2^43 units of 2^-wp
    # (the sum's true error about 2^25): no rerun at a raised wp is needed
    kernel, tail, runs, sums = qcore._ratio_kernel, qcore._tail_sum, [], []
    monkeypatch.setattr(qcore, "_ratio_kernel", lambda *args: runs.append(
        args[-1]) or kernel(*args))
    monkeypatch.setattr(qcore, "_tail_sum", lambda *args: sums.append(
        tail(*args)) or sums[-1])
    side = next(e for e in CATALOG if e.id == "eq-4.2").rhs
    assert side(QPoint(mpf("0.9999"), {}), PrecisionCtx()).certified
    assert len(runs) == 1
    radius = sums[-1][1]
    assert radius is not None and radius < 2 ** 64


def test_tail_bound_holds_past_the_taylor_terms():
    # for random series at 80 digits, the tail sum_(k>K) sigma_k, summed
    # from the recurrence to order 400, lies within the Cauchy bound (x/y)^
    # (K+1) e^(L1(y) + L2(y)) / ((1 - x/y) (1 - |z|)) the kernel uses and
    # within the majorant's (x/y)^(K+1) e^L(y) / (1 - |z|), L(y) = sum |c| y
    # / ((1-q) (1 - |c| y))
    rng = random.Random(11)
    with mp.workdps(80):
        for _ in range(60):
            q = mpf(rng.uniform(0.05, 0.95))
            nums = [mpf(rng.uniform(-2, 2)) for _ in range(rng.randint(1, 3))]
            dens = [q] + [mpf(rng.uniform(-2, 2))
                          for _ in range(rng.randint(0, 2))]
            z = mpf(rng.uniform(-0.99, 0.99))
            cs = [abs(c) for c in nums + dens]
            x = mpf(rng.uniform(0.05, 0.9)) / max(cs)
            y = x + (1 / max(cs) - x) * mpf(rng.uniform(0.1, 0.9))
            sig = _tail_terms(nums, dens, q, z, x, 400)
            d = abs(sum(dens) - sum(nums))
            l1 = d * y / (1 - q)
            l2 = sum(c * c * y * y / (2 * (1 - q * q) * (1 - c * y))
                     for c in cs)
            big_l = sum(c * y / ((1 - q) * (1 - c * y)) for c in cs)
            for K in (0, 1, 3, 8, 20):
                tail = abs(sum(sig[K + 1:]))
                assert tail <= ((x / y) ** (K + 1) * mp.exp(l1 + l2)
                                / ((1 - x / y) * (1 - abs(z))))
                assert tail <= (x / y) ** (K + 1) * mp.exp(big_l) / (
                    1 - abs(z))


# --- psi_bilateral ------------------------------------------------------------------

def test_psi_reduces_to_q_binomial(ctx40):
    # b = q kills every negative-index term (1/(q;q)_-m = 0)
    lhs = psi_bilateral([0.3], [0.5], 0.5, 0.4, ctx40).value
    rhs = phi([0.3], [], 0.5, 0.4, ctx40).value
    assert rel_diff(lhs, rhs) < mpf("1e-35")


def test_psi_closed_form_point(ctx40):
    # bilateral side of the (3.2) special case at q = 0.5
    v = psi_bilateral([-0.5], [-0.125], 0.5, 0.5, ctx40)
    assert rel_diff(v.value, 7.5) < mpf("1e-35")


def test_psi_matches_product_side(ctx40):
    with mp.workdps(60):
        a, b, q, z = mpf("0.5"), mpf("0.05"), mpf("0.3"), mpf("0.4")
        lhs = psi_bilateral([a], [b], q, z, ctx40).value
        prod = (pochhammer_inf(a * z, q, ctx40)
                * pochhammer_inf(q / (a * z), q, ctx40)
                * pochhammer_inf(q, q, ctx40) * pochhammer_inf(b / a, q, ctx40)
                / (pochhammer_inf(z, q, ctx40)
                   * pochhammer_inf(b / (a * z), q, ctx40)
                   * pochhammer_inf(b, q, ctx40)
                   * pochhammer_inf(q / a, q, ctx40)))
        assert rel_diff(lhs, prod.value) < mpf("1e-35")


def test_psi_estimate_carries_the_rounding_of_w():
    # b/a just inside z = -0.7, so |w| = |b/(az)| = 1 - 2^-36: the rounding
    # of w moves the negative half about 1/(1-|w|)^2 times as much, and the
    # estimate carries it: an error of 5.396e-9 within 2.593e-8, where the
    # estimate without w's radius would be 1.982e-9
    with mp.workdps(40):
        q, a, z = mpf("0.3"), mpf("0.5"), mpf("-0.7")
        b = a * z * (1 - mpf(2) ** -36)
    with mp.workdps(60):
        oracle = (_qp60(q, q) * _qp60(b / a, q) * _qp60(a * z, q)
                  * _qp60(q / (a * z), q)
                  / (_qp60(b, q) * _qp60(q / a, q) * _qp60(z, q)
                     * _qp60(b / (a * z), q)))
    got = psi_bilateral([a], [b], q, z, PrecisionCtx(digits=20))
    with mp.workdps(60):
        assert got.certified and abs(got.value - oracle) <= got.err_estimate


def test_psi_certified_just_inside_the_rounding_margin_of_w():
    # psi refuses |w| within twice w's rounding, 2 (2r + 1) 2^-prec, of 1;
    # at 13 2^-prec from 1 the ball of 1 - w is still clear of 0, and the
    # Taylor closure must certify its sum there
    ctx = PrecisionCtx(digits=20)
    with ctx.working():
        prec = mp.prec
    with mp.workprec(prec + 40):
        q, a, z = mpf("0.3"), mpf("0.5"), mpf("0.75")
        b = a * z * (1 - 13 * mpf(2) ** -prec)
    got = psi_bilateral([a], [b], q, z, ctx)
    with mp.workdps(60):
        oracle = (_qp60(q, q) * _qp60(b / a, q) * _qp60(a * z, q)
                  * _qp60(q / (a * z), q)
                  / (_qp60(b, q) * _qp60(q / a, q) * _qp60(z, q)
                     * _qp60(b / (a * z), q)))
        assert got.certified and abs(got.value - oracle) <= got.err_estimate


def test_psi_negative_half_counts_terms_summed(ctx40):
    # lower b = q^3 at q = 1/2 makes the negative half's upper parameter
    # q/b = q^-2, so that half ends after its terms m = 0, 1 and 2 (the
    # exact 1 at m = 0, then the terms n = -1 and n = -2 of sum_{n<0})
    q, a, b, z = mpf("0.5"), mpf("0.9"), mpf("0.125"), mpf("0.6")
    with ctx40.working():
        neg = qcore._ratio_series([q / b], [q / a], [None, None], q,
                                  b / (a * z), ctx40)
        pos = qcore._ratio_series([a], [b], [None, None], q, z, ctx40)
    assert neg.terms_used == 3
    assert psi_bilateral([a], [b], q, z, ctx40).terms_used == (
        pos.terms_used + 3)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_psi_exact_lower_q_power_ends_the_negative_half(ctx40, k):
    # b = q^k, typed exactly, makes the negative half's upper parameter q/b
    # exactly q^(1-k), so that half ends at its term k - 1, decided from the
    # exponent: from the rounded q/b the factor 1 - (q/b) q^(k-1) was 0 or,
    # at k = 3, could not be told from 0. The oracle is (1.1)'s product at
    # the exact b, with 10^-40 of slack for the rounded inputs the sum is
    # certified for
    with ctx40.working():
        q, a, z = mpf("0.45"), mpf("0.95"), mpf("0.9")
    got = psi_bilateral([a], [ParamExpr(1, k)], q, z, ctx40)
    with mp.workdps(60):
        b = q ** k
        oracle = (_qp60(q, q) * _qp60(b / a, q) * _qp60(a * z, q)
                  * _qp60(q / (a * z), q)
                  / (_qp60(b, q) * _qp60(q / a, q) * _qp60(z, q)
                     * _qp60(b / (a * z), q)))
        assert got.certified and abs(got.value - oracle) <= (
            got.err_estimate + mpf(10) ** -40 * abs(oracle))


@pytest.mark.parametrize("q", ["0.5", "0.3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_psi_negative_half_pole(ctx40, q, k):
    # a = q^k makes (q/a;q)_m vanish at m = k, a pole of every negative-index
    # term from there on: a typed PoleError naming a1 and m, never a
    # ZeroDivisionError
    q = mpf(q)
    with ctx40.working():
        a = q ** k
    with pytest.raises(PoleError) as info:
        psi_bilateral([a], [a / 10], q, mpf("0.6"), ctx40)
    assert "a1" in str(info.value)
    assert f"m = {k}" in str(info.value)


def test_psi_rejects_outside_annulus():
    with pytest.raises(DivergenceError):
        psi_bilateral([0.5], [0.4], 0.3, 0.5)  # |b/a| = 0.8 > |z|
    with pytest.raises(DivergenceError):
        psi_bilateral([0.5], [0.05], 0.3, 1.1)  # |z| >= 1


def test_psi_rejects_zero_upper():
    with pytest.raises(QDomainError):
        psi_bilateral([0.0], [0.1], 0.5, 0.5)


def test_psi_rejects_zero_lower():
    # q/b would divide by zero
    with pytest.raises(QDomainError):
        psi_bilateral([0.5], [0.0], 0.5, 0.5)


def test_psi_rejects_zero_argument():
    # z = 0 lies inside the inner circle of the annulus
    with pytest.raises(DivergenceError):
        psi_bilateral([0.5], [0.1], 0.5, 0)


@pytest.mark.parametrize("call, error", [
    (lambda: pochhammer_inf(mp.nan, 0.5), QDomainError),
    (lambda: phi([0.5], [], 0.5, mp.nan), QDomainError),
    (lambda: psi_bilateral([mp.inf], [0.1], 0.5, 0.5), QDomainError),
    (lambda: qcore.prodquot([0.5], [0.2, mp.nan], 0.5), QDomainError),
    (lambda: pochhammer_n(0.5, 0.5, 2.5), QDomainError),
    (lambda: pochhammer_n(0.5, 0.5, 10 ** 7), CapExceededError),
    (lambda: pochhammer_n(0.5, 0.5, -10 ** 7), CapExceededError),
    (lambda: eta_quotient({1: 0.5}, 0.5), QDomainError),
    (lambda: eta_quotient({1: 1.5}, 0.5), QDomainError),
    (lambda: eta_quotient({1: mp.nan}, 0.5), QDomainError),
    (lambda: eta_quotient({1: 10 ** 6}, 0.5), CapExceededError),
    (lambda: pochhammer_inf(0.5, 0.5, PrecisionCtx(digits=40.5)),
     QDomainError),
    (lambda: phi([0.5], [], 0.5, 0.5, PrecisionCtx(max_terms=1.5)),
     QDomainError),
    (lambda: PrecisionCtx(digits="40"), QDomainError),
    (lambda: run(RunConfig(identities=("eq-3.2",), points_per_identity=1,
                           digits=40.5)), ValueError),
    (lambda: classical_gamma(mp.nan), QDomainError),
    (lambda: classical_gamma(mp.inf), QDomainError),
    (lambda: classical_gamma(-mp.inf), QDomainError),
    (lambda: phi([0.5], [], 0.5, None), QDomainError),
    (lambda: phi([0.5], [], 0.5, 0.5j), QDomainError),
    (lambda: phi([0.5], [], "abc", 0.5), QDomainError),
    (lambda: classical_gamma("x"), QDomainError),
    (lambda: QPoint(0.5, {"a": "x"}), QDomainError),
    (lambda: accelerate(["a"] * 10), QDomainError),
    (lambda: eval_identity("eq-3.2", QPoint(0.5, {}), tol="abc"),
     QDomainError),
    (lambda: eta_quotient({"a": 1}, 0.5), QDomainError),
    (lambda: ParamExpr(1, 0.5).zero_index, QDomainError),
    (lambda: ParamExpr(1, 0.5).value(mpf("0.5")), QDomainError),
    (lambda: RunConfig(seed=1.5), ValueError),
    (lambda: RunConfig(points_per_identity=1.5), ValueError),
    (lambda: RunConfig(identities="eq-3.2"), ValueError),
    (lambda: sample_domain("eq-3.2", "2", 1), SamplingError),
    (lambda: sample_domain("eq-1.1", 2, 1.5), SamplingError),
], ids=["pochhammer_inf-nan-a", "phi-nan-z", "psi-inf-upper",
        "prodquot-nan-b2", "pochhammer_n-half-n", "pochhammer_n-huge-n",
        "pochhammer_n-huge-negative-n", "eta_quotient-half-e",
        "eta_quotient-one-and-a-half-e", "eta_quotient-nan-e",
        "eta_quotient-huge-e", "ctx-half-digits", "ctx-half-max_terms",
        "ctx-str-digits", "run-half-digits", "classical_gamma-nan",
        "classical_gamma-inf", "classical_gamma-negative-inf",
        "phi-none-z", "phi-complex-z", "phi-str-q", "classical_gamma-str",
        "qpoint-str-param", "accelerate-str-terms", "eval_identity-str-tol",
        "eta_quotient-str-scale", "monomial-float-exponent-zero_index",
        "monomial-float-exponent-value", "run-half-seed", "run-half-points",
        "run-str-identities", "sample_domain-str-count",
        "sample_domain-half-seed"])
def test_non_finite_input_fails_fast(call, error):
    # a non-finite parameter must not run a product or series to its cap,
    # nor must a count (an index, an exponent, digits or max_terms) that is
    # not an integer or exceeds the term cap; classical_gamma must not
    # return a nan or an inf for one; an input that is no real at all
    # raises a typed error, not a bare TypeError or ValueError
    start = time.process_time()
    with pytest.raises(error):
        call()
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("bad", [
    mp.nan, -mp.inf, float("nan"), float("inf"), "nan", ParamExpr(mp.nan, 1),
], ids=["mpf-nan", "mpf-inf", "float-nan", "float-inf", "str-nan",
        "monomial-nan"])
@pytest.mark.parametrize("call, name", [
    (lambda x: phi([0.5, x], [0.2], 0.5, 0.3), "a2"),
    (lambda x: psi_bilateral([0.5], [x], 0.5, 0.5), "b1"),
    (lambda x: qcore.prodquot([0.5], [0.2, x], 0.5), "b2"),
], ids=["phi", "psi_bilateral", "prodquot"])
def test_non_finite_parameter_is_rejected_by_name(call, name, bad):
    # only exact (int or Fraction) coefficients skip the finiteness check
    with pytest.raises(QDomainError, match=f"parameter {name} is not finite"):
        call(bad)


# --- sum_with_ratio_bound -----------------------------------------------------------

def test_sum_with_ratio_bound_geometric(ctx40):
    half = mpf(1) / 2
    v = sum_with_ratio_bound(lambda n: half ** n, lambda n: half, ctx40)
    assert rel_diff(v.value, 2) < mpf("1e-40")
    assert v.certified


def test_sum_with_ratio_bound_cap():
    tiny = PrecisionCtx(digits=40, max_terms=5)
    with pytest.raises(CapExceededError):
        sum_with_ratio_bound(lambda n: mpf(1) / (n + 1),
                             lambda n: mpf(1), tiny)


def _sum_with_ratio_bound_every_term(term_fn, rho_fn, ctx, start=0):
    """Reference loop that calls rho_fn at every term."""
    tol = ctx.tail_tol()
    s = mpf(0)
    n = start
    while True:
        t = term_fn(n)
        rho = rho_fn(n)
        if rho < 1:
            tail = abs(t) / (1 - rho)
            if tail <= tol * max(abs(s), tol):
                return SeriesValue(s, tail, n - start, True)
        s += t
        n += 1


def _bounded_series(ident, p):
    """(term_fn, rho_fn, start) of the hand-bounded sums eq-3.1's sides
    (both halves of the lhs, the last rhs series) and eq-3.3's lhs (both
    halves) were once summed with."""
    q = p.q
    if ident == "eq-3.1":
        z = p["z"]
        return [
            (lambda n: z ** n / (1 + q ** (n - 1)),
             lambda n: abs(z) * (1 + q ** (n - 1)), 0),
            # n = -m: z^-m/(1+q^{-m-1}) = q^{m+1} / (z^m (q^{m+1} + 1))
            (lambda m: q ** (m + 1) / (z ** m * (1 + q ** (m + 1))),
             lambda m: (q / abs(z)) * (1 + q ** (m + 1)), 1),
            (lambda n: (-q) ** n / (1 - q ** (n + 1) / z),
             lambda n: (q * (1 + q ** (n + 1) / abs(z))
                        / (1 - q ** (n + 2) / abs(z))), 0),
        ]
    c = 2 * (1 + 1 / q ** 2) * (1 + q ** 2)
    return [
        (lambda n: c * q ** n / ((1 + q ** (2 * n - 2)) * (1 + q ** (2 * n))
                                 * (1 + q ** (2 * n + 2))),
         lambda n: q * (1 + q ** (2 * n - 2)), 0),
        # index n = -m, rescaled by q^{6m} for stability
        (lambda m: c * q ** (5 * m) / ((q ** (2 * m + 2) + 1)
                                       * (q ** (2 * m) + 1)
                                       * (q ** (2 * m - 2) + 1)),
         lambda m: q ** 5 * (1 + q ** (2 * m - 2)), 1),
    ]


@pytest.mark.parametrize("ctx", [PrecisionCtx(digits=20),
                                 PrecisionCtx(digits=40),
                                 PrecisionCtx(digits=100)],
                         ids=["d20", "d40", "d100"])
def test_sum_with_ratio_bound_lazy_rho_bit_identical(registry, ctx):
    # for 0 <= rho < 1 the rounded tail |t|/(1-rho) is never below |t|, so
    # calling rho_fn only once |t| meets the tolerance must stop at the same
    # term with the same tail bound as calling it at every term
    points = [("eq-3.1", QPoint("0.3", {"z": "-0.5"}))]  # negative z
    for ident in ("eq-3.1", "eq-3.3"):
        points += [(ident, p) for p in sample_domain(ident, 3, 7,
                                                     registry=registry)]
    series = [s for ident, p in points for s in _bounded_series(ident, p)]
    assert len(series) == 3 * 4 + 2 * 3
    with ctx.working():
        for term_fn, rho_fn, start in series:
            calls = {"term": 0, "rho": 0}

            def term(n):
                calls["term"] += 1
                return term_fn(n)

            def rho(n):
                calls["rho"] += 1
                return rho_fn(n)

            got = sum_with_ratio_bound(term, rho, ctx, start)
            ref = _sum_with_ratio_bound_every_term(term_fn, rho_fn, ctx, start)
            assert got == ref
            assert calls["rho"] < calls["term"], calls


# --- acceleration -------------------------------------------------------------------

def test_accelerate_geometric_levin(ctx40):
    terms = [mpf(2) ** -n for n in range(12)]
    v = accelerate(terms, ctx40)
    assert rel_diff(v.value, 2) < mpf("1e-20")
    assert not v.certified


def test_accelerate_basel_problem(ctx40):
    with mp.workdps(60):
        terms = [mpf(1) / (n + 1) ** 2 for n in range(40)]
    v = accelerate(terms, ctx40)
    with ctx40.working():
        target = mp.pi ** 2 / 6
    assert rel_diff(v.value, target) < mpf("1e-9")
    assert mp.nstr(v.value, 10) == "1.644934067"


def test_accelerate_lemniscate_series(ctx40):
    # sum (1/2)_n / (n! (4n+1)), first 200 terms
    with mp.workdps(60):
        terms = []
        t = mpf(1)
        for n in range(200):
            terms.append(t)
            t *= (n + mpf(1) / 2) / (n + 1) * (4 * n + 1) / (4 * n + 5)
    v = accelerate(terms, ctx40)
    assert mp.nstr(v.value, 11) == "1.3110287771"


# The classical-limit series sides and the closed forms of their sums
# (eq-5.7's series sums to B(z, 1+a-b), not to its printed left side).
_LEVIN_CLOSED_FORMS = {
    "eq-5.5": lambda p: (mp.gamma(1 - p["b"]) * mp.gamma(1 + p["b"] - p["z"])
                         / mp.gamma(1 - p["z"])),
    "eq-5.6": lambda p: mp.beta(p["x"], p["y"]),
    "eq-5.7": lambda p: mp.beta(p["z"], 1 + p["a"] - p["b"]),
    "eq-5.9": lambda p: (mp.pi ** (mpf(3) / 2)
                         / (2 * mp.sqrt(2) * mp.gamma(mpf(3) / 4) ** 2)),
}


def _levin_series(monkeypatch, registry, ctx, idents=tuple(_LEVIN_CLOSED_FORMS)):
    """(identity, point, wide, read, full, rhs) at three seed-7 sample points
    of each identity: the context its series side hands to accelerate, the
    terms the transform read from its generator, those terms continued to
    the order cap, and the side."""
    given = []

    def recording_accelerate(terms, ctx):
        terms = iter(terms)
        read = []

        def record():
            for t in terms:
                read.append(t)
                yield t

        given.append((terms, ctx, read))
        return accelerate(record(), ctx)

    monkeypatch.setattr(qgamma, "accelerate", recording_accelerate)
    entries = {e.id: e for e in registry}
    out = []
    for ident in idents:
        for p in sample_domain(ident, 3, 7, registry=registry):
            with ctx.working():
                rhs = entries[ident].rhs(p, ctx)
            ((rest, wide, read),) = given
            given.clear()
            with wide.working():
                more = list(itertools.islice(
                    rest, qcore._levin_max_order() + 1 - len(read)))
            out.append((ident, p, wide, read, read + more, rhs))
    return out


def _frac(x):
    """An mpf as the exact Fraction it is."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def _round(x):
    """A Fraction rounded to nearest at the working precision."""
    return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec,
                                     round_nearest))


@functools.lru_cache(maxsize=None)
def _levin_orders(terms, prec):
    """Per order k >= 1 of qcore._levin_u at prec bits: (k, L_k or None,
    sum |c_kj/omega_j|, sum c_kj/omega_j), with the same mpf roundings of
    s_j/omega_j and 1/omega_j and the weighted sums formed exactly in
    Fraction. Cached: each series is swept by two tests."""
    out = []
    inv_om, s_om, psum = [], [], mpf(0)
    with mp.workprec(prec):
        for k, t in enumerate(terms[:qcore._levin_max_order() + 1]):
            psum += t
            om = (k + 1) * t
            if om == 0:
                break
            inv_om.append(_frac(1 / om))
            s_om.append(_frac(psum / om))
            if k == 0:
                continue
            num = den = den_abs = 0
            for j in range(k + 1):
                c = (-1) ** j * comb(k, j) * (j + 1) ** (k - 1)
                num += c * s_om[j]
                w = c * inv_om[j]
                den += w
                den_abs += abs(w)
            out.append((k, _round(num / den) if den else None, den_abs, den))
    return out


def _pick(ests):
    """accelerate's choice among the estimates: the first with the least
    successive difference at the working precision, the last where its own
    difference ties it, and that difference."""
    best_val, best_err = ests[-1], abs(ests[-1] - ests[-2])
    for prev, cur in zip(ests, ests[1:]):
        if abs(cur - prev) < best_err:
            best_val, best_err = cur, abs(cur - prev)
    return best_val, best_err


def _levin_full_sweep(terms, ctx):
    """accelerate's levin-u value from every order up to the cap: the same
    sums as qcore._levin_u, without its stop."""
    with ctx.working():
        return _pick([est for _, est, _, _
                      in _levin_orders(tuple(terms), mp.prec)
                      if est is not None])[0]


def _levin_u_recorded(terms):
    """qcore._levin_u's result on the mpf terms, and every estimate of its
    sweep: the values it rounds into place with mpf_shift, once an order."""
    estimates, mpf_shift = [], qcore.mpf_shift

    def shift(x, n):
        estimates.append(mp.make_mpf(mpf_shift(x, n)))
        return estimates[-1]._mpf_

    with pytest.MonkeyPatch.context() as m:
        m.setattr(qcore, "mpf_shift", shift)
        result = qcore._levin_u(t._mpf_ for t in terms)
    return result, estimates


def test_levin_stops_at_rounding_floor(monkeypatch, registry, ctx40):
    # at 40 digits the series run at 60, where orders past ~55 are rounding
    # noise: the sweep stops there instead of running to order 120, and
    # terms_used counts what it read. Over 100 points each of eq-5.5, 5.6,
    # 5.7 and 5.9 (seeds 1-10) it reads 52 to 58 terms.
    for _, _, wide, read, _, rhs in _levin_series(monkeypatch, registry, ctx40,
                                                  idents=("eq-5.7",)):
        assert rhs.terms_used <= 58
        with wide.working():
            (_, _, used), estimates = _levin_u_recorded(read)
        assert rhs.terms_used == used == len(read) == len(estimates) + 1


@pytest.mark.parametrize("digits", [20, 40, 100])
def test_levin_stop_keeps_full_sweep_selection(monkeypatch, registry, digits):
    ctx = PrecisionCtx(digits=digits)
    for ident, p, wide, _, full, rhs in _levin_series(monkeypatch, registry,
                                                      ctx):
        value = _levin_full_sweep(full, wide)
        assert accelerate(full, wide).value == value, (ident, p)
        with ctx.working():
            assert rhs.value == +value, (ident, p)


def _levin_u_exact(terms):
    """qcore._levin_u's result, and the estimates of its sweep, from its
    stop rule and accelerate's pick on _levin_orders' sums."""
    estimates, best_diff, read = [], None, 0
    for k, est, den_abs, den in _levin_orders(tuple(terms), mp.prec):
        read = k + 1
        if est is None:
            continue
        if estimates:
            d = abs(_frac(est) - _frac(estimates[-1]))
            best_diff = d if best_diff is None else min(best_diff, d)
        estimates.append(est)
        if best_diff is not None and (den_abs / abs(den) * abs(_frac(est))
                                      / 2 ** mp.prec
                                      > qcore._LEVIN_STOP_FACTOR * best_diff):
            break
    value, err = _pick(estimates)
    return (value._mpf_, err._mpf_, read), estimates


@pytest.mark.parametrize("digits", [20, 40, 100])
def test_levin_u_bit_identical(monkeypatch, registry, digits):
    # every estimate of the sweep, where it stops, and the estimate and
    # difference it picks match exact sums rounded once per order
    ctx = PrecisionCtx(digits=digits)
    for ident, p, wide, _, full, _ in _levin_series(monkeypatch, registry, ctx):
        with wide.working():
            got = _levin_u_recorded(full)
            assert got == _levin_u_exact(full), (ident, p)


@pytest.mark.parametrize("ests", [
    ("0.5", "1", "1.5", "2", "2.5"),  # every difference ties: the last wins
    ("0.5", "1", "1.5", "2", "3"),  # else the first least difference wins
    (2 ** -60, 1, 2),  # differences that tie only once rounded to 53 bits
])
def test_levin_u_picks_as_accelerate_did(ests):
    # the sweep's estimates replaced by ests: _levin_u picks the value and
    # difference that accelerate's loop over every estimate picked
    with mp.workprec(53):
        ests = [mpf(e) for e in ests]
        script = iter(ests)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(qcore, "mpf_shift", lambda x, n: next(script)._mpf_)
            got = qcore._levin_u((mpf(3) ** -k)._mpf_
                                 for k in range(len(ests) + 1))
        value, err = _pick(ests)
        assert got == (value._mpf_, err._mpf_, len(ests) + 1)
        assert next(script, None) is None


@pytest.mark.parametrize("digits", [20, 40, 100])
def test_beta_terms_match_mpf_recurrence(monkeypatch, registry, digits):
    # the libmpf term stream of _beta_series is the mpf recurrence, every
    # term bit for bit up to the order cap
    args = []
    beta_series = identities._beta_series

    def recording(c, alpha, beta, ctx):
        args.append((c, alpha, beta))
        return beta_series(c, alpha, beta, ctx)

    monkeypatch.setattr(identities, "_beta_series", recording)
    series = _levin_series(monkeypatch, registry, PrecisionCtx(digits=digits))
    assert len(args) == len(series) == 12
    for (c, alpha, beta), (ident, p, wide, _, full, _) in zip(args, series):
        with wide.working():
            t, want = 1 / to_real(c), []
            for n in range(len(full)):
                want.append(t._mpf_)
                t = t * ((alpha + n) / (n + 1) * (n + beta) / (n + 1 + beta))
        assert [t._mpf_ for t in full] == want, (ident, p)


@pytest.mark.parametrize("digits, tol", [(20, "1e-20"), (40, "1e-40"),
                                         (100, "1e-95")])
def test_levin_series_match_closed_forms(monkeypatch, registry, digits, tol):
    ctx = PrecisionCtx(digits=digits)
    for ident, p, _, _, _, rhs in _levin_series(monkeypatch, registry, ctx):
        with mp.workdps(digits + 40):
            closed = _LEVIN_CLOSED_FORMS[ident](p)
            assert abs(rhs.value / closed - 1) <= mpf(tol), (ident, p)


@pytest.mark.parametrize("digits", [120, 150])
def test_levin_series_match_closed_forms_above_100_digits(monkeypatch,
                                                          registry, digits):
    # the order cap grows with the digits, so it does not bind here (it
    # did at 120 from about 113 digits on); eq-5.7's series is right too,
    # though its verdict FAILs against the printed Gamma side
    ctx = PrecisionCtx(digits=digits)
    for ident, p, _, _, _, rhs in _levin_series(monkeypatch, registry, ctx):
        with mp.workdps(digits + 40):
            closed = _LEVIN_CLOSED_FORMS[ident](p)
            assert (abs(rhs.value / closed - 1)
                    <= mpf(10) ** (5 - digits)), (ident, p)


def test_accelerate_needs_terms():
    with pytest.raises(InsufficientTermsError):
        accelerate([1, 2, 3])
    # a generator is read, and refused, the same way
    with pytest.raises(InsufficientTermsError, match="got 7"):
        accelerate(mpf(2) ** -n for n in range(7))


@pytest.mark.parametrize("bad", ["nan", "+inf", "-inf"])
def test_accelerate_refuses_non_finite_term(bad):
    terms = [mpf(2) ** -n for n in range(20)]
    terms[3] = mpf(bad)
    with pytest.raises(QDomainError, match=f"term 3 is {re.escape(bad)}"):
        accelerate(terms)


# --- SeriesValue / QPoint -------------------------------------------------------------

def test_series_value_error_propagation():
    x = SeriesValue(mpf(2), mpf("1e-10"), 3, True)
    y = SeriesValue(mpf(4), mpf("1e-10"), 4, True)
    s = x + y
    assert s.value == 6 and s.terms_used == 7
    p = x * y
    assert abs(p.err_estimate - mpf("6e-10")) < mpf("1e-15")
    d = x / y
    assert d.value == mpf("0.5")
    assert not (x + SeriesValue(mpf(1), mpf(0), 0, False)).certified


def test_series_value_bounds_its_operands_and_its_rounding():
    # A / B over A, B in [0.5, 1.5] spans [1/3, 3]: the estimate divides by
    # |b| - e_b, not |b|
    half = SeriesValue(mpf(1), mpf("0.5"), 0, True)
    q = half / half
    assert q.value == 1 and q.err_estimate >= 2
    with pytest.raises(NumericalBreakdownError):
        SeriesValue.of(1) / SeriesValue(mpf(1), mpf(1), 0, True)
    # exact operands still leave each operation's rounding
    third = SeriesValue.of(1) / SeriesValue.of(3)
    tiny = SeriesValue.of(1) + SeriesValue.of(mpf(2) ** -60)
    prod = SeriesValue.of(third.value) * SeriesValue.of(3)
    with mp.workprec(200):
        assert 0 < abs(third.value - mpf(1) / 3) <= third.err_estimate
        assert 0 < abs(tiny.value - 1 - mpf(2) ** -60) <= tiny.err_estimate
        assert 0 < abs(prod.value - third.value * 3) <= prod.err_estimate


def test_series_value_division_by_zero():
    with pytest.raises(PoleError):
        SeriesValue.of(1) / SeriesValue.of(0)


def test_qpoint_validation():
    with pytest.raises(QDomainError):
        QPoint(1.5, {})
    with pytest.raises(QDomainError):
        QPoint(0.5, {"a": mpf("inf")})
    p = QPoint("0.25", {"a": 0.5})
    assert p["a"] == mpf("0.5") and p.q == mpf("0.25")
