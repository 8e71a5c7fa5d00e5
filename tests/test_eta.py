"""Eta-function primitives and the eta-quotient identities eq-4.2 .. eq-4.4."""

import time

from mpmath import mp, mpf

import pytest

from qseries import (
    PrecisionCtx,
    QDomainError,
    QPoint,
    SeriesValue,
    eta_nome,
    eta_quotient,
    eval_identity,
    pochhammer_inf,
    qpow,
)
from qseries import eta


def rel_diff(x, y):
    return abs(x - y) / max(abs(x), abs(y))


def test_eta_nome_reference_value(ctx40):
    val = eta_nome(mpf("0.1"), ctx40)
    assert mp.nstr(val.value, 15) == "0.808589818356606"


def test_eta_nome_small_q(ctx40):
    # q^(1/24) dominates for tiny q; the product factor is ~1
    val = eta_nome(mpf("1e-6"), ctx40)
    assert 0 < val.value < mpf("0.6")


def test_eta_nome_domain(ctx40):
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(QDomainError):
            eta_nome(bad, ctx40)


def test_eta_nome_24th_power(ctx40):
    # eta(q)^24 / q == (q; q)_inf^24
    q = mpf("0.3")
    with ctx40.working():
        lhs = eta_nome(q, ctx40).value ** 24 / q
        rhs = pochhammer_inf(q, q, ctx40).value ** 24
        assert rel_diff(lhs, rhs) < mpf("1e-35")


def test_euler_split(ctx40):
    # (q; q)_inf = (q; q^2)_inf (q^2; q^2)_inf
    for q in (mpf("0.2"), mpf("0.55")):
        with ctx40.working():
            full = pochhammer_inf(q, q, ctx40).value
            split = (pochhammer_inf(q, q ** 2, ctx40).value
                     * pochhammer_inf(q ** 2, q ** 2, ctx40).value)
            assert rel_diff(full, split) < mpf("1e-38")


def test_eta_quotient_empty(ctx40):
    assert eta_quotient({}, mpf("0.4"), ctx40).value == 1


def test_eta_quotient_pairs_match_definition(ctx40):
    q = mpf("0.2")
    with ctx40.working():
        quot = eta_quotient({1: 1, 2: -2}, q, ctx40).value
        direct = (qpow(q, mpf(-1) / 8, ctx40)
                  * pochhammer_inf(q, q, ctx40).value
                  / pochhammer_inf(q ** 2, q ** 2, ctx40).value ** 2)
        assert rel_diff(quot, direct) < mpf("1e-35")


def test_eta_quotient_general_oracle(ctx40):
    q = mpf("0.15")
    with ctx40.working():
        quot = eta_quotient({2: 10, 1: -4, 4: -2}, q, ctx40).value
        direct = (eta_nome(q ** 2, ctx40).value ** 10
                  / eta_nome(q, ctx40).value ** 4
                  / eta_nome(q ** 4, ctx40).value ** 2)
        assert rel_diff(quot, direct) < mpf("1e-30")


def test_eta_quotient_rejects_bad_scale(ctx40):
    with pytest.raises(QDomainError):
        eta_quotient({0: 1}, mpf("0.3"), ctx40)
    with pytest.raises(QDomainError):
        eta_quotient({-2: 1}, mpf("0.3"), ctx40)


def test_eta_quotient_reads_string_scales(ctx40):
    # a scale is read by to_real, as every scalar is: "2" is the scale 2
    q = mpf("0.3")
    got = eta_quotient({"2": 1, "1": -1}, q, ctx40)
    want = eta_quotient({2: 1, 1: -1}, q, ctx40)
    assert (got.value, got.err_estimate) == (want.value, want.err_estimate)


@pytest.mark.parametrize("q", ["0.005", "0.9", "0.99"])
@pytest.mark.parametrize("scales", [
    {1: 1, 2: -2}, {2: 10, 1: -4, 4: -2}, {3: 3, 1: -1}, {1: 24, 2: -24},
], ids=["eq-4.2", "eq-4.3", "eq-4.4", "e24"])
def test_eta_quotient_holds_its_ball_beyond_the_sampled_q(scales, q):
    # outside the sampled q in [0.05, 0.6], with a 24th power too: the
    # values at 40 and at 120 digits lie within the sum of their estimates,
    # each power's radius bounded by x (1 + x) rounded up
    lo, hi = PrecisionCtx(digits=40), PrecisionCtx(digits=120)
    with lo.working():
        q = mpf(q)
    v, w = eta_quotient(scales, q, lo), eta_quotient(scales, q, hi)
    with hi.working():
        assert abs(v.value - w.value) <= v.err_estimate + w.err_estimate


@pytest.mark.parametrize("ident", ["eq-4.2", "eq-4.4"])
def test_eta_identities_pass(registry, ctx40, ident):
    # q = 0.005 and 0.95 lie outside the sampled range [0.05, 0.6]
    for q in (mpf("0.005"), mpf("0.1"), mpf("0.3"), mpf("0.55"), mpf("0.95")):
        res = eval_identity(ident, QPoint(q, {}), ctx=ctx40, registry=registry)
        assert res.passed, f"{ident} at q={q}: relErr={res.rel_err}"


def test_eq43_fails_without_constant_offset(registry, ctx40):
    # The printed right side of eq-4.3 does not match the eta quotient; the
    # lhs/rhs ratio varies with q, so this is not a constant normalization slip.
    ratios = []
    for q in (mpf("0.005"), mpf("0.1"), mpf("0.3"), mpf("0.5"), mpf("0.95")):
        res = eval_identity("eq-4.3", QPoint(q, {}), ctx=ctx40, registry=registry)
        assert not res.passed
        ratios.append(res.lhs_value / res.rhs_value)
    spread = max(ratios) - min(ratios)
    assert spread > mpf("1e-3")


def test_eta_quotient_takes_one_power_per_scale(ctx40):
    # eta(q)^100000 is one eta and one power, its relative error scaled by
    # the exponent, not 100000 products
    start = time.process_time()
    got = eta_quotient({1: 100_000}, mpf("0.5"), ctx40)
    assert time.process_time() - start < 0.1
    with mp.workdps(60):
        q = mpf("0.5")
        oracle = (q ** (mpf(1) / 24) * mp.qp(q, q)) ** 100_000
        assert (abs(got.value - oracle)
                <= got.err_estimate + mpf("1e-50") * abs(oracle))
    assert got.terms_used == eta_nome(mpf("0.5"), ctx40).terms_used


def test_eta_quotient_power_bounds_a_large_relative_error(monkeypatch):
    # eta = 1 within 1e-3 raised to the 1000th lies anywhere in [0.999^1000,
    # 1.001^1000] = [0.368, 2.717]: the estimate must reach 1.7169, which
    # first order (1000 * 1e-3 = 1) falls short of
    monkeypatch.setattr(eta, "eta_nome", lambda q, ctx: SeriesValue(
        mpf(1), mpf("1e-3"), 1, True))
    got = eta_quotient({1: 1000}, mpf("0.5"))
    assert got.value == 1 and 1.001 ** 1000 - 1 <= got.err_estimate < 1.73


def test_eta_quotient_power_bound_holds_up_to_one_half(monkeypatch):
    # the same eta to the 400th: x = 0.4004 takes the bound x (1 + x) =
    # 0.5607, which must reach 1.001^400 - 1 = 0.4915; first order (x
    # alone) falls short of it
    monkeypatch.setattr(eta, "eta_nome", lambda q, ctx: SeriesValue(
        mpf(1), mpf("1e-3"), 1, True))
    got = eta_quotient({1: 400}, mpf("0.5"))
    assert got.value == 1 and 1.001 ** 400 - 1 <= got.err_estimate < 0.57


@pytest.mark.parametrize("q", ["0.999", "0.9999"])
def test_products_near_one_match_the_modular_transformation(ctx40, q):
    # (q;q)_inf = sqrt(2 pi/t) e^(t/24 - pi^2/(6t)) (r;r)_inf, t = -log q and
    # r = e^(-4 pi^2/t), with r below 1e-17000 here; the product is a head
    # of thousands of factors (81,113 at q = 0.9999) and a short Euler series
    with ctx40.working():
        q = mpf(q)
    prod, eta = pochhammer_inf(q, q, ctx40), eta_nome(q, ctx40)
    with mp.workdps(70):
        t = -mp.log(q)
        r = mp.exp(-4 * mp.pi ** 2 / t)
        oracle = (mp.sqrt(2 * mp.pi / t) * mp.exp(t / 24 - mp.pi ** 2 / (6 * t))
                  * mp.qp(r, r))
        for got, want in ((prod, oracle), (eta, q ** (mpf(1) / 24) * oracle)):
            assert got.certified
            assert (abs(got.value - want) <= got.err_estimate
                    <= mpf(10) ** -40 * abs(got.value))
