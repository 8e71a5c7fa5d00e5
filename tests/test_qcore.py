"""Core evaluation engine: powers, Pochhammer symbols, phi/psi series,
custom bounded sums, and acceleration."""

from math import comb

import pytest
from mpmath import mp, mpf

from qseries import (
    CapExceededError,
    DivergenceError,
    InsufficientTermsError,
    PoleError,
    PrecisionCtx,
    QDomainError,
    QPoint,
    SeriesValue,
    SplitMix64,
    accelerate,
    phi,
    pochhammer_inf,
    pochhammer_n,
    psi_bilateral,
    qpow,
)
from qseries import qcore, qgamma
from qseries.qcore import sum_with_ratio_bound
from qseries.registry import sample_domain


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
    """Reference loop that tests expm1(bound) <= tol at every factor."""
    with ctx.working():
        tol = ctx.tail_tol()
        prod, qn, n, aa = mpf(1), mpf(1), 0, abs(a)
        while True:
            f = 1 - a * qn
            if f == 0:
                return SeriesValue(mpf(0), mpf(0), n + 1, True)
            prod *= f
            n += 1
            qn *= q
            u = aa * qn
            if u < mpf("0.5"):
                rel = expm1(u / ((1 - q) * (1 - u)))
                if rel <= tol:
                    return SeriesValue(prod, abs(prod) * rel, n, True)


def test_pochhammer_inf_one_expm1_bit_identical(monkeypatch):
    # expm1(b) >= b, so evaluating expm1 only once the bound itself meets
    # tol must stop at the same factor with the same error estimate
    expm1 = mp.expm1
    calls = []

    def counting_expm1(x):
        calls.append(x)
        return expm1(x)

    monkeypatch.setattr(mp, "expm1", counting_expm1)
    for digits in (20, 40, 100):
        ctx = PrecisionCtx(digits=digits)
        for q in ("0.1", "0.5", "0.9", "0.99"):
            for a in dict.fromkeys(("-0.9", "0.3", "0.99", q)):
                a, q = mpf(a), mpf(q)
                ref = _pochhammer_inf_expm1_every_factor(a, q, ctx, expm1)
                calls.clear()
                got = pochhammer_inf(a, q, ctx)
                assert got == ref, (a, q, digits)
                assert len(calls) <= 1, (a, q, digits, len(calls))


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


def test_psi_rejects_outside_annulus():
    with pytest.raises(DivergenceError):
        psi_bilateral([0.5], [0.4], 0.3, 0.5)  # |b/a| = 0.8 > |z|
    with pytest.raises(DivergenceError):
        psi_bilateral([0.5], [0.05], 0.3, 1.1)  # |z| >= 1


def test_psi_rejects_zero_upper():
    with pytest.raises(QDomainError):
        psi_bilateral([0.0], [0.1], 0.5, 0.5)


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


# --- acceleration -------------------------------------------------------------------

def test_accelerate_geometric_levin(ctx40):
    terms = [mpf(2) ** -n for n in range(12)]
    v = accelerate(terms, kind="levin-u", ctx=ctx40)
    assert rel_diff(v.value, 2) < mpf("1e-20")
    assert not v.certified


def test_accelerate_geometric_wynn(ctx40):
    terms = [mpf(2) ** -n for n in range(12)]
    v = accelerate(terms, kind="wynn-epsilon", ctx=ctx40)
    assert rel_diff(v.value, 2) < mpf("1e-20")


def test_accelerate_basel_problem(ctx40):
    with mp.workdps(60):
        terms = [mpf(1) / (n + 1) ** 2 for n in range(40)]
    v = accelerate(terms, kind="levin-u", ctx=ctx40)
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
    v = accelerate(terms, kind="levin-u", ctx=ctx40)
    assert mp.nstr(v.value, 11) == "1.3110287771"


def test_accelerate_raw_with_tail(ctx40):
    with mp.workdps(60):
        terms = [mpf(1) / (n + 1) ** 2 for n in range(200)]
    v = accelerate(terms, kind="raw-with-tail", ctx=ctx40)
    with ctx40.working():
        target = mp.pi ** 2 / 6
    assert rel_diff(v.value, target) < mpf("1e-3")
    assert abs(v.value - target) <= 10 * v.err_estimate


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
    """(identity, point, terms, rhs) at three seed-7 sample points of each
    identity: the terms its series side hands to accelerate, and the side."""
    given = []

    def recording_accelerate(terms, kind, ctx):
        given.append(terms)
        return accelerate(terms, kind=kind, ctx=ctx)

    monkeypatch.setattr(qgamma, "accelerate", recording_accelerate)
    entries = {e.id: e for e in registry}
    out = []
    for ident in idents:
        for p in sample_domain(ident, 3, 7, registry=registry):
            with ctx.working():
                rhs = entries[ident].rhs(p, ctx)
            (terms,) = given
            given.clear()
            out.append((ident, p, terms, rhs))
    return out


def _levin_full_sweep(terms, ctx):
    """accelerate's levin-u value from every order up to the cap: the same
    integer weights and arithmetic as qcore._levin_u, without its stop."""
    with ctx.working():
        kmax = min(len(terms) - 2, qcore._LEVIN_MAX_ORDER)
        inv_om, s_om, psum = [], [], mpf(0)
        for j, t in enumerate(terms[:kmax + 1]):
            psum += t
            om = (j + 1) * t
            inv_om.append(1 / om)
            s_om.append(psum / om)
        ests = []
        for k in range(1, kmax + 1):
            num = den = mpf(0)
            for j in range(k + 1):
                c = (-1) ** j * comb(k, j) * (j + 1) ** (k - 1)
                num += c * s_om[j]
                den += c * inv_om[j]
            ests.append(num / den)
        best_val, best_err = ests[-1], abs(ests[-1] - ests[-2])
        for prev, cur in zip(ests, ests[1:]):
            if abs(cur - prev) < best_err:
                best_val, best_err = cur, abs(cur - prev)
        return best_val


def test_levin_stops_at_rounding_floor(monkeypatch, registry, ctx40):
    # at 40 digits orders past ~40 are rounding noise: the sweep stops there
    # instead of running to order 120, and terms_used counts what it read
    for _, _, terms, rhs in _levin_series(monkeypatch, registry, ctx40,
                                          idents=("eq-5.7",)):
        assert rhs.terms_used <= 61
        with ctx40.working():
            estimates, read = qcore._levin_u(terms)
        assert len(estimates) <= 60
        assert rhs.terms_used == read == len(estimates) + 1


@pytest.mark.parametrize("digits", [20, 40, 100])
def test_levin_stop_keeps_full_sweep_selection(monkeypatch, registry, digits):
    ctx = PrecisionCtx(digits=digits)
    for ident, p, terms, rhs in _levin_series(monkeypatch, registry, ctx):
        assert rhs.value == _levin_full_sweep(terms, ctx), (ident, p)


@pytest.mark.parametrize("digits, tol", [(20, "1e-16"), (40, "1e-28"),
                                         (100, "1e-65")])
def test_levin_series_match_closed_forms(monkeypatch, registry, digits, tol):
    ctx = PrecisionCtx(digits=digits)
    for ident, p, _, rhs in _levin_series(monkeypatch, registry, ctx):
        with mp.workdps(digits + 40):
            closed = _LEVIN_CLOSED_FORMS[ident](p)
            assert abs(rhs.value / closed - 1) <= mpf(tol), (ident, p)


def test_accelerate_needs_terms():
    with pytest.raises(InsufficientTermsError):
        accelerate([1, 2, 3])


def test_accelerate_unknown_kind():
    with pytest.raises(QDomainError):
        accelerate([mpf(1)] * 10, kind="shanks")


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
