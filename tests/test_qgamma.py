"""q-gamma, classical gamma, Jackson integrals, and the section-5 identities."""

import re
from dataclasses import replace
from math import prod

from mpmath import mp, mpf

import pytest

import qseries.eta as eta
import qseries.identities as identities
import qseries.qcore as qcore
import qseries.qgamma as qgamma
from qseries import (
    PoleError,
    accelerate,
    PrecisionCtx,
    QDomainError,
    QPoint,
    classical_gamma,
    eval_identity,
    full_registry,
    gamma_q,
    jackson_integral_finite,
    phi,
    pochhammer_inf,
    qpow,
    sample_domain,
)


def rel_diff(x, y):
    return abs(x - y) / max(abs(x), abs(y))


# --- gamma_q -----------------------------------------------------------------

def test_gamma_q_at_small_integers(ctx40):
    for q in (mpf("0.2"), mpf("0.6")):
        assert rel_diff(gamma_q(1, q, ctx40).value, 1) < mpf("1e-38")
        assert rel_diff(gamma_q(2, q, ctx40).value, 1) < mpf("1e-38")
    # Gamma_q(3) = [2]_q = 1 + q
    assert rel_diff(gamma_q(3, mpf("0.5"), ctx40).value, mpf("1.5")) < mpf("1e-38")


def test_gamma_q_poles(ctx40):
    for x in (0, -1, -3):
        with pytest.raises(PoleError):
            gamma_q(x, mpf("0.4"), ctx40)
    with pytest.raises(QDomainError):
        gamma_q(0.5, 1.2, ctx40)


def test_gamma_q_functional_equation(ctx40):
    # Gamma_q(x + 1) = (1 - q^x)/(1 - q) * Gamma_q(x)
    with ctx40.working():
        for q in (mpf("0.15"), mpf("0.7")):
            for x in (mpf("0.3"), mpf("1.4"), mpf("2.75")):
                lhs = gamma_q(x + 1, q, ctx40).value
                rhs = (1 - q ** x) / (1 - q) * gamma_q(x, q, ctx40).value
                assert rel_diff(lhs, rhs) < mpf("1e-36")


@pytest.mark.parametrize("fn, args", [
    (gamma_q, ("0.5", "0.3")),
    (eta.eta_nome, ("0.3",)),
    (eta.eta_quotient, ({1: 2, 2: -1}, "0.3")),
    (jackson_integral_finite, (lambda t: 1 / (1 + t), "0.7", "0.3")),
], ids=["gamma_q", "eta_nome", "eta_quotient", "jackson_integral_finite"])
def test_decimal_strings_are_read_at_the_working_precision(ctx40, fn, args):
    # at mpmath's default 15 digits a decimal string is still read at the
    # ctx's precision: the same decimals as mpfs give the same value, within
    # err_estimate (read at 15 digits, gamma_q's value was off by 7.5e-18
    # against an estimate of 2e-47)
    with ctx40.working():
        ref = fn(*[mpf(x) if isinstance(x, str) else x for x in args], ctx40)
    with mp.workdps(15):
        got = fn(*args, ctx40)
    with mp.workdps(60):
        assert abs(got.value - ref.value) <= got.err_estimate


# --- classical gamma ----------------------------------------------------------

def test_classical_gamma_values(ctx40):
    with ctx40.working():
        assert rel_diff(classical_gamma(1, ctx40), 1) < mpf("1e-38")
        assert rel_diff(classical_gamma(5, ctx40), 24) < mpf("1e-38")
        assert rel_diff(classical_gamma(mpf("0.5"), ctx40),
                        mp.sqrt(mp.pi)) < mpf("1e-38")


def test_classical_gamma_reflection(ctx40):
    with ctx40.working():
        for x in (mpf("-0.5"), mpf("-2.3"), mpf("0.2")):
            lhs = classical_gamma(x, ctx40) * classical_gamma(1 - x, ctx40)
            rhs = mp.pi / mp.sin(mp.pi * x)
            assert rel_diff(lhs, rhs) < mpf("1e-36")


def test_classical_gamma_poles(ctx40):
    for x in (0, -1, -7):
        with pytest.raises(PoleError):
            classical_gamma(x, ctx40)


# --- Jackson integrals ---------------------------------------------------------

def test_jackson_finite_constant(ctx40):
    # int_0^1 1 d_q t = 1 exactly (geometric series in q)
    val = jackson_integral_finite(lambda t: mpf(1), 1, mpf("0.3"), ctx40)
    assert rel_diff(val.value, 1) < mpf("1e-38")


def test_jackson_finite_linear(ctx40):
    # int_0^c t d_q t = c^2 (1-q)/(1-q^2) -> c^2/(1+q)
    with ctx40.working():
        q = mpf("0.4")
        for c in (mpf(1), mpf(2)):
            val = jackson_integral_finite(lambda t: t, c, q, ctx40)
            assert rel_diff(val.value, c ** 2 / (1 + q)) < mpf("1e-38")


def test_jackson_linearity(ctx40):
    q = mpf("0.3")
    f = lambda t: t
    g = lambda t: 1 / (1 + t)
    with ctx40.working():
        combo = jackson_integral_finite(
            lambda t: 2 * f(t) + 3 * g(t), 1, q, ctx40).value
        parts = (2 * jackson_integral_finite(f, 1, q, ctx40).value
                 + 3 * jackson_integral_finite(g, 1, q, ctx40).value)
        assert rel_diff(combo, parts) < mpf("1e-36")


# --- q-gamma identities ---------------------------------------------------------

def test_thm51_example_point(registry, ctx40):
    point = QPoint(mpf("0.4"), {"a": mpf("0.1"), "b": mpf("0.8"),
                                "z": mpf("0.3")})
    res = eval_identity("thm-5.1", point, ctx=ctx40, registry=registry)
    assert res.passed and res.rel_err < mpf("1e-25")


def test_thm53_matches_thm51(registry, ctx40):
    point = QPoint(mpf("0.3"), {"a": mpf("0.1"), "b": mpf("0.7"),
                                "z": mpf("0.25")})
    r53 = eval_identity("thm-5.3", point, ctx=ctx40, registry=registry)
    r51 = eval_identity("thm-5.1", point, ctx=ctx40, registry=registry)
    assert r53.passed and r51.passed
    # same Gamma_q quotient on the left of both
    assert rel_diff(r53.lhs_value, r51.lhs_value) < mpf("1e-36")


def _thm53_integral_params(p):
    """(v1, v2, u) of the two q-integrals of Theorem 5.3: the integrand is
    t^(b-a-1) (tq;q)_inf (tu;q)_inf / ((t v1;q)_inf (t v2;q)_inf)."""
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return ((q ** (1 - z), q ** (1 - b), q ** (1 - a - z)),
            (q ** (a + 1 + z - b), q ** a, q ** (a + z)))


def test_thm53_closed_form_matches_jackson_oracle(registry, ctx40):
    # the composed rhs at 40 digits against (5.10) as printed at 60 digits:
    # Gamma_q quotients times the two q-integrals, each the Jackson sum of
    # its integrand with one product per factor per node
    ctx60 = PrecisionCtx(digits=60)
    entry = next(e for e in registry if e.id == "thm-5.3")
    for p in sample_domain("thm-5.3", 4, seed=3, registry=registry):
        with ctx40.working():
            got = entry.rhs(p, ctx40)
        assert got.certified
        with mp.workdps(70):
            a, b, z, q = p["a"], p["b"], p["z"], p.q
            integrals = []
            for v1, v2, u in _thm53_integral_params(p):
                def integrand(t):
                    return (pochhammer_inf(t * q, q, ctx60).value
                            * pochhammer_inf(t * u, q, ctx60).value
                            / (pochhammer_inf(t * v1, q, ctx60).value
                               * pochhammer_inf(t * v2, q, ctx60).value)
                            * t ** (b - a - 1))

                integrals.append(
                    jackson_integral_finite(integrand, 1, q, ctx60).value)
            int_f, int_g = integrals

            def g(x):
                return gamma_q(x, q, ctx60).value

            printed = (g(1 - a) * g(b - a - z)
                       / (g(b - a) * g(1 - z) * g(1 - b)) * int_f
                       + g(b) * g(z) / (g(b - a) * g(a + 1 + z - b) * g(a))
                       * int_g
                       - (1 - q) ** (a + 1 - b))
            assert rel_diff(got.value, printed) < mpf("1e-38"), p


def _count_thm53_products(monkeypatch, registry, ctx, side):
    """A thm-5.3 side and the number of (x;q)_inf it passed to prodquot."""
    params = []
    prodquot = qcore.prodquot

    def counting(nums, dens, *args, **kwargs):
        params.extend(nums)
        params.extend(dens)
        return prodquot(nums, dens, *args, **kwargs)

    for module in (qcore, qgamma, identities):
        monkeypatch.setattr(module, "prodquot", counting)
    entry = next(e for e in registry if e.id == "thm-5.3")
    point = QPoint(mpf("0.5"), {"a": mpf("0.1"), "b": mpf("0.7"),
                                "z": mpf("0.25")})
    with ctx.working():
        value = getattr(entry, side)(point, ctx)
    return value, len(params)


def test_thm53_rhs_work_budget(monkeypatch, registry, ctx40):
    # terms A and D each divide two Gamma_q by two, where (q;q)_inf cancels:
    # four (q^x;q)_inf each; evaluating the integrands at every Jackson node
    # makes thousands
    rhs, products = _count_thm53_products(monkeypatch, registry, ctx40, "rhs")
    assert rhs.certified
    assert 0 < products <= 8


def test_thm53_lhs_work_budget(monkeypatch, registry, ctx40):
    # one (q;q)_inf and one (q^x;q)_inf per Gamma_q factor, where the
    # (q;q)_inf of all but one cancel
    lhs, products = _count_thm53_products(monkeypatch, registry, ctx40, "lhs")
    assert lhs.certified
    assert 0 < products <= 8


def _printed_rhs(identity, p, ctx):
    """(5.4) or (5.8) as printed, each Gamma_q from gamma_q and each 2phi1
    parameter from qpow, at ctx's digits."""
    a, b, z, q = p["a"], p["b"], p["z"], p.q

    def g(*xs):
        return prod(gamma_q(x, q, ctx).value for x in xs)

    def phi21(alpha, beta, gamma, delta):
        return phi([qpow(q, alpha, ctx), qpow(q, beta, ctx)],
                   [qpow(q, gamma, ctx)], q, qpow(q, delta, ctx), ctx).value

    scale = (1 - q) ** (a + 1 - b)
    if identity == "thm-5.1":
        return (scale * g(b, z) / g(b - a, a + z)
                * phi21(a + 1 + z - b, a, a + z, b - a)
                + g(1 - a, b - a - z) / g(1 - b, b + 1 - a - z)
                * phi21(b - a, b - z - a, b + 1 - a - z, 1 - b) - scale)
    return (g(b, z) / g(a, z + 1) * phi21(b - a, z, 1 + z, a)
            + scale * g(1 - a, b - a - z) / g(1 - a - z, b - a)
            * phi21(1 - z, 1 - b, 1 - a - z, b - a) - scale)


def _printed_lhs(p, ctx):
    """The left side of (5.4), (5.8) and (5.10), Gamma_q(b) Gamma_q(1-a)
    Gamma_q(z) Gamma_q(b-a-z) / (Gamma_q(b-a) Gamma_q(a+z) Gamma_q(1-a-z)),
    each Gamma_q from gamma_q at ctx's digits."""
    a, b, z, q = p["a"], p["b"], p["z"], p.q

    def g(*xs):
        return prod(gamma_q(x, q, ctx).value for x in xs)

    return g(b, 1 - a, z, b - a - z) / g(b - a, a + z, 1 - a - z)


@pytest.mark.parametrize("identity", ["thm-5.1", "eq-5.8"])
def test_section5_rhs_matches_printed_form(registry, ctx40, identity):
    # both sides composed from their exponent tables at 40 digits against
    # the printed sides at 60 digits; the lhs table is the one thm-5.1,
    # eq-5.8 and thm-5.3 share
    ctx60 = PrecisionCtx(digits=60)
    entry = next(e for e in registry if e.id == identity)
    for p in sample_domain(identity, 4, seed=3, registry=registry):
        lhs, rhs = entry.lhs(p, ctx40), entry.rhs(p, ctx40)
        assert lhs.certified and rhs.certified
        with mp.workdps(70):
            assert rel_diff(lhs.value, _printed_lhs(p, ctx60)) \
                < mpf("1e-38"), p
            assert rel_diff(rhs.value, _printed_rhs(identity, p, ctx60)) \
                < mpf("1e-38"), p


@pytest.mark.parametrize("text", ["2-b", "a+1/2", "x+y"])
def test_vector_rejects_a_term_that_is_no_unit_or_letter(text):
    # a term other than +-1 and +-a, +-b, +-z was dropped: "2-b" read as
    # -b, "a+1/2" as a and "x+y" as 0, so a typo silently changed a side
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        identities._vector(text)
    assert identities._vector("b+1-a-z") == (1, -1, 1, -1)
    assert identities._vector("x+y", letters="xy") == (0, 1, 1)


@pytest.mark.parametrize("identity, x", [
    ("thm-5.1", lambda a, b, z: b - a - z), ("eq-5.8", lambda a, b, z: z)],
    ids=["thm-5.1", "eq-5.8"])
def test_section5_rhs_telescopes_gamma_q_pair(monkeypatch, registry, ctx40,
                                               identity, x):
    # Gamma_q(x) / Gamma_q(x+1) = (1-q) / (1-q^x) (thm-5.1's second term,
    # eq-5.8's first) reaches prodquot as the one finite factor (q^x;q)_1
    # under the line: six (q^y;q)_inf in all, not eight
    telescoped = []
    telescope = qcore._telescope

    def recording(xs, ys):
        telescoped.append(telescope(xs, ys))
        return telescoped[-1]

    monkeypatch.setattr(qcore, "_telescope", recording)
    entry = next(e for e in registry if e.id == identity)
    point = QPoint(mpf("0.5"), {"a": mpf("0.1"), "b": mpf("0.7"),
                                "z": mpf("0.25")})
    rhs = entry.rhs(point, ctx40)
    assert rhs.certified
    assert sum(len(nums) + len(dens) for nums, dens, _ in telescoped) == 6
    [(start, count, over)] = [f for _, _, finite in telescoped
                              for f in finite]
    assert (count, over) == (1, False)
    with ctx40.working():
        q = point.q
        assert rel_diff(start.value(q),
                        q ** x(point["a"], point["b"], point["z"])) \
            < mpf("1e-45")


@pytest.mark.parametrize("q", ["0.5", "0.3"])
@pytest.mark.parametrize("identity", ["eq-5.8", "thm-5.3"])
@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_gamma_q_pole_inside_the_strip(registry, ctx40, identity, side, q):
    # a = 2 lies in the strip 0 < z < b - a < 1, and both sides hold
    # Gamma_q(1 - a) = Gamma_q(-1). At q = 0.3 its monomial q^-a q rounds to
    # no exact zero factor 1 - q^-a q q (without the explicit pole check the
    # products raise NumericalBreakdownError); at q = 0.5 it rounds to one
    entry = next(e for e in registry if e.id == identity)
    point = QPoint(mpf(q), {"a": 2, "b": mpf("2.5"), "z": mpf("0.25")})
    assert entry.domain(point, ctx40) == []
    with pytest.raises(PoleError, match="pole"):
        getattr(entry, side)(point, ctx40)


@pytest.mark.parametrize("identity", [
    e.id for e in full_registry()
    if e.id not in ("eq-5.5", "eq-5.6", "eq-5.7", "eq-5.9", "eq-5.12")])
def test_gamma_side_terms_used_counts_work_done(monkeypatch, registry, ctx40,
                                                identity):
    # a side's terms_used is the sum over the products and series it
    # computed, each counted once (eq-3.2's closed-form rhs computes none)
    made = []

    def recording(fn):
        def call(*args, **kwargs):
            value = fn(*args, **kwargs)
            made.append(value.terms_used)
            return value
        return call

    for module in (qcore, qgamma, identities, eta):
        for name in ("prodquot", "phi", "psi_bilateral"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(getattr(module, name)))
    entry = next(e for e in registry if e.id == identity)
    for point in sample_domain(identity, 2, seed=7, registry=registry):
        for side in (entry.lhs, entry.rhs):
            made.clear()
            value = side(point, ctx40)
            assert value.terms_used == sum(made), point


def test_thm53_near_one_q(registry, ctx40):
    # q = 0.9 lies outside the sampler's range but inside the domain
    point = QPoint(mpf("0.9"), {"a": mpf("0.1"), "b": mpf("0.7"),
                                "z": mpf("0.25")})
    res = eval_identity("thm-5.3", point, tol=1e-22, ctx=ctx40,
                        registry=registry)
    assert res.passed, res.rel_err


def test_strip_domain_rejection(registry, ctx40):
    # z > b - a violates the strip
    point = QPoint(mpf("0.3"), {"a": mpf("0.5"), "b": mpf("0.6"),
                                "z": mpf("0.3")})
    from qseries import DomainViolationError
    with pytest.raises(DomainViolationError):
        eval_identity("thm-5.1", point, ctx=ctx40, registry=registry)


# --- classical limits ------------------------------------------------------------

@pytest.mark.parametrize("identity", [e.id for e in full_registry()])
def test_levin_series_side_builds_terms_at_working_precision(registry, ctx40,
                                                             identity):
    # every side, the Levin series sides included, runs at the working
    # precision of its ctx: a direct call must not depend on the caller's
    entry = next(e for e in registry if e.id == identity)
    for point in sample_domain(identity, 2, seed=7, registry=registry):
        for side in (entry.lhs, entry.rhs):
            outside = side(point, ctx40)
            with ctx40.working():
                inside = side(point, ctx40)
            assert outside == inside, point


def test_eq56_beta_half_half_is_pi(registry, ctx40):
    point = QPoint(mpf("0.5"), {"x": mpf("0.5"), "y": mpf("0.5")})
    res = eval_identity("eq-5.6", point, ctx=ctx40, registry=registry)
    assert res.passed
    with ctx40.working():
        assert rel_diff(res.lhs_value, mp.pi) < mpf("1e-30")


def test_eq59_value_and_quadrature_oracle(registry, ctx40):
    res = eval_identity("eq-5.9", QPoint(mpf("0.5"), {}), ctx=ctx40,
                        registry=registry)
    assert res.passed
    assert mp.nstr(res.rhs_value, 11) == "1.3110287771"
    # independent oracle: the lemniscate constant int_0^1 (1-x^4)^(-1/2) dx
    with mp.workdps(30):
        quad = mp.quad(lambda x: 1 / mp.sqrt(1 - x ** 4), [0, 1])
    assert abs(res.lhs_value - quad) < mpf("1e-8")


def test_eq59_substitution_form(ctx40):
    # sum (3/4)_n / (n! (n + 1/2)) = Gamma(1/4) Gamma(1/2) / Gamma(3/4);
    # terms decay like n^(-5/4), so accelerate the partial sums
    with ctx40.working():
        t = mpf(2)  # n = 0 term: 1/(1/2)
        terms = []
        for n in range(400):
            terms.append(t)
            t *= ((n + mpf(3) / 4) / (n + 1)
                  * (n + mpf(1) / 2) / (n + mpf(3) / 2))
        s = accelerate(terms, ctx40).value
        closed = (classical_gamma(mpf(1) / 4, ctx40)
                  * classical_gamma(mpf(1) / 2, ctx40)
                  / classical_gamma(mpf(3) / 4, ctx40))
        assert rel_diff(s, closed) < mpf("1e-12")


def test_eq55_sample_points(registry, ctx40):
    for b, z in ((mpf("0.6"), mpf("0.2")), (mpf("0.85"), mpf("0.5"))):
        point = QPoint(mpf("0.5"), {"b": b, "z": z})
        res = eval_identity("eq-5.5", point, ctx=ctx40, registry=registry)
        assert res.passed, f"eq-5.5 at b={b}, z={z}: relErr={res.rel_err}"


def test_eq57_series_true_closed_form(ctx40):
    # sum (b-a)_n / (n! (n+z)) = Gamma(z) Gamma(1+a-b) / Gamma(z+1+a-b),
    # i.e. B(z, 1+a-b) -- the series has this closed form, which generically
    # differs from the Gamma quotient printed on the left of eq-5.7.
    with ctx40.working():
        for a, b, z in ((mpf("0.2"), mpf("0.7"), mpf("0.3")),
                        (mpf("0.1"), mpf("0.9"), mpf("0.55"))):
            t = 1 / z
            terms = []
            for n in range(400):
                terms.append(t)
                t *= (b - a + n) / (n + 1) * (n + z) / (n + 1 + z)
            s = accelerate(terms, ctx40).value
            closed = (classical_gamma(z, ctx40)
                      * classical_gamma(1 + a - b, ctx40)
                      / classical_gamma(z + 1 + a - b, ctx40))
            assert rel_diff(s, closed) < mpf("1e-9")


def test_eq57_passes_at_b_equal_1_only(registry, ctx40):
    # at b = 1 the printed Gamma quotient coincides with B(z, 1+a-b)
    ok = eval_identity("eq-5.7",
                       QPoint(mpf("0.5"), {"a": mpf("0.25"), "b": mpf("0.999999"),
                                           "z": mpf("0.5")}),
                       ctx=ctx40, registry=registry)
    assert ok.rel_err < mpf("1e-5")
    generic = eval_identity("eq-5.7",
                            QPoint(mpf("0.5"), {"a": mpf("0.2"), "b": mpf("0.7"),
                                                "z": mpf("0.3")}),
                            ctx=ctx40, registry=registry)
    assert not generic.passed
    assert generic.rel_err > mpf("1e-3")


def test_classical_verdict_is_checked_at_the_requested_digits(
        monkeypatch, registry, ctx40):
    # eq-5.9 passes, and fails once its series side is off by a relative
    # 1e-12: the default tolerance at 40 digits is 1e-35
    point = QPoint(mpf("0.5"), {})
    assert eval_identity("eq-5.9", point, ctx=ctx40,
                         registry=registry).passed
    beta_series = identities._beta_series

    def off(*args):
        value = beta_series(*args)
        return replace(value, value=value.value * (1 + mpf("1e-12")))

    monkeypatch.setattr(identities, "_beta_series", off)
    res = eval_identity("eq-5.9", point, ctx=ctx40, registry=registry)
    assert not res.passed
    assert mpf("5e-13") < res.rel_err < mpf("2e-12")


def test_eq512_sample_points(registry, ctx40):
    for a, b, z in ((mpf("0.15"), mpf("0.8"), mpf("0.4")),
                    (mpf("0.3"), mpf("0.9"), mpf("0.2"))):
        point = QPoint(mpf("0.5"), {"a": a, "b": b, "z": z})
        res = eval_identity("eq-5.12", point, ctx=ctx40, registry=registry)
        assert res.passed, f"eq-5.12 at ({a},{b},{z}): relErr={res.rel_err}"


# The Gamma sides of the classical limits as the paper prints them
_G = mp.gamma
_PRINTED_GAMMA_SIDES = {
    "eq-5.5": {"lhs": lambda b, z: _G(1 - b) * _G(b + 1 - z) / _G(1 - z)},
    "eq-5.6": {"lhs": lambda x, y: _G(x) * _G(y) / _G(x + y)},
    "eq-5.7": {"lhs": lambda a, b, z: (_G(a) * _G(z) * _G(1 - a)
                                       * _G(b - a - z)
                                       / (_G(a + z) * _G(b - a)
                                          * _G(1 - a - z)))},
    "eq-5.12": {
        "lhs": lambda a, b, z: (_G(b) * _G(1 - a) * _G(z) * _G(b - a - z)
                                / (_G(a + z) * _G(1 - a - z))),
        "rhs": lambda a, b, z: (_G(b - a) * _G(a - b + 1)
                                * (_G(1 - a) * _G(b - a - z)
                                   / (_G(1 - z) * _G(1 - b))
                                   + _G(b) * _G(z)
                                   / (_G(a) * _G(a + 1 + z - b)))),
    },
}


@pytest.mark.parametrize("identity", list(_PRINTED_GAMMA_SIDES))
def test_classical_sides_match_printed_form(registry, ctx40, identity):
    # each Gamma table side against its printed formula in mp.gamma at 60
    # digits, where the sampled doubles and their sums are exact
    entry = next(e for e in registry if e.id == identity)
    for point in sample_domain(identity, 3, 7, registry=registry):
        for side, printed in _PRINTED_GAMMA_SIDES[identity].items():
            got = getattr(entry, side)(point, ctx40)
            with mp.workdps(60):
                want = printed(**point.params)
                assert (abs(got.value - want)
                        <= got.err_estimate + abs(want) * mpf("1e-45")), \
                    (side, point.params)


@pytest.mark.parametrize("identity",
                         ["eq-5.5", "eq-5.6", "eq-5.7", "eq-5.9", "eq-5.12"])
def test_classical_balls_overlap_where_both_are_certified(registry, ctx40,
                                                          identity):
    # no classical side claims an error of 0: a quotient of k mpmath
    # values is a ball of radius k 2^(2-prec)|v|. Where both sides are
    # certified the balls of an identity that holds overlap (seed-1 point
    # #2 of eq-5.12 was 4.3e-50 apart with errors 0 and 3.0e-50 when Gamma
    # was taken as exact)
    entry = next(e for e in registry if e.id == identity)
    for point in sample_domain(identity, 5, 1, registry=registry):
        lhs, rhs = entry.lhs(point, ctx40), entry.rhs(point, ctx40)
        assert lhs.err_estimate > 0 and rhs.err_estimate > 0, point.params
        if lhs.certified and rhs.certified:
            assert (abs(lhs.value - rhs.value)
                    <= lhs.err_estimate + rhs.err_estimate), point.params
