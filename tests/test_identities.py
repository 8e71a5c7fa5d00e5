"""Registry behavior and the bilateral/Heine/special-case identities."""

import ast
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf

import qseries
from qseries import (
    DomainViolationError,
    EvaluationError,
    PoleError,
    PrecisionCtx,
    QPoint,
    QSeriesError,
    SeriesValue,
    UnknownIdentityError,
    eta_nome,
    eval_identity,
    gamma_q,
    jackson_integral_finite,
    parse_param,
    phi,
    pochhammer_inf,
    psi_bilateral,
    sample_domain,
)
from qseries.identities import CATALOG, _factors


def rel_diff(x, y):
    return abs(x - y) / max(abs(x), abs(y), mpf("1e-40"))


def test_builtin_count_and_ids(registry):
    # the catalog order is the order of `qseries list`
    ids = ["eq-1.1", "eq-2.1", "eq-2.2", "eq-2.5", "eq-2.6", "eq-2.8",
           "eq-2.9", "thm-2.1", "thm-2.2", "thm-2.3", "eq-3.1", "eq-3.2",
           "eq-3.3", "eq-4.2", "eq-4.3", "eq-4.4", "thm-5.1", "eq-5.8",
           "thm-5.3", "eq-5.5", "eq-5.6", "eq-5.7", "eq-5.9", "eq-5.12"]
    assert [e.id for e in CATALOG] == ids
    assert [e.id for e in registry] == ids


def test_module_graph_is_acyclic():
    # an import inside a function is how a cycle between modules hides;
    # with none, each module imports first in a fresh interpreter
    src = Path(qseries.__file__).parent
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{node.lineno} imports inside {fn.name}")
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    for module in ("qseries.registry", "qseries.identities", "qseries.harness"):
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       check=True)


def test_full_registry_count(registry):
    assert len(registry) == 24
    assert len({e.id for e in registry}) == 24
    for entry in registry:
        assert entry.paper_ref and entry.domain_desc


def test_eval_eq11_example_point(registry, ctx40):
    point = QPoint(0.3, {"a": 0.5, "b": 0.05, "z": 0.4})
    res = eval_identity("eq-1.1", point, tol=1e-25, ctx=ctx40,
                        registry=registry)
    assert res.passed
    assert res.rel_err < mpf("1e-25")


def test_eval_eq32_closed_form(registry, ctx40):
    res = eval_identity("eq-3.2", QPoint(0.5, {}), ctx=ctx40,
                        registry=registry)
    assert res.passed
    assert rel_diff(res.lhs_value, mpf("7.5")) < mpf("1e-30")
    assert rel_diff(res.rhs_value, mpf("7.5")) < mpf("1e-30")


def test_domain_violation_names_constraint(registry, ctx40):
    # |z| <= |b/a| breaks the annulus
    point = QPoint(0.3, {"a": 0.5, "b": 0.4, "z": 0.5})
    with pytest.raises(DomainViolationError) as exc:
        eval_identity("thm-2.1", point, ctx=ctx40, registry=registry)
    assert "|b/a| < |z|" in str(exc.value)


def test_domain_checked_at_working_precision(registry):
    # |z| - |b/a| = 1e-30: inside the annulus at 40 digits, on its boundary
    # after rounding to doubles
    ctx = PrecisionCtx(digits=40)
    with ctx.working():
        point = QPoint(mpf("0.3"), {"a": mpf(3), "b": mpf("0.3"),
                                    "z": mpf("0.1") + mpf("1e-30")})
    entry = next(e for e in registry if e.id == "eq-1.1")
    assert entry.domain(point, ctx) == []
    res = eval_identity("eq-1.1", point, ctx=ctx, registry=registry)
    assert res.passed, res.rel_err


@pytest.mark.parametrize("ident, params, named", [
    ("eq-2.6", {"a": "0.5", "b": "0.4", "z": "0"}, "|b/(az)| < 1 violated"),
    ("eq-2.9", {"a": "0.5", "b": "0.4", "z": "0"}, "|b/(az)| < 1 violated"),
    ("eq-1.1", {"a": "0", "b": "0.05", "z": "0.4"}, "|b/a| < |z| violated"),
    ("eq-1.1", {"a": "0.5"}, "missing parameter b; missing parameter z"),
])
def test_domain_names_zero_divisor_or_missing_parameter(registry, ctx40,
                                                         ident, params,
                                                         named):
    with pytest.raises(DomainViolationError) as exc:
        eval_identity(ident, QPoint("0.3", params), ctx=ctx40,
                      registry=registry)
    assert str(exc.value) == f"{ident}: {named}"


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_zero_parameter_fails_typed(entry, ctx40):
    # a parameter that a side divides by is bounded away from zero by a
    # constraint; zeroing any parameter gives a typed error or a verdict
    base = sample_domain(entry.id, 1, seed=7)[0]
    for name in entry.param_names:
        point = QPoint(base.q, {**base.params, name: 0})
        try:
            eval_identity(entry.id, point, ctx=ctx40)
        except QSeriesError:
            pass


def test_unknown_identity(registry):
    with pytest.raises(UnknownIdentityError):
        eval_identity("no-such-id", QPoint(0.5, {}), registry=registry)


def test_sample_domain_determinism(registry):
    a = sample_domain("eq-1.1", 5, seed=1, registry=registry)
    b = sample_domain("eq-1.1", 5, seed=1, registry=registry)
    assert len(a) == 5
    for p1, p2 in zip(a, b):
        assert p1.q == p2.q and p1.params == p2.params
    c = sample_domain("eq-1.1", 5, seed=2, registry=registry)
    assert any(p1.q != p2.q for p1, p2 in zip(a, c))


def test_sample_domain_slack_eq11(registry):
    for p in sample_domain("eq-1.1", 25, seed=1, registry=registry):
        ratio = abs(p["b"] / p["a"])
        assert ratio + 0.05 <= abs(p["z"]) <= 0.95


def test_sample_domain_eq31_ranges(registry):
    for p in sample_domain("eq-3.1", 3, seed=7, registry=registry):
        assert 0.05 < p.q < 0.6
        assert p.q + 0.05 <= p["z"] <= 0.95


def test_sample_domain_rejects_bad_count(registry):
    from qseries import SamplingError
    with pytest.raises(SamplingError):
        sample_domain("eq-1.1", 0, seed=1, registry=registry)


def test_heine_chain_three_way(registry, ctx40):
    # LHS direct 2phi1, Heine form (2.1), and iterated form (2.2) all agree
    point = QPoint(0.35, {"a": 0.8, "b": -0.4, "c": 0.3, "z": 0.55})
    r1 = eval_identity("eq-2.1", point, ctx=ctx40, registry=registry)
    r2 = eval_identity("eq-2.2", point, ctx=ctx40, registry=registry)
    assert r1.passed and r2.passed
    assert r1.lhs_value == r2.lhs_value  # same direct sum
    assert rel_diff(r1.rhs_value, r2.rhs_value) < mpf("1e-30")


def _printed_eq31(q, z):
    # sum_{n in Z} z^n / (1 + q^{n-1}) as printed, both tails below 1e-50
    return sum(z ** n / (1 + q ** (n - 1)) for n in range(-600, 600))


def _printed_eq33(q):
    # sum_{n in Z} 2(1+1/q^2)(1+q^2) q^n / ((1+q^{2n-2})(1+q^{2n})(1+q^{2n+2}))
    c = 2 * (1 + 1 / q ** 2) * (1 + q ** 2)
    return sum(c * q ** n / ((1 + q ** (2 * n - 2)) * (1 + q ** (2 * n))
                             * (1 + q ** (2 * n + 2)))
               for n in range(-200, 200))


def test_eq31_specializes_thm21(registry, ctx40):
    # sum z^n/(1+q^{n-1}) = q/(1+q) * 1psi1(-1/q; -1; q, z)
    entry = next(e for e in registry if e.id == "eq-3.1")
    for q, z in ((mpf("0.2"), mpf("0.6")), (mpf("0.4"), mpf("0.8"))):
        with ctx40.working():
            lhs = entry.lhs(QPoint(q, {"z": z}), ctx40).value
            assert rel_diff(_printed_eq31(q, z), lhs) < mpf("1e-32")
        res = eval_identity("thm-2.1", QPoint(q, {"a": -1 / q, "b": -1, "z": z}),
                            ctx=ctx40, registry=registry)
        assert res.passed


def test_eq32_specializes_thm22(registry, ctx40):
    for q in (mpf("0.2"), mpf("0.45")):
        with ctx40.working():
            point = QPoint(q, {"a": -q, "b": -q ** 3, "z": q})
        res = eval_identity("thm-2.2", point, ctx=ctx40, registry=registry)
        special = eval_identity("eq-3.2", QPoint(q, {}), ctx=ctx40,
                                registry=registry)
        assert res.passed and special.passed
        assert rel_diff(res.lhs_value, special.lhs_value) < mpf("1e-32")


def test_eq33_specializes_thm23(registry, ctx40):
    # LHS of (3.3) equals 1psi1(-1/q^2; -q^4; q^2, q) term by term: the
    # Pochhammer quotient telescopes to the printed three-factor denominator
    entry = next(e for e in registry if e.id == "eq-3.3")
    for q in (mpf("0.25"), mpf("0.5")):
        with ctx40.working():
            lhs = entry.lhs(QPoint(q, {}), ctx40).value
            assert rel_diff(_printed_eq33(q), lhs) < mpf("1e-32")
        res = eval_identity("thm-2.3",
                            QPoint(q ** 2, {"a": -1 / q ** 2, "b": -q ** 4,
                                            "z": q}),
                            ctx=ctx40, registry=registry)
        assert res.passed


def test_bilateral_samplers_cover_signs(registry):
    for ident in ("thm-2.1", "thm-2.2", "thm-2.3"):
        pts = sample_domain(ident, 25, seed=3, registry=registry)
        assert any(p["a"] < 0 for p in pts), f"{ident}: no negative a sampled"
        assert any(p["b"] < 0 for p in pts), f"{ident}: no negative b sampled"
        assert any(p["a"] > 0 for p in pts)


def test_transforms_match_parent_theorems(registry, ctx40):
    # (2.5)+(2.6) recombine into Theorem 2.1's RHS; check all four transforms
    # agree with their sides at a shared in-domain point
    q, a, b, z = mpf("0.3"), mpf("0.6"), mpf("0.45"), mpf("0.8")
    for ident in ("eq-2.5", "eq-2.6", "eq-2.8", "eq-2.9"):
        res = eval_identity(ident, QPoint(q, {"a": a, "b": b, "z": z}),
                            ctx=ctx40, registry=registry)
        assert res.passed, f"{ident} failed: relErr {res.rel_err}"


# --- the printed right sides of Sections 3 and 4 ---------------------------

def _qp(*args):
    # a product of (x;q)_inf, the base last
    *xs, q = args
    out = mpf(1)
    for x in xs:
        out *= mp.qp(x, q)
    return out


def _phi21(a, b, c, q, z):
    return mp.qhyper([a, b], [c], q, z)


def _printed_rhs(ident, q, z):
    """The right side of (3.1), (3.2), (3.3), (4.2), (4.3) or (4.4) as
    printed, from mpmath's qp and qhyper at the caller's precision."""
    if ident == "eq-3.1":
        # the last series is sum (-q)^n / (1 - q^{n+1}/z)
        last = _phi21(q / z, q, q ** 2 / z, q, -q) / (1 - q / z)
        return (-q / (1 + q)
                + q / (1 + q) * _qp(q, -z / q, q) / _qp(-1, z, q)
                * _phi21(z, -1 / q, -z / q, q, q)
                + q * last)
    if ident == "eq-3.2":
        return (1 + q ** 2) * (1 + q) / (q * (1 - q))
    if ident == "eq-3.3":
        Q = q ** 2
        return (_qp(q ** 6, -1 / q, Q) / _qp(-q ** 4, q, Q)
                * _phi21(q ** -3, -q ** -2, -1 / q, Q, q ** 6)
                + _qp(q ** 6, -q ** 3, Q) / _qp(-q ** 4, q ** 5, Q)
                * _phi21(q, -q ** -2, -q ** 3, Q, q ** 6) - 1)
    if ident == "eq-4.2":
        Q = q ** 2
        return (q ** (-mpf(1) / 8) - q ** (mpf(7) / 8) / (1 + q)
                * _qp(q, Q) / _qp(Q, Q) * _phi21(q ** 3, Q, q ** 4, Q, q))
    if ident == "eq-4.3":
        Q = q ** 2
        c = 2 * (1 + q) * q ** (mpf(4) / 3) / ((1 + Q) * (1 + q ** 4))
        # the middle series is sum (1 - q^{2n+2}) / (1 - q^{2n+1}) (-q^2)^n
        mid = (1 + q) * _phi21(q ** 4, q, q ** 3, Q, -Q)
        last = (_qp(q ** 4, -1 / q, Q) / _qp(-1, q ** 3, Q)
                * _phi21(q, -q ** -4, -1 / q, Q, q ** 4))
        return c - 2 * q ** (mpf(4) / 3) / (1 - q) * mid - c * last
    assert ident == "eq-4.4"
    Q = q ** 3
    c4 = q ** (mpf(4) / 3) * (1 + q + q ** 2) / ((1 + q ** 2) * (1 + q ** 5))
    t1 = (_qp(-1 / q, Q) / _qp(-q, q ** 4, Q)
          * _phi21(q, -q ** -5, -1 / q, Q, q ** 6))
    t2 = (_qp(-q ** 4, Q) / _qp(-q ** 8, q ** 2, Q)
          * _phi21(1 / q, -q ** 2, -q ** 4, Q, q ** 6))
    return c4 * (_qp(q ** 6, Q) * (t1 + t2) - 1)


@pytest.mark.parametrize("ident, z", [("eq-3.1", "0.92"), ("eq-3.1", "0.97"),
                                      ("eq-3.2", None), ("eq-3.3", None),
                                      ("eq-4.2", None), ("eq-4.3", None),
                                      ("eq-4.4", None)])
@pytest.mark.parametrize("q", ["0.1", "0.5", "0.9"])
def test_printed_rhs_matches_qhyper_oracle(ctx40, ident, z, q):
    # the catalog's right side against the formula the paper prints, built
    # from mpmath's qp and qhyper at 60 digits
    q = mpf(q)
    params = {} if z is None else {"z": mpf(z)}
    entry = next(e for e in CATALOG if e.id == ident)
    got = entry.rhs(QPoint(q, params), ctx40).value
    with mp.workdps(60):
        want = _printed_rhs(ident, q, params.get("z"))
        assert abs(got - want) <= mpf("1e-35") * abs(want)


@pytest.mark.parametrize("data, printed", [
    ((1, 1, (), ((-1, 1),)), lambda q: q / (1 + q)),
    ((1, -1, ((-1, 1), (-1, 2)), ((1, 1),)),
     lambda q: (1 + q ** 2) * (1 + q) / (q * (1 - q))),
    ((-1, Fraction(7, 8), (), ((-1, 1),)),
     lambda q: -q ** (mpf(7) / 8) / (1 + q)),
    ((1, Fraction(-1, 8)), lambda q: q ** (mpf(-1) / 8)),
    ((-2, Fraction(4, 3), ((-1, 1),), ((-1, 2), (-1, 4))),
     lambda q: (-2 * (1 + q) * q ** (mpf(4) / 3)
                / ((1 + q ** 2) * (1 + q ** 4)))),
    ((1, Fraction(4, 3), ((1, 3),), ((1, 1), (-1, 2), (-1, 5))),
     lambda q: (q ** (mpf(4) / 3) * (1 + q + q ** 2)
                / ((1 + q ** 2) * (1 + q ** 5)))),
], ids=["eq-3.1", "eq-3.2-rhs", "eq-4.2", "eq-4.2-shift", "eq-4.3", "eq-4.4"])
def test_factor_data_holds_its_ball(ctx40, data, printed):
    # the Section 3-4 scales, eq-4.2's shift and eq-3.2's rhs, written as
    # the catalog writes them, at 40 digits against the printed form at
    # 120 digits: within the side's estimate from q = 1e-4, where |e log q|
    # is largest and a fractional power of q carries most rounding, to
    # q = 0.9999
    side = _factors(*data)
    for q in map(mpf, ("1e-4", "0.05", "0.3", "0.61", "0.9999")):
        with ctx40.working():
            got = side(QPoint(q, {}), ctx40)
        with mp.workdps(120):
            assert got.certified
            assert abs(got.value - printed(q)) <= got.err_estimate, q


def test_section34_sides_hold_their_balls(registry):
    # both sides of every Section 3-4 entry at 5 points of each of seeds
    # 1-10, at 40 and at 120 digits: the two values lie within the sum of
    # their error estimates, so a scale or closed form valued outside the
    # ball rules (an estimate of 0 for a rounded value) shows as a miss
    ids = ("eq-3.1", "eq-3.2", "eq-3.3", "eq-4.2", "eq-4.3", "eq-4.4")
    lo, hi = PrecisionCtx(digits=40), PrecisionCtx(digits=120)
    sides, misses = 0, []
    for entry in (e for e in registry if e.id in ids):
        for seed in range(1, 11):
            for point in sample_domain(entry.id, 5, seed, registry=registry):
                for side in ("lhs", "rhs"):
                    f = getattr(entry, side)
                    v, w = f(point, lo), f(point, hi)
                    sides += 1
                    with hi.working():
                        if (abs(v.value - w.value)
                                > v.err_estimate + w.err_estimate):
                            misses.append((entry.id, side, seed, point.q))
    assert sides == 600
    assert not misses, misses


def test_no_series_value_meets_mpmath_conversion(monkeypatch, registry,
                                                 ctx40):
    # an mpf on the left of a SeriesValue has mpmath format repr(sv) into a
    # TypeError it discards before Python falls back to the SeriesValue's
    # own method; with repr raising, every side and primitive still runs
    def refuse(self):
        raise AssertionError("a SeriesValue met mpmath's conversion")

    monkeypatch.setattr(SeriesValue, "__repr__", refuse)
    calls = {f"{e.id} {side}": (getattr(e, side), point)
             for e in registry
             for point in sample_domain(e.id, 1, 7, registry=registry)
             for side in ("lhs", "rhs")}
    q, x = mpf("0.5"), mpf("0.3")
    calls["gamma_q"] = (lambda q, ctx: gamma_q(x, q, ctx), q)
    calls["eta_nome"] = (eta_nome, q)
    calls["jackson_integral_finite"] = (
        lambda q, ctx: jackson_integral_finite(lambda t: t, 1, q, ctx), q)
    failed = []
    for name, (f, arg) in calls.items():
        try:
            f(arg, ctx40)
        except AssertionError:
            failed.append(name)
    assert not failed, failed


@pytest.mark.parametrize("identity", ["eq-1.1", "thm-2.3"])
def test_bilateral_sides_pass_at_exact_lower_q_power(identity):
    # b = q^3, typed exactly, ends psi's negative half at m = 2 from the
    # exponent; its rounded value left the factor 1 - (q/b) q^2 too close
    # to 0 to tell, and the point was an error
    ctx = PrecisionCtx(digits=40)
    with ctx.working():
        point = QPoint(mpf("0.45"), {"a": parse_param("0.95"),
                                     "b": parse_param("q^3"),
                                     "z": parse_param("0.9")})
    report = qseries.run(qseries.RunConfig(identities=(identity,),
                                           explicit_points=(point,)))
    rec = report["results"][0]["points"][0]
    assert "error" not in rec and rec["pass"] is True, rec


@pytest.mark.parametrize("q", ["0.3", "0.5", "0.7"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_eq11_pole_at_exact_q_power(registry, ctx40, q, k):
    # a = q^k, typed exactly, is a pole of both sides of (1.1): the lhs's
    # (q/a;q)_m vanishes at m = k, the rhs's (q/a;q)_inf at its factor k - 1.
    # As a rounded mpf, q^2 at q = 0.3 makes no factor vanish, and both
    # sides agree at about 3.9e50
    with ctx40.working():
        point = QPoint(mpf(q), {"a": parse_param(f"q^{k}"),
                                "b": parse_param("0.0001"),
                                "z": parse_param("0.9")})
    report = qseries.run(qseries.RunConfig(identities=("eq-1.1",),
                                           explicit_points=(point,)))
    rec = report["results"][0]["points"][0]
    assert "pole" in rec["error"] and rec["pass"] is False
    entry = next(e for e in registry if e.id == "eq-1.1")
    for side in ("lhs", "rhs"):
        # the other side replaced by 1, so that this one is evaluated
        other = "rhs" if side == "lhs" else "lhs"
        probe = replace(entry, **{other: lambda p, ctx: SeriesValue.of(1)})
        with pytest.raises(EvaluationError) as info:
            eval_identity("eq-1.1", point, ctx=ctx40, registry=[probe])
        assert info.value.side == side
        assert isinstance(info.value.cause, PoleError)
