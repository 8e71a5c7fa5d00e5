"""The libmpf paths around the kernels against the mpf expressions they
replace, bit for bit, at 53, 133 and 3,400 bits: SeriesValue's ball
arithmetic, ParamExpr.value and the monomials' products and quotients; the
pole screen in front of Section 5's Gamma_q arguments; and the point's
valuation table, which values each monomial once as an integer power of
the point's q."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from mpmath.libmp import mpf_mul, mpf_pow_int, round_nearest as RN

from qseries import (NumericalBreakdownError, ParamExpr, PoleError,
                     PrecisionCtx, QPoint, SeriesValue, eval_identity,
                     params, qcore, sample_domain)
from qseries.registry import CATALOG

PRECS = [53, 133, 3400]
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


def _mpf_ball(op, x, y):
    """(value, err, terms_used, certified) of x op y by the mpf expressions
    of SeriesValue's operations, at the precision in force."""
    if op == "-":
        y = SeriesValue(-y.value, y.err_estimate, y.terms_used, y.certified)
    a, ea, b, eb = x.value, x.err_estimate, y.value, y.err_estimate
    if op in "+-":
        value, err = a + b, ea + eb
    elif op == "*":
        value, err = a * b, abs(a) * eb + abs(b) * ea + ea * eb
    else:
        if b == 0:
            raise PoleError("division by an exactly-zero series value")
        if eb >= abs(b):
            raise NumericalBreakdownError("a divisor within its error of 0")
        value = a / b
        err = (ea + abs(value) * eb) / (abs(b) - eb)
    return (value, err + mp.ldexp(abs(value), -mp.prec),
            x.terms_used + y.terms_used, x.certified and y.certified)


@st.composite
def _ball(draw, prec):
    """A SeriesValue at prec or up to 20 bits wider: zero, negative and
    exact (err 0) operands included, and sometimes a plain mpf."""
    with mp.workprec(prec + draw(st.sampled_from([0, 20]))):
        def real(lo):
            man = draw(st.integers(-(2 ** (prec + 20)), 2 ** (prec + 20)))
            return mpf((man, draw(st.integers(lo - prec, 40 - prec))))

        value = draw(st.sampled_from([mpf(0), None])) or real(-40)
        err = abs(draw(st.sampled_from([mpf(0), None])) or real(-200))
    if draw(st.integers(0, 5)) == 0:
        return value
    return SeriesValue(value, err, draw(st.integers(0, 9)),
                       draw(st.booleans()))


@pytest.mark.parametrize("prec", PRECS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_series_value_ops_match_mpf_expressions(prec, data):
    x = data.draw(_ball(prec).filter(lambda v: isinstance(v, SeriesValue)))
    y = data.draw(_ball(prec))
    op = data.draw(st.sampled_from("+-*/"))
    with mp.workprec(prec):
        try:
            want = _mpf_ball(op, x, SeriesValue.of(y))
        except (PoleError, NumericalBreakdownError) as exc:
            with pytest.raises(type(exc)):
                OPS[op](x, y)
            return
        got, neg = OPS[op](x, y), -x
    assert (got.value._mpf_, got.err_estimate._mpf_, got.terms_used,
            got.certified) == (want[0]._mpf_, want[1]._mpf_, *want[2:])
    with mp.workprec(prec):
        assert neg.value._mpf_ == (-x.value)._mpf_
    assert (neg.err_estimate, neg.terms_used, neg.certified) == (
        x.err_estimate, x.terms_used, x.certified)


def _mpf_value(m, q):
    """m's value at q by the mpf expressions ParamExpr.value replaces."""
    c, r = m.coefficient, m.exponent
    c = c if isinstance(c, mpf) else mpf(c.numerator) / c.denominator
    if r == 0:
        return c
    if r.denominator == 1:
        return c * q ** int(r)
    return c * mp.exp(mpf(r.numerator) / r.denominator * mp.log(q))


@pytest.mark.parametrize("prec", PRECS)
def test_param_value_matches_mpf_expression(prec):
    with mp.workprec(prec + 20):
        wide = mpf(1) / 7  # 20 bits wider than the precision in force
    with mp.workprec(prec):
        q = mpf(1) / 3
        for c in [1, -1, 3, Fraction(-7, 20), Fraction(1, 3), mpf("0.3"),
                  mpf("-2.5e-7"), wide]:
            for r in [0, 1, -1, 5, -13, Fraction(1, 2), Fraction(-5, 3),
                      Fraction(7, 8)]:
                m = ParamExpr(c, r)
                want = _mpf_value(m, q)._mpf_
                assert m.value(q)._mpf_ == want, (c, r)
                assert params._power(c, r, q, mp.log(q)._mpf_)._mpf_ == want, (
                    c, r)


def _section5_side(identity, side, point):
    entry = next(e for e in CATALOG if e.id == identity)
    return getattr(entry, side)(point, PrecisionCtx())


@pytest.mark.parametrize("side", ["lhs", "rhs"])
@pytest.mark.parametrize("identity, params, x", [
    # CI's point: a = 2 in the strip puts Gamma_q(1 - a) = Gamma_q(-1) in
    # both sides
    ("eq-5.8", {"a": 2, "b": 2.5, "z": 0.25}, "-1"),
    # b - a - z = 0 and = -1 exactly
    ("thm-5.1", {"a": 0.25, "b": 0.75, "z": 0.5}, "0"),
    ("thm-5.3", {"a": 0.5, "b": 0.75, "z": 1.25}, "-1"),
])
def test_section5_pole_screen_keeps_the_gamma_q_pole(side, identity, params,
                                                     x):
    point = QPoint(mpf("0.5"), params)
    with pytest.raises(PoleError,
                       match=f"gamma_q pole at nonpositive integer x={x}"):
        _section5_side(identity, side, point)


def test_section5_pole_screen_keeps_a_margin_over_rounding():
    # b - a - z = 0 exactly, but the doubles of a, b and z sum it to 7e-18:
    # only the margin sends the argument on to the mpf check
    with mp.workprec(100):
        a = mpf(2733073800989720573) / 2 ** 64
        z = mpf(601468983405878090) / 2 ** 64
        point = QPoint(mpf("0.5"), {"a": a, "b": a + z, "z": z})
    assert -float(point["a"]) + float(point["b"]) - float(point["z"]) > 0
    with pytest.raises(PoleError, match="gamma_q pole at nonpositive integer"):
        _section5_side("thm-5.1", "lhs", point)


def test_section5_pole_screen_passes_an_argument_just_off_zero():
    # b - a - z = 2^-60 > 0: the doubles cannot rule out x <= 0, the mpf
    # check runs and finds no pole
    with mp.workprec(100):
        b = mpf("0.75") + mpf(2) ** -60
    point = QPoint(mpf("0.5"), {"a": mpf("0.25"), "b": b, "z": mpf("0.5")})
    assert _section5_side("thm-5.1", "lhs", point).certified


@pytest.mark.parametrize("identity", ["eq-3.1", "eq-3.2", "eq-3.3", "eq-4.2",
                                      "eq-4.3", "eq-4.4"])
def test_section34_monomials_are_integer_powers_of_the_point_q(monkeypatch,
                                                               identity):
    # the map q -> q^k writes eq-4.4's z = q^4 as (q^3)^(4/3): each monomial
    # c (q^k)^r that reaches a primitive is c q^(k r) by mpf_pow_int of the
    # point's own q, bit for bit, formed with no exp and no log
    point = sample_domain(identity, 1, seed=1)[0]
    root, seen, inside, calls = point.q._mpf_, [], [], []
    values = qcore._values

    def recording_values(xs, q):
        inside.append(True)
        try:
            got = values(xs, q)
        finally:
            inside.pop()
        seen.extend((x, v, q, mp.prec) for x, v in zip(xs, got)
                    if isinstance(x, ParamExpr))
        return got

    def counting(name, f):
        def wrapped(*args, **kwargs):
            if inside:
                calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(qcore, "_values", recording_values)
    monkeypatch.setattr(params, "mpf_exp", counting("exp", params.mpf_exp))
    monkeypatch.setattr(mp, "log", counting("log", mp.log))
    entry = next(e for e in CATALOG if e.id == identity)
    entry.lhs(point, PrecisionCtx())
    entry.rhs(point, PrecisionCtx())
    assert seen and not calls
    for x, v, q, prec in seen:
        # the base q^k of a map, or the q^m of an eta(m tau), m <= 4
        k = next(k for k in range(1, 5)
                 if mpf_pow_int(root, k, prec, RN) == q._mpf_)
        s = x.exponent * k
        assert s.denominator == 1, (x, k)
        c = x.coefficient
        with mp.workprec(prec):
            c = c if isinstance(c, mpf) else mpf(c.numerator) / c.denominator
        power = mpf_pow_int(root, int(s), prec, RN)
        assert v._mpf_ == mpf_mul(c._mpf_, power, prec, RN), (x, k)


def test_each_distinct_monomial_of_a_point_is_valued_once(monkeypatch):
    # thm-2.1's two sides form a, b/(a z), q/b, ... again and again; the
    # point's valuation table forms each c q^r once per precision
    point = sample_domain("thm-2.1", 1, seed=1)[0]
    formed = []
    power = params._power

    def recording_power(c, r, q, lq=None):
        formed.append((c._mpf_ if isinstance(c, mpf) else c, r, q._mpf_,
                       mp.prec))
        return power(c, r, q, lq)

    monkeypatch.setattr(params, "_power", recording_power)
    assert eval_identity("thm-2.1", point).passed
    assert len({key for key in formed if key[1]}) >= 4
    assert len(formed) == len(set(formed))
