"""Parameter-expression grammar, precision context, and PRNG determinism."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from qseries import (ParamExpr, ParseError, PrecisionCtx, QDomainError,
                     QPoint, parse_param, phi, to_real)
from qseries.params import Q
from qseries.precision import DEFAULT_CTX, real_str
from qseries.rng import SplitMix64, fnv1a64, stream_for


def test_literal():
    e = parse_param("0.35")
    assert e.exponent == 0
    with DEFAULT_CTX.working():
        assert e.eval(0.5) == mpf("0.35")
    assert str(e) == "0.35"


def test_decimals_convert_at_working_precision():
    # parsed and evaluated outside any workdps: the decimals typed, not the
    # nearest doubles (0.1 as a double is off by 5.5e-18)
    ctx = PrecisionCtx(digits=40)
    with mp.workdps(60):
        tenth, three_twentieths = mpf(1) / 10, mpf(3) / 20
    assert abs(parse_param("0.1").eval(0.5, ctx) - tenth) < mpf("1e-45")
    assert (abs(parse_param("0.3*q").eval("0.5", ctx) - three_twentieths)
            < mpf("1e-45"))


def test_negative_literal():
    assert parse_param("-2").eval(0.9) == -2


def test_simple_q_power():
    e = parse_param("-q^3")
    assert e.exponent == 3 and e.coefficient == -1
    assert e.eval(0.5) == mpf("-0.125")


def test_fractional_negative_exponent():
    e = parse_param("-q^-5/3")
    ctx = PrecisionCtx(digits=40)
    v = e.eval("0.3", ctx)
    with ctx.working():
        expected = -mp.exp(-mpf(5) / 3 * mp.log(mpf("0.3")))
        assert abs(v - expected) < abs(expected) * mpf("1e-38")
    assert mp.nstr(v, 5) == "-7.4381"


def test_coefficient_form():
    e = parse_param("2*q^1/2")
    assert abs(e.eval(0.25) - 1) < mpf("1e-45")


def test_bare_q():
    assert parse_param("q").eval(0.7) == mpf("0.7")


def test_round_trip_stability():
    for text in ("0.35", "-2", "q", "-q^3", "-q^-5/3", "2*q^1/2", "q^0.25"):
        e = parse_param(text)
        again = parse_param(str(e))
        assert str(again) == str(e)
        assert e.eval(0.37) == again.eval(0.37)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_param("q^3x")
    assert exc.value.position == 3


def test_parse_error_empty():
    with pytest.raises(ParseError):
        parse_param("   ")


def test_parse_error_garbage():
    with pytest.raises(ParseError):
        parse_param("a+b")


@pytest.mark.parametrize("text", ["q^", "2*", "q^-"])
def test_parse_error_position_of_an_incomplete_expression(text):
    # every prefix can still be completed: the expression ends too early
    with pytest.raises(ParseError) as exc:
        parse_param(text)
    assert exc.value.position == len(text)


@pytest.mark.parametrize("text", ["q^1/0", "q^1.5/2"])
def test_parse_error_bad_rational(text):
    # a zero denominator or a decimal over an integer is no rational of the
    # grammar: a ParseError, not a ZeroDivisionError or an int() ValueError
    with pytest.raises(ParseError):
        parse_param(text)


@pytest.mark.parametrize("exponent", [0.5, mpf("0.5"), "1"],
                         ids=["float", "mpf", "str"])
def test_monomial_refuses_inexact_exponent(exponent):
    # an exponent is an int or a Fraction: any other is refused when the
    # monomial is built, not with an AttributeError when it is used
    with pytest.raises(QDomainError, match="exponent"):
        ParamExpr(1, exponent)


@pytest.mark.parametrize("call", [
    lambda: phi([ParamExpr(0.5, 1)], [], 0.5, 0.3),
    lambda: ParamExpr("x", 1).value(mpf("0.5")),
], ids=["float-in-phi", "str-value"])
def test_monomial_refuses_a_coefficient_of_another_type(call):
    # a coefficient is an int, a Fraction or an mpf: any other is refused
    # when the monomial is built, not with an AttributeError when it is
    # valued
    with pytest.raises(QDomainError, match="coefficient"):
        call()


def test_integral_exponents_and_coefficients_stay_ints():
    third, two_thirds = ParamExpr(1, Fraction(1, 3)), ParamExpr(1, Fraction(2, 3))
    assert type((third * two_thirds).exponent) is int
    assert type(ParamExpr(Fraction(6, 3), Fraction(4, 2)).exponent) is int
    assert type(ParamExpr(Fraction(6, 3)).coefficient) is int
    assert type((ParamExpr(-3, 1) * ParamExpr(-2)).coefficient) is int
    assert (ParamExpr(3) / ParamExpr(2)).coefficient == Fraction(3, 2)
    assert type((ParamExpr(-4) / ParamExpr(-2)).coefficient) is int


def test_valuation_table_is_left_out_of_equality_and_hashing():
    point = QPoint(mpf("0.3"), {"a": ParamExpr(-1, 2)})
    a = point.exprs["a"]
    assert a.valuation is point.valuation
    assert a == ParamExpr(-1, 2) and hash(a) == hash(ParamExpr(-1, 2))
    # products and quotients carry the table on, Q's lack of one aside
    assert (Q / a).valuation is point.valuation
    assert (a * a).valuation is point.valuation
    # a point at the base q^2 shares the table; a q that is not its base
    # is refused
    squared = point.at_power(2, {"b": ParamExpr(1, Fraction(1, 2))})
    assert squared.q == point.q ** 2 and squared["b"] == point.q
    with pytest.raises(QDomainError, match="base of its valuation"):
        QPoint(mpf("0.5"), {}, squared.valuation)


def test_exponent_cap():
    with pytest.raises(ParseError):
        parse_param("q^101")
    with pytest.raises(ParseError):
        parse_param("q^-500/3")


# --- precision context ---------------------------------------------------------

def test_precision_ctx_validation():
    with pytest.raises(QDomainError):
        PrecisionCtx(digits=5)
    with pytest.raises(QDomainError):
        PrecisionCtx(max_terms=0)


def test_precision_ctx_defaults():
    ctx = PrecisionCtx()
    assert ctx.digits == 40 and ctx.working_dps == 50
    assert ctx.tail_tol() == mpf(10) ** -40


def test_to_real_string_decimal():
    assert to_real("0.1") == mpf("0.1")
    assert to_real(3) == 3


def test_real_str_round_trip():
    # a 50-digit value rendered at 40 digits under the default 15-digit
    # context keeps all 40 digits, not just the ambient 53 bits
    with mp.workdps(50):
        x = mpf(1) / 3
    with mp.workdps(15):
        s = real_str(x, 40)
    with mp.workdps(50):
        assert abs(mpf(s) - x) / x <= mpf("1e-39")


# --- PRNG ------------------------------------------------------------------------

def test_fnv1a64_known_vector():
    # FNV-1a 64 of empty string is the offset basis
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_splitmix64_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_splitmix64_known_vector():
    # reference sequence for seed 1234567 (SplitMix64 standard constants)
    g = SplitMix64(1234567)
    first = g.next_u64()
    assert 0 <= first < 2 ** 64
    g2 = SplitMix64(1234567)
    assert g2.next_u64() == first


def test_uniform_bounds():
    g = SplitMix64(9)
    for _ in range(1000):
        u = g.uniform(0.2, 0.7)
        assert 0.2 <= u < 0.7


def test_stream_for_independence():
    s1 = stream_for("eq-1.1", 1)
    s2 = stream_for("eq-2.1", 1)
    s3 = stream_for("eq-1.1", 1)
    assert s1.next_u64() != s2.next_u64()
    assert stream_for("eq-1.1", 1).next_u64() == s3.next_u64()
