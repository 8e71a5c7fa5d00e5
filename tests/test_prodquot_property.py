"""Property test of prodquot against mpmath's qp: random quotients over
0.05 <= q <= 0.99, parameters near the zeros and poles q^-n included."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qseries import PrecisionCtx, QSeriesError
from qseries.qcore import prodquot


@st.composite
def _quotients(draw):
    """(q, nums, dens, digits): 1-4 numerators and 0-4 denominators with
    |x| <= 2.5 of either sign, some within 1e-6 relative of q^-n."""
    q = draw(st.floats(0.05, 0.99))
    n_max = 0
    while q ** -(n_max + 1) <= 2.5:
        n_max += 1

    def param():
        if draw(st.booleans()):
            return draw(st.floats(-2.5, 2.5))
        n = draw(st.integers(0, n_max))
        sign = draw(st.sampled_from([1, -1]))
        return sign * q ** -n * (1 + draw(st.floats(-1e-6, 1e-6)))

    nums = [mpf(param()) for _ in range(draw(st.integers(1, 4)))]
    dens = [mpf(param()) for _ in range(draw(st.integers(0, 4)))]
    return mpf(q), nums, dens, draw(st.sampled_from([20, 40]))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_quotients())
# a plain Euler sum, with no head, was wrong by 1.2e-35 here at 40 digits
@example((mpf("0.9"), [mpf("2.5")], [], 40))
def test_prodquot_within_its_bound_or_typed_error(case):
    q, nums, dens, digits = case
    try:
        got = prodquot(nums, dens, q, PrecisionCtx(digits=digits))
    except QSeriesError:
        return
    assert got.certified
    with mp.workdps(70):
        oracle = (mp.fprod(mp.qp(x, q, maxterms=10 ** 6) for x in nums)
                  / mp.fprod(mp.qp(y, q, maxterms=10 ** 6) for y in dens))
        assert abs(got.value - oracle) <= (
            got.err_estimate + mpf(10) ** -digits * abs(oracle)), case
