"""Property test of phi and psi_bilateral: random series over 0.05 <= q <=
0.99 and |z| <= 0.999 of both signs, parameters near q^-n included, against
mpmath's qhyper and Ramanujan's 1psi1 product at 70 digits; the q = 0.999
corners against the q-binomial theorem and that product, from qcore's
certified prodquot at 70 digits."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qseries import PrecisionCtx, QSeriesError, phi, psi_bilateral
from qseries import qcore
from qseries.harness import RunConfig, run


def _param(draw, q):
    """|x| <= 2.5 of either sign, half of them within 1e-6 relative of
    +-q^-n."""
    if draw(st.booleans()):
        return draw(st.floats(-2.5, 2.5))
    n_max = 0
    while q ** -(n_max + 1) <= 2.5:
        n_max += 1
    n = draw(st.integers(0, n_max))
    sign = draw(st.sampled_from([1, -1]))
    return sign * q ** -n * (1 + draw(st.floats(-1e-6, 1e-6)))


@st.composite
def _series(draw):
    """(kind, q, upper, lower, z, digits): a 1phi0, 2phi1 or 3phi2, or a
    1psi1 with b = a z s, |s| < 1, so that |b/a| < |z|."""
    q = draw(st.floats(0.05, 0.99))
    z = draw(st.floats(0.05, 0.999)) * draw(st.sampled_from([1, -1]))
    digits = draw(st.sampled_from([20, 40]))
    if draw(st.booleans()):
        a = _param(draw, q)
        b = a * z * draw(st.floats(-0.999, 0.999))
        return "psi", mpf(q), [mpf(a)], [mpf(b)], mpf(z), digits
    r = draw(st.integers(1, 3))
    upper = [mpf(_param(draw, q)) for _ in range(r)]
    lower = [mpf(_param(draw, q)) for _ in range(r - 1)]
    return "phi", mpf(q), upper, lower, mpf(z), digits


def _oracle(kind, q, upper, lower, z):
    def qp(x, q):
        if q > mpf("0.998"):
            # mpmath's qp takes tens of seconds there: the certified product
            return qcore.prodquot([x], [], q, PrecisionCtx(digits=70)).value
        return mp.qp(x, q, maxterms=10 ** 6)

    if kind == "phi":
        if 1 in upper:
            # every term past the first carries the factor 1 - 1 q^0 = 0,
            # which qhyper's summation never sees stop
            return mpf(1)
        if q > mpf("0.998"):
            # the q-binomial theorem for a 1phi0, as qhyper takes seconds
            (a,) = upper
            return qp(a * z, q) / qp(z, q)
        return mp.qhyper(upper, lower, q, z, maxterms=10 ** 6)
    (a,), (b,) = upper, lower
    return (qp(q, q) * qp(b / a, q) * qp(a * z, q) * qp(q / (a * z), q)
            / (qp(b, q) * qp(q / a, q) * qp(z, q) * qp(b / (a * z), q)))


# a 1phi0 whose sum (az;q)_inf/(z;q)_inf is about 1e-31, az = 1 - 2^-100,
# while its terms are about 1: the rounding bound passes its share of the
# limit and the kernel reruns with more bits
with mp.workprec(128):
    _CANCELLING = ("phi", mpf("0.5"), [-2 + mpf(2) ** -99], [],
                   mpf("-0.5"), 20)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_series())
@example(_CANCELLING)
# the corners: terms about 1e93 at q = 0.99, |z| = 0.999 in psi, and at q
# = 0.999 a 1phi0 with |z| = 0.999 and a psi
@example(("phi", mpf("0.99"), [mpf("0.3"), mpf("-0.7")], [mpf("0.4")],
          mpf("0.95"), 40))
@example(("psi", mpf("0.99"), [mpf("1.5")], [mpf("-1.3486")], mpf("-0.999"),
          20))
@example(("phi", mpf("0.999"), [mpf("0.375")], [], mpf("0.999"), 40))
@example(("psi", mpf("0.999"), [mpf("1.5")], [mpf("-0.75")], mpf("-0.7"),
          20))
# a and b near 1e-293 put the negative half's parameters near 1e293, so its
# wp is about 1,100 bits, far above prec, and w's radius about 2^975 units
@example(("psi", mpf("0.5"), [mpf("1.367041972620658e-293")],
          [mpf("3.4176049315516451e-294")], mpf("0.5"), 20))
def test_series_within_its_bound_or_typed_error(case):
    kind, q, upper, lower, z, digits = case
    evaluate = phi if kind == "phi" else psi_bilateral
    try:
        got = evaluate(upper, lower, q, z, PrecisionCtx(digits=digits))
    except QSeriesError:
        return
    assert got.certified
    with mp.workdps(70):
        oracle = _oracle(kind, q, upper, lower, z)
        assert abs(got.value - oracle) <= (
            got.err_estimate + mpf(10) ** -digits * abs(oracle)), case


def test_cancelling_series_reruns_within_its_bound(monkeypatch):
    kernel, runs = qcore._ratio_kernel, []

    def recording_kernel(*args):
        runs.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(qcore, "_ratio_kernel", recording_kernel)
    kind, q, upper, lower, z, digits = _CANCELLING
    got = phi(upper, lower, q, z, PrecisionCtx(digits=digits))
    # one rerun, at more bits
    assert len(runs) == 2 and runs[1] > runs[0]
    with mp.workdps(70):
        oracle = _oracle(kind, q, upper, lower, z)
        assert abs(oracle) < mpf(10) ** -25
        assert abs(got.value - oracle) <= got.err_estimate


def test_campaign_series_run_their_kernel_once(monkeypatch):
    # over the seed-1 campaign at 5 points every radius stays within 2^-4
    # of its series' limit, so no kernel is rerun: a looser radius would
    # show here as more kernel runs than series
    series, kernels = [], []
    ratio_series, kernel = qcore._ratio_series, qcore._ratio_kernel

    def counting_series(*args, **kwargs):
        series.append(args)
        return ratio_series(*args, **kwargs)

    def counting_kernel(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(qcore, "_ratio_series", counting_series)
    monkeypatch.setattr(qcore, "_ratio_kernel", counting_kernel)
    run(RunConfig(points_per_identity=5, seed=1))
    assert len(series) == 235
    assert len(kernels) == len(series)


def test_campaign_series_take_second_order_terms(monkeypatch):
    # the seed-1 campaign at 5 points sums 3,852 kernel terms and Taylor
    # terms under the Taylor closure (6,638 under the second-order one)
    used = []
    ratio_series = qcore._ratio_series

    def counting_series(*args, **kwargs):
        got = ratio_series(*args, **kwargs)
        used.append(got.terms_used)
        return got

    monkeypatch.setattr(qcore, "_ratio_series", counting_series)
    run(RunConfig(points_per_identity=5, seed=1))
    assert len(used) == 235 and sum(used) <= 4_000


def test_screen_never_refuses_a_certified_series():
    # series whose terms grow for a while as q -> 1: the screen refuses
    # caps far below the kernel's stop, and none at or past it
    rng = random.Random(5)
    refused = 0
    for _ in range(30):
        with mp.workdps(30):
            q = mpf(1 - 10 ** rng.uniform(-3, -1))
            k = rng.randint(1, 2)
            nums = [mpf(rng.uniform(-3, 3))._mpf_ for _ in range(k)]
            dens = [q._mpf_] + [mpf(rng.uniform(-3, 3))._mpf_
                                for _ in range(k - 1)]
            z = mpf(rng.choice([1, -1]) * rng.uniform(0.5, 0.99))._mpf_
            wp = qcore._working_bits(mp.prec, nums + dens)
            used = qcore._ratio_kernel(nums, dens, [None] * len(nums + dens),
                                       q._mpf_, z, 0, 20, 10 ** 6, mp.prec,
                                       wp)[2]
        for n in (used - 1, used, 2 * used, 500_000):
            assert not qcore._never_stops(nums, dens, q._mpf_, z, 20, n)
        refused += qcore._never_stops(nums, dens, q._mpf_, z, 20, used // 4)
    assert refused >= 10
