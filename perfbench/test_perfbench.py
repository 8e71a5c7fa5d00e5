"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mpmath  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qseries import full_registry  # noqa: E402


@pytest.fixture(scope="module")
def reg():
    return full_registry()


def test_tracer_restores_every_wrapped_attribute():
    before = tracer.snapshot()
    mp_attrs = set(vars(mpmath.mp))
    with tracer.Tracer():
        during = tracer.snapshot()
        assert all(during[key][0] != before[key][0] for key in before)
    assert tracer.snapshot() == before
    assert set(vars(mpmath.mp)) == mp_attrs


def test_tracer_restores_on_error():
    before = tracer.snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert tracer.snapshot() == before


def test_tracer_self_time_excludes_children(reg):
    from qseries import eta
    tr = tracer.Tracer()
    with tr:
        eta.eta_quotient({1: 1, 2: -2}, mpmath.mpf("0.3"))
    self_s = tr.self_times()
    total = {}
    for name, start, end, parent in tr.spans:
        total[name] = total.get(name, 0.0) + end - start
    assert tr.calls["eta.eta_nome"] == 2
    assert tr.calls["qcore.pochhammer_inf"] == 2
    assert 0 < self_s["eta.eta_quotient"] < total["eta.eta_quotient"]
    assert sum(self_s.values()) == pytest.approx(total["eta.eta_quotient"])


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    baseline = tracer.snapshot()
    seen = []
    make_plan = workloads.make_plan

    def probing_plan(workload, seed, reg):
        plan = make_plan(workload, seed, reg)
        plain_round = plan.round

        def probed_round(i, n):
            ops = plain_round(i, n)
            inner = ops[0].call

            def probe(reg):
                seen.append(tracer.snapshot() == baseline)
                seen.append(not any(hasattr(e.lhs, "__wrapped__")
                                    or hasattr(e.rhs, "__wrapped__")
                                    for e in reg))
                return inner(reg)

            ops[0].call = probe
            return ops

        plan.round = probed_round
        return plan

    monkeypatch.setattr(workloads, "make_plan", probing_plan)
    assert run.main(["--workload", "qseries-campaign", "--seed", "3",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert seen == [True, True]
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, reg):
    a = workloads.make_plan(workload, 5, reg).inputs(7)
    b = workloads.make_plan(workload, 5, reg).inputs(7)
    assert a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_inputs(workload, reg):
    a = workloads.make_plan(workload, 5, reg).inputs(7)
    b = workloads.make_plan(workload, 6, reg).inputs(7)
    assert len(a) == len(b)
    assert not set(a) & set(b)


@pytest.mark.parametrize("workload", ["qseries-campaign", "near-one"])
def test_same_seed_same_digest(workload, reg):
    digests = []
    for _ in range(2):
        first = workloads.make_plan(workload, 7, reg).round(0, 1)
        done = [(op, op.call(reg)) for op in first]
        assert not workloads.check(workload, done).problems
        digests.append(workloads.digest(workload, done))
    assert digests[0] == digests[1]


def test_schedule_covers_every_slice_once():
    for n in (1, 3, 5, 7):
        sched = workloads.schedule(n, seed=3)
        assert sched == workloads.schedule(n, seed=3)
        assert sched[0] == (n // 2, n)
        assert sorted(i for i, _ in sched) == list(range(n))
        assert workloads.midpoints(*sched[0]) == [Fraction(1, 2)]
        quantiles = [u for i, m in sched
                     for u in workloads.midpoints(i, m, points=3)]
        assert sorted(quantiles) == [Fraction(2 * k + 1, 6 * n)
                                     for k in range(3 * n)]


def test_tail_keeps_ten_samples_beyond():
    op_s = [i / 1000 for i in range(1, 101)]
    pct, ms = run.tail(op_s)
    assert pct == 90.0
    assert sum(1 for t in op_s if 1000 * t > ms) == 10
    assert run.tail(op_s[:20]) == (100.0, 20.0)


def test_more_passes_leave_the_percentiles_unchanged():
    # 30 cheap ops and 5 expensive ones, as in a qgamma-campaign design
    one_pass = [0.1 + i / 100 for i in range(30)] + [3.0 + i for i in range(5)]
    one = run.timing([one_pass])
    for passes in (2, 3):
        assert run.timing([one_pass] * passes) == pytest.approx(one)
    assert one[2:] == pytest.approx((100 * 25 / 35, 1000 * 0.34))


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "classical-campaign", "--seed", "2",
                     "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _, _
                                      in tracer.per_layer_names()}
    assert result["metrics"]["qcore.accelerate.calls"]["value"] > 0


def test_scaled_times_follow_the_reference_loop():
    ref = speed.REF_S
    assert speed.scaled([0.5, 0.3], [ref, ref, ref]) == pytest.approx(
        [0.5, 0.3])
    # a loop that ran twice as slow around an op halves that op's time
    assert speed.scaled([0.5, 0.3], [2 * ref, 2 * ref, ref]) == pytest.approx(
        [0.25, 0.3 * 2 / 3])
