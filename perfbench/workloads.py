"""The four benchmark workloads: seeded inputs, the timed ops, and the
correctness gate applied to their outputs.

A campaign op is one identity point through ``harness.run`` followed by
``harness.render_json``. A ``near-one`` op is one ``eta_nome`` or
``gamma_q`` call. Ops are grouped in rounds: one op per identity (three
for the cheaper q-gamma identities, see POINTS_PER_ROUND), or the two
near-one calls at one q.

A run's n rounds (n odd) sit at the midpoints u = (2i+1)/(2n) of n equal
slices of the input distribution, so that its mix, and with it the cost per
op, does not drift with the seed. The first round is the median slice.
n depends only on the workload and the run length, never on measured time,
so two commits measure the same inputs. How u maps to inputs:

* campaigns draw, per identity, a pool of points through the library's own
  sampler (``sample_domain``) under sub-seeds derived from the seed, and
  sort it by q, the main cost driver, then by the other parameters. Round
  u takes the point at rank u of the pool. The op re-draws that point
  inside ``harness.run`` from its sub-seed;
* ``near-one`` sets log10(1-q) = -2 + u, with a seeded jitter of up to
  1/128, and draws x uniformly in (0, 2].
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpf

from qseries import (PrecisionCtx, QSeriesError, eta, harness, qgamma,
                     sample_domain)

DIGITS = 40
POOL = 1024        # candidate points drawn per campaign identity

CAMPAIGNS = {
    "qseries-campaign": (
        "eq-1.1", "eq-2.1", "eq-2.2", "eq-2.5", "eq-2.6", "eq-2.8", "eq-2.9",
        "eq-3.1", "eq-3.2", "eq-3.3", "eq-4.2", "eq-4.3", "eq-4.4",
        "thm-2.1", "thm-2.2", "thm-2.3"),
    "classical-campaign": ("eq-5.5", "eq-5.6", "eq-5.7", "eq-5.9", "eq-5.12"),
    "qgamma-campaign": ("thm-5.1", "eq-5.8", "thm-5.3"),
}
WORKLOADS = tuple(CAMPAIGNS) + ("near-one",)

# Points per round for identities ten times cheaper than thm-5.3, so that a
# qgamma-campaign run holds more samples for op_ms_p50 and op_ms_tail at
# little extra cost.
POINTS_PER_ROUND = {"thm-5.1": 3, "eq-5.8": 3}

# Seconds per round assumed when sizing a run: about what the commit that
# added the benchmark takes on a 2-core x86-64 container (Python 3.11,
# mpmath 1.3 pure-Python backend) when the machine is busy, so that a full
# set of comparison runs stays within its hour.
NOMINAL_ROUND_S = {
    "qseries-campaign": 1.2,
    "classical-campaign": 2.5,
    "qgamma-campaign": 6.5,
    "near-one": 1.2,
}

# identities that do not hold as printed; every other verdict is PASS
EXPECTED_FAIL = frozenset({"eq-4.3", "eq-5.7"})

# agreement digits are capped at the working precision of a 40-digit run
AGREE_CAP = DIGITS + 10


def design_size(workload: str, seconds: float) -> int:
    """Odd number of rounds that fill about ``seconds`` at nominal speed."""
    return 2 * int(seconds / (2 * NOMINAL_ROUND_S[workload])) + 1


def midpoints(i: int, n: int, points: int = 1) -> list:
    """Quantiles at the middles of slice i of n, split into ``points``."""
    return [Fraction(2 * (i * points + j) + 1, 2 * n * points)
            for j in range(points)]


def schedule(n: int, seed: int) -> list:
    """(i, n) for the n rounds of a run: the median round first, then the
    others in a seeded shuffle, so that ops of similar cost do not all run
    in one stretch of the run (and under one state of machine load)."""
    rest = [(i, n) for i in range(n) if i != n // 2]
    random.Random(sub_seed(seed, "order", n)).shuffle(rest)
    return [(n // 2, n)] + rest


def sub_seed(seed: int, *parts) -> int:
    """Deterministic 63-bit seed derived from the run seed and a label."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8],
                          "big") >> 1


@dataclass
class Op:
    """One timed call. ``call(reg)`` runs it against the registry ``reg``
    and returns what the gate checks afterwards."""

    label: str
    call: Callable[[list], object]
    inputs: tuple


class Plan:
    """A workload's inputs for one seed, handed out a round at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed

    def round(self, i: int, n: int) -> list:
        """The ops of round i of n, with inputs from slice i of n."""
        raise NotImplementedError

    def rounds(self, n: int) -> list:
        """The rounds of a run of n rounds, the median round first."""
        return [self.round(i, m) for i, m in schedule(n, self.seed)]

    def inputs(self, n: int) -> list:
        """Every op's inputs over a run of n rounds."""
        return [op.inputs for rnd in self.rounds(n) for op in rnd]


# --- campaigns

def _campaign_op(ident: str, seed: int) -> Op:
    config = harness.RunConfig(identities=(ident,), points_per_identity=1,
                               seed=seed, digits=DIGITS)

    def call(reg):
        # looked up at call time so that a tracer's wrappers are used
        report = harness.run(config, registry=reg)
        return report, harness.render_json(report)

    return Op(ident, call, (ident, seed))


class CampaignPlan(Plan):

    def __init__(self, workload: str, seed: int, reg):
        super().__init__(workload, seed)
        self.ids = CAMPAIGNS[workload]
        self.pools = {ident: self._pool(ident, reg) for ident in self.ids}

    def _pool(self, ident, reg):
        """Sub-seeds of POOL sampler draws, sorted by the point's q, then
        by its parameters in name order."""
        def key(s):
            p = sample_domain(ident, 1, s, reg)[0]
            return (float(p.q),) + tuple(float(p.params[name])
                                         for name in sorted(p.params))
        seeds = [sub_seed(self.seed, self.workload, ident, k)
                 for k in range(POOL)]
        keys = {s: key(s) for s in seeds}
        return sorted(seeds, key=lambda s: (keys[s], s))

    def round(self, i, n):
        return [_campaign_op(ident, self.pools[ident][int(u * POOL)])
                for ident in self.ids
                for u in midpoints(i, n, POINTS_PER_ROUND.get(ident, 1))]


# --- near-one

class NearOnePlan(Plan):
    """1-q log-uniform in [0.01, 0.1], x uniform in (0, 2]."""

    def __init__(self, seed: int):
        super().__init__("near-one", seed)
        self.ctx = PrecisionCtx(digits=DIGITS)

    def round(self, i, n):
        u, = midpoints(i, n)
        rng = random.Random(sub_seed(self.seed, "near-one", u))
        v = min(max(float(u) + (rng.random() - 0.5) / 64, 0.0), 1.0)
        q = mpf(1) - mpf(10) ** mpf(-2 + v)
        x = mpf(2 * (1 - rng.random()))
        ctx = self.ctx
        return [
            Op("eta_nome", lambda reg: eta.eta_nome(q, ctx), ("eta", q)),
            Op("gamma_q", lambda reg: qgamma.gamma_q(x, q, ctx),
               ("gamma", q, x)),
        ]


def make_plan(workload: str, seed: int, reg) -> Plan:
    if workload == "near-one":
        return NearOnePlan(seed)
    return CampaignPlan(workload, seed, reg)


# --- correctness gate

def _agree_digits(rel_err) -> float:
    rel_err = mpf(rel_err)
    if rel_err <= 0:
        return float(AGREE_CAP)
    return min(float(-mp.log10(rel_err)), float(AGREE_CAP))


@dataclass
class Checked:
    """Outcome of the gate over a list of (op, output-or-exception)."""

    problems: list = field(default_factory=list)
    errors: int = 0
    min_agree_digits: float = float(AGREE_CAP)
    terms_reported: int = 0


def check_campaign(done) -> Checked:
    """Verdicts must match EXPECTED_FAIL; an errored point is a failed op."""
    out = Checked()
    for op, result in done:
        if isinstance(result, QSeriesError):
            out.errors += 1
            out.problems.append(f"{op.label} seed {op.inputs[1]}: {result}")
            continue
        report, _text = result
        res = report["results"][0]
        point = res["points"][0]
        if "error" in point:
            out.errors += 1
            out.problems.append(f"{op.label} seed {op.inputs[1]}: "
                                f"{point['error']}")
            continue
        out.terms_reported += point["termsUsed"]
        expected = op.label not in EXPECTED_FAIL
        if res["aggregate"]["pass"] != expected:
            out.problems.append(
                f"{op.label} seed {op.inputs[1]}: verdict "
                f"{res['aggregate']['pass']}, expected {expected} "
                f"(relErr {point['relErr']})")
        if expected:
            out.min_agree_digits = min(out.min_agree_digits,
                                       _agree_digits(point["relErr"]))
    return out


def _oracle(inputs):
    """mpmath's qp at 60 digits; qgamma itself does not converge at q=0.99."""
    with mp.workdps(DIGITS + 20):
        if inputs[0] == "eta":
            q = inputs[1]
            return mp.power(q, mpf(1) / 24) * mp.qp(q, q, maxterms=10 ** 6)
        _, q, x = inputs
        return (mp.qp(q, q, maxterms=10 ** 6)
                / mp.qp(mp.power(q, x), q, maxterms=10 ** 6)
                * mp.power(1 - q, 1 - x))


def check_near_one(done) -> Checked:
    """|value - oracle| <= err_estimate + 10^-DIGITS |oracle| for every op."""
    out = Checked()
    oracle = {}      # later passes repeat the inputs of the first
    for op, result in done:
        if isinstance(result, QSeriesError):
            out.errors += 1
            out.problems.append(f"{op.label}{op.inputs[1:]}: {result}")
            continue
        out.terms_reported += result.terms_used
        if op.inputs not in oracle:
            oracle[op.inputs] = _oracle(op.inputs)
        exact = oracle[op.inputs]
        with mp.workdps(DIGITS + 20):
            diff = abs(result.value - exact)
            allowed = result.err_estimate + mpf(10) ** -DIGITS * abs(exact)
            if not diff <= allowed:
                out.problems.append(
                    f"{op.label} q={mp.nstr(op.inputs[1], 12)}: off by "
                    f"{mp.nstr(diff / abs(exact), 3)} relative")
            out.min_agree_digits = min(out.min_agree_digits,
                                       _agree_digits(diff / abs(exact)))
    return out


def check(workload: str, done) -> Checked:
    if workload == "near-one":
        return check_near_one(done)
    return check_campaign(done)


def digest(workload: str, first_round) -> str:
    """sha256 over the first round's outputs: the rendered JSON reports of a
    campaign, or the near-one values printed at full working precision."""
    h = hashlib.sha256()
    for op, result in first_round:
        if isinstance(result, QSeriesError):
            h.update(f"error:{result}\n".encode())
        elif workload == "near-one":
            with mp.workdps(DIGITS + 10):
                h.update(f"{mp.nstr(result.value, DIGITS + 10)}\n".encode())
        else:
            h.update(result[1].encode())
    return h.hexdigest()
