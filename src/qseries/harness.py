"""Verification campaigns: run identities over sampled or explicit points and
emit deterministic JSON/text reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from mpmath import mp, mpf

from .errors import QSeriesError
from .identities import full_registry
from .precision import PrecisionCtx, _check_digits, _check_int, real_str
from .qcore import QPoint
from .registry import _check_tol, _lookup, eval_identity, sample_domain

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a verification campaign (echoed into the report)."""

    identities: Tuple[str, ...] = ("all",)
    points_per_identity: int = 5
    seed: int = 1
    digits: int = 40
    tolerance: Optional[float] = None  # None: 10^(5 - digits)
    explicit_points: Tuple[QPoint, ...] = ()

    def __post_init__(self):
        if isinstance(self.identities, str):
            raise ValueError("identities must be a sequence of ids, got the "
                             f"str {self.identities!r}")
        _check_int("seed", self.seed, ValueError)
        _check_int("points_per_identity", self.points_per_identity, ValueError)
        if self.points_per_identity < 1:
            raise ValueError("points_per_identity must be >= 1")
        _check_digits(self.digits, ValueError)
        if self.tolerance is not None:
            _check_tol(self.tolerance, ValueError)
        points = self.explicit_points
        if (not isinstance(points, (tuple, list))
                or not all(isinstance(p, QPoint) for p in points)):
            raise ValueError(f"explicit_points must be a sequence of "
                             f"QPoints, got {points!r}")


def _point_record(point: QPoint, digits: int) -> dict:
    params = {"q": real_str(point.q, digits)}
    for name in sorted(point.params):
        params[name] = real_str(point.params[name], digits)
    return params


def _evaluate(entry_id, point, config, ctx, registry) -> dict:
    """One point's report record; an error record where eval_identity
    raised."""
    digits = config.digits
    rec = {"params": _point_record(point, digits)}
    try:
        res = eval_identity(entry_id, point, tol=config.tolerance, ctx=ctx,
                            registry=registry)
    except QSeriesError as exc:
        return {**rec, "error": str(exc), "pass": False}
    return {**rec, "lhs": real_str(res.lhs_value, digits),
            "rhs": real_str(res.rhs_value, digits),
            "absErr": real_str(res.abs_err, digits),
            "relErr": real_str(res.rel_err, digits),
            "pass": bool(res.passed), "termsUsed": int(res.terms_used)}


def _aggregate(records, ctx: PrecisionCtx) -> dict:
    """An identity's aggregate from its point records alone: it passes when
    every point passes, and its worstRelErr is the first largest relErr,
    compared as mpfs at the working precision. Rounding to the printed
    digits is monotone, so that is the string of the largest relErr."""
    passes = sum(rec["pass"] for rec in records)
    with ctx.working():
        worst = max((rec["relErr"] for rec in records if "relErr" in rec),
                    key=mpf, default=None)
    return {"pass": passes == len(records), "passCount": passes,
            "numPoints": len(records), "worstRelErr": worst}


def run(config: RunConfig, registry=None) -> dict:
    """Execute the campaign and return the report as a plain dict.

    Deterministic: identical config yields an identical report. Per-point
    evaluation errors are recorded per point, never fatal.
    """
    if registry is None:
        registry = full_registry()
    if tuple(config.identities) == ("all",):
        entries = sorted(registry, key=lambda e: e.id)
    else:
        entries = [_lookup(i, registry) for i in sorted(set(config.identities))]
    ctx = PrecisionCtx(digits=config.digits)

    results = []
    for entry in entries:
        points = list(config.explicit_points) or sample_domain(
            entry.id, config.points_per_identity, config.seed, registry)
        records = [_evaluate(entry.id, point, config, ctx, registry)
                   for point in points]
        results.append({
            "id": entry.id,
            "paperRef": entry.paper_ref,
            "points": records,
            "aggregate": _aggregate(records, ctx),
        })

    return {
        "version": TOOL_VERSION,
        "config": {
            "identities": list(config.identities),
            "pointsPerIdentity": config.points_per_identity,
            "seed": config.seed,
            "digits": config.digits,
            "tolerance": (None if config.tolerance is None
                          else real_str(config.tolerance, config.digits)),
            "explicitPoints": [_point_record(p, config.digits)
                               for p in config.explicit_points],
        },
        "results": results,
    }


def report_passed(report: dict) -> bool:
    return all(r["aggregate"]["pass"] for r in report["results"])


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _short(x, digits=3):
    """A report's decimal string to ``digits`` significant digits, or None,
    for the text; read with 15 digits to spare, so the rounding is the
    string's own."""
    with mp.workdps(digits + 15):
        return x if x is None else mp.nstr(mpf(x), digits)


def render_text(report: dict) -> str:
    lines = [f"qseries verification report (v{report['version']})"]
    cfg = report["config"]
    lines.append(f"seed={cfg['seed']} digits={cfg['digits']} "
                 f"points={cfg['pointsPerIdentity']} "
                 f"tol={cfg['tolerance'] if cfg['tolerance'] else 'default'}")
    for res in report["results"]:
        agg = res["aggregate"]
        status = "PASS" if agg["pass"] else "FAIL"
        lines.append(f"{status}  {res['id']:10s} {agg['passCount']}/"
                     f"{agg['numPoints']} points  worst relErr "
                     f"{_short(agg['worstRelErr'])}  [{res['paperRef']}]")
        for i, pt in enumerate(res["points"]):
            if "error" in pt:
                lines.append(f"      point {i}: ERROR {pt['error']}")
            elif not pt["pass"]:
                params = {k: _short(v, 17) for k, v in pt["params"].items()}
                lines.append(f"      point {i}: relErr "
                             f"{_short(pt['relErr'])} params {params}")
    overall = "PASS" if report_passed(report) else "FAIL"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"
