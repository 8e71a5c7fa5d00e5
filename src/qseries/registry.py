"""Identity evaluation and domain sampling over the catalog (or any
sequence of entries)."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf

from .errors import (
    DomainViolationError,
    EvaluationError,
    QDomainError,
    QSeriesError,
    SamplingError,
    UnknownIdentityError,
)
from .identities import CATALOG, IdentityEntry
from .precision import DEFAULT_CTX, PrecisionCtx, _check_int, to_real
from .qcore import QPoint
from .rng import stream_for

__all__ = ["IdentityResult", "eval_identity", "sample_domain"]

_MAX_DRAWS = 10_000


@dataclass(frozen=True)
class IdentityResult:
    lhs_value: mpf
    rhs_value: mpf
    abs_err: mpf
    rel_err: mpf
    passed: bool
    terms_used: int


def _lookup(identity_id: str, registry) -> IdentityEntry:
    entry = next((e for e in registry if e.id == identity_id), None)
    if entry is None:
        raise UnknownIdentityError(f"no identity registered as {identity_id!r}")
    return entry


def _check_tol(tol, error=QDomainError) -> mpf:
    """``tol`` as an mpf, raising ``error`` unless it is a real with
    0 < tol < 1: relErr is at most 2, so a larger one passes anything."""
    try:
        tol_v = to_real(tol)
    except QDomainError as exc:
        raise error(f"tolerance: {exc}") from None
    if not 0 < tol_v < 1:  # false for nan and inf too
        raise error(f"tolerance must satisfy 0 < tol < 1, got {tol!r}")
    return tol_v


def eval_identity(identity_id: str, point: QPoint, tol=None,
                  ctx: PrecisionCtx = DEFAULT_CTX,
                  registry=CATALOG) -> IdentityResult:
    """Evaluate both sides of a registered identity at one point.

    The sides pass when relErr <= tol, by default 10^(5 - ctx.digits):
    they agree to all but 5 of the requested digits.
    Deterministic for fixed inputs. Raises QDomainError for a tolerance
    outside 0 < tol < 1, DomainViolationError naming each missing parameter
    or violated constraint, and EvaluationError with lhs/rhs attribution
    when a side fails to evaluate.
    """
    entry = _lookup(identity_id, registry)
    with ctx.working():
        # in mpf: a double underflows past about 320 digits
        tol_v = _check_tol(mpf(10) ** (5 - ctx.digits) if tol is None
                           else tol)
        violations = entry.domain(point, ctx)
        if violations:
            raise DomainViolationError(
                f"{identity_id}: " + "; ".join(violations))
        try:
            lhs = entry.lhs(point, ctx)
        except QSeriesError as exc:
            raise EvaluationError("lhs", exc) from exc
        try:
            rhs = entry.rhs(point, ctx)
        except QSeriesError as exc:
            raise EvaluationError("rhs", exc) from exc
        abs_err = abs(lhs.value - rhs.value)
        rel_err = abs_err / max(abs(lhs.value), abs(rhs.value),
                                ctx.tail_tol())
        return IdentityResult(
            lhs_value=lhs.value,
            rhs_value=rhs.value,
            abs_err=abs_err,
            rel_err=rel_err,
            passed=bool(rel_err <= tol_v),
            terms_used=lhs.terms_used + rhs.terms_used,
        )


def sample_domain(identity_id: str, count: int, seed: int,
                  registry=CATALOG) -> list:
    """Deterministic pseudo-random in-domain points for an identity.

    Candidates come from the entry's sampler (which builds in slack margins
    and sign coverage) and are rejected against the constraint table, at
    DEFAULT_CTX: the candidates are doubles that keep a slack from every
    boundary.
    """
    entry = _lookup(identity_id, registry)
    _check_int("count", count, SamplingError)
    _check_int("seed", seed, SamplingError)
    if count < 1:
        raise SamplingError("count must be >= 1")
    rng = stream_for(identity_id, seed)
    points = []
    draws = 0
    while len(points) < count:
        draws += 1
        if draws > _MAX_DRAWS:
            raise SamplingError(
                f"no admissible point for {identity_id} in {_MAX_DRAWS} draws")
        point = entry.sampler(rng)
        if entry.domain(point):
            continue
        points.append(point)
    return points
