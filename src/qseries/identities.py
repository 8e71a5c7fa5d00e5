"""Registry of the bilateral-summation transformation identities.

Each entry pairs a domain predicate with two independently built
evaluators: LHS evaluators use direct (split) bilateral summation, RHS
evaluators only infinite products and unilateral series, so pointwise
agreement is evidence rather than circularity.

Note on eq-3.2: the printed single-sum form of that identity telescopes the
bilateral ratio (-q;q)_n/(-q^3;q)_n to 1/((1+q^{n+1})(1+q^{n+2})) but drops
the constant (1+q)(1+q^2) in doing so; the closed form (1+q^2)(1+q)/(q(1-q))
equals the full bilateral value, which is what the LHS evaluator computes.
"""

from __future__ import annotations

from mpmath import mpf

from .precision import PrecisionCtx
from .qcore import (
    QPoint,
    SeriesValue,
    phi,
    prodquot,
    psi_bilateral,
    sum_with_ratio_bound,
)
from .registry import IdentityEntry
from .rng import SplitMix64

__all__ = ["register_builtin"]

Q_TOL = 1e-25  # default verification tolerance for q-identities at 40 digits

_SLACK = 0.05


def _abs_lt(name, value, bound, violations, label=None):
    if not (abs(value) < bound):
        violations.append(label or f"|{name}| < {bound} violated (got {abs(value)})")


# --- samplers --------------------------------------------------------------

_Q_POWERS_B = (0.5, 1.0, 1.5, 2.0, 3.0)
_Q_POWERS_A = (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0)


def _snap_qpow(rng: SplitMix64, q: float, lo: float, hi: float, exponents):
    """Magnitude of the form q**e inside [lo, hi] when available (mirrors the
    +-q^e parameter patterns of the special cases); uniform fallback."""
    usable = [e for e in exponents if lo < q ** e < hi]
    if usable and rng.chance(0.6):
        return q ** rng.choice(usable)
    return rng.uniform(lo, hi)


def _bilateral_sampler(kind):
    """Points for the 1psi1-shaped identities: |b/a| + slack <= |z| <= 0.95,
    with sign coverage and q-power magnitudes for negative a, b."""

    def sample(rng: SplitMix64) -> QPoint:
        q = rng.uniform(0.05, 0.5)
        z = rng.uniform(0.55, 0.95)
        sign_a = -1.0 if rng.chance(0.5) else 1.0
        sign_b = -1.0 if rng.chance(0.5) else 1.0
        a_cap = 0.9 if kind == "thm-2.2" else 2.2
        if kind == "thm-2.1":
            b_lo, b_hi = q / 0.9, 0.9
        elif kind == "thm-2.2":
            b_lo, b_hi = 0.05, 0.4
        else:
            b_lo, b_hi = 0.05, 0.9
        if sign_b < 0:
            bmag = _snap_qpow(rng, q, b_lo, b_hi, _Q_POWERS_B)
        else:
            bmag = rng.uniform(b_lo, b_hi)
        a_lo = max(bmag / (z - _SLACK), 0.05)
        a_hi = min(a_cap, bmag / 0.06)
        if a_lo >= a_hi:
            a_lo, a_hi = bmag / (z - _SLACK), a_cap
        if sign_a < 0:
            amag = _snap_qpow(rng, q, a_lo, a_hi, _Q_POWERS_A)
        else:
            amag = rng.uniform(a_lo, a_hi)
        return QPoint(q, {"a": sign_a * amag, "b": sign_b * bmag, "z": z})

    return sample


def _heine_sampler(variant):
    def sample(rng: SplitMix64) -> QPoint:
        q = rng.uniform(0.05, 0.6)
        z = rng.uniform(0.1, 0.9)
        a = (-1.0 if rng.chance(0.5) else 1.0) * rng.uniform(0.05, 1.2)
        b = (-1.0 if rng.chance(0.5) else 1.0) * rng.uniform(0.1, 0.85)
        if variant == "eq-2.2":
            c = (-1.0 if rng.chance(0.5) else 1.0) * rng.uniform(0.05, 0.9) * abs(b)
        else:
            c = (-1.0 if rng.chance(0.5) else 1.0) * rng.uniform(0.05, 0.85)
        return QPoint(q, {"a": a, "b": b, "c": c, "z": z})

    return sample


def _transform_sampler(kind):
    """Points for the single-sided transforms eq-2.5/2.6/2.8/2.9."""

    def sample(rng: SplitMix64) -> QPoint:
        q = rng.uniform(0.05, 0.5)
        z = rng.uniform(0.4, 0.9)
        sign_a = -1.0 if rng.chance(0.5) else 1.0
        sign_b = -1.0 if rng.chance(0.5) else 1.0
        if kind in ("eq-2.6", "eq-2.9"):
            bmag = rng.uniform(q + _SLACK, 0.85)
            amag = rng.uniform(bmag / (0.85 * z), 2.2)
        elif kind == "eq-2.8":
            amag = rng.uniform(0.05, 0.85)
            bmag = rng.uniform(0.05, 0.85)
        else:  # eq-2.5
            amag = rng.uniform(0.1, 1.5)
            bmag = rng.uniform(0.05, min(0.85, 0.85 * amag))
        return QPoint(q, {"a": sign_a * amag, "b": sign_b * bmag, "z": z})

    return sample


def _q_only_sampler(with_z=False):
    def sample(rng: SplitMix64) -> QPoint:
        q = rng.uniform(0.05, 0.6)
        if with_z:
            z = rng.uniform(q + _SLACK, 0.95)
            return QPoint(q, {"z": z})
        return QPoint(q, {})

    return sample


# --- evaluators ------------------------------------------------------------

def _lhs_bilateral(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    return psi_bilateral([p["a"]], [p["b"]], p.q, p["z"], ctx)


def _rhs_eq11(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return prodquot([a * z, q / (a * z), q, b / a],
                    [z, b / (a * z), b, q / a], q, ctx)


def _rhs_thm21(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    t1 = (prodquot([b / a, a * z], [b, z], q, ctx)
          * phi([a, a * q * z / b], [a * z], q, b / a, ctx))
    t2 = (prodquot([q / b, b * q / (a * z)], [q / a, b / (a * z)], q, ctx)
          * phi([b / a, b / (a * z)], [b * q / (a * z)], q, q / b, ctx))
    return t1 + t2 - 1


def _rhs_thm22(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    t1 = (prodquot([a, q * z], [b, z], q, ctx)
          * phi([b / a, z], [q * z], q, a, ctx))
    t2 = (prodquot([b / a, q / (a * z)], [q / a, b / (a * z)], q, ctx)
          * phi([q / z, q / b], [q / (a * z)], q, b / a, ctx))
    return t1 + t2 - 1


def _rhs_thm23(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    t1 = (prodquot([b / a, a * z], [b, z], q, ctx)
          * phi([a * q * z / b, a], [a * z], q, b / a, ctx))
    t2 = (prodquot([b / a, q / (a * z)], [q / a, b / (a * z)], q, ctx)
          * phi([q / z, q / b], [q / (a * z)], q, b / a, ctx))
    return t1 + t2 - 1


def _lhs_heine(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    return phi([p["a"], p["b"]], [p["c"]], p.q, p["z"], ctx)


def _rhs_heine1(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, c, z, q = p["a"], p["b"], p["c"], p["z"], p.q
    return (prodquot([b, a * z], [c, z], q, ctx)
            * phi([c / b, z], [a * z], q, b, ctx))


def _rhs_heine2(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, c, z, q = p["a"], p["b"], p["c"], p["z"], p.q
    return (prodquot([c / b, b * z], [c, z], q, ctx)
            * phi([a * b * z / c, b], [b * z], q, c / b, ctx))


def _lhs_ratio_sum(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    # sum_{n>=0} (a;q)_n/(b;q)_n z^n as a phi with the (q;q)_n cancelled
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return phi([a, q], [b], q, z, ctx)


def _lhs_inverted_sum(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    # sum_{n>=0} (q/b;q)_n/(q/a;q)_n (b/az)^n
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return phi([q / b, q], [q / a], q, b / (a * z), ctx)


def _rhs_eq25(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return (prodquot([b / a, a * z], [b, z], q, ctx)
            * phi([a, a * q * z / b], [a * z], q, b / a, ctx))


def _rhs_eq26(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return (prodquot([q / b, b * q / (a * z)], [q / a, b / (a * z)], q, ctx)
            * phi([b / a, b / (a * z)], [b * q / (a * z)], q, q / b, ctx))


def _rhs_eq28(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return (prodquot([a, q * z], [b, z], q, ctx)
            * phi([b / a, z], [q * z], q, a, ctx))


def _rhs_eq29(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z, q = p["a"], p["b"], p["z"], p.q
    return (prodquot([b / a, q / (a * z)], [q / a, b / (a * z)], q, ctx)
            * phi([q / z, q / b], [q / (a * z)], q, b / a, ctx))


def _lhs_eq31(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    # sum_{n in Z} z^n / (1 + q^{n-1}), |q| < |z| < 1
    q, z = p.q, p["z"]
    # the ratio bounds take |z|: they bound |t_{n+1}/t_n| and must be >= 0
    pos = sum_with_ratio_bound(
        lambda n: z ** n / (1 + q ** (n - 1)),
        lambda n: abs(z) * (1 + q ** (n - 1)),
        ctx)
    # n = -m: z^-m/(1+q^{-m-1}) = q^{m+1} / (z^m (q^{m+1} + 1))
    pos_neg = sum_with_ratio_bound(
        lambda m: q ** (m + 1) / (z ** m * (1 + q ** (m + 1))),
        lambda m: (q / abs(z)) * (1 + q ** (m + 1)),
        ctx, start=1)
    return pos + pos_neg


def _rhs_eq31(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    q, z = p.q, p["z"]
    head = SeriesValue.of(-q / (1 + q))
    mid = ((q / (1 + q))
           * prodquot([q, -z / q], [mpf(-1), z], q, ctx)
           * phi([z, -1 / q], [-z / q], q, q, ctx))
    # last series: sum (-q)^n / (1 - q^{n+1}/z), geometric in (-q)
    tail = sum_with_ratio_bound(
        lambda n: (-q) ** n / (1 - q ** (n + 1) / z),
        lambda n: (q * (1 + q ** (n + 1) / abs(z))
                   / (1 - q ** (n + 2) / abs(z))),
        ctx)
    return head + mid + q * tail


def _lhs_eq32(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    q = p.q
    return psi_bilateral([-q], [-q ** 3], q, q, ctx)


def _rhs_eq32(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    q = p.q
    return SeriesValue.of((1 + q ** 2) * (1 + q) / (q * (1 - q)))


def _lhs_eq33(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    # sum_{n in Z} 2(1+1/q^2)(1+q^2) q^n / ((1+q^{2n-2})(1+q^{2n})(1+q^{2n+2}))
    q = p.q
    c = 2 * (1 + 1 / q ** 2) * (1 + q ** 2)

    def pos_term(n):
        return c * q ** n / ((1 + q ** (2 * n - 2))
                             * (1 + q ** (2 * n)) * (1 + q ** (2 * n + 2)))

    def neg_term(m):
        # index n = -m, rescaled by q^{6m} for stability
        return c * q ** (5 * m) / ((q ** (2 * m + 2) + 1)
                                   * (q ** (2 * m) + 1) * (q ** (2 * m - 2) + 1))

    pos = sum_with_ratio_bound(pos_term,
                               lambda n: q * (1 + q ** (2 * n - 2)), ctx)
    neg = sum_with_ratio_bound(neg_term,
                               lambda m: q ** 5 * (1 + q ** (2 * m - 2)),
                               ctx, start=1)
    return pos + neg


def _rhs_eq33(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    q = p.q
    base = q ** 2
    t1 = (prodquot([q ** 6, -1 / q], [-q ** 4, q], base, ctx)
          * phi([1 / q ** 3, -1 / q ** 2], [-1 / q], base, q ** 6, ctx))
    t2 = (prodquot([q ** 6, -q ** 3], [-q ** 4, q ** 5], base, ctx)
          * phi([q, -1 / q ** 2], [-q ** 3], base, q ** 6, ctx))
    return t1 + t2 - 1


# --- domains ---------------------------------------------------------------

def _domain_bilateral(extra=None):
    def check(p: QPoint):
        v = []
        a, b, z = p["a"], p["b"], p["z"]
        if a == 0:
            v.append("a must be nonzero")
            return v
        if not (abs(b / a) < abs(z)):
            v.append(f"|b/a| < |z| violated (|b/a|={abs(b / a)}, |z|={abs(z)})")
        _abs_lt("z", z, 1, v, "|z| < 1 violated")
        if extra == "q<min(1,|b|)" and not (p.q < min(mpf(1), abs(b))):
            v.append(f"|q| < min(1, |b|) violated (q={p.q}, |b|={abs(b)})")
        if extra == "|a|<1":
            _abs_lt("a", a, 1, v, "|a| < 1 violated")
        return v

    return check


def _domain_heine(variant):
    def check(p: QPoint):
        v = []
        _abs_lt("z", p["z"], 1, v, "|z| < 1 violated")
        if variant == "eq-2.1":
            _abs_lt("b", p["b"], 1, v, "|b| < 1 violated (RHS series argument)")
        else:
            if p["b"] == 0 or not (abs(p["c"] / p["b"]) < 1):
                v.append("|c/b| < 1 violated (RHS series argument)")
        return v

    return check


def _domain_transform(kind):
    def check(p: QPoint):
        v = []
        a, b, z, q = p["a"], p["b"], p["z"], p.q
        if a == 0:
            return ["a must be nonzero"]
        if kind == "eq-2.5":
            _abs_lt("z", z, 1, v, "|z| < 1 violated")
            if not abs(b / a) < 1:
                v.append("|b/a| < 1 violated (RHS series argument)")
        elif kind == "eq-2.6":
            if not abs(b / (a * z)) < 1:
                v.append("|b/(az)| < 1 violated (LHS series argument)")
            if not q < abs(b):
                v.append("|q| < |b| violated (RHS series argument q/b)")
        elif kind == "eq-2.8":
            _abs_lt("z", z, 1, v, "|z| < 1 violated")
            _abs_lt("a", a, 1, v, "|a| < 1 violated (RHS series argument)")
        else:  # eq-2.9
            if not abs(b / (a * z)) < 1:
                v.append("|b/(az)| < 1 violated (LHS series argument)")
            if not abs(b / a) < 1:
                v.append("|b/a| < 1 violated (RHS series argument)")
        return v

    return check


def _domain_eq31(p: QPoint):
    v = []
    if not (p.q < abs(p["z"])):
        v.append(f"|q| < |z| violated (q={p.q}, |z|={abs(p['z'])})")
    _abs_lt("z", p["z"], 1, v, "|z| < 1 violated")
    return v


def _domain_q_only(p: QPoint):
    return []  # 0 < q < 1 already enforced by QPoint


# --- registration -----------------------------------------------------------

def register_builtin() -> list:
    """Entries for the 1psi1 summation, the Heine transforms, the four
    single-sided transforms used in the proofs, the three bilateral
    transformation theorems, and the three special cases."""
    entries = [
        IdentityEntry(
            id="eq-1.1",
            paper_ref="Eq. (1.1), Ramanujan 1psi1 summation",
            param_names=("a", "b", "z"),
            domain_desc="|b/a| < |z| < 1",
            default_tol=Q_TOL,
            domain=_domain_bilateral(),
            lhs=_lhs_bilateral,
            rhs=_rhs_eq11,
            sampler=_bilateral_sampler("eq-1.1"),
        ),
        IdentityEntry(
            id="eq-2.1",
            paper_ref="Eq. (2.1), Heine transformation (first form)",
            param_names=("a", "b", "c", "z"),
            domain_desc="|z| < 1, |b| < 1",
            default_tol=Q_TOL,
            domain=_domain_heine("eq-2.1"),
            lhs=_lhs_heine,
            rhs=_rhs_heine1,
            sampler=_heine_sampler("eq-2.1"),
        ),
        IdentityEntry(
            id="eq-2.2",
            paper_ref="Eq. (2.2), Heine transformation (second form)",
            param_names=("a", "b", "c", "z"),
            domain_desc="|z| < 1, |c/b| < 1",
            default_tol=Q_TOL,
            domain=_domain_heine("eq-2.2"),
            lhs=_lhs_heine,
            rhs=_rhs_heine2,
            sampler=_heine_sampler("eq-2.2"),
        ),
        IdentityEntry(
            id="eq-2.5",
            paper_ref="Eq. (2.5), transform of sum (a)_n/(b)_n z^n",
            param_names=("a", "b", "z"),
            domain_desc="|z| < 1, |b/a| < 1",
            default_tol=Q_TOL,
            domain=_domain_transform("eq-2.5"),
            lhs=_lhs_ratio_sum,
            rhs=_rhs_eq25,
            sampler=_transform_sampler("eq-2.5"),
        ),
        IdentityEntry(
            id="eq-2.6",
            paper_ref="Eq. (2.6), transform of sum (q/b)_n/(q/a)_n (b/az)^n",
            param_names=("a", "b", "z"),
            domain_desc="|b/(az)| < 1, |q| < |b|",
            default_tol=Q_TOL,
            domain=_domain_transform("eq-2.6"),
            lhs=_lhs_inverted_sum,
            rhs=_rhs_eq26,
            sampler=_transform_sampler("eq-2.6"),
        ),
        IdentityEntry(
            id="eq-2.8",
            paper_ref="Eq. (2.8), transform of sum (a)_n/(b)_n z^n",
            param_names=("a", "b", "z"),
            domain_desc="|z| < 1, |a| < 1",
            default_tol=Q_TOL,
            domain=_domain_transform("eq-2.8"),
            lhs=_lhs_ratio_sum,
            rhs=_rhs_eq28,
            sampler=_transform_sampler("eq-2.8"),
        ),
        IdentityEntry(
            id="eq-2.9",
            paper_ref="Eq. (2.9), transform of sum (q/b)_n/(q/a)_n (b/az)^n",
            param_names=("a", "b", "z"),
            domain_desc="|b/(az)| < 1, |b/a| < 1",
            default_tol=Q_TOL,
            domain=_domain_transform("eq-2.9"),
            lhs=_lhs_inverted_sum,
            rhs=_rhs_eq29,
            sampler=_transform_sampler("eq-2.9"),
        ),
        IdentityEntry(
            id="thm-2.1",
            paper_ref="Theorem 2.1, Eq. (2.3)",
            param_names=("a", "b", "z"),
            domain_desc="|b/a| < |z| < 1 and |q| < min(1, |b|)",
            default_tol=Q_TOL,
            domain=_domain_bilateral("q<min(1,|b|)"),
            lhs=_lhs_bilateral,
            rhs=_rhs_thm21,
            sampler=_bilateral_sampler("thm-2.1"),
        ),
        IdentityEntry(
            id="thm-2.2",
            paper_ref="Theorem 2.2, Eq. (2.7)",
            param_names=("a", "b", "z"),
            domain_desc="|b/a| < |z| < 1 and |a| < 1",
            default_tol=Q_TOL,
            domain=_domain_bilateral("|a|<1"),
            lhs=_lhs_bilateral,
            rhs=_rhs_thm22,
            sampler=_bilateral_sampler("thm-2.2"),
        ),
        IdentityEntry(
            id="thm-2.3",
            paper_ref="Theorem 2.3, Eq. (2.10)",
            param_names=("a", "b", "z"),
            domain_desc="|b/a| < |z| < 1",
            default_tol=Q_TOL,
            domain=_domain_bilateral(),
            lhs=_lhs_bilateral,
            rhs=_rhs_thm23,
            sampler=_bilateral_sampler("thm-2.3"),
        ),
        IdentityEntry(
            id="eq-3.1",
            paper_ref="Eq. (3.1), special case a=-1/q, b=-1 of Theorem 2.1",
            param_names=("z",),
            domain_desc="|q| < |z| < 1",
            default_tol=Q_TOL,
            domain=_domain_eq31,
            lhs=_lhs_eq31,
            rhs=_rhs_eq31,
            sampler=_q_only_sampler(with_z=True),
        ),
        IdentityEntry(
            id="eq-3.2",
            paper_ref="Eq. (3.2), special case a=-q, b=-q^3, z=q of Theorem 2.2",
            param_names=(),
            domain_desc="0 < q < 1",
            default_tol=Q_TOL,
            domain=_domain_q_only,
            lhs=_lhs_eq32,
            rhs=_rhs_eq32,
            sampler=_q_only_sampler(),
        ),
        IdentityEntry(
            id="eq-3.3",
            paper_ref="Eq. (3.3), special case of Theorem 2.3 after q -> q^2",
            param_names=(),
            domain_desc="0 < q < 1",
            default_tol=Q_TOL,
            domain=_domain_q_only,
            lhs=_lhs_eq33,
            rhs=_rhs_eq33,
            sampler=_q_only_sampler(),
        ),
    ]
    return entries
