"""The identity catalog: every identity the harness verifies, with its
constraint table, sampler and two independently built sides.

Left sides use direct (split) bilateral summation, eta quotients or Gamma
quotients; right sides infinite products, unilateral series or other Gamma
quotients, so pointwise agreement is evidence rather than circularity.
Section 2 is Heine's (2.1) and (2.2) applied to the two halves of (1.1), as
in the paper's proofs. Section 5 is tables of sums of +-1, a, b, z (x, y in
eq-5.6): Gamma_q and 2phi1 terms for the q-gamma theorems, and for their
classical limits Gamma quotients "nums / dens" and beta series (c, alpha,
beta) of sum (alpha)_n/n! beta/(n+beta)/c:

    eq-5.5   "1-b b+1-z / 1-z"                 (1, b, b-z)
    eq-5.6   "x y / x+y"                       (y, 1-x, y)
    eq-5.7   "a z 1-a b-a-z / a+z b-a 1-a-z"   (z, b-a, z)
    eq-5.12  "b 1-a z b-a-z / a+z 1-a-z"       "b-a a-b+1 / 1" times
             ("1-a b-a-z / 1-z 1-b" + "b z / a a+1+z-b")

eq-5.9 is pi^(3/2)/(2 sqrt(2) Gamma(3/4)^2) against (1, 1/2, 1/4). Sides
of Sections 1-4 take a point's parameters as ParamExprs, so exact monomials
reach the primitives unrounded. Sections 3 and 4 are Section 1-2 sides at
the paper's parameter maps (q^k; a, b, z), monomials written as data, times
a scale and plus a shift; scales, shifts and eq-3.2's rhs are factor data,
one prodquot each (_factors), so no side is an mpf formula:

    eq-3.1  q/(1+q) times (1.1)'s lhs and thm-2.1's rhs at (q; -1/q, -1, z)
    eq-3.2  lhs: (1.1)'s lhs at (q; -q, -q^3, q), rhs: (1+q^2)(1+q)/(q(1-q)),
            the sum's full value (its printed single sum drops (1+q)(1+q^2))
    eq-3.3  (1.1)'s lhs and thm-2.3's rhs at (q^2; -q^-2, -q^4, q)
    eq-4.2  rhs: q^(-1/8) - q^(7/8)/(1+q) eq-2.8's rhs at (q^2; q, q^4, q^2)
    eq-4.3  rhs: -c thm-2.1's rhs at (q^2; -q^-4, -1, q^3),
            c = 2(1+q) q^(4/3) / ((1+q^2)(1+q^4))
    eq-4.4  rhs: c4 thm-2.3's rhs at (q^3; -q^-5, -q, q^4),
            c4 = q^(4/3) (1-q^3) / ((1-q)(1+q^2)(1+q^5))
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from math import ceil, prod
from operator import add, mul
from typing import Callable

from mpmath import mp, mpf

from .eta import eta_quotient
from .params import ParamExpr, Q
from .precision import DEFAULT_CTX, PrecisionCtx
from .qcore import QPoint, SeriesValue, _ln, phi, prodquot, psi_bilateral
from .qgamma import _beta_series, _check_pole, _rounded, classical_gamma
from .rng import SplitMix64

__all__ = ["CATALOG", "IdentityEntry", "full_registry"]


@dataclass(frozen=True)
class IdentityEntry:
    """One registered identity: a constraint table plus independent LHS and
    RHS evaluators. ``constraints`` is an ordered tuple of (label,
    predicate) pairs; a point is admissible when every predicate holds."""

    id: str
    paper_ref: str
    param_names: tuple
    constraints: tuple
    lhs: Callable[[QPoint, PrecisionCtx], SeriesValue]
    rhs: Callable[[QPoint, PrecisionCtx], SeriesValue]
    sampler: Callable[[SplitMix64], QPoint] = field(repr=False, default=None)

    @property
    def domain_desc(self) -> str:
        """The constraint labels, as `qseries list` prints them."""
        return ", ".join(label for label, _ in self.constraints) or "0 < q < 1"

    def domain(self, point: QPoint, ctx: PrecisionCtx = DEFAULT_CTX) -> list:
        """The parameters ``point`` lacks or, when it has them all, the
        constraints it violates, each predicate evaluated at the ctx's
        working precision; empty means the point is admissible."""
        missing = [f"missing parameter {name}" for name in self.param_names
                   if name not in point.params]
        if missing:
            return missing
        with ctx.working():
            return [f"{label} violated" for label, holds in self.constraints
                    if not holds(point)]


_SLACK = 0.05


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

def _abz(p: QPoint) -> tuple:
    """The point's a, b and z as monomials."""
    return p.exprs["a"], p.exprs["b"], p.exprs["z"]


def _lhs_bilateral(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z = _abz(p)
    return psi_bilateral([a], [b], p.q, z, ctx)


def _rhs_eq11(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    a, b, z = _abz(p)
    return prodquot([a * z, Q / (a * z), Q, b / a],
                    [z, b / (a * z), b, Q / a], p.q, ctx)


# Section 2 is Heine's two transforms (2.1) and (2.2) of 2phi1(A, B; C; q, Z)
# (Gasper & Rahman, Basic Hypergeometric Series, section 1.4), each taken at
# one of three parameter maps: eq-2.1/2.2's own point, the n >= 0 half of
# (1.1), 2phi1(q, a; b; q, z), or its n < 0 half plus the n = 0 term 1,
# 2phi1(q, q/b; q/a; q, b/(az)). A theorem is a transformed positive half
# plus a transformed negative half, minus the 1 counted twice.

def _phi21(A, B, C, Z, q, ctx: PrecisionCtx) -> SeriesValue:
    return phi([A, B], [C], q, Z, ctx)


def _heine1(A, B, C, Z, q, ctx: PrecisionCtx) -> SeriesValue:
    AZ = A * Z
    return prodquot([B, AZ], [C, Z], q, ctx) * phi([C / B, Z], [AZ], q, B, ctx)


def _heine2(A, B, C, Z, q, ctx: PrecisionCtx) -> SeriesValue:
    CB, BZ = C / B, B * Z
    return (prodquot([CB, BZ], [C, Z], q, ctx)
            * phi([A * B * Z / C, B], [BZ], q, CB, ctx))


def _own(p: QPoint) -> tuple:
    return p.exprs["a"], p.exprs["b"], p.exprs["c"], p.exprs["z"]


def _pos(p: QPoint) -> tuple:
    return (Q,) + _abz(p)


def _neg(p: QPoint) -> tuple:
    a, b, z = _abz(p)
    return Q, Q / b, Q / a, b / (a * z)


def _at(form, pmap):
    """The side ``form`` at the 2phi1 parameters ``pmap`` gives a point."""

    def side(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
        return form(*pmap(p), p.q, ctx)

    return side


def _halves(pos_form, neg_form):
    pos, neg = _at(pos_form, _pos), _at(neg_form, _neg)
    return lambda p, ctx: pos(p, ctx) + neg(p, ctx) - 1


# Sections 3 and 4: Section 1-2 sides at the maps the module docstring lists,
# each (k, a, b, z) for the base q^k and monomials c q^r in q written (c, r);
# eq-3.1's z is the point's own, and sum_{n in Z} z^n / (1 + q^{n-1}) =
# q/(1+q) 1psi1(-1/q; -1; q, z)
_AT31 = (1, (-1, -1), (-1, 0), None)
_AT32 = (1, (-1, 1), (-1, 3), (1, 1))
# sum_{n in Z} 2(1+1/q^2)(1+q^2) q^n / ((1+q^{2n-2})(1+q^{2n})(1+q^{2n+2}))
# = 1psi1(-1/q^2; -q^4; q^2, q): the Pochhammer quotient telescopes to
# the printed three-factor denominator
_AT33 = (2, (-1, -2), (-1, 4), (1, 1))
_AT42 = (2, (1, 1), (1, 4), (1, 2))
_AT43 = (2, (-1, -4), (-1, 0), (1, 3))
_AT44 = (3, (-1, -5), (-1, 1), (1, 4))


def _factors(c, e, ups=(), downs=()):
    """c q^e prod (1 - s q^k) over ups / the same over downs, pairs (s, k):
    one prodquot, whose nums s q^k of ups and s q^(k+1) of downs telescope
    against its dens s q^(k+1) of ups and s q^k of downs, times c q^e from
    the point's valuation table. That is c exp(e log q), e rounded, for a
    fractional e: within (4 |e log q| + 3) 2^-prec of exact if mpmath's log
    and exp are within one ulp (as qgamma assumes of gamma and power), so
    c q^e is the ball of 1 + ceil|e log q| mpmath values (qgamma._rounded)."""
    nums = [*ups, *((s, k + 1) for s, k in downs)]
    dens = [*((s, k + 1) for s, k in ups), *downs]

    def side(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
        t, n = p.valuation, 1 + ceil(abs(e * _ln(p.q._mpf_)))

        def monomials(pairs):
            return [ParamExpr(s, k, t) for s, k in pairs]

        return (prodquot(monomials(nums), monomials(dens), p.q, ctx)
                * _rounded(t.value(c, e), n))

    return side


def _special(side, at, scale=None, shift=None):
    """``side`` at the map ``at``, its monomials rewritten in the base q^k,
    times the factor data ``scale`` and plus ``shift`` where they are given
    (_factors)."""
    k, a, b, z = at
    scale, shift = (f and _factors(*f) for f in (scale, shift))

    def rewritten(x: ParamExpr) -> ParamExpr:
        return ParamExpr(x.coefficient, Fraction(x.exponent, k))

    fixed = {name: rewritten(ParamExpr(*x))
             for name, x in (("a", a), ("b", b), ("z", z)) if x is not None}

    def special(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
        monomials = fixed if z else {**fixed, "z": rewritten(p.exprs["z"])}
        value = side(p.at_power(k, monomials), ctx)
        if scale:
            value = value * scale(p, ctx)
        if shift:
            value = value + shift(p, ctx)
        return value

    return special


# --- eta-quotient expansions -----------------------------------------------

def _eta(scales):
    """The eta quotient prod_m eta(m tau)^e, scales = {m: e}, in the nome."""
    return lambda p, ctx: eta_quotient(scales, p.q, ctx)


# --- q-gamma theorems and classical limits ---------------------------------

# Section 5's q-gamma sides as data: each Gamma_q argument and 2phi1
# parameter is an exponent n0 + na a + nb b + nz z of q, held as its integer
# vector (n0, na, nb, nz). A term is a Gamma_q quotient, times (1-q)^(a+1-b)
# where scaled, times 2phi1(q^alpha, q^beta; q^gamma; q, q^delta) where
# given; each rhs is two terms minus (1-q)^(a+1-b). Theorem 5.3's two
# q-integrals are A and D by the q-beta integral (Gasper & Rahman, 1.11).

def _vector(x: str, letters="abz") -> tuple:
    """The sum b+1-a-z of +-1 and +-letters as its coefficients of 1 and
    of each letter, (1, -1, 1, -1); any other term is a ValueError, so a
    table's typo fails at import instead of changing a side."""
    units = "1" + letters
    if not re.fullmatch(f"[+-]?[{units}]([+-][{units}])*", x):
        raise ValueError(f"{x!r} is not a sum of +-1 and +-"
                         + ", +-".join(letters))
    terms = re.findall(f"([+-]?)([{units}])", x)
    return tuple(sum(-1 if sign == "-" else 1 for sign, t in terms if t == u)
                 for u in units)


def _value(v: tuple, p: QPoint, letters="abz"):
    """The vector v's sum at the point p, added left to right, a +-1
    letter added or subtracted rather than multiplied by its coefficient."""
    total = v[0]
    for n, name in zip(v[1:], letters):
        if n == 1:
            total = total + p[name]
        elif n == -1:
            total = total - p[name]
        elif n:
            total = total + n * p[name]
    return total


def _term(scaled: bool, nums: str, dens: str, phi21: str = "") -> tuple:
    """(e, nums, dens, 2phi1 parameters) as vectors: Gamma_q(x) = (q;q)_inf
    / (q^x;q)_inf (1-q)^(1-x) makes the term's power of 1 - q the exponent
    e = sum (1-x) over nums - sum (1-x) over dens, plus a+1-b if scaled."""
    nums, dens, phi21 = ([_vector(x) for x in xs.split()]
                         for xs in (nums, dens, phi21))
    e = [scaled * s - sum(v[i] for v in nums) + sum(v[i] for v in dens)
         for i, s in enumerate(_SCALE)]
    e[0] += len(nums) - len(dens)
    return tuple(e), nums, dens, phi21


_SCALE = _vector("a+1-b")
_LHS5 = _term(False, "b 1-a z b-a-z", "b-a a+z 1-a-z")
_A = _term(True, "b z", "b-a a+z", "a+1+z-b a a+z b-a")
_B = _term(False, "1-a b-a-z", "1-b b+1-a-z", "b-a b-z-a b+1-a-z 1-b")
_C = _term(False, "b z", "a z+1", "b-a z 1+z a")
_D = _term(True, "1-a b-a-z", "1-a-z b-a", "1-z 1-b 1-a-z b-a")


def _section5(*terms, minus_scale=False):
    """The side sum(terms), minus (1-q)^(a+1-b) if minus_scale, from one log
    q and three exps. A vector is the monomial q^(na a + nb b + nz z) q^n0,
    its coefficient formed once per (na, nb, nz) from the powers q^(n a),
    q^(n b) and q^(n z), each formed once per call, so prodquot telescopes
    Gamma_q(x) / Gamma_q(x+1) = (1-q) / (1-q^x) (Gasper & Rahman, 1.10) to
    one factor. Poles are checked first (q^-n q^n rounds to no exact zero
    factor), in mpf where doubles do not rule out x <= 0 by far."""
    gammas = dict.fromkeys(v for _, ns, ds, _ in terms for v in ns + ds)
    keys = {v[1:] for _, *vectors in terms for vs in vectors for v in vs}
    used = [{k[i] for k in keys} - {0} for i in range(3)]  # each letter's n
    es = {e for e, *_ in terms if any(e)} | {_SCALE}

    def side(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
        q, lq = p.q, mp.log(p.q)
        qnx = [{n: qx ** n for n in ns} for qx, ns in
               zip([mp.exp(p[x] * lq) for x in "abz"], used)]
        # in a, b, z order, each q^0 = 1 left out; no letter: exactly q^n0
        coefficients = {k: reduce(mul, [qn[n] for qn, n in zip(qnx, k) if n]
                                  or [1]) for k in keys}

        def monomials(vs):
            return [ParamExpr(coefficients[v[1:]], v[0], p.valuation)
                    for v in vs]

        fs = [1.0, *(float(p[x]) for x in "abz")]
        for v in gammas:
            xs = [n * f for n, f in zip(v, fs)]
            if not sum(xs) > 2 ** -40 * sum(map(abs, xs)) + 2 ** -1000:
                _check_pole(_value(v, p), "gamma_q")
        powers = {e: mp.power(1 - q, _value(e, p)) for e in es}

        def term(e, nums, dens, phi21):
            k = len(nums) - len(dens)  # the (q;q)_inf left over or under
            value = prodquot([Q] * k + monomials(dens),
                             [Q] * -k + monomials(nums), q, ctx)
            if any(e):
                value = value * powers[e]
            if phi21:
                alpha, beta, gamma, delta = monomials(phi21)
                value = value * phi([alpha, beta], [gamma], q, delta, ctx)
            return value

        total = reduce(add, [term(*t) for t in terms])
        return total - powers[_SCALE] if minus_scale else total

    return side


def _gamma(*factors, letters="abz"):
    """The classical side prod over factors of (sum over the factor's " + "
    joined quotients "nums / dens" of prod Gamma(x) over nums / prod
    Gamma(x) over dens), each product and sum taken left to right. At a
    sampled point each Gamma argument, doubles and small integers, is exact."""
    factors = [[[[_vector(x, letters) for x in xs.split()]
                 for xs in quotient.split("/")]
                for quotient in factor.split(" + ")] for factor in factors]

    def side(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
        def quotient(nums, dens):
            g = [classical_gamma(_value(v, p, letters), ctx)
                 for v in nums + dens]
            return _rounded(prod(g[:len(nums)]) / prod(g[len(nums):]), len(g))

        return reduce(mul, [reduce(add, [quotient(*q) for q in factor])
                            for factor in factors])

    return side


def _beta(cab: str, letters="abz"):
    """The series side (c, alpha, beta) of `_beta_series`, as vector text."""
    vectors = [_vector(x, letters) for x in cab.split()]
    return lambda p, ctx: _beta_series(
        *[_value(v, p, letters) for v in vectors], ctx)


def _lhs_eq59(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
    g34 = classical_gamma(mpf(3) / 4, ctx)  # twice among its 4 mpmath values
    return _rounded(mp.power(mp.pi, mpf(3) / 2)
                    / (2 * mp.sqrt(2) * g34 ** 2), 4)


# --- q-gamma and classical samplers ----------------------------------------

def _strip_sampler(q_lo, q_hi):
    def sample(rng: SplitMix64) -> QPoint:
        q = rng.uniform(q_lo, q_hi)
        a = rng.uniform(0.05, 0.35)
        b = rng.uniform(a + 0.2, 0.95)
        z = rng.uniform(0.05, (b - a) - 0.05)
        return QPoint(q, {"a": a, "b": b, "z": z})

    return sample


_PLACEHOLDER_Q = 0.5  # classical (q -> 1 limit) identities ignore q


def _sample_eq55(rng: SplitMix64) -> QPoint:
    b = rng.uniform(0.2, 0.9)
    z = rng.uniform(0.05, b - 0.05)
    return QPoint(_PLACEHOLDER_Q, {"b": b, "z": z})


def _sample_eq56(rng: SplitMix64) -> QPoint:
    return QPoint(_PLACEHOLDER_Q,
                  {"x": rng.uniform(0.1, 0.9), "y": rng.uniform(0.1, 1.5)})


def _sample_strip_classical(rng: SplitMix64) -> QPoint:
    a = rng.uniform(0.05, 0.35)
    b = rng.uniform(a + 0.2, 0.95)
    z = rng.uniform(0.05, (b - a) - 0.05)
    return QPoint(_PLACEHOLDER_Q, {"a": a, "b": b, "z": z})


def _sample_fixed(rng: SplitMix64) -> QPoint:
    return QPoint(_PLACEHOLDER_Q, {})


# --- constraints -----------------------------------------------------------
# (label, predicate) pairs. Predicates multiply rather than divide, so a zero
# parameter violates a constraint instead of raising; 0 < q < 1 is QPoint's.
# A nonzero lower bound marks a parameter that some side divides by.

def _b_below_az(p: QPoint) -> bool:
    return abs(p["b"]) < abs(p["a"] * p["z"])


_Z_IN_DISC = ("|z| < 1", lambda p: abs(p["z"]) < 1)
_ANNULUS = (("|b/a| < |z|", _b_below_az), _Z_IN_DISC)
# the same bound on the argument b/(az) of the inverted series
_INVERTED_ARG = ("|b/(az)| < 1", _b_below_az)
_Q_BELOW_B = ("|q| < |b|", lambda p: p.q < abs(p["b"]))
_B_OVER_A = ("0 < |b/a| < 1", lambda p: 0 < abs(p["b"]) < abs(p["a"]))
# the strip of Section 5, shared by the q-gamma theorems and their limits
_STRIP = (("0 < z < b - a", lambda p: 0 < p["z"] < p["b"] - p["a"]),
          ("b - a < 1", lambda p: p["b"] - p["a"] < 1),
          ("a > 0", lambda p: p["a"] > 0))


# --- catalog ---------------------------------------------------------------

def _at_working(side):
    """``side`` evaluated at its ctx's working precision, so that a side is
    a function of (point, ctx) alone, whatever precision its caller is in."""

    def at_working(p: QPoint, ctx: PrecisionCtx) -> SeriesValue:
        with ctx.working():
            return side(p, ctx)

    return at_working


# The 24 identities in `qseries list` order: the 1psi1 summation, the Heine
# transforms, the four single-sided transforms used in the proofs, the three
# bilateral theorems and their special cases; the eta-quotient expansions;
# the q-gamma theorems; their classical (q -> 1) limits.
CATALOG = tuple(replace(e, lhs=_at_working(e.lhs), rhs=_at_working(e.rhs))
                for e in (
    IdentityEntry(
        id="eq-1.1",
        paper_ref="Eq. (1.1), Ramanujan 1psi1 summation",
        param_names=("a", "b", "z"),
        constraints=_ANNULUS,
        lhs=_lhs_bilateral,
        rhs=_rhs_eq11,
        sampler=_bilateral_sampler("eq-1.1"),
    ),
    IdentityEntry(
        id="eq-2.1",
        paper_ref="Eq. (2.1), Heine transformation (first form)",
        param_names=("a", "b", "c", "z"),
        constraints=(_Z_IN_DISC,
                     ("0 < |b| < 1", lambda p: 0 < abs(p["b"]) < 1)),
        lhs=_at(_phi21, _own),
        rhs=_at(_heine1, _own),
        sampler=_heine_sampler("eq-2.1"),
    ),
    IdentityEntry(
        id="eq-2.2",
        paper_ref="Eq. (2.2), Heine transformation (second form)",
        param_names=("a", "b", "c", "z"),
        constraints=(_Z_IN_DISC,
                     ("0 < |c/b| < 1",
                      lambda p: 0 < abs(p["c"]) < abs(p["b"]))),
        lhs=_at(_phi21, _own),
        rhs=_at(_heine2, _own),
        sampler=_heine_sampler("eq-2.2"),
    ),
    IdentityEntry(
        id="eq-2.5",
        paper_ref="Eq. (2.5), transform of sum (a)_n/(b)_n z^n",
        param_names=("a", "b", "z"),
        constraints=(_Z_IN_DISC, _B_OVER_A),
        lhs=_at(_phi21, _pos),
        rhs=_at(_heine2, _pos),
        sampler=_transform_sampler("eq-2.5"),
    ),
    IdentityEntry(
        id="eq-2.6",
        paper_ref="Eq. (2.6), transform of sum (q/b)_n/(q/a)_n (b/az)^n",
        param_names=("a", "b", "z"),
        constraints=(_INVERTED_ARG, _Q_BELOW_B),
        lhs=_at(_phi21, _neg),
        rhs=_at(_heine1, _neg),
        sampler=_transform_sampler("eq-2.6"),
    ),
    IdentityEntry(
        id="eq-2.8",
        paper_ref="Eq. (2.8), transform of sum (a)_n/(b)_n z^n",
        param_names=("a", "b", "z"),
        constraints=(_Z_IN_DISC,
                     ("0 < |a| < 1", lambda p: 0 < abs(p["a"]) < 1)),
        lhs=_at(_phi21, _pos),
        rhs=_at(_heine1, _pos),
        sampler=_transform_sampler("eq-2.8"),
    ),
    IdentityEntry(
        id="eq-2.9",
        paper_ref="Eq. (2.9), transform of sum (q/b)_n/(q/a)_n (b/az)^n",
        param_names=("a", "b", "z"),
        constraints=(_INVERTED_ARG, _B_OVER_A),
        lhs=_at(_phi21, _neg),
        rhs=_at(_heine2, _neg),
        sampler=_transform_sampler("eq-2.9"),
    ),
    IdentityEntry(
        id="thm-2.1",
        paper_ref="Theorem 2.1, Eq. (2.3)",
        param_names=("a", "b", "z"),
        constraints=_ANNULUS + (_Q_BELOW_B,),
        lhs=_lhs_bilateral,
        rhs=_halves(_heine2, _heine1),
        sampler=_bilateral_sampler("thm-2.1"),
    ),
    IdentityEntry(
        id="thm-2.2",
        paper_ref="Theorem 2.2, Eq. (2.7)",
        param_names=("a", "b", "z"),
        constraints=_ANNULUS + (("|a| < 1", lambda p: abs(p["a"]) < 1),),
        lhs=_lhs_bilateral,
        rhs=_halves(_heine1, _heine2),
        sampler=_bilateral_sampler("thm-2.2"),
    ),
    IdentityEntry(
        id="thm-2.3",
        paper_ref="Theorem 2.3, Eq. (2.10)",
        param_names=("a", "b", "z"),
        constraints=_ANNULUS,
        lhs=_lhs_bilateral,
        rhs=_halves(_heine2, _heine2),
        sampler=_bilateral_sampler("thm-2.3"),
    ),
    IdentityEntry(
        id="eq-3.1",
        paper_ref="Eq. (3.1), special case a=-1/q, b=-1 of Theorem 2.1",
        param_names=("z",),
        constraints=(("|q| < |z|", lambda p: p.q < abs(p["z"])), _Z_IN_DISC),
        lhs=_special(_lhs_bilateral, _AT31, (1, 1, (), ((-1, 1),))),
        rhs=_special(_halves(_heine2, _heine1), _AT31,
                     (1, 1, (), ((-1, 1),))),
        sampler=_q_only_sampler(with_z=True),
    ),
    IdentityEntry(
        id="eq-3.2",
        paper_ref="Eq. (3.2), special case a=-q, b=-q^3, z=q of Theorem 2.2",
        param_names=(),
        constraints=(),
        lhs=_special(_lhs_bilateral, _AT32),
        rhs=_factors(1, -1, ((-1, 1), (-1, 2)), ((1, 1),)),
        sampler=_q_only_sampler(),
    ),
    IdentityEntry(
        id="eq-3.3",
        paper_ref="Eq. (3.3), special case of Theorem 2.3 after q -> q^2",
        param_names=(),
        constraints=(),
        lhs=_special(_lhs_bilateral, _AT33),
        rhs=_special(_halves(_heine2, _heine2), _AT33),
        sampler=_q_only_sampler(),
    ),
    IdentityEntry(
        id="eq-4.2",
        paper_ref="Eq. (4.2), eta(tau)/eta^2(2 tau) expansion",
        param_names=(),
        constraints=(),
        lhs=_eta({1: 1, 2: -2}),
        rhs=_special(_at(_heine1, _pos), _AT42,
                     (-1, Fraction(7, 8), (), ((-1, 1),)),
                     (1, Fraction(-1, 8))),
        sampler=_q_only_sampler(),
    ),
    IdentityEntry(
        id="eq-4.3",
        paper_ref="Eq. (4.3), eta^10(2 tau)/(eta^4(tau) eta^2(4 tau)) expansion",
        param_names=(),
        constraints=(),
        lhs=_eta({2: 10, 1: -4, 4: -2}),
        rhs=_special(_halves(_heine2, _heine1), _AT43,
                     (-2, Fraction(4, 3), ((-1, 1),), ((-1, 2), (-1, 4)))),
        sampler=_q_only_sampler(),
    ),
    IdentityEntry(
        id="eq-4.4",
        paper_ref="Eq. (4.4), eta^3(3 tau)/eta(tau) expansion",
        param_names=(),
        constraints=(),
        lhs=_eta({3: 3, 1: -1}),
        rhs=_special(_halves(_heine2, _heine2), _AT44,
                     (1, Fraction(4, 3), ((1, 3),),
                      ((1, 1), (-1, 2), (-1, 5)))),
        sampler=_q_only_sampler(),
    ),
    IdentityEntry(
        id="thm-5.1",
        paper_ref="Theorem 5.1, Eq. (5.4)",
        param_names=("a", "b", "z"),
        constraints=_STRIP + (("b < 1", lambda p: p["b"] < 1),),
        lhs=_section5(_LHS5),
        rhs=_section5(_A, _B, minus_scale=True),
        sampler=_strip_sampler(0.05, 0.7),
    ),
    IdentityEntry(
        id="eq-5.8",
        paper_ref="Eq. (5.8), q-analogue behind Theorem 5.2",
        param_names=("a", "b", "z"),
        constraints=_STRIP,
        lhs=_section5(_LHS5),
        rhs=_section5(_C, _D, minus_scale=True),
        sampler=_strip_sampler(0.05, 0.7),
    ),
    IdentityEntry(
        id="thm-5.3",
        paper_ref="Theorem 5.3, Eq. (5.10)",
        param_names=("a", "b", "z"),
        constraints=_STRIP,
        lhs=_section5(_LHS5),
        rhs=_section5(_A, _D, minus_scale=True),
        sampler=_strip_sampler(0.1, 0.55),
    ),
    IdentityEntry(
        id="eq-5.5",
        paper_ref="Eq. (5.5), q -> 1 corollary of Theorem 5.1 at a = 0",
        param_names=("b", "z"),
        constraints=(("0 < z < b < 1", lambda p: 0 < p["z"] < p["b"] < 1),),
        lhs=_gamma("1-b b+1-z / 1-z"),
        rhs=_beta("1 b b-z"),
        sampler=_sample_eq55,
    ),
    IdentityEntry(
        id="eq-5.6",
        paper_ref="Eq. (5.6), beta function series B(x, y)",
        param_names=("x", "y"),
        constraints=(("0 < x < 1", lambda p: 0 < p["x"] < 1),
                     ("y > 0", lambda p: p["y"] > 0)),
        lhs=_gamma("x y / x+y", letters="xy"),
        rhs=_beta("y 1-x y", letters="xy"),
        sampler=_sample_eq56,
    ),
    IdentityEntry(
        id="eq-5.7",
        paper_ref="Theorem 5.2, Eq. (5.7)",
        param_names=("a", "b", "z"),
        constraints=_STRIP,
        lhs=_gamma("a z 1-a b-a-z / a+z b-a 1-a-z"),
        rhs=_beta("z b-a z"),
        sampler=_sample_strip_classical,
    ),
    IdentityEntry(
        id="eq-5.9",
        paper_ref="Eq. (5.9), remark after Theorem 5.2",
        param_names=(),
        constraints=(),
        lhs=_lhs_eq59,
        rhs=lambda p, ctx: _beta_series(1, mpf(1) / 2, mpf(1) / 4, ctx),
        sampler=_sample_fixed,
    ),
    IdentityEntry(
        id="eq-5.12",
        paper_ref="Eq. (5.12), q -> 1 corollary of Theorem 5.3",
        param_names=("a", "b", "z"),
        constraints=_STRIP,
        lhs=_gamma("b 1-a z b-a-z / a+z 1-a-z"),
        rhs=_gamma("b-a a-b+1 / 1",
                   "1-a b-a-z / 1-z 1-b + b z / a a+1+z-b"),
        sampler=_sample_strip_classical,
    ),
))


def full_registry() -> list:
    """All 24 identities, in catalog order."""
    return list(CATALOG)
