"""Arbitrary-precision q-series evaluation and identity verification."""

from .errors import (
    CapExceededError,
    DivergenceError,
    DomainViolationError,
    EvaluationError,
    InsufficientTermsError,
    NonConvergenceError,
    NumericalBreakdownError,
    ParseError,
    PoleError,
    QDomainError,
    QSeriesError,
    SamplingError,
    UnknownIdentityError,
)
from .eta import eta_nome, eta_quotient
from .harness import RunConfig, run
from .identities import IdentityEntry, full_registry
from .params import ParamExpr, parse_param
from .precision import DEFAULT_CTX, PrecisionCtx, to_real
from .qcore import (
    QPoint,
    SeriesValue,
    accelerate,
    phi,
    pochhammer_inf,
    pochhammer_n,
    psi_bilateral,
    qpow,
)
from .qgamma import (
    classical_gamma,
    gamma_q,
    jackson_integral_finite,
)
from .registry import IdentityResult, eval_identity, sample_domain
from .rng import SplitMix64, stream_for

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DEFAULT_CTX",
    "DivergenceError",
    "DomainViolationError",
    "EvaluationError",
    "IdentityEntry",
    "IdentityResult",
    "InsufficientTermsError",
    "NonConvergenceError",
    "NumericalBreakdownError",
    "ParamExpr",
    "ParseError",
    "PoleError",
    "PrecisionCtx",
    "QDomainError",
    "QPoint",
    "QSeriesError",
    "RunConfig",
    "SamplingError",
    "SeriesValue",
    "SplitMix64",
    "UnknownIdentityError",
    "accelerate",
    "classical_gamma",
    "eta_nome",
    "eta_quotient",
    "eval_identity",
    "full_registry",
    "gamma_q",
    "jackson_integral_finite",
    "parse_param",
    "phi",
    "pochhammer_inf",
    "pochhammer_n",
    "psi_bilateral",
    "qpow",
    "run",
    "sample_domain",
    "stream_for",
    "to_real",
]
