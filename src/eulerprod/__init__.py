"""Analytically continued truncated Euler prime products.

Multiplying the Euler product over primes p <= x by the correction factor
exp(E1[(s-1) log x]) turns it into a numerically usable approximation of
zeta(s) for Re(s) > 1/2 (s != 1), with variants for 1/zeta(s) and
zeta(2s)/zeta(s).  The package bundles the special-function machinery
(complex E1 with an explicit branch-cut convention), an independent zeta
reference, scan and error-decay experiments, and a CSV-emitting CLI.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    EulerProductError,
    InsufficientDataError,
    PoleProximityError,
    ResourceLimitError,
    SingularFactorError,
    SingularityError,
)
from .experiments import (
    DecayFit,
    ScanMode,
    ScanRow,
    ScanSpec,
    error_decay,
    evaluate,
    fit_decay_slope,
    scan,
)
from .primes import PrimeTable, prime_pi, sieve
from .product import (
    Evaluation,
    ProductVariant,
    corrected_product,
    log_raw_product,
    mertens_ratio,
    prime_zeta_truncated,
)
from .specfun import (
    EULER_GAMMA,
    SERIES_CUTOFF,
    BranchSide,
    E1Method,
    E1Result,
    e1,
    e1_continued_fraction,
    e1_series,
)
from .zetaref import DEFAULT_CONFIG, ZetaRefConfig, zeta_ref

__version__ = "0.1.0"

__all__ = [
    "BranchSide",
    "ConvergenceError",
    "DecayFit",
    "DEFAULT_CONFIG",
    "DomainError",
    "E1Method",
    "E1Result",
    "EULER_GAMMA",
    "EulerProductError",
    "Evaluation",
    "InsufficientDataError",
    "PoleProximityError",
    "PrimeTable",
    "ProductVariant",
    "ResourceLimitError",
    "ScanMode",
    "ScanRow",
    "ScanSpec",
    "SERIES_CUTOFF",
    "SingularFactorError",
    "SingularityError",
    "ZetaRefConfig",
    "corrected_product",
    "e1",
    "e1_continued_fraction",
    "e1_series",
    "error_decay",
    "evaluate",
    "fit_decay_slope",
    "log_raw_product",
    "mertens_ratio",
    "prime_pi",
    "prime_zeta_truncated",
    "scan",
    "sieve",
    "zeta_ref",
]
