"""Certified computations around the Dedekind psi function at primorials.

The package computes psi, phi, sigma and the ratio R(n) = psi(n)/(n log log n)
exactly or with rigorous error enclosures, and verifies the classical
inequalities that govern R along primorial numbers, including the
RH-equivalent criterion R(N_n) > e^gamma/zeta(2).
"""

from .arith import (
    Factorization,
    factorize,
    phi,
    primorial,
    primorials_up_to,
    psi,
    robin_ratio,
    sigma,
)
from .bounds import (
    BoundReport,
    BoundScan,
    criterion_gap_bound,
    primorial_psi_bound,
    robin_log_bound,
    rosser_schoenfeld_bound,
    scan_bound,
    threshold_condition,
    zeta_tail_bound,
)
from .claims import (
    CLAIM_IDS,
    ClaimResult,
    VerifyConfig,
    champion_scan,
    mertens_limit_trend,
    reduction_check,
    run_claims,
    verify_lower,
    verify_upper,
)
from .errors import (
    CapabilityError,
    DomainError,
    PsiverifyError,
    RangeError,
    ResourceError,
    UnknownClaimError,
)
from .numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    EULER_GAMMA,
    ZETA2,
    CertifiedValue,
    Verdict,
    VerdictStatus,
    compare,
)
from .primes import PrimeTable, build_table
from .series import PrimorialPoint, criterion_f, criterion_g, stream_points

__version__ = "0.1.0"
