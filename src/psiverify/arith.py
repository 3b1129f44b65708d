"""Exact multiplicative arithmetic functions: factorization, psi, phi, sigma.

Everything here is exact integer arithmetic (Python ints are arbitrary
precision, so nothing overflows); the only certified-float surface is
``robin_ratio``, which divides the exact rational psi(n)/n by log log n.

Dedekind psi:  psi(n) = n * prod_{p | n} (1 + 1/p)
Euler totient: phi(n) = n * prod_{p | n} (1 - 1/p)
Divisor sum:   sigma(n) = prod_{p^e || n} (p^(e+1) - 1) / (p - 1)
Robin ratio:   psi(n) / (n log log n), defined for n >= 3
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DomainError, ResourceError
from .numerics import CertifiedValue, div_ball, log_ball, log_int_ball, ratio_ball
from .primes import MAX_LIMIT, PrimeTable, build_table

__all__ = [
    "DEFAULT_FACTOR_LIMIT",
    "Factorization",
    "factorize",
    "psi",
    "phi",
    "sigma",
    "psi_from_factors",
    "phi_from_factors",
    "sigma_from_factors",
    "squarefree_kernel",
    "robin_ratio",
    "robin_ratio_from_factors",
    "primorial",
    "primorials_up_to",
    "psi_ratio_tables",
]

DEFAULT_FACTOR_LIMIT = 10**12
# psi_ratio_tables: primes with fewer multiples than this are updated in groups
_GROUPED_MULTIPLES = 64

_shared_table: PrimeTable | None = None


def _trial_table(min_limit: int) -> PrimeTable:
    """Shared prime table for trial division, grown on demand."""
    global _shared_table
    if _shared_table is None or _shared_table.limit < min_limit:
        _shared_table = build_table(max(min_limit, 10**6))
    return _shared_table


@dataclass(frozen=True)
class Factorization:
    """n as an ordered multiset of (prime, exponent) pairs; empty for n = 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        m = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be strictly increasing with e >= 1")
            prev = p
            m *= p**e
        if m != self.n:
            raise ValueError(f"factors do not multiply back to {self.n}")

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def factorize(n: int, table: PrimeTable | None = None) -> Factorization:
    """Factor n by trial division against the sieved prime table.

    Raises CapabilityError above :data:`DEFAULT_FACTOR_LIMIT`, which keeps the
    trial-division sieve at 10^6.
    """
    if n < 1:
        raise DomainError(f"factorize: n must be positive, got {n}")
    if n > DEFAULT_FACTOR_LIMIT:
        raise CapabilityError(f"factorize: n={n} exceeds the factorization limit {DEFAULT_FACTOR_LIMIT}")
    if n == 1:
        return Factorization(1, ())
    root = math.isqrt(n)
    if table is None or table.limit < root:
        table = _trial_table(root)
    m = n
    out: list[tuple[int, int]] = []
    for p in table.primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def psi_from_factors(fz: Factorization) -> int:
    out = 1
    for p, e in fz.factors:
        out *= p ** (e - 1) * (p + 1)
    return out


def phi_from_factors(fz: Factorization) -> int:
    out = 1
    for p, e in fz.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def sigma_from_factors(fz: Factorization) -> int:
    out = 1
    for p, e in fz.factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def psi(n: int, table: PrimeTable | None = None) -> int:
    """Exact Dedekind psi; multiplicative, psi(1) = 1."""
    return psi_from_factors(factorize(n, table))


def phi(n: int, table: PrimeTable | None = None) -> int:
    return phi_from_factors(factorize(n, table))


def sigma(n: int, table: PrimeTable | None = None) -> int:
    return sigma_from_factors(factorize(n, table))


def squarefree_kernel(n: int, table: PrimeTable | None = None) -> int:
    """rad(n): product of the distinct primes dividing n."""
    out = 1
    for p in factorize(n, table).distinct_primes:
        out *= p
    return out


def robin_ratio_from_factors(fz: Factorization) -> CertifiedValue:
    """Certified psi(n) / (n log log n) from a known factorization."""
    n = fz.n
    if n < 3:
        raise DomainError(f"robin_ratio: undefined below 3, got n={n}")
    return CertifiedValue(*div_ball(ratio_ball(psi_from_factors(fz), n), log_ball(log_int_ball(n))))


def robin_ratio(n: int, table: PrimeTable | None = None) -> CertifiedValue:
    """Certified enclosure of psi(n) / (n log log n) for n >= 3.

    The rational part psi(n)/n is exact before the single rounded
    conversion; log log n comes from the certified log of the exact
    integer, so the enclosure stays rigorous for n beyond 53 bits.
    """
    if n < 3:
        raise DomainError(f"robin_ratio: undefined below 3, got n={n}")
    return robin_ratio_from_factors(factorize(n, table))


def primorial(n: int, table: PrimeTable | None = None) -> int:
    """Exact product of the first n primes."""
    if n < 1:
        raise DomainError(f"primorial: index must be >= 1, got {n}")
    if table is None or table.count < n:
        table = _trial_table(2)
        while table.count < n:
            table = _trial_table(table.limit * 4)
    out = 1
    for k in range(1, n + 1):
        out *= table.nth_prime(k)
    return out


def primorials_up_to(limit: int, table: PrimeTable | None = None) -> list[int]:
    """All primorial numbers <= limit, in increasing order."""
    if table is None:
        table = _trial_table(2)
    out: list[int] = []
    prod = 1
    k = 1
    while True:
        if k > table.count:
            table = _trial_table(table.limit * 4)
        prod *= table.nth_prime(k)
        if prod > limit:
            return out
        out.append(prod)
        k += 1


def psi_ratio_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact numerators/denominators of psi(m)/m for every m <= limit.

    psi(m)/m depends only on the distinct primes of m, so one update per
    prime p and multiple m of p suffices: num[m] = prod (p+1), den[m] =
    prod p over p | m.  A prime p <= limit // _GROUPED_MULTIPLES takes one
    strided update.  Every larger prime has fewer than _GROUPED_MULTIPLES
    multiples, so those primes are grouped by multiplier instead: for each
    j, one fancy-indexed update covers m = p * j for every large p with
    p * j <= limit.  For a fixed j these indices are distinct, so each
    multiple of each prime is updated exactly once, as in the strided loop.

    int64 is exact here: below the sieve cap m has at most 9 distinct primes
    (N_10 > 2^31), and the largest numerator stays far below 2^63 (checked
    before returning).  A limit above the sieve cap raises ResourceError
    before anything is allocated.
    """
    if limit < 1:
        raise DomainError("psi_ratio_tables: limit must be >= 1")
    if limit > MAX_LIMIT:
        raise ResourceError(f"psi_ratio_tables: limit {limit} exceeds the sieve cap {MAX_LIMIT}")
    num = np.ones(limit + 1, dtype=np.int64)
    den = np.ones(limit + 1, dtype=np.int64)
    primes = np.frombuffer(build_table(max(limit, 2)).primes, dtype=np.int64)
    split = int(np.searchsorted(primes, limit // _GROUPED_MULTIPLES, side="right"))
    for p in primes[:split].tolist():
        num[p::p] *= p + 1
        den[p::p] *= p
    large = primes[split:]
    for j in range(1, _GROUPED_MULTIPLES):
        sel = large[: int(np.searchsorted(large, limit // j, side="right"))]
        num[sel * j] *= sel + 1
        den[sel * j] *= sel
    if int(num.max()) >= (1 << 62):
        raise CapabilityError("psi_ratio_tables: int64 headroom exceeded")
    return num, den
