"""Prefix sums over the primes, and the per-primorial data built on them.

Every real-valued quantity the package checks at a primorial
N_n = p_1 ... p_n is a function of theta(p_n) = log N_n and of a few prefix
sums, each a compensated sum of the terms log1p(num/den(p)) named in
:data:`TERMS`:

    plus = sum log1p( 1/p )          psi(N_n)/N_n and R
    inv  = sum log1p(-1/(p+1))       g  (1/(1+1/p) = 1 - 1/(p+1))
    phi  = sum log1p(-1/p)           f and the Rosser-Schoenfeld product
    sq   = sum log1p(-1/p^2)         the zeta(2) tail

:func:`prefix_sums` is the one pass that computes them: it runs one
accumulator for theta, whose term is log p charged 2 ulp, and one per
requested kind over p_1, p_2, ... and yields certified totals only at the
indices it is asked for.  The prime table holds primes only, so theta has
no other source.  The primorial points below and the bounds module consume
the pass:

    psi(N_n)/N_n       = exp(plus)
    R(N_n)             = psi(N_n)/N_n / log log N_n
    g(x) = (e^g / zeta(2)) * log theta(x) * exp(inv)
    f(x) =  e^g          * log theta(x) * exp(phi)

inv equals -plus as a real number but is accumulated from differently
rounded terms, so the identity g(p_n) * R(N_n) = e^g/zeta(2) exercises two
genuinely independent floating-point paths.

g and f need log theta(x) > 0; theta(x) > 1 certainly holds from x = 5 on,
so both are restricted to x >= 5 and points leave g unset at n = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import log, ulp
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, RangeError
from .numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    CertifiedAccumulator,
    CertifiedValue,
    cv_div,
    cv_exp,
    cv_log,
    cv_mul,
    cv_sub,
    log1p_ball,
)
from .primes import PrimeTable

__all__ = [
    "MIN_CRITERION_X",
    "TERMS",
    "PrimorialPoint",
    "prefix_sums",
    "points_at",
    "stream_points",
    "criterion_g",
    "criterion_f",
]

MIN_CRITERION_X = 5

# kind -> (num, den): the term for prime p is log1p(num / den(p))
TERMS: dict[str, tuple[int, Callable[[int], int]]] = {
    "plus": (1, lambda p: p),
    "inv": (-1, lambda p: p + 1),
    "phi": (-1, lambda p: p),
    "sq": (-1, lambda p: p * p),
}


def prefix_sums(
    table: PrimeTable, kinds: Sequence[str], at: Iterable[int]
) -> Iterator[tuple[int, CertifiedValue, list[CertifiedValue]]]:
    """Yield ``(n, theta, totals)`` at each index n of the ascending ``at``.

    ``theta`` encloses theta(p_n) = log p_1 + ... + log p_n, each log charged
    2 ulp for the libm call.  ``totals[i]`` encloses the sum over
    p_1 .. p_n of the ``kinds[i]`` term.
    A term is the ball of log1p over num/den(p) with 1 ulp charged for the
    correctly rounded division, the same value and radius as
    ``cv_log1p(cv_from_ratio(num, den(p)))``, so totals do not depend on
    which kinds share the pass or at which indices it stops.
    """
    theta = CertifiedAccumulator()
    work = [(CertifiedAccumulator(), *TERMS[kind]) for kind in kinds]
    primes = iter(table.primes)
    done = 0
    for n in at:
        if not done <= n <= table.count:
            raise RangeError(f"prefix_sums: index {n} outside [{done}, {table.count}]")
        for p in islice(primes, n - done):
            lp = log(p)
            theta.add(lp, 2.0 * ulp(lp))
            for acc, num, den in work:
                x = num / den(p)
                acc.add(*log1p_ball(x, ulp(x)))
        done = n
        yield n, theta.total(), [acc.total() for acc, _, _ in work]


@dataclass(frozen=True, slots=True)
class PrimorialPoint:
    """Certified snapshot of the primorial of index n (n >= 2).

    ``g`` is None at n = 2 where p_n < 5 puts it outside the criterion
    function's domain.
    """

    n: int
    p: int
    theta: CertifiedValue
    psi_over_n: CertifiedValue
    ratio: CertifiedValue
    g: CertifiedValue | None
    margin_lower: CertifiedValue


def _criterion(scale: CertifiedValue, loglog: CertifiedValue, log_product: CertifiedValue) -> CertifiedValue:
    return cv_mul(cv_mul(scale, loglog), cv_exp(log_product))


def points_at(table: PrimeTable, indices: Iterable[int]) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints at the ascending ``indices`` (each >= 2)."""
    for n, theta, (plus, inv) in prefix_sums(table, ("plus", "inv"), indices):
        if n < 2:
            raise RangeError(f"points_at: primorial points start at n = 2, got {n}")
        p = table.nth_prime(n)
        psi_over_n = cv_exp(plus)
        loglog = cv_log(theta)
        ratio = cv_div(psi_over_n, loglog)
        yield PrimorialPoint(
            n=n,
            p=p,
            theta=theta,
            psi_over_n=psi_over_n,
            ratio=ratio,
            g=_criterion(E_GAMMA_OVER_ZETA2, loglog, inv) if p >= MIN_CRITERION_X else None,
            margin_lower=cv_sub(ratio, E_GAMMA_OVER_ZETA2),
        )


def stream_points(table: PrimeTable, n_max: int) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints for n = 2 .. n_max, O(1) work per step."""
    if n_max > table.count:
        raise RangeError(f"stream_points: n_max={n_max} beyond table ({table.count} primes)")
    if n_max < 2:
        raise RangeError(f"stream_points: n_max={n_max} below stream start 2")
    yield from points_at(table, range(2, n_max + 1))


def _criterion_at(table: PrimeTable, x: int, kind: str, scale: CertifiedValue) -> CertifiedValue:
    if x < MIN_CRITERION_X:
        raise DomainError(
            f"criterion functions need x >= {MIN_CRITERION_X} so that log theta(x) > 0, got x={x}"
        )
    _, theta, (log_product,) = next(prefix_sums(table, (kind,), (table.prime_count(x),)))
    return _criterion(scale, cv_log(theta), log_product)


def criterion_g(table: PrimeTable, x: int) -> CertifiedValue:
    """g(x) = (e^gamma/zeta(2)) log theta(x) prod_{p<=x} (1+1/p)^(-1), certified.

    g(p_n) < 1 is equivalent to R(N_n) > e^gamma/zeta(2).  Cost is one pass
    over the primes up to x; use the stream for dense evaluation.
    """
    return _criterion_at(table, x, "inv", E_GAMMA_OVER_ZETA2)


def criterion_f(table: PrimeTable, x: int) -> CertifiedValue:
    """f(x) = e^gamma log theta(x) prod_{p<=x} (1-1/p), certified (Nicolas)."""
    return _criterion_at(table, x, "phi", E_GAMMA)
