"""Reference values that do not go through psiverify.

The benchmark checks every op's output against these.  Primes come from a
plain numpy sieve; R(N_n) comes from exact integer products of the primes,
rounded once to 113 bits before each logarithm, so the reference error is
below 1e-30 while psiverify's radii are near 1e-15.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath.ctx_mp import MPContext

PREC_BITS = 113


def primes_upto(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].tolist()


def first_primes(n: int) -> list[int]:
    """p_1 .. p_n (Rosser: p_n < n (log n + log log n) for n >= 6)."""
    bound = 30 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    primes = primes_upto(bound)
    if len(primes) < n:
        raise AssertionError(f"sieve bound {bound} holds only {len(primes)} primes")
    return primes[:n]


def primorials_upto(limit: int) -> list[int]:
    out = []
    prod = 1
    for p in primes_upto(64):
        prod *= p
        if prod > limit:
            return out
        out.append(prod)
    raise AssertionError("limit beyond the 18th primorial")


def _tree_prod(xs: list[int], lo: int, hi: int) -> int:
    if hi - lo <= 32:
        return math.prod(xs[lo:hi])
    mid = (lo + hi) // 2
    return _tree_prod(xs, lo, mid) * _tree_prod(xs, mid, hi)


class LowerOracle:
    """R(N_n) and the margin R(N_n) - e^gamma/zeta(2) at chosen indices."""

    def __init__(self, indices) -> None:
        self.ctx = ctx = MPContext()
        ctx.prec = PREC_BITS
        wanted = sorted(set(indices))
        self.primes = first_primes(wanted[-1])
        plus_one = [p + 1 for p in self.primes]
        self.ratio = {}
        s_plus = ctx.mpf(0)
        theta = ctx.mpf(0)
        prev = 0
        for n in wanted:
            num = _tree_prod(plus_one, prev, n)
            den = _tree_prod(self.primes, prev, n)
            s_plus += ctx.log(ctx.mpf(num) / ctx.mpf(den))
            theta += ctx.log(ctx.mpf(den))
            self.ratio[n] = ctx.exp(s_plus) / ctx.log(theta)
            prev = n
        self.limit = ctx.exp(+ctx.euler) / (ctx.pi**2 / 6)

    def nth_prime(self, n: int) -> int:
        return self.primes[n - 1]

    def ratio_encloses(self, n: int, value: float, radius: float) -> bool:
        return abs(self.ctx.mpf(value) - self.ratio[n]) <= self.ctx.mpf(radius)

    def margin_encloses(self, n: int, value: float, radius: float) -> bool:
        exact = self.ratio[n] - self.limit
        return abs(self.ctx.mpf(value) - exact) <= self.ctx.mpf(radius)
