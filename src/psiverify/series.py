"""Prefix sums over the primes, and the per-primorial data built on them.

Every real-valued quantity the package checks at a primorial
N_n = p_1 ... p_n is a function of theta(p_n) = log N_n and of a few prefix
sums, each the exact sum of the binary64 terms log1p(num/den(p)) named in
:data:`TERMS`:

    plus = sum log1p( 1/p )          psi(N_n)/N_n and R
    inv  = sum log1p(-1/(p+1))       g  (1/(1+1/p) = 1 - 1/(p+1))
    phi  = sum log1p(-1/p)           f and the Rosser-Schoenfeld product
    sq   = sum log1p(-1/p^2)         the zeta(2) tail

One prefix pass computes them.  Over p_1, p_2, ... it adds theta's term,
log p charged 2 ulp, and each requested kind's term to Python ints in units
of 2^-120 (``numerics.SUM_SCALE``), and gives certified totals only at the
indices it is asked for.  Every term is exact at that scale: log p >= log 2,
and the smallest term below the 2^31 sieve cap, log1p(-1/p^2) at
p = 2147483647 (about -2^-62), has an ulp of 2^-114.  The pass checks each term.
Its totals are then the exact sums of the terms, whatever their order or
grouping.  The prime table holds primes only, so theta has no other source.
The primorial points below, the bounds module and the cache inspector
consume the pass.

The loop is written once, as a cursor that only moves forward.
:func:`prefix_sums` streams it to a single consumer.  :func:`serve` runs it
once for many *readers*, each a ``(kinds, generator)`` pair: the generator
yields the ascending indices it reads, is sent ``(theta, totals)`` for its
own kinds at each, and returns its result.  A ``verify`` run serves all of
its claims from one pass, and a claim run alone is a run with one reader.
Since the totals are exact, every reader gets the bits of a pass of its own.

The pass yields its totals as plain ``(value, radius)`` pairs, and the
points chain them through the float kernels of ``numerics``; objects are
built only at the edges.  A :class:`PrimorialPoint` carries its pairs and
nothing else.  The points compose the pass's totals as

    psi(N_n)/N_n       = exp(plus)
    R(N_n)             = psi(N_n)/N_n / log log N_n
    g(x) = (e^g / zeta(2)) * log theta(x) * exp(inv)

and the ``criterion-gap`` row of ``bounds`` takes, in logs,

    f(x) =  e^g          * log theta(x) * exp(phi)

inv equals -plus as a real number but is accumulated from differently
rounded terms, so the identity g(p_n) * R(N_n) = e^g/zeta(2) exercises two
genuinely independent floating-point paths.

g and f need log theta(x) > 0; theta(x) > 1 certainly holds from x = 5 on,
so both are restricted to x >= 5 and points leave g unset at n = 2.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import islice
from math import ceil, log, ulp
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, RangeError
from .numerics import (
    E_GAMMA_OVER_ZETA2,
    SUM_SCALE,
    Ball,
    div_ball,
    exp_ball,
    log1p_ball,
    log_ball,
    mul_ball,
    sub_ball,
    sum_ball,
)
from .primes import PrimeTable

__all__ = [
    "MIN_CRITERION_X",
    "POINT_KINDS",
    "TERMS",
    "PrimorialPoint",
    "prefix_sums",
    "serve",
    "points_at",
    "stream_points",
]

MIN_CRITERION_X = 5
POINT_KINDS = ("plus", "inv")  # the prefix sums a PrimorialPoint is built from

# kind -> (num, den): the term for prime p is log1p(num / den(p))
TERMS: dict[str, tuple[int, Callable[[int], int]]] = {
    "plus": (1, lambda p: p),
    "inv": (-1, lambda p: p + 1),
    "phi": (-1, lambda p: p),
    "sq": (-1, lambda p: p * p),
}


# (n, theta, totals), as prefix_sums yields them
Totals = tuple[int, Ball, list[Ball]]
# (kinds, generator), as serve takes a reader (see the module docstring)
Reader = tuple[Sequence[str], Generator[int, tuple[Ball, list[Ball]], Any]]


class _PrefixCursor:
    """The loop over p_1, p_2, ... that sums theta and ``kinds``, advanced by :meth:`to`."""

    def __init__(self, table: PrimeTable, kinds: Sequence[str]):
        self.count = table.count
        self.primes = iter(table.primes)
        self.work = [[kind, *TERMS[kind], 0, 0] for kind in kinds]  # kind, num, den, sum, radius
        self.done = self.theta = self.theta_radius = 0
        self.sums = None  # (theta, totals) at done, shared by every reader of that index

    def to(self, n: int) -> tuple[Ball, list[Ball]]:
        """Sum through p_n (n not below the last index) and return ``(theta, totals)`` there."""
        done = self.done
        if n == done and self.sums is not None:
            return self.sums
        if not done <= n <= self.count:
            raise RangeError(f"prefix pass: index {n} outside [{done}, {self.count}]")
        theta, theta_radius, work = self.theta, self.theta_radius, self.work
        for p in islice(self.primes, n - done):
            lp = log(p)
            scaled = lp * SUM_SCALE
            if not scaled.is_integer():
                raise _unscaled("theta", p, lp)
            theta += int(scaled)
            theta_radius += ceil(2.0 * ulp(lp) * SUM_SCALE)
            for w in work:
                x = w[1] / w[2](p)
                v, r = log1p_ball((x, ulp(x)))
                scaled = v * SUM_SCALE
                if not scaled.is_integer():
                    raise _unscaled(w[0], p, v)
                w[3] += int(scaled)
                w[4] += ceil(r * SUM_SCALE)
        self.done, self.theta, self.theta_radius = n, theta, theta_radius
        self.sums = sum_ball(theta, theta_radius), [sum_ball(w[3], w[4]) for w in work]
        return self.sums


def _unscaled(kind: str, p: int, term: float) -> DomainError:
    return DomainError(f"prefix_sums: the {kind} term {term!r} at p={p} is finer than 1/SUM_SCALE")


def prefix_sums(table: PrimeTable, kinds: Sequence[str], at: Iterable[int]) -> Iterator[Totals]:
    """Yield ``(n, theta, totals)`` at each index n of the ascending ``at``.

    ``theta`` encloses theta(p_n) = log p_1 + ... + log p_n, each log charged
    2 ulp for the libm call.  ``totals[i]`` encloses the sum over
    p_1 .. p_n of the ``kinds[i]`` term, the ball
    ``log1p_ball(ratio_ball(num, den(p)))``.  Both are ``(value, radius)``
    pairs.  Each sum is kept exactly, as Python ints in units of
    ``1/SUM_SCALE``: the term values scaled, and the term radii scaled and
    rounded up.  Integer addition is associative, so a total does not depend
    on the order of its terms, on which kinds share the pass or on where it
    stops.  A term that is not a multiple of ``1/SUM_SCALE`` raises
    :class:`DomainError` rather than lose bits, and an index that steps back
    or lies past the table raises :class:`RangeError`.
    """
    cursor = _PrefixCursor(table, kinds)
    for n in at:
        yield n, *cursor.to(n)


def serve(table: PrimeTable, readers: Sequence[Reader]) -> list:
    """Run one prefix pass for every reader; return what each one returns, in order.

    The pass sums the union of the readers' kinds, in :data:`TERMS` order, up
    to the largest index any reader yields, and keeps nothing per index.  Each
    reader is sent its own kinds at its indices, bit for bit what
    ``prefix_sums(table, kinds, indices)`` gives it.  A step back or an index
    past the table raises :class:`RangeError`; a reader's exception propagates.
    """
    kinds = tuple(kind for kind in TERMS if any(kind in own for own, _ in readers))
    cursor = _PrefixCursor(table, kinds)
    results: list = [None] * len(readers)
    due = []  # heap of (next index, reader number, generator, positions of its kinds or None)
    for i, (own, gen) in enumerate(readers):
        pick = None if tuple(own) == kinds else [kinds.index(kind) for kind in own]
        try:
            due.append((next(gen), i, gen, pick))
        except StopIteration as done:
            results[i] = done.value
    heapify(due)
    while due:
        n, i, gen, pick = due[0]
        try:
            if len(due) == 1 and pick is None:  # a lone reader needs no heap: the dense scan's fast path
                while True:
                    n = gen.send(cursor.to(n))
            theta, totals = cursor.to(n)
            n = gen.send((theta, totals if pick is None else [totals[j] for j in pick]))
        except StopIteration as done:
            results[i] = done.value
            heappop(due)
        else:
            heapreplace(due, (n, i, gen, pick))
    return results


class PrimorialPoint(NamedTuple):
    """Certified snapshot of the primorial of index n (n >= 2).

    The ``*_ball`` fields are the ``(value, radius)`` pairs the pass
    computes; ``log_theta_ball`` encloses log theta(p_n) = log log N_n, and
    ``margin_ball`` encloses R(N_n) - e^gamma/zeta(2).  ``g_ball`` is None
    at n = 2, where p_n < 5 puts g outside its domain.
    """

    n: int
    p: int
    theta_ball: Ball
    log_theta_ball: Ball
    psi_over_n_ball: Ball
    ratio_ball: Ball
    g_ball: Ball | None
    margin_ball: Ball


_LOWER_LIMIT = E_GAMMA_OVER_ZETA2.ball


def _primorial_point_at(primes: Sequence[int], n: int, theta: Ball, sums: list[Ball]) -> PrimorialPoint:
    """The point at index n from the pass's theta and ``[plus, inv]`` totals there.

    Its margin and g are the sides of the rows ``bounds.LOWER`` and
    ``bounds.DUAL``, written out again so that a dense scan takes
    log theta once per point: the rows' sides take it once per side, three
    times per point, and made ``scan lower`` measurably slower.
    ``tests/test_bounds.py`` checks that both give the same bits.
    """
    if n < 2:
        raise RangeError(f"points_at: primorial points start at n = 2, got {n}")
    p = primes[n - 1]  # the pass checked n against the table
    plus, inv = sums
    psi_over_n = exp_ball(plus)
    loglog = log_ball(theta)
    ratio = div_ball(psi_over_n, loglog)
    g = mul_ball(mul_ball(_LOWER_LIMIT, loglog), exp_ball(inv)) if p >= MIN_CRITERION_X else None
    return PrimorialPoint._make((n, p, theta, loglog, psi_over_n, ratio, g, sub_ball(ratio, _LOWER_LIMIT)))


def points_at(table: PrimeTable, indices: Iterable[int]) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints at the ascending ``indices`` (each >= 2)."""
    for n, theta, sums in prefix_sums(table, POINT_KINDS, indices):
        yield _primorial_point_at(table.primes, n, theta, sums)


def stream_points(table: PrimeTable, n_max: int) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints for n = 2 .. n_max, O(1) work per step."""
    if n_max > table.count:
        raise RangeError(f"stream_points: n_max={n_max} beyond table ({table.count} primes)")
    if n_max < 2:
        raise RangeError(f"stream_points: n_max={n_max} below stream start 2")
    yield from points_at(table, range(2, n_max + 1))
