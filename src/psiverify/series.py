"""Prefix sums over the primes, and the per-primorial data built on them.

Every real-valued quantity the package checks at a primorial
N_n = p_1 ... p_n is a function of theta(p_n) = log N_n and of a few prefix
sums, each the exact sum of the binary64 terms log1p(num/den(p)) named in
:data:`TERMS`:

    plus = sum log1p( 1/p )          psi(N_n)/N_n and R
    inv  = sum log1p(-1/(p+1))       g  (1/(1+1/p) = 1 - 1/(p+1))
    phi  = sum log1p(-1/p)           f and the Rosser-Schoenfeld product
    sq   = sum log1p(-1/p^2)         the zeta(2) tail

:func:`prefix_sums` is the one pass that computes them.  Over p_1, p_2, ...
it adds theta's term, log p charged 2 ulp, and each requested kind's term
to Python ints in units of 2^-120 (``numerics.SUM_SCALE``), and yields
certified totals only at the indices it is asked for.  Every term is exact
at that scale: log p >= log 2, and the smallest term below the 2^31 sieve
cap, log1p(-1/p^2) at p = 2147483647 (about -2^-62), has an ulp of
2^-114.  The pass checks each term.  Its totals are then the exact sums of
the terms, whatever their order or grouping.  The prime table holds primes
only, so theta has no other source.  The primorial points below, the
criterion functions, the bounds module and the cache inspector consume the
pass.

A ``verify`` run makes that pass once for every claim it runs.  A
:class:`PrefixSnapshots` store runs it over the union of the indices its
claims read: :meth:`~PrefixSnapshots.live` feeds the one dense reader (the
``lower`` scan) as the pass goes and records every sparse index into flat
float64 rows, and :meth:`~PrefixSnapshots.replay` serves those rows later to
the sparse readers.  Both keep the contract of :func:`prefix_sums`, and since
the totals are exact the replayed bits are the bits of a pass of their own.

The pass yields its totals as plain ``(value, radius)`` pairs, and the
points chain them through the float kernels of ``numerics``; objects are
built only at the edges.  A :class:`PrimorialPoint` carries its pairs and
builds a :class:`CertifiedValue` only for a field that is read, so a scan
that decides on the pairs builds none per point.  The points compose the
pass's totals as

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

from array import array
from bisect import bisect_left
from heapq import merge
from itertools import islice, tee
from math import ceil, log, ulp
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, RangeError
from .numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    SUM_SCALE,
    Ball,
    CertifiedValue,
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
    "TERMS",
    "PrimorialPoint",
    "PrefixSnapshots",
    "ascending_unique",
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


# (n, theta, totals), as prefix_sums yields them; a PrefixSource is called as prefix_sums is
Totals = tuple[int, Ball, list[Ball]]
PrefixSource = Callable[[PrimeTable, Sequence[str], Iterable[int]], Iterator[Totals]]


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
    :class:`DomainError` rather than lose bits.
    """
    theta = theta_radius = 0
    work = [[kind, *TERMS[kind], 0, 0] for kind in kinds]  # kind, num, den, sum, radius
    primes = iter(table.primes)
    done = 0
    for n in at:
        if not done <= n <= table.count:
            raise RangeError(f"prefix_sums: index {n} outside [{done}, {table.count}]")
        for p in islice(primes, n - done):
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
        done = n
        yield n, sum_ball(theta, theta_radius), [sum_ball(w[3], w[4]) for w in work]


def _unscaled(kind: str, p: int, term: float) -> DomainError:
    return DomainError(f"prefix_sums: the {kind} term {term!r} at p={p} is finer than 1/SUM_SCALE")


def ascending_unique(*streams: Iterable[int]) -> Iterator[int]:
    """Merge ascending index streams, yielding each index once."""
    last = None
    for n in merge(*streams):
        if n != last:
            last = n
            yield n


class PrefixSnapshots:
    """One prefix pass recorded at sparse indices and replayed to many readers.

    The summed ``kinds`` and the ascending, unique ``record_at`` are fixed
    when the store is made.  Each recorded index keeps one row of float64
    pairs in ``rows``, theta first and then each kind's total, so a snapshot
    costs ``2 + 2 * len(kinds)`` floats and one int64 index, and no Python
    object.  :meth:`live` and :meth:`replay` are called as :func:`prefix_sums` is.
    """

    def __init__(self, kinds: Sequence[str], record_at: Iterable[int]):
        self.kinds = tuple(kinds)
        self.indices = array("q", record_at)
        self.rows = array("d")

    def live(self, table: PrimeTable, kinds: Sequence[str], at: Iterable[int]) -> Iterator[Totals]:
        """``prefix_sums(table, kinds, at)``, recording this store's indices on the way.

        The one pass runs over the merge of ``at`` with the indices to record,
        to the last of both, so draining this generator records every index.
        """
        pick = [self.kinds.index(k) for k in kinds]
        wanted, merged = tee(at)
        want = next(wanted, None)
        record = iter(self.indices)
        due = next(record, None)
        for n, theta, totals in prefix_sums(table, self.kinds, ascending_unique(merged, self.indices)):
            if n == due:
                self.rows.extend(theta)
                for total in totals:
                    self.rows.extend(total)
                due = next(record, None)
            while n == want:
                yield n, theta, [totals[i] for i in pick]
                want = next(wanted, None)

    def record(self, table: PrimeTable) -> None:
        """Run the pass for the recorded indices alone."""
        for _ in self.live(table, (), ()):
            pass

    def replay(self, table: PrimeTable, kinds: Sequence[str], at: Iterable[int]) -> Iterator[Totals]:
        """``prefix_sums(table, kinds, at)`` from the recorded rows, bit for bit.

        An index that was not recorded raises :class:`RangeError`; nothing
        falls back to a live pass.
        """
        columns = [2 + 2 * self.kinds.index(k) for k in kinds]
        width = 2 + 2 * len(self.kinds)
        indices, rows = self.indices, self.rows
        recorded = len(rows) // width
        k = 0
        for n in at:
            k = bisect_left(indices, n, k, recorded)
            if k == recorded or indices[k] != n:
                raise RangeError(f"PrefixSnapshots.replay: index {n} not recorded, or not in ascending order")
            b = k * width
            yield n, (rows[b], rows[b + 1]), [(rows[b + c], rows[b + c + 1]) for c in columns]


class PrimorialPoint(NamedTuple):
    """Certified snapshot of the primorial of index n (n >= 2).

    The ``*_ball`` fields are the ``(value, radius)`` pairs the pass
    computes; ``log_theta_ball`` encloses log theta(p_n) = log log N_n, and
    ``margin_ball`` encloses R(N_n) - e^gamma/zeta(2).  The
    :class:`CertifiedValue` properties are built from them when read.
    ``g`` is None at n = 2 where p_n < 5 puts it outside the criterion
    function's domain.
    """

    n: int
    p: int
    theta_ball: Ball
    log_theta_ball: Ball
    psi_over_n_ball: Ball
    ratio_ball: Ball
    g_ball: Ball | None
    margin_ball: Ball

    @property
    def theta(self) -> CertifiedValue:
        return CertifiedValue(*self.theta_ball)

    @property
    def psi_over_n(self) -> CertifiedValue:
        return CertifiedValue(*self.psi_over_n_ball)

    @property
    def ratio(self) -> CertifiedValue:
        return CertifiedValue(*self.ratio_ball)

    @property
    def g(self) -> CertifiedValue | None:
        return None if self.g_ball is None else CertifiedValue(*self.g_ball)

    @property
    def margin_lower(self) -> CertifiedValue:
        return CertifiedValue(*self.margin_ball)


_LOWER_LIMIT = E_GAMMA_OVER_ZETA2.ball


def _criterion(scale: Ball, loglog: Ball, log_product: Ball) -> Ball:
    return mul_ball(mul_ball(scale, loglog), exp_ball(log_product))


def points_at(
    table: PrimeTable, indices: Iterable[int], source: PrefixSource | None = None
) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints at the ascending ``indices`` (each >= 2).

    ``source`` stands in for :func:`prefix_sums` (a store's live or replay).
    """
    primes, make = table.primes, PrimorialPoint._make
    for n, theta, (plus, inv) in (source or prefix_sums)(table, ("plus", "inv"), indices):
        if n < 2:
            raise RangeError(f"points_at: primorial points start at n = 2, got {n}")
        p = primes[n - 1]  # the pass checked n against the table
        psi_over_n = exp_ball(plus)
        loglog = log_ball(theta)
        ratio = div_ball(psi_over_n, loglog)
        g = _criterion(_LOWER_LIMIT, loglog, inv) if p >= MIN_CRITERION_X else None
        yield make((n, p, theta, loglog, psi_over_n, ratio, g, sub_ball(ratio, _LOWER_LIMIT)))


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
    return CertifiedValue(*_criterion(scale.ball, log_ball(theta), log_product))


def criterion_g(table: PrimeTable, x: int) -> CertifiedValue:
    """g(x) = (e^gamma/zeta(2)) log theta(x) prod_{p<=x} (1+1/p)^(-1), certified.

    g(p_n) < 1 is equivalent to R(N_n) > e^gamma/zeta(2).  Cost is one pass
    over the primes up to x; use the stream for dense evaluation.
    """
    return _criterion_at(table, x, "inv", E_GAMMA_OVER_ZETA2)


def criterion_f(table: PrimeTable, x: int) -> CertifiedValue:
    """f(x) = e^gamma log theta(x) prod_{p<=x} (1-1/p), certified (Nicolas)."""
    return _criterion_at(table, x, "phi", E_GAMMA)
