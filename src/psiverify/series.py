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
once for many *readers*, each a generator that yields an index or a
``range`` of indices and is sent only those.  A claim is its rows, each a
reader, and a finish over what they return: a ``verify`` run serves the
rows of all of its claims from one pass, and a claim run alone is a pass
over its own rows.  Since the totals are exact, every reader gets the bits
of a pass of its own.

The pass yields its totals as plain ``(value, radius)`` pairs, and the
points chain them through the float kernels of ``numerics``; objects are
built only at the edges.  A :class:`PrimorialPoint` carries its pairs and
nothing else.  A point takes log theta(p_n) = log log N_n once and is the
sides of the rows ``bounds.LOWER`` and ``bounds.DUAL`` on it:

    R(N_n)             = exp(plus) / log log N_n
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

from heapq import heappop, heappush
from itertools import islice
from math import ceil, log, ulp
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, RangeError
from .numerics import SUM_SCALE, Ball, log1p_ball, log_ball, sub_ball, sum_ball
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
# (kinds, generator), as serve takes a reader (see serve)
Reader = tuple[Sequence[str], Generator[Any, Any, Any]]


class _PrefixCursor:
    """The loop over p_1, p_2, ... that sums theta and ``kinds``, advanced by :meth:`to`.

    A row is an index's exact ints in units of ``1/SUM_SCALE``: theta's sum
    and radius, then each kind's.
    """

    def __init__(self, table: PrimeTable, kinds: Sequence[str]):
        self.count = table.count
        self.primes = iter(table.primes)
        self.terms = [(2 * i, *TERMS[kind], kind) for i, kind in enumerate(kinds)]  # offset in sums, num, den, kind
        self.done = self.theta = self.theta_radius = 0
        self.sums = [0] * (2 * len(kinds))
        self.kept: list[tuple[int, ...]] = []  # the rows of the indices first, first + 1, ..., below done
        self.first = 0
        self.pairs = range(0, len(self.sums), 2)
        self.balls: tuple[Ball, list[Ball]] | None = None  # (theta, totals) at done, once built

    def to(self, n: int, keep_from: int | None = None) -> None:
        """Sum through p_n (n not below the current index), keeping the rows from ``keep_from`` on, below n."""
        done = self.done
        if n == done:
            return
        if not done <= n <= self.count:
            raise RangeError(f"prefix pass: index {n} outside [{done}, {self.count}]")
        kept = self.kept
        if keep_from is None or keep_from >= n:
            if kept:
                kept.clear()
            self._sum(n - done)
        else:
            del kept[: max(0, keep_from - self.first)]
            if keep_from <= done:
                kept.append((self.theta, self.theta_radius, *self.sums))
            lo = max(keep_from, done + 1)
            self.first = lo - len(kept)
            self._sum(lo - 1 - done)
            self._sum(n - lo, kept.append)
            self._sum(1)
        self.done, self.balls = n, None

    def _sum(self, count: int, keep: Callable | None = None) -> None:
        """Add the terms of the next ``count`` primes, handing ``keep`` the row after each."""
        theta, theta_radius, sums, terms = self.theta, self.theta_radius, self.sums, self.terms
        for p in islice(self.primes, count):
            lp = log(p)
            scaled = lp * SUM_SCALE
            if not scaled.is_integer():
                raise _unscaled("theta", p, lp)
            theta += int(scaled)
            theta_radius += ceil(2.0 * ulp(lp) * SUM_SCALE)
            for j, num, den, kind in terms:
                x = num / den(p)
                v, r = log1p_ball((x, ulp(x)))
                scaled = v * SUM_SCALE
                if not scaled.is_integer():
                    raise _unscaled(kind, p, v)
                sums[j] += int(scaled)
                sums[j + 1] += ceil(r * SUM_SCALE)
            if keep is not None:
                keep((theta, theta_radius, *sums))
        self.theta, self.theta_radius = theta, theta_radius

    def current(self) -> tuple[Ball, list[Ball]]:
        """``(theta, totals)`` at the current index, built once for all its readers."""
        if self.balls is None:
            sums = self.sums
            self.balls = sum_ball(self.theta, self.theta_radius), [sum_ball(sums[j], sums[j + 1]) for j in self.pairs]
        return self.balls

    def read(self, m: int, picks: Sequence[int]) -> tuple[Ball, list[Ball]]:
        """``(theta, totals)`` at index m, the current index or a kept one, for the kinds at positions ``picks``."""
        if m == self.done:
            theta, totals = self.current()
            return theta, [totals[k] for k in picks]
        if not 0 <= m - self.first < len(self.kept):
            raise RangeError(f"prefix pass: index {m} is not kept (at {self.done})")
        row = self.kept[m - self.first]
        return sum_ball(row[0], row[1]), [sum_ball(row[2 + 2 * k], row[3 + 2 * k]) for k in picks]


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
        cursor.to(n)
        yield n, *cursor.current()


class _Window:
    """A reader of :func:`serve`: its generator, its kinds' places in the pass and the indices it may read now."""

    def __init__(self, cursor: _PrefixCursor, kinds: Sequence[str], own: Sequence[str], gen):
        self.cursor, self.gen = cursor, gen
        self.picks = [kinds.index(kind) for kind in own]
        self.lo = self.hi = 0  # the window

    def at(self, m: int) -> tuple[Ball, list[Ball]]:
        """``(theta, totals)`` of the reader's kinds at index m of its window, up to the cursor."""
        if not self.lo <= m <= min(self.hi, self.cursor.done):
            raise RangeError(f"serve: index {m} outside the window {self.lo}..{self.hi} (pass at {self.cursor.done})")
        return self.cursor.read(m, self.picks)


def serve(table: PrimeTable, readers: Sequence[Reader]) -> list:
    """Run one prefix pass for every reader; return what each one returns, in order.

    A reader is a ``(kinds, generator)`` pair.  The generator yields, in
    ascending order, only what it must see, each yield one of two kinds:

    * an index n: it is sent an accessor ``at``, and ``at(n)`` gives
      ``(theta, totals)`` for its own kinds at n, bit for bit what
      ``prefix_sums(table, kinds, ...)`` gives;
    * a ``range`` of indices: it is sent ``at`` when the pass reaches the
      last, and ``at(m)`` reads any m of the range.

    ``at`` raises :class:`RangeError` outside the reader's last yield.  The
    pass sums the union of the readers' kinds, in :data:`TERMS` order, keeps
    an index's exact ints only while a yielded range holds it, and builds an
    index's balls once for all its readers.  Readers due at one index are
    sent it in their order in ``readers``.  A yield that steps back, passes
    the table or is an empty range raises :class:`RangeError`; a reader's
    exception propagates.
    """
    kinds = tuple(kind for kind in TERMS if any(kind in own for own, _ in readers))
    cursor = _PrefixCursor(table, kinds)
    results: list = [None] * len(readers)
    due: list = []  # heap of (last index of the window, position in readers, _Window)

    def step(i: int, reader: _Window, sent) -> None:
        try:
            got = reader.gen.send(sent)
        except StopIteration as stop:
            results[i] = stop.value
            return
        lo, hi = (got, got) if isinstance(got, int) else (got.start, got.stop - 1)
        for m in (lo, hi):
            if not cursor.done <= m <= cursor.count:
                raise RangeError(f"prefix pass: index {m} outside [{cursor.done}, {cursor.count}]")
        if hi < lo:
            raise RangeError(f"serve: an empty window {got}")
        reader.lo, reader.hi = lo, hi
        heappush(due, (hi, i, reader))

    for i, (own, gen) in enumerate(readers):
        step(i, _Window(cursor, kinds, own, gen), None)
    while due:
        n, i, reader = heappop(due)
        if n != cursor.done:
            cursor.to(n, min([reader.lo, *(other.lo for _, _, other in due)]))
        step(i, reader, reader.at)
    return results


class PrimorialPoint(NamedTuple):
    """Certified snapshot of the primorial of index n (n >= 2).

    The ``*_ball`` fields are ``(value, radius)`` pairs: ``theta_ball`` is
    the pass's theta(p_n), ``log_theta_ball`` encloses log theta(p_n) =
    log log N_n, ``ratio_ball`` and ``g_ball`` are the lhs of the rows
    ``bounds.LOWER`` and ``bounds.DUAL``, and ``margin_ball`` encloses
    R(N_n) - e^gamma/zeta(2).  ``g_ball`` is None at n = 2, where p_n < 5
    puts g outside its domain.
    """

    n: int
    p: int
    theta_ball: Ball
    log_theta_ball: Ball
    ratio_ball: Ball
    g_ball: Ball | None
    margin_ball: Ball


def points_at(table: PrimeTable, indices: Iterable[int]) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints at the ascending ``indices`` (each >= 2), from the pass's theta, plus and inv."""
    from .bounds import _BALL, DUAL, LOWER  # bounds imports this module

    primes, lower, dual = table.primes, LOWER.sides, DUAL.sides
    for n, theta, (plus, inv) in prefix_sums(table, POINT_KINDS, indices):
        if n < 2:
            raise RangeError(f"points_at: primorial points start at n = 2, got {n}")
        p = primes[n - 1]  # the pass checked n against the table
        loglog = log_ball(theta)
        ratio, limit = lower(_BALL, p, loglog, plus)
        g = dual(_BALL, p, loglog, inv)[0] if p >= MIN_CRITERION_X else None
        yield PrimorialPoint._make((n, p, theta, loglog, ratio, g, sub_ball(ratio, limit)))


def stream_points(table: PrimeTable, n_max: int) -> Iterator[PrimorialPoint]:
    """Yield PrimorialPoints for n = 2 .. n_max, O(1) work per step."""
    if n_max > table.count:
        raise RangeError(f"stream_points: n_max={n_max} beyond table ({table.count} primes)")
    if n_max < 2:
        raise RangeError(f"stream_points: n_max={n_max} below stream start 2")
    yield from points_at(table, range(2, n_max + 1))
