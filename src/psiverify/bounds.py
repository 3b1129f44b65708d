"""Checkable analytic bounds on Euler products over primes.

Each bound is one :class:`Bound` row: its orientation, the smallest
primorial index it is evaluated at, the prefix-sum kinds it needs from
:func:`series.prefix_sums`, and one sides formula.  The formula is written
once, against the named operations and constants of an arithmetic ``A``:
:data:`_BALL` names the ball kernels of ``numerics``, which take and return
``(value, radius)`` pairs, and :func:`_interval_arithmetic` names the mpmath
interval operations.  A formula reads theta(p_n) = log N_n only through its
log, log log N_n, which its caller takes once and passes in; so the
primorial points of ``series`` are the sides of :data:`LOWER` and
:data:`DUAL`.  One :func:`series.serve` reader, :func:`_read_bound`, is the
only code that decides a row: it decides the row at the indices it is
given and books each in a :class:`BoundScan`, building no object per
point; :func:`_decide`, which it calls, decides and escalates every point
that a ball decides in any prefix claim.  A range scan is that reader at
the indices of :func:`stride_indices`: every index up to
:data:`DENSE_UNTIL`, then steps of ratio :data:`STRIDE_RATIO`.  The code,
not the caller, picks them; a bound at one index n is the scan
``scan_bound(table, name, n, n)``.  A claim with several rows
(``lower``'s ``LOWER`` and ``DUAL``; ``upper``'s (b), the ``UPPER`` row, and
(c), the ``threshold`` row) is one such reader per row, each served its own
sums and its own indices, and a finish over the scans they return.

The reader decides a row by brackets.  theta(p_n), p_n and every prefix sum
are monotone in n, so at each index of a run the atoms lie in the hulls of
their balls at the run's two ends, and the ball kernels enclose.  So the
sides evaluated once on those hulls, with log log N_n the log of theta's
hull, in the arithmetic :data:`_HULL`, enclose the row at every index of
the run, and a HOLDS there proves them all.  A hull that is not HOLDS is
bisected down to points decided alone on their own balls, as are the first
and last index and the index that ends each run.  So the reader reads only
those points and the ends of its hulls, and no index inside a held run is
built into balls.  The rows of :data:`BOUNDS`:

* ``rs-product``     prod_{p<=x} (1-1/p)^(-1)  <=  e^gamma (log x + 1/log x)   (x >= 2)
* ``zeta-tail``      zeta(2) prod_{p<=p_n} (1-1/p^2)  <=  exp(2/p_n)           (n >= 2)
* ``psi-bound``      prod_{k<=n} (1+1/p_k)  <=  exp(gamma + 2/p_n)/zeta(2)
                     * (log log N_n + 1.125/log p_n)                           (n >= 2263)
* ``threshold``      exp(2/p_n) (1 + 1.125/(log p_n log log N_n)) <= zeta(2)   (n >= 2263)
* ``robin-log``      log p_n  <  log log N_n + 0.125/log p_n                   (validity
                     start not asserted; scans report it empirically)
* ``criterion-gap``  log g(x) >= log f(x) - 2/x                                (x >= 5)

The claims' rows, not scannable bounds: :data:`LOWER` R(N_n) > e^gamma/zeta(2)
and :data:`DUAL` g(p_n) < 1 (n >= 3), one criterion from the ``plus`` and the
``inv`` sums, and :data:`UPPER` R(N_n) < e^gamma (n >= 4).  Every row
re-decides its own INCONCLUSIVE point at 113-bit precision (about 34
digits) by :func:`_interval_sides`, the interval arithmetic path; a ball
FAILS is certified and is not re-decided.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from .errors import DomainError, RangeError
from .numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    EULER_GAMMA,
    ZETA2,
    Ball,
    VerdictStatus,
    add_ball,
    ball_endpoints,
    ball_status,
    div_ball,
    exact_ball,
    exp_ball,
    from_mp_interval,
    hull_ball,
    int_ball,
    log_ball,
    mul_ball,
    neg_ball,
    ratio_ball,
    sub_ball,
)
from .primes import PrimeTable
from .series import TERMS, Reader, serve

__all__ = [
    "BOUNDS",
    "BOUND_NAMES",
    "DUAL",
    "LOWER",
    "UPPER",
    "Bound",
    "BoundScan",
    "BRACKET_MAX",
    "DENSE_UNTIL",
    "STRIDE_RATIO",
    "scan_bound",
    "bound_reader",
    "stride_indices",
]

ESCALATION_PREC_BITS = 113

FIRST_INDEX_AT_20000 = 2263  # p_2263 is the first prime >= 20000

# a range scan evaluates every index up to DENSE_UNTIL, and geometric steps of STRIDE_RATIO beyond
DENSE_UNTIL = 10**4
STRIDE_RATIO = 1.01

# the widest run of indices one hull decides (see _read_bound); the pass keeps the exact ints of that
# many indices while the run is open, and a run across stride gaps keeps that many balls
BRACKET_MAX = 2**10

# read once per point, so bound once here: a module global is cheaper than an Enum member lookup
_HOLDS = VerdictStatus.HOLDS
_FAILS = VerdictStatus.FAILS
_INCONCLUSIVE = VerdictStatus.INCONCLUSIVE


def _slack(claim: str, margin: Ball) -> float:
    """Conservative distance of the margin ``lhs - rhs`` from violating ``claim`` (positive = safe)."""
    lo, hi = ball_endpoints(margin)
    return -hi if claim in ("<", "<=") else lo


def _stride() -> dict:
    """The stride of every range scan, as the reports write it."""
    return {"dense_until": DENSE_UNTIL, "ratio": STRIDE_RATIO}


@dataclass
class BoundScan:
    """The worst margin, the failures and the escalations of one row over its indices.

    ``holds`` (``verdicts.holds``, and so ``points_checked``) counts the
    indices proven, alone or inside a held bracket (see :func:`_read_bound`).
    ``worst_slack``, ``worst_at``, ``escalated_at``, ``fails``,
    ``inconclusive`` and ``failed_at`` come from the points decided alone.
    ``margins`` holds the margin balls at the indices the reader was told
    to keep, and is not part of the report.
    """

    bound: str
    start: int
    stop: int
    holds: int = 0
    fails: int = 0
    inconclusive: int = 0
    worst_slack: float = math.inf
    worst_at: int | None = None
    escalated_at: list[int] = field(default_factory=list)
    failed_at: list[int] = field(default_factory=list)
    margins: dict[int, Ball] = field(default_factory=dict)

    def record(self, at: int, status: VerdictStatus, slack: float, escalated: bool) -> None:
        """Count one evaluated point: its status, its slack and whether it escalated."""
        if status is _HOLDS:
            self.holds += 1
        elif status is _FAILS:
            self.fails += 1
            self.failed_at.append(at)
        else:
            self.inconclusive += 1
            self.failed_at.append(at)
        if escalated:
            self.escalated_at.append(at)
        if slack < self.worst_slack:
            self.worst_slack = slack
            self.worst_at = at

    @property
    def points_checked(self) -> int:
        return self.holds + self.fails + self.inconclusive

    @property
    def all_hold(self) -> bool:
        return self.fails == 0 and self.inconclusive == 0 and self.points_checked > 0

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "range": [self.start, self.stop],
            "stride": _stride(),
            "points_checked": self.points_checked,
            "worst_margin": self.worst_slack,
            "worst_at": self.worst_at,
            "verdicts": {
                "holds": self.holds,
                "inconclusive": self.inconclusive,
                "fails": self.fails,
            },
            "escalated_at": self.escalated_at,
        }


# ---------------------------------------------------------------------------
# sides: (A, x, loglog, *prefix sums) -> (lhs, rhs), written once for both
# arithmetics.  A is _BALL or _interval_arithmetic(); x = p_n for the index
# bounds; loglog = log theta(p_n) = log log N_n, taken once by the caller.
# A.exact takes a number that binary64 holds exactly, and A.one is 1.
# ---------------------------------------------------------------------------


def _rs_sides(A, x, loglog, s_phi):
    logx = A.log(A.integer(x))
    return A.exp(A.neg(s_phi)), A.mul(A.e_gamma, A.add(logx, A.div(A.one, logx)))


def _zeta_tail_sides(A, p, loglog, s_sq):
    return A.mul(A.zeta2, A.exp(s_sq)), A.exp(A.ratio(2, p))


def _psi_bound_sides(A, p, loglog, s_plus):
    inner = A.add(loglog, A.div(A.exact(1.125), A.log(A.integer(p))))
    return A.exp(s_plus), A.mul(A.div(A.exp(A.add(A.gamma, A.ratio(2, p))), A.zeta2), inner)


def _threshold_sides(A, p, loglog):
    bump = A.div(A.exact(1.125), A.mul(A.log(A.integer(p)), loglog))
    return A.mul(A.exp(A.ratio(2, p)), A.add(A.one, bump)), A.zeta2


def _robin_sides(A, p, loglog):
    logp = A.log(A.integer(p))
    return logp, A.add(loglog, A.div(A.exact(0.125), logp))


def _gap_sides(A, x, loglog, s_inv, s_phi):
    log_loglog = A.log(loglog)
    lhs = A.add(A.add(A.log(A.e_gamma_over_zeta2), log_loglog), s_inv)
    rhs = A.add(A.add(A.add(A.log(A.e_gamma), log_loglog), s_phi), A.ratio(-2, x))
    return lhs, rhs


def _lower_sides(A, p, loglog, s_plus):
    return A.div(A.exp(s_plus), loglog), A.e_gamma_over_zeta2


def _dual_sides(A, p, loglog, s_inv):
    return A.mul(A.mul(A.e_gamma_over_zeta2, loglog), A.exp(s_inv)), A.one


def _upper_sides(A, p, loglog, s_plus):
    return A.div(A.exp(s_plus), loglog), A.e_gamma


_BALL = SimpleNamespace(
    add=add_ball, mul=mul_ball, div=div_ball, neg=neg_ball, exp=exp_ball, log=log_ball,
    exact=exact_ball, integer=int_ball, ratio=ratio_ball, one=(1.0, 0.0),
    gamma=EULER_GAMMA, e_gamma=E_GAMMA, zeta2=ZETA2, e_gamma_over_zeta2=E_GAMMA_OVER_ZETA2,
)

# _BALL on the hulls of a run's end atoms: x is the pair (p_a, p_b) of its end primes, and
# num/p is monotone in p, so the hull of the two ends' balls holds it at every p between them
_HULL = SimpleNamespace(**{
    **vars(_BALL),
    "integer": lambda x: hull_ball(int_ball(x[0]), int_ball(x[1])),
    "ratio": lambda num, x: hull_ball(ratio_ball(num, x[0]), ratio_ball(num, x[1])),
})


def _interval_arithmetic(prec: int) -> SimpleNamespace:
    """Outward-rounded mpmath intervals at ``prec`` bits, with the names of _BALL.

    mpmath is imported here, on the escalation path, and not by a run that never escalates.
    """
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = prec
    gamma = +ctx.euler
    zeta2 = ctx.pi**2 / 6
    return SimpleNamespace(
        add=operator.add, mul=operator.mul, div=operator.truediv, neg=operator.neg, exp=ctx.exp, log=ctx.log,
        exact=ctx.mpf, integer=ctx.mpf, ratio=lambda num, den: ctx.mpf(num) / den, one=ctx.mpf(1),
        gamma=gamma, e_gamma=ctx.exp(gamma), zeta2=zeta2,
        e_gamma_over_zeta2=ctx.exp(gamma) / zeta2,
    )


@dataclass(frozen=True)
class Bound:
    """How one bound is evaluated: ``lhs claim rhs`` at index n >= start."""

    claim: str  # orientation, read as lhs CLAIM rhs
    start: int  # smallest primorial index the bound is evaluated at
    sums: tuple[str, ...]  # prefix-sum kinds passed to ``sides`` after (A, x, loglog)
    at_x: bool  # parameterized by x (reported at x = p_n) rather than by n
    sides: Callable


BOUNDS: dict[str, Bound] = {
    "rs-product": Bound("<=", 1, ("phi",), True, _rs_sides),
    "zeta-tail": Bound("<=", 2, ("sq",), False, _zeta_tail_sides),
    "psi-bound": Bound("<=", FIRST_INDEX_AT_20000, ("plus",), False, _psi_bound_sides),
    "threshold": Bound("<=", FIRST_INDEX_AT_20000, (), False, _threshold_sides),
    "robin-log": Bound("<", 3, (), False, _robin_sides),
    "criterion-gap": Bound(">=", 3, ("inv", "phi"), True, _gap_sides),
}

BOUND_NAMES = tuple(BOUNDS)

# the rows of the lower and upper claims (see the module docstring)
LOWER = Bound(">", 3, ("plus",), False, _lower_sides)
DUAL = Bound("<", 3, ("inv",), False, _dual_sides)
UPPER = Bound("<", 4, ("plus",), False, _upper_sides)


class _Stride(Sequence):
    """The indices of :func:`stride_indices`: a dense range, then the geometric steps as a list."""

    def __init__(self, dense: range, steps: list[int]):
        self.dense, self.steps = dense, steps

    def __len__(self) -> int:
        return len(self.dense) + len(self.steps)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += len(self)
        return self.dense[i] if i < len(self.dense) else self.steps[i - len(self.dense)]


def stride_indices(start: int, stop: int) -> Sequence[int]:
    """Deterministic evaluation points: dense to DENSE_UNTIL, then geometric, always stop."""
    if start > stop:
        return range(0)
    dense = range(start, max(start, min(stop, DENSE_UNTIL)) + 1)
    steps, n = [], dense[-1]
    while n < stop:
        grown = n * STRIDE_RATIO  # a float, infinite for a huge ratio
        n = stop if grown >= stop else max(n + 1, int(grown))
        steps.append(n)
    return _Stride(dense, steps)


def scan_bound(table: PrimeTable, name: str, start: int, stop: int) -> BoundScan:
    """Evaluate one bound over [start, stop] in a single streaming pass.

    ``start``/``stop`` are primorial indices n (the x-parameterized bounds
    are evaluated at x = p_n) at the indices of :func:`stride_indices`.  An
    INCONCLUSIVE point is retried on the 113-bit interval path.
    """
    return serve(table, [bound_reader(table, name, start, stop)])[0]


def bound_reader(table: PrimeTable, name: str, start: int, stop: int) -> Reader:
    """:func:`scan_bound` as a :func:`series.serve` reader; checks its arguments before any pass runs."""
    if name not in BOUNDS:
        raise ValueError(f"unknown bound {name!r}; known: {', '.join(BOUND_NAMES)}")
    bound = BOUNDS[name]
    if start < bound.start:
        raise DomainError(f"{name}: scan must start at n >= {bound.start}, got {start}")
    if stop < start:
        raise RangeError(f"scan_bound: empty range [{start}, {stop}]")
    if stop > table.count:
        raise RangeError(f"scan_bound: stop={stop} beyond table ({table.count} primes)")
    scan = BoundScan(bound=name, start=start, stop=stop)
    return bound.sums, _read_bound(table, bound, scan, stride_indices(start, stop))


def _read_bound(table: PrimeTable, bound: Bound, scan: BoundScan, indices: Sequence[int], keep=()):
    """The :func:`series.serve` reader that decides ``bound`` at the ascending ``indices``.

    It decides the row by brackets and returns ``scan``.  It walks
    ``indices`` by position: when ``width`` indices follow the last point
    decided alone, the next one ends their run.  :func:`_bracket` decides the
    run on the hulls of its end atoms: theta(p_n), p_n and every prefix sum
    are monotone in n, and the ball kernels enclose, so a hull that HOLDS
    proves the row at every index of the run.  :func:`_decide` decides the
    index that ends each run alone, and the first and the last index.  A
    held bracket doubles the width, up to :data:`BRACKET_MAX`, and a failed
    one halves it; below two, the row decides a stretch of points alone,
    which doubles while its hulls keep failing, and then brackets again.  An
    index in ``keep`` ends the current run too, and its margin ball goes to
    ``scan.margins``.

    It yields a run of consecutive indices with its end as one range.
    Across a gap in ``indices`` (the stride, the checkpoints) it yields each
    member of the run and keeps its balls, so the pass keeps no index in
    between.
    """
    last = len(indices) - 1
    # the positions of the indices in keep, each of which ends a run
    stops = [i for i in (bisect_left(indices, k) for k in sorted(keep)) if i <= last and indices[i] in keep]
    width, alone, stretch = 2, 1, 1  # the next bracket's width; points left to decide alone first
    i = 0  # the position of the first index not yet decided
    while i <= last:
        if alone:
            alone -= 1
            end = i
            n = indices[end]
            at = yield n
        else:
            end = min(i + width, next((k for k in stops if k >= i), last + 1))
            tail = end > last  # the indices end inside the run: its last index is decided alone
            if tail:
                end = last
            n = indices[end]
            if n - indices[i] == end - i:  # no gap: the run and its end are one window
                at = yield range(indices[i], n + 1)
                run, point = range(indices[i], n), at
            else:
                run, balls = [indices[k] for k in range(i, end)], {}
                for m in run:
                    at = yield m
                    balls[m] = at(m)
                at = yield n
                point = balls.__getitem__
            held = _bracket(table, bound, scan, run, point)
            if tail:
                _decide(table, bound, scan, n, *at(n))
                break
            if held:
                width, stretch = min(2 * width, BRACKET_MAX), 1
            elif width > 2:
                width //= 2
            else:
                width, alone, stretch = 2, stretch, 2 * stretch
        margin = _decide(table, bound, scan, n, *at(n))
        if n in keep:
            scan.margins[n] = margin
        i = end + 1
    return scan


def _decide(table: PrimeTable, bound: Bound, scan: BoundScan, n: int, theta: Ball, sums: list[Ball]) -> Ball:
    """Decide ``bound`` at index n alone, re-deciding an INCONCLUSIVE point on the 113-bit path.

    The point is booked in ``scan``; the margin ball is returned.
    """
    x = table.nth_prime(n)
    margin = sub_ball(*bound.sides(_BALL, x, log_ball(theta), *sums))
    status = ball_status(margin, bound.claim)
    escalated = status is _INCONCLUSIVE
    if escalated:
        margin = sub_ball(*_interval_sides(table, bound, n))
        status = ball_status(margin, bound.claim)
    scan.record(x if bound.at_x else n, status, _slack(bound.claim, margin), escalated)
    return margin


def _bracket(table: PrimeTable, bound: Bound, scan: BoundScan, run: Sequence[int], point: Callable) -> bool:
    """Book the indices ``run`` in ``scan`` and return whether the hull of its ends HOLDS.

    ``point(n)`` gives ``(theta, sums)`` at each index n of the run.  A hull
    that HOLDS books every index of the run as held.  A hull that does not,
    or that a kernel rejects with :class:`DomainError`, is bisected down to
    points decided alone.
    """
    if len(run) < 2:
        for n in run:
            _decide(table, bound, scan, n, *point(n))
        return False
    a, b = run[0], run[-1]
    (theta_a, sums_a), (theta_b, sums_b) = point(a), point(b)
    x = table.nth_prime(a), table.nth_prime(b)
    try:
        loglog = log_ball(hull_ball(theta_a, theta_b))  # log is increasing: it holds log theta over the run
        margin = sub_ball(*bound.sides(_HULL, x, loglog, *map(hull_ball, sums_a, sums_b)))
        held = ball_status(margin, bound.claim) is _HOLDS
    except DomainError:  # a hull wider than a kernel's domain proves nothing
        held = False
    if held:
        scan.holds += len(run)
    else:
        half = len(run) // 2
        _bracket(table, bound, scan, run[:half], point)
        _bracket(table, bound, scan, run[half:], point)
    return held


def _interval_sides(table: PrimeTable, bound: Bound, n: int):
    """Recompute the sides of the row ``bound`` at index n in outward-rounded intervals, as balls.

    theta and the row's prefix sums are summed again from p_1 at
    :data:`ESCALATION_PREC_BITS`, and nothing is shared between points or
    rows: about 90 us per prime, so about 90 s per escalated row at
    n = 10^6.  Each row of ``lower`` re-decides its own INCONCLUSIVE point,
    one pass each.  No run so far has escalated.
    """
    A = _interval_arithmetic(ESCALATION_PREC_BITS)
    primes = table.primes[:n]
    theta = sum((A.log(A.integer(p)) for p in primes), A.integer(0))
    sums = []
    for kind in bound.sums:
        num, den = TERMS[kind]
        sums.append(sum((A.log(1 + A.ratio(num, den(p))) for p in primes), A.integer(0)))
    lhs, rhs = bound.sides(A, table.nth_prime(n), A.log(theta), *sums)
    return from_mp_interval(lhs), from_mp_interval(rhs)
