"""Checkable analytic bounds on Euler products over primes.

Each bound is one :class:`Bound` row: its orientation, the smallest
primorial index it is evaluated at, the prefix-sum kinds it needs from
:func:`series.prefix_sums`, and one sides formula.  The formula is written
once, against the named operations and constants of an arithmetic ``A``:
:data:`_BALL` names the ball kernels of ``numerics``, which take and return
``(value, radius)`` pairs, and :func:`_interval_arithmetic` names the mpmath
interval operations.  A point evaluator returns a :class:`BoundReport` from
one prefix pass that stops at the point.  One :func:`series.serve` reader,
:func:`_read_bound`, decides a row at the indices it is given and books each
in a :class:`BoundScan`, building no object per point; a range scan is that
reader at the indices of :func:`stride_indices`: every index up to
:data:`DENSE_UNTIL`, then steps of ratio :data:`STRIDE_RATIO`.  The code, not
the caller, picks them.

The reader decides a row by brackets.  theta(p_n), p_n and every prefix sum
are monotone in n, so at each index of a run the atoms lie in the hulls of
their balls at the run's two ends, and the ball kernels enclose.  So the
sides evaluated once on those hulls, in the arithmetic :data:`_HULL`,
enclose the row at every index of the run, and a HOLDS there proves them
all.  A hull that is not HOLDS is bisected down to points decided alone on
their own balls, as are the first and last index and the index that ends
each run.  The rows of :data:`BOUNDS`:

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
``inv`` sums, and :data:`UPPER` R(N_n) < e^gamma (n >= 4).  An INCONCLUSIVE
point is retried at 113-bit precision (about 34 digits) by
:func:`_interval_sides`, the interval arithmetic path, which re-decides any row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable

from .errors import DomainError, RangeError
from .numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    EULER_GAMMA,
    ZETA2,
    Ball,
    CertifiedValue,
    Verdict,
    VerdictStatus,
    add_ball,
    ball_endpoints,
    ball_status,
    compare,
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
from .series import TERMS, Reader, prefix_sums, serve

__all__ = [
    "BOUNDS",
    "BOUND_NAMES",
    "DUAL",
    "LOWER",
    "UPPER",
    "Bound",
    "BoundReport",
    "BoundScan",
    "BRACKET_MAX",
    "DENSE_UNTIL",
    "STRIDE_RATIO",
    "rosser_schoenfeld_bound",
    "zeta_tail_bound",
    "primorial_psi_bound",
    "threshold_condition",
    "robin_log_bound",
    "criterion_gap_bound",
    "scan_bound",
    "bound_reader",
    "stride_indices",
]

ESCALATION_PREC_BITS = 113

FIRST_INDEX_AT_20000 = 2263  # p_2263 is the first prime >= 20000

# a range scan evaluates every index up to DENSE_UNTIL, and geometric steps of STRIDE_RATIO beyond
DENSE_UNTIL = 10**4
STRIDE_RATIO = 1.01

# the widest run of indices one hull decides (see _read_bound); the reader buffers that many balls
BRACKET_MAX = 2**10

# read once per point, so bound once here: a module global is cheaper than an Enum member lookup
_HOLDS = VerdictStatus.HOLDS
_FAILS = VerdictStatus.FAILS
_INCONCLUSIVE = VerdictStatus.INCONCLUSIVE


@dataclass(frozen=True, slots=True)
class BoundReport:
    """One bound evaluated at one point, with its certified verdict."""

    bound: str
    at: int  # primorial index n, or x for the x-parameterized bounds
    lhs: CertifiedValue
    rhs: CertifiedValue
    verdict: Verdict

    @property
    def slack(self) -> float:
        """Conservative distance from violating the claim (positive = safe)."""
        return _slack(BOUNDS[self.bound].claim, self.verdict.margin.ball)


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
# sides: (A, x, theta, *prefix sums) -> (lhs, rhs), written once for both
# arithmetics.  A is _BALL or _interval_arithmetic(); x = p_n for the index
# bounds; theta = theta(p_n) = log N_n.  A.exact takes a number that binary64
# holds exactly.
# ---------------------------------------------------------------------------


def _rs_sides(A, x, theta, s_phi):
    logx = A.log(A.integer(x))
    return A.exp(A.neg(s_phi)), A.mul(A.e_gamma, A.add(logx, A.div(A.exact(1.0), logx)))


def _zeta_tail_sides(A, p, theta, s_sq):
    return A.mul(A.zeta2, A.exp(s_sq)), A.exp(A.ratio(2, p))


def _psi_bound_sides(A, p, theta, s_plus):
    inner = A.add(A.log(theta), A.div(A.exact(1.125), A.log(A.integer(p))))
    return A.exp(s_plus), A.mul(A.div(A.exp(A.add(A.gamma, A.ratio(2, p))), A.zeta2), inner)


def _threshold_sides(A, p, theta):
    bump = A.div(A.exact(1.125), A.mul(A.log(A.integer(p)), A.log(theta)))
    return A.mul(A.exp(A.ratio(2, p)), A.add(A.exact(1.0), bump)), A.zeta2


def _robin_sides(A, p, theta):
    logp = A.log(A.integer(p))
    return logp, A.add(A.log(theta), A.div(A.exact(0.125), logp))


def _gap_sides(A, x, theta, s_inv, s_phi):
    log_loglog = A.log(A.log(theta))
    lhs = A.add(A.add(A.log(A.e_gamma_over_zeta2), log_loglog), s_inv)
    rhs = A.add(A.add(A.add(A.log(A.e_gamma), log_loglog), s_phi), A.ratio(-2, x))
    return lhs, rhs


def _lower_sides(A, p, theta, s_plus):
    return A.div(A.exp(s_plus), A.log(theta)), A.e_gamma_over_zeta2


def _dual_sides(A, p, theta, s_inv):
    return A.mul(A.mul(A.e_gamma_over_zeta2, A.log(theta)), A.exp(s_inv)), A.exact(1.0)


def _upper_sides(A, p, theta, s_plus):
    return A.div(A.exp(s_plus), A.log(theta)), A.e_gamma


_BALL = SimpleNamespace(
    add=add_ball, mul=mul_ball, div=div_ball, neg=neg_ball, exp=exp_ball, log=log_ball,
    exact=exact_ball, integer=int_ball, ratio=ratio_ball,
    gamma=EULER_GAMMA.ball, e_gamma=E_GAMMA.ball, zeta2=ZETA2.ball,
    e_gamma_over_zeta2=E_GAMMA_OVER_ZETA2.ball,
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
        exact=ctx.mpf, integer=ctx.mpf, ratio=lambda num, den: ctx.mpf(num) / den,
        gamma=gamma, e_gamma=ctx.exp(gamma), zeta2=zeta2,
        e_gamma_over_zeta2=ctx.exp(gamma) / zeta2,
    )


@dataclass(frozen=True)
class Bound:
    """How one bound is evaluated: ``lhs claim rhs`` at index n >= start."""

    claim: str  # orientation, read as lhs CLAIM rhs
    start: int  # smallest primorial index the bound is evaluated at
    sums: tuple[str, ...]  # prefix-sum kinds passed to ``sides`` after (A, x, theta)
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


def _point(table: PrimeTable, name: str, at: int) -> BoundReport:
    """Evaluate one bound at x (x-parameterized, x need not be prime) or at index n."""
    bound = BOUNDS[name]
    if bound.at_x:
        n, x = table.prime_count(at), at
        if n < bound.start:
            raise DomainError(f"{name}: needs x >= p_{bound.start}, got {at}")
    else:
        n = at
        if n < bound.start:
            raise DomainError(f"{name}: needs n >= {bound.start}, got n={n}")
        if n > table.count:
            raise RangeError(f"{name}: n={n} beyond table ({table.count} primes)")
        x = table.nth_prime(n)
    _, theta, sums = next(prefix_sums(table, bound.sums, (n,)))
    lhs, rhs = (CertifiedValue(*side) for side in bound.sides(_BALL, x, theta, *sums))
    return BoundReport(name, at, lhs, rhs, compare(lhs, rhs, bound.claim))


def rosser_schoenfeld_bound(table: PrimeTable, x: int) -> BoundReport:
    """Partial Euler product against e^gamma (log x + 1/log x), for x >= 2."""
    return _point(table, "rs-product", x)


def zeta_tail_bound(table: PrimeTable, n: int) -> BoundReport:
    """zeta(2) prod_{p<=p_n} (1-1/p^2) against exp(2/p_n), for n >= 2."""
    return _point(table, "zeta-tail", n)


def primorial_psi_bound(table: PrimeTable, n: int) -> BoundReport:
    """psi(N_n)/N_n against the explicit Mertens-type bound, for n >= 2263.

    The hypothesis is p_n >= 20000, which starts at index 2263.
    """
    return _point(table, "psi-bound", n)


def threshold_condition(table: PrimeTable, n: int) -> BoundReport:
    """exp(2/p_n)(1 + 1.125/(log p_n log log N_n)) against zeta(2), n >= 2263."""
    return _point(table, "threshold", n)


def robin_log_bound(table: PrimeTable, n: int) -> BoundReport:
    """log p_n against log log N_n + 0.125/log p_n, for n >= 3.

    Holds for large n; where it begins to hold is reported by scans, not
    assumed.
    """
    return _point(table, "robin-log", n)


def criterion_gap_bound(table: PrimeTable, x: int) -> BoundReport:
    """log g(x) against log f(x) - 2/x, for x >= 5 (x need not be prime)."""
    return _point(table, "criterion-gap", x)


def stride_indices(start: int, stop: int) -> Iterable[int]:
    """Deterministic evaluation points: dense to DENSE_UNTIL, then geometric, always stop."""
    if start > stop:
        return
    n = start
    while True:
        yield n
        if n >= stop:
            return
        if n < DENSE_UNTIL:
            n += 1
        else:
            grown = n * STRIDE_RATIO  # a float, infinite for a huge ratio
            n = stop if grown >= stop else max(n + 1, int(grown))


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


def _read_bound(table: PrimeTable, bound: Bound, scan: BoundScan, indices: Iterable[int]):
    """The :func:`series.serve` generator that decides ``bound`` at the ascending ``indices``.

    It decides the row by brackets and returns ``scan``.  It buffers the
    ``(n, theta, sums)`` it is sent; when ``width`` are buffered, the next
    index ends the run.  :func:`_bracket` decides the run on the hulls of
    its end atoms: theta(p_n), p_n and every prefix sum are monotone in n,
    and the ball kernels enclose, so a hull that HOLDS proves the row at
    every index of the run.  :func:`_decide` decides the index that ends
    each run alone, and the first and the last index.  A held bracket
    doubles the width, up to :data:`BRACKET_MAX`, and a failed one halves
    it; below two, the row decides a stretch of points alone, which doubles
    while its hulls keep failing, and then brackets again.
    """
    run: list = []  # the (n, theta, sums) buffered since the last point decided alone
    width, alone, stretch = 2, 1, 1  # the next bracket's width; points left to decide alone first
    for n in indices:
        theta, sums = yield n
        if alone:
            alone -= 1
        elif len(run) < width:
            run.append((n, theta, sums))
            continue
        elif _bracket(table, bound, scan, run):
            width, stretch = min(2 * width, BRACKET_MAX), 1
        elif width > 2:
            width //= 2
        else:
            width, alone, stretch = 2, stretch, 2 * stretch
        run = []
        _decide(table, bound, scan, n, theta, sums)
    if run:  # the indices ended inside a run: its last index is decided alone
        _bracket(table, bound, scan, run[:-1])
        _decide(table, bound, scan, *run[-1])
    return scan


def _decide(table: PrimeTable, bound: Bound, scan: BoundScan, n: int, theta: Ball, sums: list[Ball]) -> None:
    """Decide ``bound`` at index n alone, re-deciding an INCONCLUSIVE point on the 113-bit path; book it in ``scan``."""
    x = table.nth_prime(n)
    margin = sub_ball(*bound.sides(_BALL, x, theta, *sums))
    status = ball_status(margin, bound.claim)
    escalated = status is _INCONCLUSIVE
    if escalated:
        margin = sub_ball(*_interval_sides(table, bound, n))
        status = ball_status(margin, bound.claim)
    scan.record(x if bound.at_x else n, status, _slack(bound.claim, margin), escalated)


def _bracket(table: PrimeTable, bound: Bound, scan: BoundScan, run: list) -> bool:
    """Book the buffered ``run`` in ``scan`` and return whether the hull of its ends HOLDS.

    A hull that HOLDS books every index of the run as held.  A hull that
    does not, or that a kernel rejects with :class:`DomainError`, is
    bisected over the buffered balls, down to points decided alone.
    """
    if len(run) < 2:
        for point in run:
            _decide(table, bound, scan, *point)
        return False
    (a, theta_a, sums_a), (b, theta_b, sums_b) = run[0], run[-1]
    x = table.nth_prime(a), table.nth_prime(b)
    try:
        margin = sub_ball(*bound.sides(_HULL, x, hull_ball(theta_a, theta_b), *map(hull_ball, sums_a, sums_b)))
        held = ball_status(margin, bound.claim) is _HOLDS
    except DomainError:  # a hull wider than a kernel's domain proves nothing
        held = False
    if held:
        scan.holds += len(run)
    else:
        half = len(run) // 2
        _bracket(table, bound, scan, run[:half])
        _bracket(table, bound, scan, run[half:])
    return held


def _interval_sides(table: PrimeTable, bound: Bound, n: int):
    """Recompute the sides of the row ``bound`` at index n in outward-rounded intervals, as balls.

    theta and the row's prefix sums are summed again from p_1 at
    :data:`ESCALATION_PREC_BITS`, and nothing is shared between points or
    rows: about 90 us per prime, so about 90 s per escalated row at
    n = 10^6.  An escalated ``lower`` point re-decides ``LOWER`` and
    ``DUAL``, two passes: about 180 s at 10^6.  No run so far has escalated.
    """
    A = _interval_arithmetic(ESCALATION_PREC_BITS)
    primes = table.primes[:n]
    theta = sum((A.log(A.integer(p)) for p in primes), A.integer(0))
    sums = []
    for kind in bound.sums:
        num, den = TERMS[kind]
        sums.append(sum((A.log(1 + A.ratio(num, den(p))) for p in primes), A.integer(0)))
    lhs, rhs = bound.sides(A, table.nth_prime(n), theta, *sums)
    return from_mp_interval(lhs), from_mp_interval(rhs)
