"""Ball arithmetic: a float value paired with a rigorous absolute-error radius.

A ball is one ``(value, radius)`` pair, :data:`Ball`: the exact real lies in
``[value - radius, value + radius]``.  All operations return enclosures: if
the inputs' intervals contain their exact reals, so does the output's.

Each operation is written once, as a float kernel that takes and returns
balls: :func:`add_ball`, :func:`sub_ball`, :func:`neg_ball`,
:func:`mul_ball`, :func:`div_ball`, :func:`log_ball`, :func:`log1p_ball`,
:func:`exp_ball`, :func:`log_int_ball` for the log of an exact integer of
any size, the exact inputs :func:`exact_ball`, :func:`int_ball` and
:func:`ratio_ball`, :func:`sum_ball` for an exact sum held as integer
multiples of ``1/SUM_SCALE``, :func:`hull_ball` for the hull of two balls,
and :func:`from_mp_interval` for an mpmath interval.  A kernel is the only
home of its value formula, its radius formula and its domain guard (it
raises :class:`DomainError`), and it checks its own output: a finite value
and a finite radius >= 0.  :func:`ball_endpoints` and :func:`ball_status`
decide on a ball: a comparison ``lhs CLAIM rhs`` is the
``ball_status(sub_ball(lhs, rhs), claim)`` of its margin.  The constants
are balls too.

Rigor assumptions, stated once and stress-tested in the suite:

* IEEE-754 binary64 arithmetic with round-to-nearest for ``+ - * /``
  (error at most 0.5 ulp of the result, we charge 2 ulp);
* the platform ``math.log`` / ``math.exp`` / ``math.log1p`` are faithful to
  at most 1 ulp, charged as 2 ulp in every radius;
* CPython's int-to-float conversion and int true division round correctly
  (:func:`sum_ball`, :func:`ratio_ball`), charged 1 ulp.

Radius bookkeeping itself runs in floating point, so every derived radius is
inflated by a small factor that dominates the accumulated rounding of the
bookkeeping operations.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError

__all__ = [
    "Ball",
    "VerdictStatus",
    "add_ball",
    "sub_ball",
    "neg_ball",
    "mul_ball",
    "div_ball",
    "log_ball",
    "log1p_ball",
    "exp_ball",
    "log_int_ball",
    "exact_ball",
    "int_ball",
    "ratio_ball",
    "sum_ball",
    "ball_endpoints",
    "ball_status",
    "hull_ball",
    "from_mp_interval",
    "EULER_GAMMA",
    "E_GAMMA",
    "ZETA2",
    "E_GAMMA_OVER_ZETA2",
    "LOG_2",
    "SUM_SCALE",
]

# Covers the rounding of every radius formula below (each has < 16 flops).
_INFLATE = 1.0 + 2.0 ** -44
# Exact sums are Python ints in units of 1/SUM_SCALE (see sum_ball); every
# term of series.prefix_sums below the 2^31 sieve cap is a multiple of it.
SUM_SCALE = 2.0 ** 120

Ball = tuple[float, float]  # (value, radius)


def _invalid(value: float, radius: float) -> DomainError:
    """The error for a ball whose value is not finite or whose radius is not finite and >= 0.

    Each kernel tests its output with ``math.isfinite(v) and 0.0 <= r <
    math.inf`` (nan fails every comparison).  The test is written out in
    each of them, not called, because a call costs about as much as the
    arithmetic it checks.
    """
    if not math.isfinite(value):
        return DomainError(f"certified value must be finite, got {value!r}")
    return DomainError(f"radius must be finite and >= 0, got {radius!r}")


class VerdictStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


def _parse_constant(literal: str) -> Ball:
    # float() parses correctly rounded; charge 1 ulp.
    v = float(literal)
    return v, math.ulp(v)


# --- float kernels on balls: each formula and guard is written here once -----


def exact_ball(x: float) -> Ball:
    """The ball of a number that binary64 holds exactly: radius 0."""
    v = float(x)
    if v != x:
        raise DomainError(f"operand {x!r} is not exact in binary64")
    return v, 0.0


def int_ball(n: int) -> Ball:
    """Enclosure of an exact integer (radius 0 when it fits in 53 bits)."""
    v = float(n)
    if int(v) == n:
        return v, 0.0
    return v, math.ulp(v)


def ratio_ball(num: int, den: int) -> Ball:
    """Enclosure of the exact rational num/den.

    CPython's integer true division is correctly rounded, so 1 ulp is a
    comfortable bound on the conversion error.
    """
    if den == 0:
        raise DomainError("ratio_ball: zero denominator")
    v = num / den
    return v, math.ulp(v)


def sum_ball(units: int, radius_units: int) -> Ball:
    """Enclosure of an exact sum kept as integers in units of ``1/SUM_SCALE``.

    ``units`` is the exact sum of the term values and ``radius_units``
    bounds the sum of their radii from above.  CPython converts an int to
    the nearest float and dividing by a power of two is exact, so the value
    is the correctly rounded sum (0.5 ulp, charged 1 ulp).  No output check
    is needed: ``float`` raises rather than return an infinity.
    """
    v = float(units) / SUM_SCALE
    return v, (float(radius_units) / SUM_SCALE + math.ulp(v)) * _INFLATE


def add_ball(a: Ball, b: Ball) -> Ball:
    (av, ar), (bv, br) = a, b
    v = av + bv
    if not math.isfinite(v):
        raise DomainError("add/sub: overflow")
    # a float sum that lands exactly on 0 incurred no rounding (IEEE-754)
    rounding = 2.0 * math.ulp(v) if v != 0.0 else 0.0
    r = (ar + br + rounding) * _INFLATE
    if not (math.isfinite(v) and 0.0 <= r < math.inf):
        raise _invalid(v, r)
    return v, r


def neg_ball(a: Ball) -> Ball:
    # negation is exact in binary64
    return -a[0], a[1]


def sub_ball(a: Ball, b: Ball) -> Ball:
    # IEEE-754 defines a - b as a + (-b), rounding included
    return add_ball(a, neg_ball(b))


def mul_ball(a: Ball, b: Ball) -> Ball:
    (av, ar), (bv, br) = a, b
    v = av * bv
    if not math.isfinite(v):
        raise DomainError("mul: overflow")
    r = (abs(av) * br + abs(bv) * ar + ar * br + 2.0 * math.ulp(v)) * _INFLATE
    if not (math.isfinite(v) and 0.0 <= r < math.inf):
        raise _invalid(v, r)
    return v, r


def div_ball(a: Ball, b: Ball) -> Ball:
    (av, ar), (bv, br) = a, b
    b_lo = abs(bv) - br
    den = b_lo * abs(bv)
    # den > 0 iff b_lo > 0, unless the product underflows to 0
    if not den > 0.0:
        raise DomainError("div: divisor interval contains zero or lies too close to it")
    v = av / bv
    # |x/y - xv/yv| = |x*yv - xv*y| / (|y| |yv|) <= (rx|yv| + |xv|ry) / (b_lo |yv|)
    r = ((ar * abs(bv) + abs(av) * br) / den + 2.0 * math.ulp(v)) * _INFLATE
    if not (math.isfinite(v) and 0.0 <= r < math.inf):
        raise _invalid(v, r)
    return v, r


def log_ball(a: Ball) -> Ball:
    value, radius = a
    lo = value - radius
    if lo <= 0.0:
        raise DomainError("log: interval must be entirely positive")
    v = math.log(value)
    # Lipschitz constant of log on [lo, hi] is 1/lo.
    r = (radius / lo + 2.0 * math.ulp(v)) * _INFLATE
    if not (math.isfinite(v) and 0.0 <= r < math.inf):
        raise _invalid(v, r)
    return v, r


def log1p_ball(a: Ball) -> Ball:
    value, radius = a
    lo = value - radius
    if lo <= -1.0:
        raise DomainError("log1p: interval must stay above -1")
    v = math.log1p(value)
    r = (radius / (1.0 + lo) + 2.0 * math.ulp(v)) * _INFLATE
    if not (math.isfinite(v) and 0.0 <= r < math.inf):
        raise _invalid(v, r)
    return v, r


def exp_ball(a: Ball) -> Ball:
    value, radius = a
    hi = value + radius
    if hi > 700.0:
        raise DomainError("exp: argument too large for binary64")
    v = math.exp(value)
    # Lipschitz constant of exp on [lo, hi] is exp(hi).
    r = (math.exp(hi) * radius + 2.0 * math.ulp(v)) * _INFLATE
    if not (math.isfinite(v) and 0.0 <= r < math.inf):
        raise _invalid(v, r)
    return v, r


def log_int_ball(n: int) -> Ball:
    """Enclosure of the natural log of an exact (possibly huge) integer.

    For n beyond 53 bits, splits n = m * 2^e with m holding the top 53 bits;
    the discarded remainder contributes at most log1p(2^-52) < 2^-51, which
    is charged to the radius.
    """
    if n <= 0:
        raise DomainError("log_int_ball: n must be positive")
    if n < (1 << 53):
        return log_ball((float(n), 0.0))
    e = n.bit_length() - 53
    v, r = add_ball(log_ball((float(n >> e), 0.0)), mul_ball(int_ball(e), LOG_2))
    # true log n lies in [v - r, v + r + 2^-52]: the discarded remainder
    # only pushes upward; widen the ball instead of nudging the center so no
    # new rounding enters
    return v, (r + 2.0 ** -52) * _INFLATE


def ball_endpoints(a: Ball) -> tuple[float, float]:
    """Rigorous ``(lo, hi)`` of a ball, rounded outward when inexact."""
    value, radius = a
    if radius == 0.0:
        return value, value
    return math.nextafter(value - radius, -math.inf), math.nextafter(value + radius, math.inf)


def ball_status(a: Ball, claim: str) -> VerdictStatus:
    """Certified status of ``x CLAIM 0`` for every x in the ball ``a``.

    ``claim`` is one of ``"<"``, ``"<="``, ``">"``, ``">="``.  HOLDS/FAILS
    are decided only from the outward-rounded endpoints, so a ball that
    straddles 0 is INCONCLUSIVE.
    """
    lo, hi = ball_endpoints(a)
    if claim in (">", ">="):  # x > 0 iff -x < 0, and negation is exact
        lo, hi = -hi, -lo
    if claim in ("<", ">"):
        holds, fails = hi < 0.0, lo >= 0.0
    elif claim in ("<=", ">="):
        holds, fails = hi <= 0.0, lo > 0.0
    else:
        raise ValueError(f"unknown claim orientation {claim!r}")
    return VerdictStatus.HOLDS if holds else VerdictStatus.FAILS if fails else VerdictStatus.INCONCLUSIVE


def _interval_ball(lo: float, hi: float) -> Ball:
    """The ball that encloses the float interval ``[lo, hi]``."""
    mid = 0.5 * (lo + hi)
    return mid, max(hi - mid, mid - lo) * _INFLATE


def hull_ball(a: Ball, b: Ball) -> Ball:
    """Enclosure of the hull of two balls: every real between a point of ``a`` and a point of ``b``."""
    (a_lo, a_hi), (b_lo, b_hi) = ball_endpoints(a), ball_endpoints(b)
    return _interval_ball(min(a_lo, b_lo), max(a_hi, b_hi))


def from_mp_interval(ival) -> Ball:
    """Convert an mpmath interval (``iv.mpf``) to an enclosing ball."""
    return _interval_ball(math.nextafter(float(ival.a), -math.inf), math.nextafter(float(ival.b), math.inf))


# 50-digit decimal literals; float() rounds correctly, radius 1 ulp.
EULER_GAMMA = _parse_constant("0.57721566490153286060651209008240243104215933593992")
E_GAMMA = _parse_constant("1.7810724179901979852365041031071795491696452143034")
ZETA2 = _parse_constant("1.6449340668482264364724151666460251892189499012068")
E_GAMMA_OVER_ZETA2 = _parse_constant("1.0827621932609245801221880381909265701843066555836")
LOG_2 = _parse_constant("0.69314718055994530941723212145817656807550013436026")
