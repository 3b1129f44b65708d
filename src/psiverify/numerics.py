"""Ball arithmetic: a float value paired with a rigorous absolute-error radius.

Every real-valued quantity in this package travels as a :class:`CertifiedValue`
``(value, radius)`` meaning the exact real lies in ``[value - radius,
value + radius]``.  All operations return enclosures: if the inputs' intervals
contain their exact reals, so does the output's.

Rigor assumptions, stated once and stress-tested in the suite:

* IEEE-754 binary64 arithmetic with round-to-nearest for ``+ - * /``
  (error at most 0.5 ulp of the result, we charge 2 ulp);
* the platform ``math.log`` / ``math.exp`` / ``math.log1p`` are faithful to
  at most 1 ulp, charged as 2 ulp in every radius.

Radius bookkeeping itself runs in floating point, so every derived radius is
inflated by a small factor that dominates the accumulated rounding of the
bookkeeping operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "CertifiedValue",
    "Verdict",
    "VerdictStatus",
    "CertifiedAccumulator",
    "certified",
    "cv_from_int",
    "cv_from_ratio",
    "cv_add",
    "cv_sub",
    "cv_neg",
    "cv_mul",
    "cv_div",
    "cv_log",
    "cv_log1p",
    "log1p_ball",
    "cv_exp",
    "cv_log_int",
    "compare",
    "from_mp_interval",
    "EULER_GAMMA",
    "E_GAMMA",
    "ZETA2",
    "E_GAMMA_OVER_ZETA2",
    "LOG_2",
]

# Covers the rounding of every radius formula below (each has < 16 flops).
_INFLATE = 1.0 + 2.0 ** -44
# Covers up to ~2^33 radius additions inside an accumulator.
_INFLATE_ACC = 1.0 + 2.0 ** -20


@dataclass(frozen=True, slots=True)
class CertifiedValue:
    """A binary64 value with a rigorous absolute-error radius.

    Invariant: ``radius >= 0`` and finite, and the represented exact real
    lies in ``[value - radius, value + radius]``.
    """

    value: float
    radius: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError(f"certified value must be finite, got {self.value!r}")
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise DomainError(f"radius must be finite and >= 0, got {self.radius!r}")

    @property
    def lo(self) -> float:
        """Rigorous lower endpoint (rounded outward when inexact)."""
        if self.radius == 0.0:
            return self.value
        return math.nextafter(self.value - self.radius, -math.inf)

    @property
    def hi(self) -> float:
        """Rigorous upper endpoint (rounded outward when inexact)."""
        if self.radius == 0.0:
            return self.value
        return math.nextafter(self.value + self.radius, math.inf)

    def __repr__(self) -> str:  # keep reports readable
        return f"CertifiedValue({self.value!r}, r={self.radius:.3e})"

    # Operators are the cv_* functions, so a formula written with them gives
    # the same balls, bit for bit, as the nested calls; the bounds write each
    # formula once for balls and for mpmath intervals this way.
    def __add__(self, other) -> CertifiedValue:
        return cv_add(self, _as_ball(other))

    def __radd__(self, other) -> CertifiedValue:
        return cv_add(_as_ball(other), self)

    def __mul__(self, other) -> CertifiedValue:
        return cv_mul(self, _as_ball(other))

    def __truediv__(self, other) -> CertifiedValue:
        return cv_div(self, _as_ball(other))

    def __rtruediv__(self, other) -> CertifiedValue:
        return cv_div(_as_ball(other), self)

    def __neg__(self) -> CertifiedValue:
        return cv_neg(self)


def _as_ball(x) -> CertifiedValue:
    """A ball operand; a plain int or float must be exact in binary64."""
    if isinstance(x, CertifiedValue):
        return x
    if float(x) != x:
        raise DomainError(f"operand {x!r} is not exact in binary64")
    return CertifiedValue(float(x), 0.0)


class VerdictStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Three-way outcome of a certified comparison.

    ``margin`` is always left-hand side minus right-hand side; the claim
    determines which side of zero counts as HOLDS.  HOLDS and FAILS are
    reported only when the whole margin interval is on one side.
    """

    status: VerdictStatus
    margin: CertifiedValue

    @property
    def holds(self) -> bool:
        return self.status is VerdictStatus.HOLDS


def certified(value: float, radius: float = 0.0) -> CertifiedValue:
    return CertifiedValue(float(value), float(radius))


def cv_from_int(n: int) -> CertifiedValue:
    """Enclosure of an exact integer (radius 0 when it fits in 53 bits)."""
    v = float(n)
    if int(v) == n:
        return CertifiedValue(v, 0.0)
    return CertifiedValue(v, math.ulp(v))


def cv_from_ratio(num: int, den: int) -> CertifiedValue:
    """Enclosure of the exact rational num/den.

    CPython's integer true division is correctly rounded, so 1 ulp is a
    comfortable bound on the conversion error.
    """
    if den == 0:
        raise DomainError("cv_from_ratio: zero denominator")
    v = num / den
    return CertifiedValue(v, math.ulp(v))


def _parse_constant(literal: str) -> CertifiedValue:
    # float() parses correctly rounded; charge 1 ulp.
    v = float(literal)
    return CertifiedValue(v, math.ulp(v))


def cv_add(a: CertifiedValue, b: CertifiedValue) -> CertifiedValue:
    v = a.value + b.value
    if not math.isfinite(v):
        raise DomainError("cv_add: overflow")
    # a float sum that lands exactly on 0 incurred no rounding (IEEE-754)
    rounding = 2.0 * math.ulp(v) if v != 0.0 else 0.0
    r = (a.radius + b.radius + rounding) * _INFLATE
    return CertifiedValue(v, r)


def cv_neg(a: CertifiedValue) -> CertifiedValue:
    return CertifiedValue(-a.value, a.radius)


def cv_sub(a: CertifiedValue, b: CertifiedValue) -> CertifiedValue:
    v = a.value - b.value
    if not math.isfinite(v):
        raise DomainError("cv_sub: overflow")
    rounding = 2.0 * math.ulp(v) if v != 0.0 else 0.0
    r = (a.radius + b.radius + rounding) * _INFLATE
    return CertifiedValue(v, r)


def cv_mul(a: CertifiedValue, b: CertifiedValue) -> CertifiedValue:
    v = a.value * b.value
    if not math.isfinite(v):
        raise DomainError("cv_mul: overflow")
    r = (
        abs(a.value) * b.radius
        + abs(b.value) * a.radius
        + a.radius * b.radius
        + 2.0 * math.ulp(v)
    ) * _INFLATE
    return CertifiedValue(v, r)


def cv_div(a: CertifiedValue, b: CertifiedValue) -> CertifiedValue:
    b_lo = abs(b.value) - b.radius
    if b_lo <= 0.0:
        raise DomainError("cv_div: divisor interval contains zero")
    v = a.value / b.value
    # |x/y - xv/yv| = |x*yv - xv*y| / (|y| |yv|) <= (rx|yv| + |xv|ry) / (b_lo |yv|)
    r = (
        (a.radius * abs(b.value) + abs(a.value) * b.radius) / (b_lo * abs(b.value))
        + 2.0 * math.ulp(v)
    ) * _INFLATE
    return CertifiedValue(v, r)


def cv_log(a: CertifiedValue) -> CertifiedValue:
    lo = a.value - a.radius
    if lo <= 0.0:
        raise DomainError("cv_log: interval must be entirely positive")
    v = math.log(a.value)
    # Lipschitz constant of log on [lo, hi] is 1/lo.
    r = (a.radius / lo + 2.0 * math.ulp(v)) * _INFLATE
    return CertifiedValue(v, r)


def log1p_ball(value: float, radius: float) -> tuple[float, float]:
    """``(value, radius)`` of log1p over the ball, as plain floats.

    The float-level core of :func:`cv_log1p`, for hot loops that feed an
    accumulator and never need the intermediate :class:`CertifiedValue`.
    """
    lo = value - radius
    if lo <= -1.0:
        raise DomainError("cv_log1p: interval must stay above -1")
    v = math.log1p(value)
    return v, (radius / (1.0 + lo) + 2.0 * math.ulp(v)) * _INFLATE


def cv_log1p(a: CertifiedValue) -> CertifiedValue:
    return CertifiedValue(*log1p_ball(a.value, a.radius))


def cv_exp(a: CertifiedValue) -> CertifiedValue:
    hi = a.value + a.radius
    if hi > 700.0:
        raise DomainError("cv_exp: argument too large for binary64")
    v = math.exp(a.value)
    # Lipschitz constant of exp on [lo, hi] is exp(hi).
    r = (math.exp(hi) * a.radius + 2.0 * math.ulp(v)) * _INFLATE
    return CertifiedValue(v, r)


def cv_log_int(n: int) -> CertifiedValue:
    """Certified natural log of an exact (possibly huge) integer.

    For n beyond 53 bits, splits n = m * 2^e with m holding the top 53 bits;
    the discarded remainder contributes at most log1p(2^-52) < 2^-51, which
    is charged to the radius.
    """
    if n <= 0:
        raise DomainError("cv_log_int: n must be positive")
    if n < (1 << 53):
        return cv_log(CertifiedValue(float(n), 0.0))
    e = n.bit_length() - 53
    m = n >> e
    base = cv_log(CertifiedValue(float(m), 0.0))
    shift = cv_mul(cv_from_int(e), LOG_2)
    out = cv_add(base, shift)
    # true log n lies in [out - r, out + r + 2^-52]: the discarded remainder
    # only pushes upward; widen the ball instead of nudging the center so no
    # new rounding enters
    return CertifiedValue(out.value, (out.radius + 2.0 ** -52) * _INFLATE)


def compare(lhs: CertifiedValue, rhs: CertifiedValue, claim: str) -> Verdict:
    """Certified three-way comparison of two enclosures.

    ``claim`` is one of ``"<"``, ``"<="``, ``">"``, ``">="`` read as
    ``lhs CLAIM rhs``.  HOLDS/FAILS are decided only from the outward-rounded
    endpoints of ``lhs - rhs``, so overlapping intervals are INCONCLUSIVE.
    """
    margin = cv_sub(lhs, rhs)
    lo, hi = margin.lo, margin.hi
    if claim == "<":
        if hi < 0.0:
            status = VerdictStatus.HOLDS
        elif lo >= 0.0:
            status = VerdictStatus.FAILS
        else:
            status = VerdictStatus.INCONCLUSIVE
    elif claim == "<=":
        if hi <= 0.0:
            status = VerdictStatus.HOLDS
        elif lo > 0.0:
            status = VerdictStatus.FAILS
        else:
            status = VerdictStatus.INCONCLUSIVE
    elif claim == ">":
        if lo > 0.0:
            status = VerdictStatus.HOLDS
        elif hi <= 0.0:
            status = VerdictStatus.FAILS
        else:
            status = VerdictStatus.INCONCLUSIVE
    elif claim == ">=":
        if lo >= 0.0:
            status = VerdictStatus.HOLDS
        elif hi < 0.0:
            status = VerdictStatus.FAILS
        else:
            status = VerdictStatus.INCONCLUSIVE
    else:
        raise ValueError(f"unknown claim orientation {claim!r}")
    return Verdict(status, margin)


class CertifiedAccumulator:
    """Neumaier-compensated running sum with a rigorous error radius.

    add(value, radius) treats ``value`` as a float whose exact intended term
    lies within ``radius`` of it.  The float pair (sum, compensation) is
    maintained with an error-free transformation, so the only rounding per
    step is the compensation update, charged as 1 ulp.  State round-trips
    bit-identically through :meth:`state` / :meth:`restore` so scans can be
    checkpointed and resumed deterministically.
    """

    __slots__ = ("_sum", "_comp", "_radius", "count")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0
        self._radius = 0.0
        self.count = 0

    def add(self, value: float, radius: float = 0.0) -> None:
        s = self._sum + value
        if abs(self._sum) >= abs(value):
            e = (self._sum - s) + value
        else:
            e = (value - s) + self._sum
        c = self._comp + e
        self._radius = self._radius + radius + math.ulp(c)
        self._sum = s
        self._comp = c
        self.count += 1

    def total(self) -> CertifiedValue:
        v = self._sum + self._comp
        return CertifiedValue(v, (self._radius + math.ulp(v)) * _INFLATE_ACC)

    def state(self) -> tuple[float, float, float, int]:
        return (self._sum, self._comp, self._radius, self.count)

    @classmethod
    def restore(cls, state: tuple[float, float, float, int]) -> "CertifiedAccumulator":
        acc = cls()
        acc._sum, acc._comp, acc._radius, acc.count = state
        return acc


def from_mp_interval(ival) -> CertifiedValue:
    """Convert an mpmath interval (``iv.mpf``) to a CertifiedValue enclosure."""
    lo = math.nextafter(float(ival.a), -math.inf)
    hi = math.nextafter(float(ival.b), math.inf)
    mid = 0.5 * (lo + hi)
    r = max(hi - mid, mid - lo) * _INFLATE
    return CertifiedValue(mid, r)


# 50-digit decimal literals; float() rounds correctly, radius 1 ulp.
EULER_GAMMA = _parse_constant("0.57721566490153286060651209008240243104215933593992")
E_GAMMA = _parse_constant("1.7810724179901979852365041031071795491696452143034")
ZETA2 = _parse_constant("1.6449340668482264364724151666460251892189499012068")
E_GAMMA_OVER_ZETA2 = _parse_constant("1.0827621932609245801221880381909265701843066555836")
LOG_2 = _parse_constant("0.69314718055994530941723212145817656807550013436026")
