"""Claim-level verifications: champions, reduction, upper/lower bounds, trends.

Each claim reads a shared immutable prime table and returns a
:class:`ClaimResult` that serializes to JSON.  Results are a pure function of
(table, config): sampling is seeded, the proof's seams, the checkpoints and
the scan strides are module constants, and floats serialize as shortest
round-trip decimals, so reports are byte-identical from run to run.
``run_claims`` reports the claims in claim-table order.

One table maps each claim id to its description, its runner and the prefix
sums it reads; ``run_claims`` and the CLI take ids, descriptions and report
order from it.  The ids:

    champions       primorials are exactly the champions of psi(m)/m (exact ints)
    reduction       R(m) <= R(N_n) on [N_n, N_{n+1}) (exact ints + log log monotonicity)
    upper           R(n) < e^gamma for n > 30, in three labeled parts
    lower           R(N_n) > e^gamma/zeta(2) for 3 <= n <= n_max (RH criterion scan)
    mertens-trend   margin R(N_n) - e^gamma/zeta(2) positive and decreasing
    rs-product, zeta-tail, psi-bound, threshold, robin-log, criterion-gap
                    the analytic bound scans, each from the domain start in
                    ``bounds.BOUNDS``

``lower``, ``mertens-trend``, ``upper`` and the six bound scans read prefix
sums from ``series``.  When ``run_claims`` runs two or more of them, it makes
the pass once.  From the ids and the config it works out the union of the
kinds and the indices its claims read, and a
:class:`series.PrefixSnapshots` store records the sparse ones during the
pass.  ``lower`` runs first and reads the pass live and densely; every other
claim then replays the store.  A claim run alone, and every public function,
keeps its own live pass.  ``mertens-trend`` evaluates only its checkpoints;
it and ``lower`` report checkpoint margins and their trend through one
helper.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .arith import factorize, primorials_up_to, psi_from_factors, psi_ratio_tables, robin_ratio
from .bounds import (
    BOUNDS,
    FIRST_INDEX_AT_20000,
    LOWER,
    StridePolicy,
    _interval_sides,
    scan_bound,
    stride_indices,
    threshold_condition,
    threshold_monotone_step,
)
from .errors import RangeError, UnknownClaimError
from .numerics import (
    E_GAMMA,
    Ball,
    VerdictStatus,
    ball_endpoints,
    ball_status,
    compare,
    div_ball,
    sub_ball,
)
from .primes import PrimeTable, build_table
from .series import TERMS, PrefixSnapshots, PrefixSource, ascending_unique, points_at

__all__ = [
    "ClaimResult",
    "VerifyConfig",
    "CLAIM_IDS",
    "claim_description",
    "check_claim_ids",
    "required_table_limit",
    "build_default_table",
    "champion_scan",
    "reduction_check",
    "verify_upper",
    "verify_lower",
    "mertens_limit_trend",
    "run_claims",
]


# Fixed by the proof, not by the run: ``upper`` (a) is exhaustive up to
# N_4 = 210, and (b) walks the primorials until (c), the threshold at
# p_n >= 20000, takes over.
UPPER_SMALL_STOP = 210
UPPER_PRIMORIAL_STOP = FIRST_INDEX_AT_20000 - 1
# (c) checks the threshold's monotone step n -> n+1 at these n, up to n_max
UPPER_MONOTONE_AT = (FIRST_INDEX_AT_20000, 2500, 5000, 10**4)
# ``reduction`` checks the block [N_n, N_{n+1}) whole for n <= 5, by samples for 5 < n <= 8
REDUCTION_EXHAUSTIVE_MAX = 5
REDUCTION_SAMPLED_MAX = 8
CHECKPOINTS = (10, 100, 1000, 10**4, 10**5, 10**6, 10**7)  # where lower and mertens-trend report margins


@dataclass(frozen=True)
class VerifyConfig:
    """The settings of one verify run: depths, sampling, seed, escalation."""

    champion_limit: int = 10**6
    n_max: int = 10**5
    reduction_samples: int = 2000
    seed: int = 1018
    escalate: bool = True

    def live_checkpoints(self) -> tuple[int, ...]:
        return tuple(c for c in CHECKPOINTS if c <= self.n_max)

    def to_dict(self) -> dict:
        """The run's settings and the fixed ones it ran with."""
        return {
            **asdict(self),
            "upper_small_stop": UPPER_SMALL_STOP,
            "upper_primorial_stop": UPPER_PRIMORIAL_STOP,
            "reduction_exhaustive_max": REDUCTION_EXHAUSTIVE_MAX,
            "reduction_sampled_max": REDUCTION_SAMPLED_MAX,
            "checkpoints": list(self.live_checkpoints()),
            "stride": asdict(StridePolicy()),
        }


@dataclass
class ClaimResult:
    """Outcome of one claim: HOLDS iff counterexamples is empty."""

    claim_id: str
    covered: dict
    counterexamples: list[int] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "holds": self.holds,
            "covered": self.covered,
            "counterexamples": self.counterexamples,
            "details": self.details,
        }


def required_table_limit(n_max: int) -> int:
    """Sieve bound covering p_{n_max} (Rosser-style upper estimate) and 20000."""
    n = max(n_max, FIRST_INDEX_AT_20000 + 2, 6)
    estimate = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    return max(estimate, 20011 + 2)


def build_default_table(config: VerifyConfig, cache_dir=None) -> PrimeTable:
    table = build_table(required_table_limit(config.n_max), cache_dir=cache_dir)
    if table.count < config.n_max:
        raise RangeError(
            f"table holds {table.count} primes but n_max={config.n_max}; "
            "the size estimate should not allow this"
        )
    return table


# ---------------------------------------------------------------------------
# champions
# ---------------------------------------------------------------------------


def champion_scan(limit: int, table: PrimeTable | None = None) -> ClaimResult:
    """Exact champion set of psi(m)/m on [1, limit] vs the primorial set.

    A champion strictly exceeds psi(m)/m for every smaller m >= 1, so ties
    (psi(4)/4 = psi(2)/2) are not champions.  The decision is an integer
    cross-multiplication against the exact running maximum; a float filter
    picks the m it has to look at.

    The filter keeps every m >= 2 with r[m] >= (1 - 1e-12) * max(r[:m]),
    where r[m] = num[m] / den[m] in float64.  It is sound:

    * each r[m] is within about 3 * 2^-53 (relative) of the exact rational
      num[m]/den[m], counting the rounding of num, of den and of the
      division;
    * so a true champion, or a tie with the running maximum, lies at most
      about 7e-16 (relative) below the float running maximum, far inside
      the 1e-12 slack, and always reaches the exact check;
    * an m the filter drops is strictly below the exact value at some
      earlier index.  It is not a champion, and it cannot move the exact
      running maximum, which is always attained at a champion.

    The candidates are decided in increasing order, so the exact running
    maximum they see is the one the full loop over [2, limit] would see.
    """
    num, den = psi_ratio_tables(limit)
    r = num / den
    r[0] = 0.0
    prev = np.maximum.accumulate(r)
    prev *= 1.0 - 1e-12
    candidates = (np.flatnonzero(r[2:] >= prev[1:-1]) + 2).tolist()
    del r, prev
    champions: list[int] = []
    best_n, best_d = 1, 1  # psi(1)/1
    for m in candidates:
        nm = int(num[m])
        dm = int(den[m])
        if nm * best_d > best_n * dm:
            champions.append(m)
            best_n, best_d = nm, dm
    primorials = primorials_up_to(limit, table)
    extra = sorted(set(champions) - set(primorials))
    missing = sorted(set(primorials) - set(champions))
    return ClaimResult(
        claim_id="champions",
        covered={"m": [1, limit]},
        counterexamples=extra + missing,
        details={
            "champions": champions,
            "primorials": primorials,
            "not_primorial": extra,
            "not_champion": missing,
        },
    )


# ---------------------------------------------------------------------------
# reduction to primorials
# ---------------------------------------------------------------------------


def _primorial_ratio_ints(table: PrimeTable, n_index: int) -> tuple[int, int]:
    num = 1
    den = 1
    for k in range(1, n_index + 1):
        p = table.nth_prime(k)
        num *= p + 1
        den *= p
    return num, den


def reduction_check(
    n_index: int,
    samples: int | None = None,
    *,
    table: PrimeTable | None = None,
    seed: int = VerifyConfig.seed,
) -> ClaimResult:
    """Check R(m) <= R(N_n) for m in [N_n, N_{n+1}), exactly.

    Since psi(m)/m <= psi(N_n)/N_n (exact rational comparison) and
    log log m >= log log N_n > 0 for m >= N_n >= 6, the ratio inequality
    follows with no floating point at all.  ``samples=None`` checks the
    whole block; otherwise ``samples`` seeded random points.
    """
    if n_index < 2:
        raise RangeError(f"reduction_check: n_index must be >= 2, got {n_index}")
    if table is None or table.count < n_index + 1:
        table = build_table(max(10**6, 2))
    best_num, best_den = _primorial_ratio_ints(table, n_index)
    lo = best_den  # N_n
    hi = best_den * table.nth_prime(n_index + 1)  # N_{n+1}

    bad: list[int] = []
    if samples is None:
        num, den = psi_ratio_tables(hi - 1)
        seg_n = num[lo:hi].astype(object)
        seg_d = den[lo:hi].astype(object)
        viol = seg_n * best_den > best_num * seg_d
        bad = [int(lo + i) for i in np.nonzero(viol)[0]]
        checked = hi - lo
    else:
        rng = random.Random(seed)
        points = sorted({lo} | {rng.randrange(lo, hi) for _ in range(samples)})
        for m in points:
            fz = factorize(m, table)
            if psi_from_factors(fz) * best_den > best_num * m:
                bad.append(m)
        checked = len(points)
    return ClaimResult(
        claim_id=f"reduction-{n_index}",
        covered={"m": [lo, hi - 1], "exhaustive": samples is None, "checked": checked},
        counterexamples=bad,
        details={"n_index": n_index, "psi_ratio": [best_num, best_den]},
    )


def _reduction_claim(table: PrimeTable, config: VerifyConfig) -> ClaimResult:
    blocks = []
    bad: list[int] = []
    checked = 0
    for idx in range(2, REDUCTION_SAMPLED_MAX + 1):
        samples = None if idx <= REDUCTION_EXHAUSTIVE_MAX else config.reduction_samples
        sub = reduction_check(idx, samples, table=table, seed=config.seed + idx)
        blocks.append(sub.to_dict())
        bad.extend(sub.counterexamples)
        checked += sub.covered["checked"]
    return ClaimResult(
        claim_id="reduction",
        covered={"n_index": [2, REDUCTION_SAMPLED_MAX], "checked": checked},
        counterexamples=bad,
        details={"blocks": blocks},
    )


# ---------------------------------------------------------------------------
# upper bound: R(n) < e^gamma for n > 30
# ---------------------------------------------------------------------------


def _monotone_steps(n_max: int) -> list[int]:
    """Where ``upper`` (c) checks a monotone step: up to n_max, and always at 2263."""
    reach = max(n_max, FIRST_INDEX_AT_20000 + 1)
    return [n for n in UPPER_MONOTONE_AT if n + 1 <= reach]


def verify_upper(
    table: PrimeTable, n_max: int = VerifyConfig.n_max, *, source: PrefixSource | None = None
) -> ClaimResult:
    """Three-part upper-bound verification mirroring the proof structure.

    (a) exhaustive certified R(n) < e^gamma on 31..210 (plus the witness
        list of n <= 30 where R(n) >= e^gamma, showing 30 is sharp);
    (b) R(N_n) < e^gamma along primorials for 4 <= n <= 2262;
    (c) the threshold condition at index 2263 plus certified monotonicity
        steps, which covers every n >= 2263.  The steps depend on ``n_max``
        alone, never on how many primes the table holds.

    ``source`` stands in for :func:`series.prefix_sums` in (b) and (c).
    """
    # (a) exhaustive small range, certified; witnesses below 31
    a_bad: list[int] = []
    witnesses: list[int] = []
    for n in range(3, 31):
        if compare(robin_ratio(n), E_GAMMA, ">=").status is VerdictStatus.HOLDS:
            witnesses.append(n)
    for n in range(31, UPPER_SMALL_STOP + 1):
        if compare(robin_ratio(n), E_GAMMA, "<").status is not VerdictStatus.HOLDS:
            a_bad.append(n)

    # (b) primorial scan 4..2262, decided on the points' pairs
    b_bad: list[int] = []
    worst_slack = math.inf
    worst_at = None
    e_gamma = E_GAMMA.ball
    for point in points_at(table, range(4, UPPER_PRIMORIAL_STOP + 1), source):
        margin = sub_ball(point.ratio_ball, e_gamma)
        if ball_status(margin, "<") is not VerdictStatus.HOLDS:
            b_bad.append(point.n)
        slack = -ball_endpoints(margin)[1]
        if slack < worst_slack:
            worst_slack = slack
            worst_at = point.n
    # R(N_3) = R(30) >= e^gamma: the bound genuinely starts at n = 4
    r30_high = compare(robin_ratio(30), E_GAMMA, ">").status is VerdictStatus.HOLDS

    # (c) threshold at the first valid index, plus monotone steps
    c_bad: list[int] = []
    first = threshold_condition(table, FIRST_INDEX_AT_20000, source=source)
    if first.verdict.status is not VerdictStatus.HOLDS:
        c_bad.append(FIRST_INDEX_AT_20000)
    monotone_at = _monotone_steps(n_max)
    for n in monotone_at:
        if threshold_monotone_step(table, n, source=source).status is not VerdictStatus.HOLDS:
            c_bad.append(n)

    bad = a_bad + b_bad + c_bad
    return ClaimResult(
        claim_id="upper",
        covered={
            "a_small": [31, UPPER_SMALL_STOP],
            "b_primorial_index": [4, UPPER_PRIMORIAL_STOP],
            "c_threshold_from": FIRST_INDEX_AT_20000,
        },
        counterexamples=bad,
        details={
            "a": {"counterexamples": a_bad, "witnesses_below_31": witnesses, "witness_30": r30_high},
            "b": {
                "counterexamples": b_bad,
                "worst_margin": worst_slack,
                "worst_at": worst_at,
            },
            "c": {
                "counterexamples": c_bad,
                "threshold_margin": first.verdict.margin.ball,
                "monotone_checked_at": monotone_at,
            },
        },
    )


# ---------------------------------------------------------------------------
# lower bound: the RH-criterion scan, and the margin trend at checkpoints
# ---------------------------------------------------------------------------


def _checkpoint_trend(margins: dict[int, Ball]) -> tuple[dict[str, Ball], list[int]]:
    """Margins keyed for JSON, and the checkpoints where the margin fails to decrease.

    ``margins`` maps ascending checkpoints to the ball of
    R(N_n) - e^gamma/zeta(2); each one must be certified below the one before.
    """
    at = list(margins)
    drops = (ball_status(sub_ball(margins[b], margins[a]), "<") for a, b in zip(at, at[1:]))
    not_decreasing = [b for b, drop in zip(at[1:], drops) if drop is not VerdictStatus.HOLDS]
    return {str(n): m for n, m in margins.items()}, not_decreasing


def verify_lower(
    table: PrimeTable,
    n_max: int,
    *,
    checkpoints: tuple[int, ...] = CHECKPOINTS,
    escalate: bool = True,
    source: PrefixSource | None = None,
) -> ClaimResult:
    """Certified scan of R(N_n) > e^gamma/zeta(2) for 3 <= n <= n_max.

    Any FAILS here would contradict a scan range where the criterion is
    known to hold, so failures are re-verified on the interval path and
    surfaced loudly rather than swallowed.  The equivalent criterion
    g(p_n) < 1 is checked at every n as a dual consistency condition.
    ``source`` stands in for :func:`series.prefix_sums`.
    """
    if n_max < LOWER.start:
        raise RangeError(f"verify_lower: n_max must be >= {LOWER.start}, got {n_max}")
    bad: list[int] = []
    escalated: list[int] = []
    dual_mismatch: list[int] = []
    margins: dict[int, Ball] = {}
    min_margin = math.inf
    min_at = None
    holds = VerdictStatus.HOLDS
    for point in points_at(table, range(LOWER.start, n_max + 1), source):
        # margin R(N_n) - e^gamma/zeta(2) must be > 0, and g(p_n) - 1 < 0
        n, margin = point.n, point.margin_ball
        status = ball_status(margin, ">")
        dual = ball_status(sub_ball(point.g_ball, (1.0, 0.0)), "<")
        if status is not holds or dual is not holds:
            if escalate:
                escalated.append(n)
                ratio, limit = _interval_sides(table, "lower", n)
                margin = sub_ball(ratio, limit)
                status = ball_status(margin, ">")
                # g(p_n) = (e^gamma/zeta(2)) / R(N_n) exactly
                dual = ball_status(sub_ball(div_ball(limit, ratio), (1.0, 0.0)), "<")
            if status is not holds:
                bad.append(n)
            if dual is not status:
                dual_mismatch.append(n)
        slack = ball_endpoints(margin)[0]
        if slack < min_margin:
            min_margin = slack
            min_at = n
        if n in checkpoints:
            margins[n] = margin
    margin_pairs, trend_bad = _checkpoint_trend(margins)
    return ClaimResult(
        claim_id="lower",
        covered={"n": [LOWER.start, n_max]},
        counterexamples=sorted(set(bad + trend_bad + dual_mismatch)),
        details={
            "checkpoint_margins": margin_pairs,
            "margins_decreasing": not trend_bad,
            "min_margin": min_margin,
            "min_at": min_at,
            "escalated_at": escalated,
            "dual_mismatch": dual_mismatch,
        },
    )


def mertens_limit_trend(
    table: PrimeTable,
    checkpoints: tuple[int, ...] = CHECKPOINTS,
    *,
    source: PrefixSource | None = None,
) -> ClaimResult:
    """Margins R(N_n) - e^gamma/zeta(2) at ascending geometric checkpoints.

    Asserts each margin is certified positive and the sequence strictly
    decreases; a trend consistent with the limit, not a proof of it.  Only
    the checkpoints are evaluated.  ``source`` stands in for
    :func:`series.prefix_sums`.
    """
    live = tuple(c for c in checkpoints if c <= table.count)
    if not live:
        raise RangeError("mertens_limit_trend: no checkpoint within table range")
    margins: dict[int, Ball] = {}
    bad: list[int] = []
    for point in points_at(table, live, source):
        margins[point.n] = point.margin_ball
        if ball_status(point.margin_ball, ">") is not VerdictStatus.HOLDS:
            bad.append(point.n)
    margin_pairs, trend_bad = _checkpoint_trend(margins)
    return ClaimResult(
        claim_id="mertens-trend",
        covered={"checkpoints": list(live)},
        counterexamples=sorted(set(bad + trend_bad)),
        details={"margins": margin_pairs},
    )


# ---------------------------------------------------------------------------
# bound-scan claims, the claim table and the shared prefix pass
# ---------------------------------------------------------------------------


def _bound_range(table: PrimeTable, config: VerifyConfig, name: str) -> tuple[int, int]:
    start = BOUNDS[name].start
    # a bound claim always checks its first valid index, however small n_max is
    return start, max(start, min(config.n_max, table.count))


def _bound_claim(
    table: PrimeTable, config: VerifyConfig, source: PrefixSource | None, name: str
) -> ClaimResult:
    start, stop = _bound_range(table, config, name)
    scan = scan_bound(table, name, start, stop, escalate=config.escalate, source=source)
    return ClaimResult(
        claim_id=name,
        covered={"n": [start, stop], "points_checked": scan.points_checked},
        counterexamples=list(scan.failed_at),
        details=scan.to_dict(),
    )


def _mertens_checkpoints(table: PrimeTable, config: VerifyConfig) -> tuple[int, ...]:
    return tuple(c for c in config.live_checkpoints() if c <= table.count)


def _mertens_claim(table: PrimeTable, config: VerifyConfig, source: PrefixSource | None) -> ClaimResult:
    if not config.live_checkpoints():
        raise RangeError(
            f"mertens-trend: n_max={config.n_max} is below the first checkpoint, {CHECKPOINTS[0]}"
        )
    return mertens_limit_trend(table, _mertens_checkpoints(table, config), source=source)


def _robin_claim(table: PrimeTable, config: VerifyConfig, source: PrefixSource | None, name: str) -> ClaimResult:
    """The robin-log scan may fail at small n; the claim is where it settles."""
    result = _bound_claim(table, config, source, name)
    below = result.counterexamples
    holds_from = (max(below) + 1) if below else BOUNDS[name].start
    # the bound must have settled before the index the composite bound relies on
    result.counterexamples = [] if holds_from <= FIRST_INDEX_AT_20000 else [holds_from]
    result.details = {"holds_from_index": holds_from, "below_validity": below, "scan": result.details}
    return result


# What each claim reads of a shared prefix pass, as (kinds, ascending sparse
# indices), from the same helpers its runner uses.  points_at reads plus and
# inv; lower reads its indices live, as the pass makes them, so it lists none.
_POINT_KINDS = ("plus", "inv")


def _upper_reads(table: PrimeTable, config: VerifyConfig):
    # (b) the primorial points, then (c) the threshold at 2263 and both ends of each step
    steps = chain.from_iterable((n, n + 1) for n in _monotone_steps(config.n_max))
    return _POINT_KINDS, chain(range(4, UPPER_PRIMORIAL_STOP + 1), (FIRST_INDEX_AT_20000,), steps)


def _bound_reads(table: PrimeTable, config: VerifyConfig, name: str):
    return BOUNDS[name].sums, stride_indices(*_bound_range(table, config, name), StridePolicy())


class _Claim(NamedTuple):
    description: str
    run: Callable[[PrimeTable, VerifyConfig, PrefixSource | None], ClaimResult]
    # what the claim reads of a shared prefix pass; None if it reads no prefix sums
    reads: Callable[[PrimeTable, VerifyConfig], tuple[tuple[str, ...], Iterable[int]]] | None = None


def _bound_entry(description: str, name: str, run=_bound_claim) -> _Claim:
    return _Claim(description, partial(run, name=name), partial(_bound_reads, name=name))


# id -> claim, in report order.  The public claim functions are looked up by
# name when a runner is called, so wrappers installed on this module
# (tracing, monkeypatching) see every call.
_CLAIMS: dict[str, _Claim] = {
    "champions": _Claim(
        "primorials are exactly the champions of psi(m)/m (exact)",
        lambda table, config, source: champion_scan(config.champion_limit, table),
    ),
    "reduction": _Claim(
        "R(m) <= R(N_n) for N_n <= m < N_{n+1} (exact)",
        lambda table, config, source: _reduction_claim(table, config),
    ),
    "upper": _Claim(
        "R(n) < e^gamma for n > 30 (three-part certified argument)",
        lambda table, config, source: verify_upper(table, config.n_max, source=source),
        _upper_reads,
    ),
    "lower": _Claim(
        "R(N_n) > e^gamma/zeta(2) for 3 <= n <= n_max (RH criterion scan)",
        lambda table, config, source: verify_lower(
            table, min(config.n_max, table.count), escalate=config.escalate, source=source
        ),
        lambda table, config: (_POINT_KINDS, ()),
    ),
    "mertens-trend": _Claim(
        "margin to e^gamma/zeta(2) positive and decreasing at checkpoints",
        _mertens_claim,
        lambda table, config: (_POINT_KINDS, _mertens_checkpoints(table, config)),
    ),
    "rs-product": _bound_entry("partial Euler product bound e^gamma(log x + 1/log x)", "rs-product"),
    "zeta-tail": _bound_entry("tail bound zeta(2) prod(1-1/p^2) <= exp(2/p_n)", "zeta-tail"),
    "psi-bound": _bound_entry("psi(N_n)/N_n composite bound for p_n >= 20000", "psi-bound"),
    "threshold": _bound_entry("exp(2/p_n)(1 + 1.125/(log p_n log log N_n)) <= zeta(2)", "threshold"),
    "robin-log": _bound_entry(
        "log p_n < log log N_n + 0.125/log p_n (validity start reported)", "robin-log", _robin_claim
    ),
    "criterion-gap": _bound_entry("log g(x) >= log f(x) - 2/x at x = p_n", "criterion-gap"),
}

CLAIM_IDS = tuple(_CLAIMS)


def claim_description(claim_id: str) -> str:
    return _CLAIMS[claim_id].description


def check_claim_ids(claim_ids) -> None:
    """Raise UnknownClaimError naming every id that is not in the claim table."""
    unknown = [cid for cid in claim_ids if cid not in _CLAIMS]
    if unknown:
        raise UnknownClaimError(f"unknown claim(s) {', '.join(unknown)}; registry: {', '.join(CLAIM_IDS)}")


def _shared_pass(ids: list[str], table: PrimeTable, config: VerifyConfig) -> PrefixSnapshots | None:
    """The store for one prefix pass that serves the claims ``ids``.

    It sums the union of the kinds they read and records the union of their
    sparse indices; ``lower`` reads the pass densely through
    :meth:`PrefixSnapshots.live`.  None when at most one of the claims reads
    prefix sums: that claim keeps its own live pass.
    """
    reads = [_CLAIMS[cid].reads(table, config) for cid in ids if _CLAIMS[cid].reads]
    if len(reads) < 2:
        return None
    wanted = {kind for kinds, _ in reads for kind in kinds}
    return PrefixSnapshots((k for k in TERMS if k in wanted), ascending_unique(*(at for _, at in reads)))


def run_claims(claim_ids: list[str] | None, table: PrimeTable, config: VerifyConfig | None = None) -> dict:
    """Run claims (default: all) and assemble the deterministic report.

    Each claim runs once, and the report lists them in claim-table order.
    Claims that read prefix sums share one pass (:func:`_shared_pass`):
    ``lower`` runs first on the live pass, or the pass runs alone when
    ``lower`` is not selected, and the others replay its snapshots.
    """
    config = config or VerifyConfig()
    ids = CLAIM_IDS if claim_ids is None else claim_ids
    check_claim_ids(ids)
    selected = [cid for cid in _CLAIMS if cid in ids]
    store = _shared_pass(selected, table, config)
    results: dict[str, ClaimResult] = {}
    if store is not None:
        if "lower" in selected:
            results["lower"] = _CLAIMS["lower"].run(table, config, store.live)
        else:
            store.record(table)
    source = store.replay if store else None
    for cid in selected:
        if cid not in results:
            results[cid] = _CLAIMS[cid].run(table, config, source)
    return {
        "config": config.to_dict(),
        "claims": {cid: results[cid].to_dict() for cid in selected},
        "all_hold": all(result.holds for result in results.values()),
    }
