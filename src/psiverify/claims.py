"""Claim-level verifications: champions, reduction, upper/lower bounds, trends.

Each claim reads a shared immutable prime table and returns a
:class:`ClaimResult` that serializes to JSON.  Results are a pure function of
(table, config), and a config is two depths and a seed: the proof's seams,
the checkpoints and the reduction sampling are constants here, each bound
row reads every index of its range, and each row re-decides a point on the
113-bit path by a fixed rule.  Floats serialize as shortest round-trip
decimals, so reports are byte-identical from run to run.  ``run_claims``
reports the claims in claim-table order.

One table maps each claim id to its description and its runner; ``run_claims``
and the CLI take ids, descriptions and report order from it.  The ids:

    champions       primorials are exactly the champions of psi(m)/m (exact ints)
    reduction       R(m) <= R(N_n) on [N_n, N_{n+1}) (exact ints + log log monotonicity)
    upper           R(n) < e^gamma for n > 30, in three labeled parts
    lower           R(N_n) > e^gamma/zeta(2) for 3 <= n <= n_max (RH criterion scan)
    mertens-trend   margin R(N_n) - e^gamma/zeta(2) positive and decreasing
    rs-product, zeta-tail, psi-bound, threshold, robin-log, criterion-gap
                    the analytic bound scans, each at every index from the
                    domain start in ``bounds.BOUNDS`` to ``n_max``

``lower``, ``mertens-trend``, ``upper`` and the six bound scans read prefix
sums from ``series``.  Each is its rows and a finish.  A row is a
``bounds._read_bound`` reader of :func:`series.serve`, which decides one
ball-decided row by brackets at its own indices, re-decides an
INCONCLUSIVE point on the 113-bit path and returns its ``BoundScan``; the
finish turns the scans of the claim's rows into its :class:`ClaimResult`.
``run_claims`` runs the exact claims first, then serves the rows of every
selected claim from one pass and hands each finish its claim's scans; a
claim run alone, and each public claim function, is its finish over one
pass of the rows its claim-table entry builds.  An entry whose indices pass
the table raises :class:`RangeError` before the pass.  No claim here
decides a point.  A bound scan is one row.  ``upper`` is (b), the row
``UPPER``, and (c), the ``threshold`` row at index 2263; its finish decides
(a), which reads no prefix sums.  ``lower`` is the rows ``LOWER`` and
``DUAL``, and ``mertens-trend`` is those rows at the live checkpoints alone
(those up to ``n_max``).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple

from .arith import factorize, primorials_up_to, psi_from_factors, psi_ratio_tables, robin_ratio
from .bounds import (
    BOUNDS,
    DUAL,
    FIRST_INDEX_AT_20000,
    LOWER,
    UPPER,
    BoundScan,
    _read_bound,
    bound_reader,
)
from .errors import RangeError, UnknownClaimError
from .numerics import E_GAMMA, VerdictStatus, ball_status, sub_ball
from .primes import PrimeTable, build_table
from .series import Reader, serve

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
# ``reduction`` checks the block [N_n, N_{n+1}) whole for n <= 5, by seeded samples for 5 < n <= 8
REDUCTION_EXHAUSTIVE_MAX = 5
REDUCTION_SAMPLED_MAX = 8
REDUCTION_SAMPLES = 2000
CHECKPOINTS = (10, 100, 1000, 10**4, 10**5, 10**6, 10**7)  # where lower and mertens-trend report margins
_AT_CHECKPOINT = frozenset(CHECKPOINTS)  # the indices whose margins lower's rows keep


@dataclass(frozen=True)
class VerifyConfig:
    """The settings of one verify run: its two depths and its seed."""

    champion_limit: int = 10**6
    n_max: int = 10**5
    seed: int = 1018

    def live_checkpoints(self) -> tuple[int, ...]:
        return tuple(c for c in CHECKPOINTS if c <= self.n_max)

    def to_dict(self) -> dict:
        """The run's settings and the fixed ones it ran with."""
        return {
            **asdict(self),
            "reduction_samples": REDUCTION_SAMPLES,
            "upper_small_stop": UPPER_SMALL_STOP,
            "upper_primorial_stop": UPPER_PRIMORIAL_STOP,
            "reduction_exhaustive_max": REDUCTION_EXHAUSTIVE_MAX,
            "reduction_sampled_max": REDUCTION_SAMPLED_MAX,
            "checkpoints": list(self.live_checkpoints()),
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
    return build_table(required_table_limit(config.n_max), cache_dir=cache_dir)


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
    import numpy as np

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


def reduction_check(n_index: int, *, table: PrimeTable, seed: int = VerifyConfig.seed) -> ClaimResult:
    """Check R(m) <= R(N_n) for m in [N_n, N_{n+1}), exactly.

    Since psi(m)/m <= psi(N_n)/N_n (exact rational comparison) and
    log log m >= log log N_n > 0 for m >= N_n >= 6, the ratio inequality
    follows with no floating point at all.  A block with n_index up to
    :data:`REDUCTION_EXHAUSTIVE_MAX` is checked whole, a later one at
    :data:`REDUCTION_SAMPLES` random points drawn from ``seed``.  A
    ``table`` without p_{n+1} raises RangeError.
    """
    if n_index < 2:
        raise RangeError(f"reduction_check: n_index must be >= 2, got {n_index}")
    best_num, best_den = _primorial_ratio_ints(table, n_index)
    lo = best_den  # N_n
    hi = best_den * table.nth_prime(n_index + 1)  # N_{n+1}

    bad: list[int] = []
    exhaustive = n_index <= REDUCTION_EXHAUSTIVE_MAX
    if exhaustive:
        import numpy as np

        num, den = psi_ratio_tables(hi - 1)
        seg_n = num[lo:hi].astype(object)
        seg_d = den[lo:hi].astype(object)
        viol = seg_n * best_den > best_num * seg_d
        bad = [int(lo + i) for i in np.nonzero(viol)[0]]
        checked = hi - lo
    else:
        rng = random.Random(seed)
        points = sorted({lo} | {rng.randrange(lo, hi) for _ in range(REDUCTION_SAMPLES)})
        for m in points:
            fz = factorize(m, table)
            if psi_from_factors(fz) * best_den > best_num * m:
                bad.append(m)
        checked = len(points)
    return ClaimResult(
        claim_id=f"reduction-{n_index}",
        covered={"m": [lo, hi - 1], "exhaustive": exhaustive, "checked": checked},
        counterexamples=bad,
        details={"n_index": n_index, "psi_ratio": [best_num, best_den]},
    )


def _reduction_claim(table: PrimeTable, config: VerifyConfig) -> ClaimResult:
    blocks = []
    bad: list[int] = []
    checked = 0
    for idx in range(2, REDUCTION_SAMPLED_MAX + 1):
        sub = reduction_check(idx, table=table, seed=config.seed + idx)
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


def verify_upper(table: PrimeTable, n_max: int = VerifyConfig.n_max) -> ClaimResult:
    """Three-part upper-bound verification mirroring the proof structure.

    (a) exhaustive certified R(n) < e^gamma on 31..210 (plus the witness
        list of n <= 30 where R(n) >= e^gamma, showing 30 is sharp);
    (b) R(N_n) < e^gamma along primorials for 4 <= n <= 2262 (row ``UPPER``);
    (c) the ``threshold`` row at index 2263, which covers every n >= 2263.
        Its lhs exp(2/p_n) (1 + 1.125/(log p_n log theta(p_n))) strictly
        decreases in n: p_n and theta(p_n) increase, and log p_n and
        log theta(p_n) are positive there.  So the threshold at 2263 holds
        at every later index, whatever ``n_max`` is.

    (b) and (c) re-decide an INCONCLUSIVE point on the 113-bit path.
    """
    return _run_alone("upper", table, n_max)


def _upper_claim(table: PrimeTable, config: VerifyConfig) -> _Prefix:
    """The rows of :func:`verify_upper`: (b) the ``UPPER`` row, (c) the ``threshold`` row at its first index."""
    _check_reach("upper", table, config, FIRST_INDEX_AT_20000)
    b = BoundScan("upper", UPPER.start, UPPER_PRIMORIAL_STOP)
    c = BoundScan("threshold", FIRST_INDEX_AT_20000, FIRST_INDEX_AT_20000)
    threshold = BOUNDS["threshold"]
    rows = [
        (UPPER.sums, _read_bound(table, UPPER, b, range(b.start, b.stop + 1))),
        (threshold.sums, _read_bound(table, threshold, c, (c.start,), keep=(c.start,))),
    ]
    return rows, partial(_upper_result, table)


def _upper_result(table: PrimeTable, scans: list[BoundScan]) -> ClaimResult:
    """``upper`` from the scans of its rows (b) and (c); decides (a), which reads no prefix sums."""
    b, c = scans

    def status(n: int, claim: str) -> VerdictStatus:  # of R(n) CLAIM e^gamma
        return ball_status(sub_ball(robin_ratio(n, table), E_GAMMA), claim)

    # (a) exhaustive small range, certified; witnesses below 31
    witnesses = [n for n in range(3, 31) if status(n, ">=") is VerdictStatus.HOLDS]
    a_bad = [n for n in range(31, UPPER_SMALL_STOP + 1) if status(n, "<") is not VerdictStatus.HOLDS]
    # R(N_3) = R(30) >= e^gamma: the bound genuinely starts at n = 4
    r30_high = status(30, ">") is VerdictStatus.HOLDS

    bad = a_bad + b.failed_at + c.failed_at
    return ClaimResult(
        claim_id="upper",
        covered={
            "a_small": [31, UPPER_SMALL_STOP],
            "b_primorial_index": [b.start, b.stop],
            "c_threshold_from": FIRST_INDEX_AT_20000,
        },
        counterexamples=bad,
        details={
            "a": {"counterexamples": a_bad, "witnesses_below_31": witnesses, "witness_30": r30_high},
            "b": {"counterexamples": b.failed_at, "worst_margin": b.worst_slack, "worst_at": b.worst_at},
            "c": {"counterexamples": c.failed_at, "threshold_margin": c.margins[c.start]},
        },
    )


# ---------------------------------------------------------------------------
# lower bound: the RH-criterion scan, and the margin trend at checkpoints
# ---------------------------------------------------------------------------


def verify_lower(table: PrimeTable, n_max: int) -> ClaimResult:
    """Certified scan of R(N_n) > e^gamma/zeta(2) for 3 <= n <= n_max.

    The rows ``LOWER`` (on the ``plus`` sums) and ``DUAL``, the equivalent
    criterion g(p_n) < 1 on its own ``inv`` sums, are each decided by
    brackets at every n.  Each row re-decides its own INCONCLUSIVE point on
    the 113-bit path; a ball FAILS is certified and stays.  Any failure
    would contradict a range where the criterion is known to hold, so it is
    a counterexample, and an index where the rows disagree is a
    ``dual_mismatch``.  ``min_margin`` comes from the indices decided alone.
    """
    return _run_alone("lower", table, n_max)


def _lower_claim(table: PrimeTable, config: VerifyConfig) -> _Prefix:
    _check_reach("lower", table, config, config.n_max)
    return _lower_rows(table, range(LOWER.start, config.n_max + 1)), _lower_result


def _lower_rows(table: PrimeTable, indices) -> list[Reader]:
    """The rows ``LOWER`` and ``DUAL`` of :func:`verify_lower` at the ascending ``indices``.

    Each is a reader ``bounds._read_bound`` of its own, booking its own
    ``BoundScan``.  Each of the :data:`CHECKPOINTS` among the indices is
    decided alone and keeps its margin.
    """
    if not indices or indices[0] < LOWER.start:
        raise RangeError(f"lower: the scan needs n_max >= {LOWER.start}, and indices from n = {LOWER.start} on")
    return [
        (row.sums, _read_bound(table, row, BoundScan(name, indices[0], indices[-1]), indices, _AT_CHECKPOINT))
        for row, name in ((LOWER, "lower"), (DUAL, "dual"))
    ]


def _lower_result(scans: list[BoundScan]) -> ClaimResult:
    """``lower`` from its rows' scans; each checkpoint's ``LOWER`` margin must be certified below the one before."""
    scan, dual = scans
    margins = scan.margins
    at = list(margins)
    drops = (ball_status(sub_ball(margins[b], margins[a]), "<") for a, b in zip(at, at[1:]))
    trend_bad = [b for b, drop in zip(at[1:], drops) if drop is not VerdictStatus.HOLDS]
    dual_mismatch = sorted(set(scan.failed_at) ^ set(dual.failed_at))
    return ClaimResult(
        claim_id="lower",
        covered={"n": [scan.start, scan.stop]},
        counterexamples=sorted(set(scan.failed_at + trend_bad + dual_mismatch)),
        details={
            "checkpoint_margins": {str(n): m for n, m in margins.items()},
            "margins_decreasing": not trend_bad,
            "min_margin": scan.worst_slack,
            "min_at": scan.worst_at,
            "escalated_at": sorted(set(scan.escalated_at + dual.escalated_at)),
            "dual_mismatch": dual_mismatch,
        },
    )


def mertens_limit_trend(table: PrimeTable, n_max: int) -> ClaimResult:
    """Margins R(N_n) - e^gamma/zeta(2) at the :data:`CHECKPOINTS` up to ``n_max``.

    Asserts each margin is certified positive, with its dual g(p_n) < 1, and
    the sequence strictly decreases; a trend consistent with the limit, not
    a proof of it.  It is ``lower``'s rows at the checkpoints alone: the
    rows ``LOWER`` and ``DUAL`` decide each checkpoint alone and re-decide
    an INCONCLUSIVE one on the 113-bit path.
    """
    return _run_alone("mertens-trend", table, n_max)


def _mertens(table: PrimeTable, config: VerifyConfig) -> _Prefix:
    """``lower``'s rows at the live checkpoints; raises before any pass if there is none."""
    live = config.live_checkpoints()
    if not live:
        raise RangeError(f"mertens-trend: n_max={config.n_max} is below the first checkpoint, {CHECKPOINTS[0]}")
    _check_reach("mertens-trend", table, config, live[-1])
    return _lower_rows(table, live), partial(_mertens_result, live)


def _mertens_result(live: tuple[int, ...], scans: list[BoundScan]) -> ClaimResult:
    """``lower``'s result at the live checkpoints, reported as ``mertens-trend``."""
    lower = _lower_result(scans)
    margins = lower.details["checkpoint_margins"]
    return ClaimResult("mertens-trend", {"checkpoints": list(live)}, lower.counterexamples, {"margins": margins})


# ---------------------------------------------------------------------------
# bound-scan claims, the claim table and the one prefix pass
# ---------------------------------------------------------------------------


def _check_reach(cid: str, table: PrimeTable, config: VerifyConfig, top: int) -> None:
    """Raise, before any pass, if claim ``cid`` would read an index past the table."""
    if top > table.count:
        raise RangeError(f"{cid}: n_max={config.n_max} reads index {top}, past the table's {table.count} primes")


def _run_alone(cid: str, table: PrimeTable, n_max: int) -> ClaimResult:
    """The prefix claim ``cid`` alone: one pass serving the rows its claim-table entry builds, then its finish."""
    rows, finish = _CLAIMS[cid].run(table, VerifyConfig(n_max=n_max))
    return finish(serve(table, rows))


def _bound_claim(table: PrimeTable, config: VerifyConfig, name: str) -> _Prefix:
    start = BOUNDS[name].start
    stop = max(start, config.n_max)  # always the first valid index, however small n_max is
    _check_reach(name, table, config, stop)
    return [bound_reader(table, name, start, stop)], partial(_bound_result, name)


def _bound_result(name: str, scans: list[BoundScan]) -> ClaimResult:
    (scan,) = scans
    failed = list(scan.failed_at)
    covered = {"n": [scan.start, scan.stop], "points_checked": scan.points_checked}
    if name != "robin-log":
        return ClaimResult(name, covered, failed, scan.to_dict())
    # the robin-log scan may fail at small n; the claim is where it settles, which
    # must come before the index the composite bound relies on
    holds_from = (max(failed) + 1) if failed else BOUNDS[name].start
    settled = [] if holds_from <= FIRST_INDEX_AT_20000 else [holds_from]
    details = {"holds_from_index": holds_from, "below_validity": failed, "scan": scan.to_dict()}
    return ClaimResult(name, covered, settled, details)


# a prefix claim: its rows, served by one pass, and the finish that turns their returns into its result
_Prefix = tuple[list[Reader], Callable[[list], ClaimResult]]


class _Claim(NamedTuple):
    description: str
    # the ClaimResult of an exact claim, or the rows and the finish of a claim that reads prefix sums
    run: Callable[[PrimeTable, VerifyConfig], ClaimResult | _Prefix]


def _bound_entry(description: str, name: str) -> _Claim:
    return _Claim(description, partial(_bound_claim, name=name))


# id -> claim, in report order.  champion_scan is looked up when its runner is
# called, so a wrapper installed on this module (tracing, monkeypatching) sees it.
_CLAIMS: dict[str, _Claim] = {
    "champions": _Claim(
        "primorials are exactly the champions of psi(m)/m (exact)",
        lambda table, config: champion_scan(config.champion_limit, table),
    ),
    "reduction": _Claim("R(m) <= R(N_n) for N_n <= m < N_{n+1} (exact)", _reduction_claim),
    "upper": _Claim("R(n) < e^gamma for n > 30 (three-part certified argument)", _upper_claim),
    "lower": _Claim("R(N_n) > e^gamma/zeta(2) for 3 <= n <= n_max (RH criterion scan)", _lower_claim),
    "mertens-trend": _Claim("margin to e^gamma/zeta(2) positive and decreasing at checkpoints", _mertens),
    "rs-product": _bound_entry("partial Euler product bound e^gamma(log x + 1/log x)", "rs-product"),
    "zeta-tail": _bound_entry("tail bound zeta(2) prod(1-1/p^2) <= exp(2/p_n)", "zeta-tail"),
    "psi-bound": _bound_entry("psi(N_n)/N_n composite bound for p_n >= 20000", "psi-bound"),
    "threshold": _bound_entry("exp(2/p_n)(1 + 1.125/(log p_n log log N_n)) <= zeta(2)", "threshold"),
    "robin-log": _bound_entry("log p_n < log log N_n + 0.125/log p_n (validity start reported)", "robin-log"),
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


def run_claims(claim_ids: list[str] | None, table: PrimeTable, config: VerifyConfig | None = None) -> dict:
    """Run claims (default: all) and assemble the deterministic report.

    Each claim runs once, and the report lists them in claim-table order.
    The exact claims run first; then one :func:`series.serve` pass serves
    the rows of every selected claim that reads prefix sums, and each
    claim's finish turns its rows' scans into its result.
    """
    config = config or VerifyConfig()
    ids = CLAIM_IDS if claim_ids is None else claim_ids
    check_claim_ids(ids)
    selected = [cid for cid in _CLAIMS if cid in ids]
    results = {cid: _CLAIMS[cid].run(table, config) for cid in selected}
    prefix = {cid: made for cid, made in results.items() if not isinstance(made, ClaimResult)}
    scans = iter(serve(table, [row for rows, _ in prefix.values() for row in rows]))
    results.update({cid: finish(list(islice(scans, len(rows)))) for cid, (rows, finish) in prefix.items()})
    return {
        "config": config.to_dict(),
        "claims": {cid: results[cid].to_dict() for cid in selected},
        "all_hold": all(result.holds for result in results.values()),
    }
