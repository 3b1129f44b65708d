"""Claim-level verifications against independent oracles."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from psiverify.arith import primorial, psi_ratio_tables
from psiverify.bounds import BOUNDS, DUAL, FIRST_INDEX_AT_20000, LOWER
from psiverify.claims import (
    CHECKPOINTS,
    CLAIM_IDS,
    UPPER_PRIMORIAL_STOP,
    UPPER_SMALL_STOP,
    ClaimResult,
    VerifyConfig,
    champion_scan,
    claim_description,
    mertens_limit_trend,
    reduction_check,
    required_table_limit,
    run_claims,
    verify_lower,
    verify_upper,
)
from psiverify.errors import DomainError, RangeError, UnknownClaimError
from psiverify.numerics import VerdictStatus
from psiverify.primes import build_table
from psiverify.series import TERMS


def brute_psi_ratio(n: int) -> Fraction:
    out = Fraction(1)
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out *= Fraction(p + 1, p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out *= Fraction(m + 1, m)
    return out


def brute_champions(limit: int) -> list[int]:
    best = Fraction(1)
    out = []
    for n in range(2, limit + 1):
        q = brute_psi_ratio(n)
        if q > best:
            out.append(n)
            best = q
    return out


def test_champions_tiny_limits():
    assert champion_scan(5).details["champions"] == [2]
    assert champion_scan(6).details["champions"] == [2, 6]
    assert champion_scan(4).details["champions"] == [2]  # psi(4)/4 ties psi(2)/2


def test_champions_match_brute_force_oracle():
    res = champion_scan(2000)
    assert res.details["champions"] == brute_champions(2000)
    assert res.holds


def full_loop_champions(limit: int) -> list[int]:
    """Reference decision: the exact cross-multiplication at every m in [2, limit]."""
    num, den = psi_ratio_tables(limit)
    nums, dens = num.tolist(), den.tolist()
    champions = []
    best_n, best_d = 1, 1
    for m in range(2, limit + 1):
        if nums[m] * best_d > best_n * dens[m]:
            champions.append(m)
            best_n, best_d = nums[m], dens[m]
    return champions


@pytest.mark.parametrize(
    "limit",
    [*range(1, 8), 29, 30, 31, 209, 210, 211, 2309, 2310, 2311, 30029, 30030, 30031,
     510509, 510510, 510511, 10**6],
)
def test_champion_filter_equals_the_full_loop(limit):
    assert champion_scan(limit).details["champions"] == full_loop_champions(limit)


def test_champion_scan_peak_memory_per_m():
    """The scan holds the two int64 tables, two float64 rows and a mask: no per-m Python objects."""
    limit = 10**6
    champion_scan(1000)  # the shared primorial table is built once per process
    tracemalloc.start()
    try:
        champion_scan(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (limit + 1) < 40


def test_champions_equal_primorials_to_1e4():
    res = champion_scan(10**4)
    assert res.holds
    assert res.details["champions"] == [2, 6, 30, 210, 2310]
    assert res.details["champions"] == res.details["primorials"]


def test_reduction_exhaustive_n3(table):
    res = reduction_check(3, table=table)
    assert res.holds
    assert res.covered["checked"] == 180  # all of [30, 210)
    assert res.covered["m"] == [30, 209]
    assert res.details["psi_ratio"] == [3 * 4 * 6, 30]


def test_reduction_equality_branch(table):
    # m = N_n itself is included and holds with equality
    res = reduction_check(2, table=table)
    assert res.covered["m"][0] == 6
    assert res.holds


def test_reduction_sampled_deterministic(table):
    # n_index 6 is the first block past REDUCTION_EXHAUSTIVE_MAX, so it is sampled
    a = reduction_check(6, table=table, seed=7)
    b = reduction_check(6, table=table, seed=7)
    assert a.holds and b.holds
    assert a.covered["exhaustive"] is False
    assert a.to_dict() == b.to_dict()


def test_reduction_oracle_on_block(table):
    # independent: exhaustive Fractions over [N_4, N_5)
    best = brute_psi_ratio(210)
    assert all(brute_psi_ratio(m) <= best for m in range(210, 2310))
    assert reduction_check(4, table=table).holds


def test_reduction_validation(table):
    with pytest.raises(RangeError):
        reduction_check(1, table=table)


def test_verify_upper(table):
    res = verify_upper(table)
    assert res.holds
    a = res.details["a"]
    assert a["counterexamples"] == []
    assert 30 in a["witnesses_below_31"]
    assert 7 not in a["witnesses_below_31"]  # R(7) < e^gamma already
    assert a["witness_30"] is True
    b = res.details["b"]
    assert b["counterexamples"] == []
    assert b["worst_at"] == 4  # margin is thinnest right at the start
    c = res.details["c"]
    assert c["counterexamples"] == []
    assert c["threshold_margin"][0] < 0  # lhs - zeta(2) stays negative


def test_verify_lower_shallow(table):
    res = verify_lower(table, 2000)
    assert res.holds
    assert res.details["dual_mismatch"] == []
    assert res.details["margins_decreasing"] is True
    assert res.details["min_margin"] > 0
    margins = res.details["checkpoint_margins"]
    assert set(margins) == {"10", "100", "1000"}
    assert margins["10"][0] > margins["100"][0] > margins["1000"][0] > 0


def _first_status_inconclusive(monkeypatch, orientation: str | None = None) -> None:
    """Make the first ``bounds.ball_status`` call INCONCLUSIVE, as a thin margin would.

    With an ``orientation``, the first call on a row of that orientation.
    """
    import psiverify.bounds as bounds_mod

    real_status = bounds_mod.ball_status
    state = {"forced": False}

    def flaky_status(margin, claim):
        status = real_status(margin, claim)
        if not state["forced"] and orientation in (None, claim):
            state["forced"] = True
            return VerdictStatus.INCONCLUSIVE
        return status

    monkeypatch.setattr(bounds_mod, "ball_status", flaky_status)


def test_verify_lower_escalates_to_the_interval_path(table, monkeypatch):
    """Force one INCONCLUSIVE so the 113-bit recompute must decide n = 3."""
    from psiverify.bounds import _interval_sides
    from psiverify.series import stream_points

    point = next(p for p in stream_points(table, 25) if p.n == 25)
    (ratio, radius), _ = _interval_sides(table, LOWER, 25)
    assert abs(ratio - point.ratio_ball[0]) <= radius + point.ratio_ball[1]
    assert radius <= point.ratio_ball[1]

    # the first ball comparison in bounds decides LOWER at n = 3, the first index, alone
    _first_status_inconclusive(monkeypatch)
    res = verify_lower(table, 50)
    assert res.details["escalated_at"] == [3]
    assert res.details["dual_mismatch"] == []
    assert res.holds


def test_verify_lower_reports_an_escalated_dual_that_disagrees(table, monkeypatch):
    """An escalated DUAL point is re-decided on its own 113-bit inv sums, so a fault there shows."""
    import psiverify.bounds as bounds_mod
    from psiverify.bounds import _interval_sides

    def shifted_sides(table, bound, n):
        (lhs, radius), rhs = _interval_sides(table, bound, n)
        return ((lhs + 1.0, radius) if bound is DUAL else (lhs, radius)), rhs

    # DUAL is the row claimed "<": its first decision is n = 3, alone
    _first_status_inconclusive(monkeypatch, DUAL.claim)
    monkeypatch.setattr(bounds_mod, "_interval_sides", shifted_sides)
    res = verify_lower(table, 50)
    assert res.details["escalated_at"] == [3]
    assert res.details["dual_mismatch"] == [3]
    assert res.counterexamples == [3]
    assert not res.holds


def test_bracketed_lower_reports_what_every_point_decided_alone_reports(table, monkeypatch):
    # the per-index reference: each point's margin and g decided alone, as lower once did
    import psiverify.claims as claims_mod
    from psiverify.numerics import ball_endpoints, ball_status, sub_ball
    from psiverify.series import points_at

    n_max = 2 * 10**4
    min_margin, min_at, margins = math.inf, None, {}
    for point in points_at(table, range(LOWER.start, n_max + 1)):
        assert ball_status(point.margin_ball, ">") is VerdictStatus.HOLDS, point.n
        assert ball_status(sub_ball(point.g_ball, (1.0, 0.0)), "<") is VerdictStatus.HOLDS, point.n
        low = ball_endpoints(point.margin_ball)[0]
        if low < min_margin:
            min_margin, min_at = low, point.n
        if point.n in CHECKPOINTS:
            margins[str(point.n)] = point.margin_ball

    scans = []
    real_read = claims_mod._read_bound

    def spy(table, bound, scan, *args):
        scans.append(scan)
        return real_read(table, bound, scan, *args)

    monkeypatch.setattr(claims_mod, "_read_bound", spy)
    res = verify_lower(table, n_max)
    assert res.holds
    assert res.covered == {"n": [LOWER.start, n_max]}
    # no margin is 0.0 or NaN, so float equality is bit equality
    assert res.details["checkpoint_margins"] == margins
    assert (res.details["min_margin"], res.details["min_at"]) == (min_margin, min_at)
    assert [(scan.bound, scan.holds, scan.points_checked) for scan in scans] == [
        ("lower", n_max - 2, n_max - 2),
        ("dual", n_max - 2, n_max - 2),
    ]


def test_lower_without_brackets_reports_the_same(table, monkeypatch):
    # every hull rejected: each index is decided alone, and the report keeps its value
    import psiverify.bounds as bounds_mod

    bracketed = verify_lower(table, 3000).to_dict()

    def no_hull(a, b):
        raise DomainError("forced")

    monkeypatch.setattr(bounds_mod, "hull_ball", no_hull)
    assert verify_lower(table, 3000).to_dict() == bracketed


def test_a_lower_point_that_fails_is_a_counterexample_and_a_dual_mismatch(table, monkeypatch):
    # LOWER's lhs shifted down by 1 at n = 1500, on its own ball and on every hull over it
    import psiverify.claims as claims_mod

    target = table.nth_prime(1500)

    def failing_sides(A, x, loglog, s_plus):
        lhs, rhs = LOWER.sides(A, x, loglog, s_plus)
        lo, hi = x if isinstance(x, tuple) else (x, x)
        return (A.add(lhs, A.exact(-1.0)) if lo <= target <= hi else lhs), rhs

    monkeypatch.setattr(claims_mod, "LOWER", dataclasses.replace(LOWER, sides=failing_sides))
    res = verify_lower(table, 3000)
    assert res.counterexamples == [1500]
    assert res.details["dual_mismatch"] == [1500]
    assert res.details["escalated_at"] == []
    assert res.details["min_at"] == 1500


def test_verify_lower_validation(table):
    with pytest.raises(RangeError):
        verify_lower(table, 2)


def test_upper_escalates_an_inconclusive_primorial_point(table, monkeypatch):
    # the first ball comparison in bounds is (b)'s UPPER row at n = 4; the 113-bit path decides it
    _first_status_inconclusive(monkeypatch)
    res = run_claims(["upper"], table, VerifyConfig(n_max=3000))["claims"]["upper"]
    assert res["holds"], res["counterexamples"]
    assert res["details"]["b"]["counterexamples"] == []


def test_upper_escalates_an_inconclusive_threshold_part(table, monkeypatch):
    # (c) is the one row claimed "<=": its threshold at n = 2263, which the 113-bit path re-decides
    import psiverify.bounds as bounds_mod

    escalated = []
    real_sides = bounds_mod._interval_sides

    def spy(table, bound, n):
        escalated.append(n)
        return real_sides(table, bound, n)

    monkeypatch.setattr(bounds_mod, "_interval_sides", spy)
    _first_status_inconclusive(monkeypatch, BOUNDS["threshold"].claim)
    res = run_claims(["upper"], table, VerifyConfig(n_max=3000))["claims"]["upper"]
    assert escalated == [FIRST_INDEX_AT_20000]
    assert res["holds"], res["counterexamples"]
    assert res["details"]["c"]["counterexamples"] == []


def test_mertens_trend_escalates_an_inconclusive_checkpoint(table, monkeypatch):
    # the first ball comparison in bounds decides LOWER at the checkpoint n = 10
    _first_status_inconclusive(monkeypatch)
    res = run_claims(["mertens-trend"], table, VerifyConfig(n_max=1000))["claims"]["mertens-trend"]
    assert res["holds"], res["counterexamples"]


@pytest.mark.parametrize("cid", ["lower", "zeta-tail", "mertens-trend", "upper"])
def test_a_prefix_claim_past_the_table_raises_before_the_pass(monkeypatch, cid):
    # 168 primes, n_max 10^4: each claim reads past p_168, and says so before it sums a prime
    short = build_table(1000)
    passes = _start_spy(monkeypatch)
    with pytest.raises(RangeError, match=rf"^{cid}: n_max=10000 reads index \d+, past the table's 168 primes$"):
        run_claims([cid], short, VerifyConfig(n_max=10**4))
    assert passes == []


def test_mertens_trend(table):
    res = mertens_limit_trend(table, 1000)
    assert res.holds
    m = res.details["margins"]
    assert m["10"][0] > m["100"][0] > m["1000"][0] > 0
    # frozen from the first run: R(N_10) - e^gamma/zeta(2) = 0.1608...
    assert m["10"][0] == pytest.approx(0.16082, abs=1e-4)


def test_mertens_trend_validation(table):
    with pytest.raises(RangeError):
        mertens_limit_trend(table, 10**7)
    # n_max, not the table, filters out every checkpoint: the message says so
    with pytest.raises(RangeError, match=r"n_max=9 is below the first checkpoint, 10"):
        run_claims(["mertens-trend"], table, VerifyConfig(n_max=9))


def test_deep_runs_report_checkpoints_past_1e5():
    # 10^6 and 10^7 are live only in deep runs, so no report at n_max <= 10^5 moves
    assert VerifyConfig().live_checkpoints() == (10, 100, 1000, 10**4, 10**5)
    assert VerifyConfig(n_max=10**6).live_checkpoints() == (10, 100, 1000, 10**4, 10**5, 10**6)
    assert VerifyConfig(n_max=10**7).live_checkpoints()[-2:] == (10**6, 10**7)


def test_claim_result_holds_semantics():
    ok = ClaimResult("x", {"n": [1, 2]})
    assert ok.holds and ok.to_dict()["holds"] is True
    bad = ClaimResult("x", {"n": [1, 2]}, counterexamples=[7])
    assert not bad.holds and bad.to_dict()["counterexamples"] == [7]


def test_registry_covers_descriptions():
    for cid in CLAIM_IDS:
        assert claim_description(cid)


def test_run_claims_unknown_id(table):
    with pytest.raises(UnknownClaimError):
        run_claims(["nope"], table, VerifyConfig())


def test_run_claims_subset_and_json(table):
    config = VerifyConfig(champion_limit=10**4, n_max=500)
    report = run_claims(["champions", "mertens-trend", "zeta-tail"], table, config)
    assert report["all_hold"]
    assert list(report["claims"]) == ["champions", "mertens-trend", "zeta-tail"]
    json.dumps(report, allow_nan=False)  # strict-JSON clean


def test_run_claims_worker_count_invariance(table):
    config = VerifyConfig(champion_limit=10**4, n_max=3000)
    r1 = run_claims(None, table, config)
    r2 = run_claims(None, table, config)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["all_hold"]


def test_upper_seams_follow_the_proof():
    # (a) ends at N_4 = 210; (b) hands over to (c) at the first index with p_n >= 20000
    assert UPPER_SMALL_STOP == primorial(4)
    assert UPPER_PRIMORIAL_STOP + 1 == FIRST_INDEX_AT_20000


def test_verify_config_has_three_settings_and_reports_the_fixed_ones():
    assert [f.name for f in dataclasses.fields(VerifyConfig)] == ["champion_limit", "n_max", "seed"]
    assert VerifyConfig(n_max=500).to_dict() == {
        "champion_limit": 10**6,
        "n_max": 500,
        "upper_small_stop": 210,
        "upper_primorial_stop": 2262,
        "reduction_exhaustive_max": 5,
        "reduction_sampled_max": 8,
        "reduction_samples": 2000,
        "seed": 1018,
        "checkpoints": [10, 100],
        "stride": {"dense_until": 10**4, "ratio": 1.01},
    }


def test_required_table_limit_covers_nth_prime(table):
    # Rosser-style estimate must cover p_{n_max}
    assert required_table_limit(10**5) >= 1299709
    assert math.isqrt(required_table_limit(10**5)) < table.limit


def _start_spy(monkeypatch) -> list:
    """(kinds, cursor) of every prefix pass started; the cursor's ``done`` is the last index it reached."""
    import psiverify.series as series_mod

    passes = []

    class Spy(series_mod._PrefixCursor):
        def __init__(self, table, kinds):
            super().__init__(table, kinds)
            passes.append((tuple(kinds), self))

    monkeypatch.setattr(series_mod, "_PrefixCursor", Spy)
    return passes


@pytest.mark.parametrize("n_max", [3000, 1000])
def test_claims_run_alone_equal_their_entries_in_the_shared_run(table, n_max):
    # at 1000, psi-bound and threshold scan only 2263 and the upper (c)
    # steps lie past n_max, so the shared pass records past the lower scan
    config = VerifyConfig(champion_limit=10**4, n_max=n_max)
    full = run_claims(None, table, config)["claims"]
    for cid in CLAIM_IDS:
        alone = run_claims([cid], table, config)["claims"][cid]
        assert json.dumps(alone) == json.dumps(full[cid]), cid
    for subset in (["lower", "zeta-tail"], ["upper", "criterion-gap", "mertens-trend"]):
        shared = run_claims(subset, table, config)["claims"]
        expected = {cid: body for cid, body in full.items() if cid in subset}  # report order
        assert json.dumps(shared) == json.dumps(expected), subset


def test_one_prefix_pass_per_verify_run(table, monkeypatch):
    passes = _start_spy(monkeypatch)
    report = run_claims(None, table, VerifyConfig(champion_limit=10**4, n_max=3000))
    claims = report["claims"]
    assert report["all_hold"]
    assert claims["lower"]["details"]["escalated_at"] == []
    assert all(claims[name]["details"]["escalated_at"] == [] for name in BOUNDS if name != "robin-log")
    assert claims["robin-log"]["details"]["scan"]["escalated_at"] == []
    assert [kinds for kinds, _ in passes] == [tuple(TERMS)]


def test_lower_alone_runs_its_own_pass_and_records_nothing(table, monkeypatch):
    passes = _start_spy(monkeypatch)
    assert run_claims(["lower"], table, VerifyConfig(n_max=3000))["all_hold"]
    assert [(kinds, cursor.done) for kinds, cursor in passes] == [(("plus", "inv"), 3000)]


def test_upper_alone_sums_plus_only(table, monkeypatch):
    passes = _start_spy(monkeypatch)
    assert run_claims(["upper"], table, VerifyConfig(n_max=3000))["all_hold"]
    assert [kinds for kinds, _ in passes] == [("plus",)]


def test_upper_factors_on_the_run_table(table, monkeypatch):
    # (a) factors n <= 210 on the run's table, so the run sieves no table of arith's own
    import psiverify.arith as arith_mod

    calls = []
    real = arith_mod.build_table

    def spy(limit, **kwargs):
        calls.append(limit)
        return real(limit, **kwargs)

    monkeypatch.setattr(arith_mod, "build_table", spy)
    assert run_claims(["upper"], table, VerifyConfig(n_max=3000))["all_hold"]
    assert calls == []


@pytest.mark.parametrize("cid", CLAIM_IDS)
def test_one_prefix_pass_per_claim_run_alone(table, monkeypatch, cid):
    passes = _start_spy(monkeypatch)
    report = run_claims([cid], table, VerifyConfig(champion_limit=10**4, n_max=20000))
    assert report["all_hold"]
    assert len(passes) <= 1
