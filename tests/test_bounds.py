"""Analytic bound rows at single indices, scan machinery, and the escalation path."""

from __future__ import annotations

import json

import pytest

import psiverify.bounds as bounds_mod
from psiverify.bounds import (
    _BALL,
    BOUNDS,
    BoundScan,
    _interval_sides,
    scan_bound,
    stride_indices,
)
from psiverify.errors import DomainError, RangeError
from psiverify.numerics import VerdictStatus, ball_status, log_ball, sub_ball
from psiverify.series import prefix_sums


def _sides(table, row, n):
    """The per-index oracle: the row's ``(lhs, rhs)`` balls at index n, from one prefix pass."""
    ((_, theta, sums),) = prefix_sums(table, row.sums, (n,))
    return row.sides(_BALL, table.nth_prime(n), log_ball(theta), *sums)


def _at(table, name, n):
    """The bound ``name`` decided at index n alone: the scan of [n, n]."""
    scan = scan_bound(table, name, n, n)
    assert scan.points_checked == 1
    return scan


def test_rs_product_at_2(table):
    assert _at(table, "rs-product", 1).holds == 1
    lhs, rhs = _sides(table, BOUNDS["rs-product"], 1)
    assert abs(lhs[0] - 2.0) <= lhs[1]
    assert abs(rhs[0] - 3.8040896698015638) < 1e-12


def test_rs_product_at_3(table):
    assert _at(table, "rs-product", 2).holds == 1
    lhs, rhs = _sides(table, BOUNDS["rs-product"], 2)
    assert abs(lhs[0] - 3.0) <= lhs[1]
    assert abs(rhs[0] - 3.5779100257296446) < 1e-12


def test_rs_product_at_20000(table):
    # the row is read at primes: at p_n = 19997, the largest prime <= 20000, the
    # product is the one at 20000 and the rhs, increasing in x, is smaller
    n = table.prime_count(20000)
    assert table.nth_prime(n) == 19997
    assert _at(table, "rs-product", n).holds == 1


def test_rs_product_domain(table):
    with pytest.raises(DomainError):
        scan_bound(table, "rs-product", 0, 0)
    with pytest.raises(RangeError):
        scan_bound(table, "rs-product", table.count + 1, table.count + 1)


def test_zeta_tail_at_2(table):
    assert _at(table, "zeta-tail", 2).holds == 1
    # zeta(2) (3/4)(8/9) = zeta(2) 2/3 and exp(2/3)
    lhs, rhs = _sides(table, BOUNDS["zeta-tail"], 2)
    assert abs(lhs[0] - 1.0966227112321510) < 1e-12
    assert abs(rhs[0] - 1.9477340410546759) < 1e-12


def test_zeta_tail_margin_shrinks(table):
    r2, r25, r500 = (_at(table, "zeta-tail", n) for n in (2, 25, 500))
    assert r25.holds == r500.holds == 1
    assert r2.worst_slack > r25.worst_slack > r500.worst_slack > 0
    # both sides head to 1 from above, staying ordered
    lhs, rhs = _sides(table, BOUNDS["zeta-tail"], 500)
    assert 1 < lhs[0] < rhs[0] < 1.01


def test_zeta_tail_domain(table):
    with pytest.raises(DomainError):
        scan_bound(table, "zeta-tail", 1, 1)


def test_psi_bound_at_first_valid_index(table):
    r = _at(table, "psi-bound", 2263)
    assert r.holds == 1
    assert r.worst_slack > 0.1  # regression: 0.1075 at first computation


@pytest.mark.parametrize("n", [5000, 10**4])
def test_psi_bound_scan_points(table, n):
    assert _at(table, "psi-bound", n).holds == 1


def test_psi_bound_domain_cites_hypothesis(table):
    with pytest.raises(DomainError, match="2263"):
        scan_bound(table, "psi-bound", 2262, 2262)


def test_psi_bound_margin_reproducible_bitwise(table):
    a = sub_ball(*_sides(table, BOUNDS["psi-bound"], 3000))
    b = sub_ball(*_sides(table, BOUNDS["psi-bound"], 3000))
    assert a == b
    assert a[0] < 0  # rhs - lhs stays positive
    assert _at(table, "psi-bound", 3000).worst_slack == _at(table, "psi-bound", 3000).worst_slack
    s1 = scan_bound(table, "psi-bound", 2263, 2400)
    s2 = scan_bound(table, "psi-bound", 2263, 2400)
    assert s1.worst_slack == s2.worst_slack and s1.worst_at == s2.worst_at


def test_threshold_at_first_valid_index(table):
    assert _at(table, "threshold", 2263).holds == 1
    _, rhs = _sides(table, BOUNDS["threshold"], 2263)
    assert abs(rhs[0] - 1.6449340668482264) < 1e-15


def test_threshold_monotone_pairwise(table):
    # lhs(n+1) < lhs(n), certified, at the start of the validity range
    row = BOUNDS["threshold"]
    for n in (2263, 2264, 5000):
        step = sub_ball(_sides(table, row, n + 1)[0], _sides(table, row, n)[0])
        assert ball_status(step, "<") is VerdictStatus.HOLDS


def test_threshold_margin_grows(table):
    assert _at(table, "threshold", 10**5).worst_slack > _at(table, "threshold", 2263).worst_slack


def test_threshold_domain(table):
    with pytest.raises(DomainError):
        scan_bound(table, "threshold", 2262, 2262)


def test_robin_log_points(table):
    assert _at(table, "robin-log", 2263).holds == 1
    assert _at(table, "robin-log", 10**4).holds == 1
    # fails well below the validity start: the start is empirical, not assumed
    assert _at(table, "robin-log", 3).fails == 1
    with pytest.raises(DomainError):
        scan_bound(table, "robin-log", 2, 2)


def test_robin_log_empirical_start(table):
    scan = scan_bound(table, "robin-log", 3, 4000)
    assert scan.fails > 0
    holds_from = max(scan.failed_at) + 1
    # frozen after the first full scan: settles at n = 2199 (p = 19421),
    # comfortably before the index 2263 the composite bound relies on
    assert holds_from == 2199
    assert all(x <= 2198 for x in scan.failed_at)


@pytest.mark.parametrize("x", [5, 100, 10**4, 20011])
def test_criterion_gap_points(table, x):
    # the row is read at primes: at x itself when x is prime, else at the largest prime below x
    r = _at(table, "criterion-gap", table.prime_count(x))
    assert r.holds == 1 and r.worst_slack > 0


def test_criterion_gap_domain(table):
    # x = 4 puts the index at 2, below the row's start 3 (p_3 = 5)
    with pytest.raises(DomainError):
        scan_bound(table, "criterion-gap", table.prime_count(4), table.prime_count(4))


def _set_stride(monkeypatch, dense_until: int, ratio: float) -> None:
    monkeypatch.setattr(bounds_mod, "DENSE_UNTIL", dense_until)
    monkeypatch.setattr(bounds_mod, "STRIDE_RATIO", ratio)


def test_stride_indices(monkeypatch):
    _set_stride(monkeypatch, 10, 1.5)
    got = list(stride_indices(2, 40))
    assert got[0] == 2 and got[-1] == 40
    assert got == sorted(set(got))
    dense = [g for g in got if g <= 10]
    assert dense == list(range(2, 11))
    assert list(stride_indices(5, 5)) == [5]
    assert list(stride_indices(6, 5)) == []
    # a step past the stop goes to the stop, also when n * ratio overflows
    _set_stride(monkeypatch, 0, 1e308)
    assert list(stride_indices(2, 5)) == [2, 5]


@pytest.mark.parametrize(
    "start,stop,dense_until,ratio", [(2, 40, 10, 1.5), (1, 10**6, 100, 1.01), (3, 5000, 0, 0.5), (7, 10**5, 50, 3e5)]
)
def test_stride_indices_follow_the_geometric_rule(monkeypatch, start, stop, dense_until, ratio):
    # reference: the step rule min(max(n + 1, int(n * ratio)), stop) past dense_until
    expected, n = [start], start
    while n < stop:
        n = min(n + 1 if n < dense_until else max(n + 1, int(n * ratio)), stop)
        expected.append(n)
    _set_stride(monkeypatch, dense_until, ratio)
    assert list(stride_indices(start, stop)) == expected


def test_scan_counts_match_stride(table, monkeypatch):
    _set_stride(monkeypatch, 50, 1.1)
    scan = scan_bound(table, "zeta-tail", 2, 300)
    assert scan.points_checked == len(list(stride_indices(2, 300)))
    assert scan.all_hold
    assert scan.worst_slack > 0


def test_scan_json_shape(table):
    scan = scan_bound(table, "rs-product", 1, 100)
    payload = scan.to_dict()
    json.dumps(payload)  # serializable
    assert payload["bound"] == "rs-product"
    assert payload["range"] == [1, 100]
    assert set(payload["verdicts"]) == {"holds", "inconclusive", "fails"}
    assert payload["points_checked"] == payload["verdicts"]["holds"]
    assert payload["worst_at"] is not None


def test_scan_over_given_indices_serializes_with_the_report_stride():
    # lower's and upper (b)'s scans are booked over indices the claim picks;
    # every scan and the report config write one stride
    from psiverify.claims import VerifyConfig

    payload = BoundScan("lower", 3, 10).to_dict()
    json.dumps(payload)
    assert payload["range"] == [3, 10]
    assert payload["stride"] == VerifyConfig().to_dict()["stride"] == {"dense_until": 10**4, "ratio": 1.01}


def test_scan_validation(table):
    with pytest.raises(ValueError):
        scan_bound(table, "no-such-bound", 1, 10)
    with pytest.raises(DomainError):
        scan_bound(table, "psi-bound", 100, 3000)
    with pytest.raises(RangeError):
        scan_bound(table, "zeta-tail", 10, 5)
    with pytest.raises(RangeError):
        scan_bound(table, "zeta-tail", 2, table.count + 1)


@pytest.mark.parametrize(
    "name,n",
    [
        ("rs-product", 25),
        ("zeta-tail", 25),
        ("psi-bound", 2263),
        ("threshold", 2263),
        ("robin-log", 2263),
        ("criterion-gap", 25),
    ],
)
def test_escalation_agrees_with_fast_path(table, name, n):
    """The 113-bit interval path must enclose the same reals, much tighter."""
    row = BOUNDS[name]
    fast_lhs, fast_rhs = _sides(table, row, n)
    lhs, rhs = _interval_sides(table, row, n)
    assert abs(lhs[0] - fast_lhs[0]) <= lhs[1] + fast_lhs[1]
    assert abs(rhs[0] - fast_rhs[0]) <= rhs[1] + fast_rhs[1]
    assert lhs[1] <= fast_lhs[1]
    assert ball_status(sub_ball(lhs, rhs), row.claim) is ball_status(sub_ball(fast_lhs, fast_rhs), row.claim)


def test_scan_escalation_branch_on_forced_inconclusive(table, monkeypatch):
    """Force the fast path to be useless so the interval retry must decide."""
    import psiverify.bounds as bounds_mod
    from psiverify.numerics import VerdictStatus

    real_status = bounds_mod.ball_status
    state = {"first": True}

    # the scan decides each point on its margin pair with the float verdict core
    def flaky_status(margin, claim):
        status = real_status(margin, claim)
        if state["first"] and margin[1] > 1e-20:
            state["first"] = False
            return VerdictStatus.INCONCLUSIVE
        return status

    monkeypatch.setattr(bounds_mod, "ball_status", flaky_status)
    scan = scan_bound(table, "zeta-tail", 25, 25)
    assert scan.escalated_at == [25]
    assert scan.all_hold


def _kernel_sides():
    """Each bound's sides, rebuilt by calling the ball kernels directly, in the
    operand order of the operator chain the formulas were first written in."""
    from psiverify.numerics import (
        E_GAMMA,
        E_GAMMA_OVER_ZETA2,
        EULER_GAMMA,
        ZETA2,
        add_ball,
        div_ball,
        exp_ball,
        int_ball,
        mul_ball,
        neg_ball,
        ratio_ball,
    )

    one, c1125, c0125 = (1.0, 0.0), (1.125, 0.0), (0.125, 0.0)
    gamma, e_gamma, zeta2, limit = EULER_GAMMA, E_GAMMA, ZETA2, E_GAMMA_OVER_ZETA2

    def rs(x, loglog, s_phi):
        logx = log_ball(int_ball(x))
        return exp_ball(neg_ball(s_phi)), mul_ball(e_gamma, add_ball(logx, div_ball(one, logx)))

    def zeta_tail(p, loglog, s_sq):
        return mul_ball(zeta2, exp_ball(s_sq)), exp_ball(ratio_ball(2, p))

    def psi_bound(p, loglog, s_plus):
        inner = add_ball(loglog, div_ball(c1125, log_ball(int_ball(p))))
        return exp_ball(s_plus), mul_ball(div_ball(exp_ball(add_ball(gamma, ratio_ball(2, p))), zeta2), inner)

    def threshold(p, loglog):
        bump = div_ball(c1125, mul_ball(log_ball(int_ball(p)), loglog))
        return mul_ball(exp_ball(ratio_ball(2, p)), add_ball(one, bump)), zeta2

    def robin(p, loglog):
        logp = log_ball(int_ball(p))
        return logp, add_ball(loglog, div_ball(c0125, logp))

    def gap(x, loglog, s_inv, s_phi):
        log_loglog = log_ball(loglog)
        lhs = add_ball(add_ball(log_ball(limit), log_loglog), s_inv)
        rhs = add_ball(add_ball(add_ball(log_ball(e_gamma), log_loglog), s_phi), ratio_ball(-2, x))
        return lhs, rhs

    return {
        "rs-product": rs,
        "zeta-tail": zeta_tail,
        "psi-bound": psi_bound,
        "threshold": threshold,
        "robin-log": robin,
        "criterion-gap": gap,
    }


def test_bound_formulas_bit_identical_to_kernel_chain(table):
    # every point of each default dense scan, on the pairs the pass yields
    reference = _kernel_sides()
    stop = bounds_mod.DENSE_UNTIL
    kinds = ("plus", "inv", "phi", "sq")
    checked = 0
    for n, theta, totals in prefix_sums(table, kinds, range(1, stop + 1)):
        sums = dict(zip(kinds, totals))
        x = table.nth_prime(n)
        for name, bound in BOUNDS.items():
            if n < bound.start:
                continue
            args = [log_ball(theta), *(sums[kind] for kind in bound.sums)]
            lhs, rhs = bound.sides(_BALL, x, *args)
            ref_lhs, ref_rhs = reference[name](x, *args)
            assert (lhs, rhs) == (ref_lhs, ref_rhs), (name, n)
            checked += 1
    assert checked == sum(stop - bound.start + 1 for bound in BOUNDS.values())


def test_claim_rows_bit_identical_to_the_points(table):
    # LOWER, DUAL and UPPER on _BALL give the margins the lower and upper scans
    # decide on the points, so the 113-bit path re-decides the same formulas
    from psiverify.bounds import DUAL, LOWER, UPPER
    from psiverify.numerics import E_GAMMA
    from psiverify.series import POINT_KINDS, points_at

    checked = 0
    indices = range(LOWER.start, 2 * 10**4 + 1)
    for (n, theta, totals), point in zip(prefix_sums(table, POINT_KINDS, indices), points_at(table, indices)):
        sums = dict(zip(POINT_KINDS, totals))
        expected = [
            (LOWER, point.margin_ball),
            (DUAL, sub_ball(point.g_ball, (1.0, 0.0))),
            (UPPER, sub_ball(point.ratio_ball, E_GAMMA)),
        ]
        for row, margin in expected:
            if n >= row.start:
                args = [sums[kind] for kind in row.sums]
                assert sub_ball(*row.sides(_BALL, point.p, log_ball(theta), *args)) == margin, (row.sides.__name__, n)
                checked += 1
    assert checked == 3 * (2 * 10**4 - 2) - 1


# ---------------------------------------------------------------------------
# brackets: one hull decision proves a run of indices
# ---------------------------------------------------------------------------


def _dense_scan(table, row, name, start, stop):
    """The per-index reference: every index decided alone on its balls, escalated if INCONCLUSIVE.

    Returns the scan, with every index's margin in ``margins``, and each index's status.
    """
    from psiverify.bounds import _slack

    scan, statuses = BoundScan(name, start, stop), {}
    for n, theta, sums in prefix_sums(table, row.sums, stride_indices(start, stop)):
        x = table.nth_prime(n)
        margin = sub_ball(*row.sides(_BALL, x, log_ball(theta), *sums))
        status = ball_status(margin, row.claim)
        escalated = status is VerdictStatus.INCONCLUSIVE
        if escalated:
            margin = sub_ball(*_interval_sides(table, row, n))
            status = ball_status(margin, row.claim)
        scan.record(x if row.at_x else n, status, _slack(row.claim, margin), escalated)
        scan.margins[n], statuses[n] = margin, status
    return scan, statuses


def _bracketed_scan(table, row, name, start, stop, keep=()):
    from psiverify.series import serve

    scan = BoundScan(name, start, stop)
    return serve(table, [(row.sums, bounds_mod._read_bound(table, row, scan, stride_indices(start, stop), keep))])[0]


_ROWS = [
    *bounds_mod.BOUNDS.items(),
    ("upper", bounds_mod.UPPER),
    ("lower", bounds_mod.LOWER),
    ("dual", bounds_mod.DUAL),
]


@pytest.mark.parametrize("stop", [3000, 20000])
@pytest.mark.parametrize("name,row", _ROWS, ids=[name for name, _ in _ROWS])
def test_brackets_prove_only_what_each_point_proves(table, monkeypatch, name, row, stop):
    # every index booked inside a held bracket HOLDS when decided alone, and the
    # bracketed scan books what the per-index scan books
    held = []
    real_bracket = bounds_mod._bracket

    def spy(table, bound, scan, run, point):
        ok = real_bracket(table, bound, scan, run, point)
        if ok:
            held.extend(run)
        return ok

    monkeypatch.setattr(bounds_mod, "_bracket", spy)
    got = _bracketed_scan(table, row, name, row.start, stop)
    dense, statuses = _dense_scan(table, row, name, row.start, stop)
    assert bool(held) is (name != "criterion-gap")  # its sides share log log theta, so its hulls never hold
    assert all(statuses[n] is VerdictStatus.HOLDS for n in held)
    assert got.to_dict() == dense.to_dict()


@pytest.mark.parametrize("name,row", _ROWS, ids=[name for name, _ in _ROWS])
def test_strided_rows_book_what_each_point_books(table, monkeypatch, name, row):
    # past DENSE_UNTIL the indices have gaps, so the reader sees each member of
    # a run as the pass reaches it; the scan books what the per-index scan books,
    # and an index kept inside a run ends the run and keeps its margin
    _set_stride(monkeypatch, 60, 1.01)
    runs = []
    real_bracket = bounds_mod._bracket

    def spy(table, bound, scan, run, point):
        ok = real_bracket(table, bound, scan, run, point)
        runs.append((ok, list(run)))
        return ok

    monkeypatch.setattr(bounds_mod, "_bracket", spy)
    start, stop = row.start, 20000
    dense, _ = _dense_scan(table, row, name, start, stop)
    assert _bracketed_scan(table, row, name, start, stop).to_dict() == dense.to_dict()
    # the middle of the longest strided run held, or a strided index where no hull holds
    longest = max((run for held, run in runs if held and run[0] > 200), key=len, default=None)
    k = longest[len(longest) // 2] if longest else stride_indices(start, stop)[-10]
    assert k in stride_indices(start, stop) and k - 1 not in stride_indices(start, stop)
    kept = _bracketed_scan(table, row, name, start, stop, keep={k})
    assert kept.to_dict() == dense.to_dict()
    assert kept.margins == {k: dense.margins[k]}


def _raise_domain_error(*args):
    raise DomainError("forced")


@pytest.mark.parametrize(
    "hull_exp",
    [_raise_domain_error, lambda a: (bounds_mod.exp_ball(a)[0], 1.0)],
    ids=["domain-error", "inconclusive"],
)
def test_a_failed_hull_falls_back_to_points(table, monkeypatch, hull_exp):
    # with every hull rejected or INCONCLUSIVE, the scan decides every point alone
    monkeypatch.setattr(bounds_mod._HULL, "exp", hull_exp)
    row = bounds_mod.BOUNDS["zeta-tail"]
    dense, _ = _dense_scan(table, row, "zeta-tail", 2, 3000)
    assert scan_bound(table, "zeta-tail", 2, 3000).to_dict() == dense.to_dict()


def test_zeta_tail_decides_few_points_alone(table, monkeypatch):
    import dataclasses

    row = bounds_mod.BOUNDS["zeta-tail"]
    alone = []

    def counting_sides(A, x, *atoms):
        if A is bounds_mod._BALL:
            alone.append(x)
        return row.sides(A, x, *atoms)

    monkeypatch.setitem(bounds_mod.BOUNDS, "zeta-tail", dataclasses.replace(row, sides=counting_sides))
    scan = scan_bound(table, "zeta-tail", 2, 20000)
    assert scan.points_checked == len(list(stride_indices(2, 20000)))
    assert scan.all_hold
    assert len(alone) <= 64
