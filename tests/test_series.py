"""Prefix pass and primorial stream: bit identity, cross-module consistency, identities."""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest

from psiverify.arith import Factorization, primorial, robin_ratio_from_factors
from psiverify.errors import DomainError, RangeError
from psiverify.numerics import (
    E_GAMMA_OVER_ZETA2,
    SUM_SCALE,
    CertifiedValue,
    VerdictStatus,
    ball_status,
    compare,
    div_ball,
    exp_ball,
    log1p_ball,
    log_ball,
    mul_ball,
    ratio_ball,
    sub_ball,
)
from psiverify.primes import MAX_LIMIT, PrimeTable
from psiverify.series import (
    TERMS,
    PrefixSnapshots,
    ascending_unique,
    criterion_f,
    criterion_g,
    prefix_sums,
    stream_points,
)


@pytest.mark.parametrize(
    "kind,num,den",
    [
        ("plus", 1, lambda p: p),
        ("inv", -1, lambda p: p + 1),
        ("phi", -1, lambda p: p),
        ("sq", -1, lambda p: p * p),
    ],
)
def test_prefix_pass_bit_identical_to_certified_value_chain(table, kind, num, den):
    # reference: each term built as a ball by the kernels; theta's term is
    # log p charged 2 ulp.  At every n the value is the correctly rounded exact sum
    # of the term values (what math.fsum returns; a Fraction holds the exact
    # sum), and the ball covers it plus the exact sum of the term radii.
    count = 10**4
    terms = [log1p_ball(ratio_ball(num, den(p))) for p in table.primes[:count]]
    logs = [math.log(p) for p in table.primes[:count]]
    theta_terms = [(lp, 2.0 * math.ulp(lp)) for lp in logs]
    got = list(prefix_sums(table, (kind,), range(1, count + 1)))
    assert [n for n, _, _ in got] == list(range(1, count + 1))
    for column, reference in ((lambda g: g[2][0], terms), (lambda g: g[1], theta_terms)):
        value = radius = Fraction(0)
        for g, (tv, tr) in zip(got, reference):
            value += Fraction(tv)
            radius += Fraction(tr)
            v, r = column(g)
            assert v == float(value), g[0]
            assert Fraction(r) >= radius + abs(Fraction(v) - value), g[0]
        assert v == math.fsum(tv for tv, _ in reference)
        assert r >= math.fsum(tr for _, tr in reference)
    # sharing the pass with other kinds, or stopping sparsely, changes nothing
    (_, theta, shared), = prefix_sums(table, ("sq", kind, "plus"), (count,))
    assert shared[1] == got[-1][2][0]
    assert theta == got[-1][1]


def test_prefix_sums_enclose_exact_sums(table):
    # the real sums of log p and of log1p(num/den(p)), to 40 digits
    kinds = tuple(TERMS)
    at = (1, 2, 10, 500, 3000)
    with mp.workdps(40):
        theta, sums, exact = mp.mpf(0), [mp.mpf(0)] * len(kinds), {}
        for n, p in enumerate(table.primes[: at[-1]], start=1):
            theta += mp.log(p)
            sums = [s + mp.log1p(mp.mpf(TERMS[k][0]) / TERMS[k][1](p)) for s, k in zip(sums, kinds)]
            exact[n] = [theta, *sums]
        for n, theta_ball, totals in prefix_sums(table, kinds, at):
            for (v, r), real in zip([theta_ball, *totals], exact[n]):
                assert mp.mpf(v) - r <= real <= mp.mpf(v) + r, n
                assert r < 1e-10


def test_prefix_sums_raise_on_a_term_outside_the_domain(monkeypatch, small_table):
    # log1p(-1/(p - 1)) is log 0 at p = 2: the pass raises, it yields no total
    monkeypatch.setitem(TERMS, "log0", (-1, lambda p: p - 1))
    with pytest.raises(DomainError):
        next(prefix_sums(small_table, ("log0",), (1,)))


# p = 2, 3 and the largest prime below the 2^31 sieve cap: |term| and so its
# ulp shrink as p grows, so the last prime has the finest terms
EDGE_PRIMES = PrimeTable(limit=MAX_LIMIT, primes=array("q", [2, 3, 2147483647]))


def test_sum_scale_holds_every_term_exactly():
    for p in EDGE_PRIMES.primes:
        lp = math.log(p)
        balls = [(lp, 2.0 * math.ulp(lp))]
        balls += [log1p_ball(ratio_ball(num, den(p))) for num, den in TERMS.values()]
        for v, r in balls:
            assert (v * SUM_SCALE).is_integer() and int(v * SUM_SCALE) / SUM_SCALE == v, (p, v)
            assert math.ceil(r * SUM_SCALE) / SUM_SCALE >= r, (p, r)
    # the finest term, sq at 2^31 - 1, still has 6 bits to spare
    assert math.ulp(log1p_ball(ratio_ball(-1, 2147483647**2))[0]) == 2.0**-114
    got = list(prefix_sums(EDGE_PRIMES, tuple(TERMS), (1, 2, 3)))
    assert [n for n, _, _ in got] == [1, 2, 3]


def test_prefix_sums_raise_on_a_term_finer_than_the_scale(monkeypatch):
    # log1p(-1/p^4) at p = 2^31 - 1 is about -2^-124: int(v * 2^120) would
    # drop its bits, so the pass must raise instead
    monkeypatch.setitem(TERMS, "quartic", (-1, lambda p: p**4))
    totals = prefix_sums(EDGE_PRIMES, ("quartic",), (1, 2, 3))
    assert [n for n, _, _ in islice(totals, 2)] == [1, 2]
    with pytest.raises(DomainError, match="quartic term .* at p=2147483647"):
        next(totals)


def test_snapshots_keep_the_prefix_sums_contract(table):
    # one pass over all four kinds: the dense reader sees what a pass of its
    # own gives, and a replay gives every recorded index bit for bit
    kinds = tuple(TERMS)
    record_at = [1, 2, 7, 50, 51, 400, 999]
    store = PrefixSnapshots(kinds, record_at)
    dense = list(store.live(table, ("inv", "plus"), [40, 41, 41, *range(42, 61)]))
    assert dense == list(prefix_sums(table, ("inv", "plus"), [40, 41, 41, *range(42, 61)]))
    assert list(store.indices) == record_at
    assert len(store.rows) == len(record_at) * (2 + 2 * len(kinds))
    for sub in [(), ("sq",), ("phi", "plus"), kinds]:
        assert list(store.replay(table, sub, record_at)) == list(prefix_sums(table, sub, record_at))
    again = [7, 7, 400]
    assert list(store.replay(table, ("plus",), again)) == list(prefix_sums(table, ("plus",), again))


def test_snapshot_replay_of_an_unrecorded_index_raises(table):
    store = PrefixSnapshots(("plus",), [5, 9])
    with pytest.raises(RangeError, match="index 5 not recorded"):
        next(store.replay(table, ("plus",), [5]))  # before the pass ran
    store.record(table)
    assert len(list(store.replay(table, ("plus",), [5, 9]))) == 2
    with pytest.raises(RangeError, match="index 6 not recorded"):
        list(store.replay(table, ("plus",), [5, 6]))
    with pytest.raises(RangeError, match="not in ascending order"):
        list(store.replay(table, ("plus",), [9, 5]))
    with pytest.raises(ValueError):  # a kind the pass did not sum
        next(store.replay(table, ("sq",), [5]))


def test_ascending_unique_merges_without_repeats():
    assert list(ascending_unique(range(3, 8), [1, 5, 5, 9], (), [7])) == [1, 3, 4, 5, 6, 7, 9]


def test_points_bit_identical_to_certified_value_chain(table):
    # reference: every point composed from the pass's pair totals with the
    # kernels, operation for operation; the report properties wrap the same pairs
    count = 10**4
    limit = E_GAMMA_OVER_ZETA2.ball
    points = stream_points(table, count)
    for (n, theta, (plus, inv)), point in zip(prefix_sums(table, ("plus", "inv"), range(2, count + 1)), points):
        psi_over_n = exp_ball(plus)
        loglog = log_ball(theta)
        ratio = div_ball(psi_over_n, loglog)
        g = mul_ball(mul_ball(limit, loglog), exp_ball(inv)) if n >= 3 else None
        margin = sub_ball(ratio, limit)
        assert point.n == n
        assert point.theta_ball == theta == point.theta.ball, n
        assert point.log_theta_ball == loglog, n
        assert point.psi_over_n_ball == psi_over_n == point.psi_over_n.ball, n
        assert point.ratio_ball == ratio == point.ratio.ball, n
        assert point.g_ball == g, n
        assert (point.g.ball if point.g else None) == point.g_ball, n
        assert point.margin_ball == margin == point.margin_lower.ball, n
        assert ball_status(point.margin_ball, ">") is compare(point.ratio, E_GAMMA_OVER_ZETA2, ">").status, n
    assert next(points, None) is None and n == count


def test_point_n2():
    pts = {p.n: p for p in stream_points_table10()}
    p2 = pts[2]
    assert p2.p == 3
    # psi(N_2)/N_2 = (3/2)(4/3) = 2 exactly
    assert abs(p2.psi_over_n.value - 2.0) <= p2.psi_over_n.radius
    assert abs(p2.ratio.value - 3.4293665667005870) < 1e-12
    assert p2.g is None


def stream_points_table10():
    from psiverify.primes import build_table

    return list(stream_points(build_table(100), 10))


def test_point_n4_matches_ratio_r(table):
    p4 = next(p for p in stream_points(table, 4) if p.n == 4)
    r210 = robin_ratio_from_factors(Factorization(210, ((2, 1), (3, 1), (5, 1), (7, 1))))
    assert abs(p4.ratio.value - r210.value) <= p4.ratio.radius + r210.radius
    assert abs(p4.ratio.value - 1.6360071034244227) < 1e-12


def test_stream_matches_exact_primorial_ratio(table):
    # cross-path agreement while the exact primorial is still a small integer
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for point in stream_points(table, 15):
        n = point.n
        exact = robin_ratio_from_factors(
            Factorization(primorial(n, table), tuple((p, 1) for p in primes[:n]))
        )
        assert abs(point.ratio.value - exact.value) <= point.ratio.radius + exact.radius


def test_psi_over_n_strictly_increasing(table):
    prev = 0.0
    for point in stream_points(table, 3000):
        assert point.psi_over_n.value > prev
        prev = point.psi_over_n.value


def test_identity_g_times_ratio(table):
    # g(p_n) * R(N_n) = e^gamma/zeta(2), two independent accumulation paths
    for point in stream_points(table, 3000):
        if point.g is None:
            continue
        value, radius = mul_ball(point.g_ball, point.ratio_ball)
        assert abs(value - E_GAMMA_OVER_ZETA2.value) <= radius + E_GAMMA_OVER_ZETA2.radius, point.n


def test_margins_wired_correctly(table):
    for point in stream_points(table, 50):
        assert point.margin_lower.value == pytest.approx(
            point.ratio.value - E_GAMMA_OVER_ZETA2.value, abs=1e-15
        )


def test_criterion_g_examples(table):
    g5 = criterion_g(table, 5)
    assert abs(g5.value - 0.5522662586671264) < 1e-13
    assert compare(g5, CertifiedValue(1.0), "<").status is VerdictStatus.HOLDS
    # g(x) for x = 10^4 lies in (0, 1), certified
    g4 = criterion_g(table, 10**4)
    assert compare(g4, CertifiedValue(1.0), "<").status is VerdictStatus.HOLDS
    assert compare(g4, CertifiedValue(0.0), ">").status is VerdictStatus.HOLDS


def test_criterion_g_matches_stream(table):
    pts = {p.n: p for p in stream_points(table, 100)}
    for n in (3, 10, 100):
        x = table.nth_prime(n)
        standalone = criterion_g(table, x)
        streamed = pts[n].g
        assert abs(standalone.value - streamed.value) <= standalone.radius + streamed.radius


def test_criterion_f_below_one(table):
    for x in (5, 100, 10**4):
        f = criterion_f(table, x)
        assert compare(f, CertifiedValue(1.0), "<").status is VerdictStatus.HOLDS


def test_criterion_f_oracle(table):
    with mp.workdps(60):
        for x in (5, 100, 997):
            f = criterion_f(table, x)
            k = sum(1 for p in table.primes if p <= x)
            th = mp.fsum(mp.log(int(p)) for p in table.primes[:k])
            oracle = mp.exp(mp.euler) * mp.log(th) * mp.fprod(
                1 - mp.mpf(1) / int(p) for p in table.primes[:k]
            )
            assert mp.mpf(f.value) - f.radius <= oracle <= mp.mpf(f.value) + f.radius


def test_criterion_domain_starts_at_5(table):
    # theta(2) = log 2 < 1, so log theta(2) < 0 there; the domain starts at 5
    for x in (2, 3, 4):
        with pytest.raises(DomainError):
            criterion_g(table, x)
        with pytest.raises(DomainError):
            criterion_f(table, x)


def test_stream_range_errors(table):
    with pytest.raises(RangeError):
        list(stream_points(table, table.count + 1))
    with pytest.raises(RangeError):
        list(stream_points(table, 1))


def test_theta_field_matches_table(table):
    # a point's theta is the pass's theta at n, whichever kinds share the pass
    thetas = {n: th for n, th, _ in prefix_sums(table, (), range(2, 21))}
    for point in stream_points(table, 20):
        th = thetas[point.n]
        assert point.theta.value == th[0] and point.theta.radius == th[1]
