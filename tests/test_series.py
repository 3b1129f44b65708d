"""Prefix pass and primorial stream: bit identity, cross-module consistency, identities."""

from __future__ import annotations

import math

import mpmath as mp
import pytest

from psiverify.arith import Factorization, primorial, robin_ratio_from_factors
from psiverify.errors import DomainError, RangeError
from psiverify.numerics import (
    E_GAMMA_OVER_ZETA2,
    CertifiedAccumulator,
    CertifiedValue,
    VerdictStatus,
    ball_status,
    certified,
    compare,
    cv_div,
    cv_exp,
    cv_from_ratio,
    cv_log,
    cv_log1p,
    cv_mul,
    cv_sub,
)
from psiverify.series import criterion_f, criterion_g, prefix_sums, stream_points


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
    # reference: each term built as CertifiedValues and fed to an accumulator;
    # theta's term is log p charged 2 ulp, as the prime table once stored it
    count = 10**4
    acc = CertifiedAccumulator()
    theta_acc = CertifiedAccumulator()
    expected = []
    expected_theta = []
    for p in table.primes[:count]:
        t = cv_log1p(cv_from_ratio(num, den(p)))
        acc.add(t.value, t.radius)
        expected.append(acc.total())
        lp = math.log(p)
        theta_acc.add(lp, 2.0 * math.ulp(lp))
        expected_theta.append(theta_acc.total())
    got = list(prefix_sums(table, (kind,), range(1, count + 1)))
    assert [s[0] for _, _, s in got] == [(t.value, t.radius) for t in expected]
    assert [th for _, th, _ in got] == [(t.value, t.radius) for t in expected_theta]
    # sharing the pass with other kinds, or stopping sparsely, changes nothing
    (_, theta, shared), = prefix_sums(table, ("sq", kind, "plus"), (count,))
    assert shared[1] == (expected[-1].value, expected[-1].radius)
    assert theta == (expected_theta[-1].value, expected_theta[-1].radius)


def test_points_bit_identical_to_certified_value_chain(table):
    # reference: every point composed from the pass's CertifiedValue totals
    # with the public cv_* chain, operation for operation
    count = 10**4
    points = stream_points(table, count)
    for (n, theta, (plus, inv)), point in zip(prefix_sums(table, ("plus", "inv"), range(2, count + 1)), points):
        theta, plus, inv = (CertifiedValue(*ball) for ball in (theta, plus, inv))
        psi_over_n = cv_exp(plus)
        loglog = cv_log(theta)
        ratio = cv_div(psi_over_n, loglog)
        g = cv_mul(cv_mul(E_GAMMA_OVER_ZETA2, loglog), cv_exp(inv)) if n >= 3 else None
        margin = cv_sub(ratio, E_GAMMA_OVER_ZETA2)
        assert point.n == n
        assert point.theta_ball == (theta.value, theta.radius) == point.theta.ball, n
        assert point.log_theta_ball == loglog.ball, n
        assert point.psi_over_n_ball == psi_over_n.ball == point.psi_over_n.ball, n
        assert point.ratio_ball == ratio.ball == point.ratio.ball, n
        assert point.g_ball == (g.ball if g else None), n
        assert (point.g.ball if point.g else None) == point.g_ball, n
        assert point.margin_ball == margin.ball == point.margin_lower.ball, n
        assert ball_status(point.margin_ball, ">") is compare(ratio, E_GAMMA_OVER_ZETA2, ">").status, n
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
        prod = cv_mul(point.g, point.ratio)
        assert (
            abs(prod.value - E_GAMMA_OVER_ZETA2.value)
            <= prod.radius + E_GAMMA_OVER_ZETA2.radius
        ), point.n


def test_margins_wired_correctly(table):
    for point in stream_points(table, 50):
        assert point.margin_lower.value == pytest.approx(
            point.ratio.value - E_GAMMA_OVER_ZETA2.value, abs=1e-15
        )


def test_criterion_g_examples(table):
    g5 = criterion_g(table, 5)
    assert abs(g5.value - 0.5522662586671264) < 1e-13
    assert compare(g5, certified(1.0), "<").status is VerdictStatus.HOLDS
    # g(x) for x = 10^4 lies in (0, 1), certified
    g4 = criterion_g(table, 10**4)
    assert compare(g4, certified(1.0), "<").status is VerdictStatus.HOLDS
    assert compare(g4, certified(0.0), ">").status is VerdictStatus.HOLDS


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
        assert compare(f, certified(1.0), "<").status is VerdictStatus.HOLDS


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
