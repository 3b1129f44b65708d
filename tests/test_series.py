"""Prefix pass and primorial stream: bit identity, cross-module consistency, identities."""

from __future__ import annotations

import math
import tracemalloc
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
    VerdictStatus,
    add_ball,
    ball_status,
    div_ball,
    exp_ball,
    log1p_ball,
    log_ball,
    mul_ball,
    ratio_ball,
    sub_ball,
)
from psiverify.primes import MAX_LIMIT, PrimeTable, build_table
from psiverify.series import (
    TERMS,
    prefix_sums,
    serve,
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


def _recorder(indices):
    """A reader that yields each index and returns the ``(n, theta, totals)`` it reads there."""
    got = []
    for n in indices:
        at = yield n
        got.append((n, *at(n)))
    return got


def _window_recorder(windows, order=lambda window: window):
    """A reader that yields each window and returns what it reads at every index of it, in ``order``."""
    got = []
    for window in windows:
        at = yield window
        got.append({m: at(m) for m in order(window)})
    return got


def _flat(reads):
    return sorted((n, *read) for window in reads for n, read in window.items())


def test_serve_sends_each_reader_its_own_prefix_sums(table):
    # one pass over the union of the kinds; every reader gets, bit for bit,
    # what a pass of its own over its kinds and its indices gives
    plan = [
        (("inv", "plus"), [40, 41, 41, *range(42, 61)]),  # dense, repeated, kinds out of TERMS order
        (("sq",), [1, 2, 7, 50, 51, 400, 999]),  # sparse, overlapping the dense run
        ((), [7, 7, 400]),
        (tuple(TERMS), [1, 999]),  # the pass's own kinds
        (("phi", "plus"), []),  # yields no index
    ]
    results = serve(table, [(kinds, _recorder(at)) for kinds, at in plan])
    assert len(results) == len(plan)
    for (kinds, at), got in zip(plan, results):
        assert got == list(prefix_sums(table, kinds, at)), kinds
    assert results[-1] == []
    assert serve(table, []) == []


def test_serve_answers_a_window_at_every_index_of_it(table):
    # a range is served when the pass reaches its end, and read at any of its
    # indices in any order, beside readers whose windows overlap it
    windows = [range(5, 6), range(6, 300), range(300, 301), range(301, 1025)]
    backwards = [("plus", "sq"), ("inv",)]
    readers = [(kinds, _window_recorder(windows, reversed)) for kinds in backwards]
    readers.append((("phi",), _window_recorder([range(1, 700), range(700, 1000)])))
    readers.append((("plus",), _recorder([3, 450, 1024])))
    results = serve(table, readers)
    for (kinds, _), got in zip(readers[:2], results):
        assert _flat(got) == list(prefix_sums(table, kinds, range(5, 1025))), kinds
    assert _flat(results[2]) == list(prefix_sums(table, ("phi",), range(1, 1000)))
    assert results[3] == list(prefix_sums(table, ("plus",), [3, 450, 1024]))


def test_serve_builds_the_balls_of_an_index_once_for_all_its_readers(small_table):
    # readers at the same index share its balls, so a shared run does not
    # rebuild them once per reader
    results = serve(small_table, [(tuple(TERMS), _recorder([5, 9])), (("sq", "plus"), _recorder([9, 9]))])
    (_, theta, totals), ((_, theta_b, totals_b), (_, theta_c, totals_c)) = results[0][1], results[1]
    assert theta is theta_b is theta_c
    assert totals_b[0] is totals_c[0] is totals[3] and totals_b[1] is totals[0]


def test_serve_raises_on_a_step_back_or_past_the_table(small_table):
    with pytest.raises(RangeError, match="index 4 outside"):
        serve(small_table, [(("plus",), _recorder([5, 4]))])
    # a reader behind another one's index has stepped back from its own
    with pytest.raises(RangeError, match="index 7 outside"):
        serve(small_table, [(("plus",), _recorder([10, 7])), ((), _recorder([5, 20]))])
    with pytest.raises(RangeError, match="index 3 outside"):
        serve(small_table, [(("plus",), _window_recorder([range(3, 8), range(3, 12)]))])
    with pytest.raises(RangeError, match=f"index {small_table.count + 1} outside"):
        serve(small_table, [((), _recorder([3, small_table.count + 1]))])
    with pytest.raises(RangeError, match="empty window"):
        serve(small_table, [((), _window_recorder([range(6, 6)]))])


def test_serve_raises_on_a_read_outside_the_window(small_table):
    def reader(reads):
        at = yield range(5, 9)
        at = yield range(10, 20)
        at(reads)

    for m in (9, 4, 20):  # the last window's start and before it, and past its end and the pass
        with pytest.raises(RangeError):
            serve(small_table, [(("plus",), reader(m)), ((), _recorder([30]))])


def test_serve_propagates_an_exception_inside_a_reader(small_table):
    def failing(first):
        if first is not None:
            yield first
        raise ValueError("reader failed")

    for first in (None, 3):  # before its first index, and after it
        with pytest.raises(ValueError, match="reader failed"):
            serve(small_table, [(("plus",), _recorder(range(1, 10))), (("inv",), failing(first))])


def test_serve_peak_memory_is_flat_in_the_number_of_indices(table):
    # a reader that yields every index keeps nothing per index: a dense reader
    # peaks the same over 2*10^3 indices as over 2*10^4, and so does one that
    # reads windows of a fixed width
    def dense(stop):
        for n in range(1, stop + 1):
            at = yield n
            at(n)

    def windows(stop):
        for end in range(64, stop + 1, 64):
            at = yield range(end - 63, end + 1)
            at(end - 63)

    for reader in (dense, windows):
        peaks = []
        for stop in (2000, 20000):
            tracemalloc.start()
            try:
                serve(table, [(("plus", "inv"), reader(stop))])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 1024, (reader.__name__, peaks)


def test_lower_reads_fewer_balls_than_indices(table, monkeypatch):
    # the rows of lower read the indices their brackets and points need, not
    # every index: fewer sum_balls than indices (three per index when every
    # index was sent to every reader)
    from psiverify import series
    from psiverify.claims import verify_lower

    calls = []
    real = series.sum_ball

    def counting(units, radius_units):
        calls.append(units)
        return real(units, radius_units)

    monkeypatch.setattr(series, "sum_ball", counting)
    assert verify_lower(table, 20000).holds
    assert len(calls) < 20000 - 2, len(calls)


def test_points_bit_identical_to_kernel_chain(table):
    # reference: every point composed from the pass's pair totals with the
    # kernels, operation for operation
    count = 10**4
    limit = E_GAMMA_OVER_ZETA2
    points = stream_points(table, count)
    for (n, theta, (plus, inv)), point in zip(prefix_sums(table, ("plus", "inv"), range(2, count + 1)), points):
        psi_over_n = exp_ball(plus)
        loglog = log_ball(theta)
        ratio = div_ball(psi_over_n, loglog)
        g = mul_ball(mul_ball(limit, loglog), exp_ball(inv)) if n >= 3 else None
        margin = sub_ball(ratio, limit)
        assert point.n == n
        assert point.theta_ball == theta, n
        assert point.log_theta_ball == loglog, n
        assert point.ratio_ball == ratio, n
        assert point.g_ball == g, n
        assert point.margin_ball == margin, n
    assert next(points, None) is None and n == count


def test_point_n2():
    pts = {p.n: p for p in stream_points_table10()}
    p2 = pts[2]
    assert p2.p == 3
    # psi(N_2)/N_2 = exp(plus) = (3/2)(4/3) = 2 exactly
    ((_, _, (plus,)),) = prefix_sums(build_table(100), ("plus",), (2,))
    value, radius = exp_ball(plus)
    assert abs(value - 2.0) <= radius
    assert abs(p2.ratio_ball[0] - 3.4293665667005870) < 1e-12
    assert p2.g_ball is None


def stream_points_table10():
    from psiverify.primes import build_table

    return list(stream_points(build_table(100), 10))


def test_point_n4_matches_ratio_r(table):
    p4 = next(p for p in stream_points(table, 4) if p.n == 4)
    r210, r210_radius = robin_ratio_from_factors(Factorization(210, ((2, 1), (3, 1), (5, 1), (7, 1))))
    value, radius = p4.ratio_ball
    assert abs(value - r210) <= radius + r210_radius
    assert abs(value - 1.6360071034244227) < 1e-12


def test_stream_matches_exact_primorial_ratio(table):
    # cross-path agreement while the exact primorial is still a small integer
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for point in stream_points(table, 15):
        n = point.n
        exact, exact_radius = robin_ratio_from_factors(
            Factorization(primorial(n, table), tuple((p, 1) for p in primes[:n]))
        )
        value, radius = point.ratio_ball
        assert abs(value - exact) <= radius + exact_radius


def test_psi_over_n_strictly_increasing(table):
    # psi(N_n)/N_n = exp(plus)
    prev = 0.0
    for _, _, (plus,) in prefix_sums(table, ("plus",), range(2, 3001)):
        value, _ = exp_ball(plus)
        assert value > prev
        prev = value


def test_identity_g_times_ratio(table):
    # g(p_n) * R(N_n) = e^gamma/zeta(2), two independent accumulation paths
    for point in stream_points(table, 3000):
        if point.g_ball is None:
            continue
        value, radius = mul_ball(point.g_ball, point.ratio_ball)
        assert abs(value - E_GAMMA_OVER_ZETA2[0]) <= radius + E_GAMMA_OVER_ZETA2[1], point.n


def test_margins_wired_correctly(table):
    for point in stream_points(table, 50):
        assert point.margin_ball[0] == pytest.approx(point.ratio_ball[0] - E_GAMMA_OVER_ZETA2[0], abs=1e-15)


def _row_sides(table, row, n):
    """The row's ``(lhs, rhs)`` balls at index n, from a prefix pass of its own kinds alone."""
    from psiverify.bounds import _BALL

    ((_, theta, sums),) = prefix_sums(table, row.sums, (n,))
    return row.sides(_BALL, table.nth_prime(n), log_ball(theta), *sums)


def _g(table, x):
    """g(x): the lhs of the DUAL row at the largest prime <= x (g is constant between primes)."""
    from psiverify.bounds import DUAL

    return _row_sides(table, DUAL, table.prime_count(x))[0]


def test_criterion_g_examples(table):
    g5 = _g(table, 5)
    assert abs(g5[0] - 0.5522662586671264) < 1e-13
    assert ball_status(sub_ball(g5, (1.0, 0.0)), "<") is VerdictStatus.HOLDS
    # g(x) for x = 10^4 lies in (0, 1), certified
    g4 = _g(table, 10**4)
    assert ball_status(sub_ball(g4, (1.0, 0.0)), "<") is VerdictStatus.HOLDS
    assert ball_status(sub_ball(g4, (0.0, 0.0)), ">") is VerdictStatus.HOLDS


def test_criterion_g_matches_stream(table):
    # the DUAL row, served inv alone, gives the bits of the points, served plus and inv
    pts = {p.n: p for p in stream_points(table, 100)}
    for n in (3, 10, 100):
        assert _g(table, table.nth_prime(n)) == pts[n].g_ball, n


def test_criterion_f_oracle(table, paper_gap_sides):
    # f enters the paper form of the criterion-gap row as its rhs, log f(x) - 2/x, at x = p_n
    from psiverify.bounds import _BALL

    with mp.workdps(60):
        for x in (5, 100, 997):
            k = table.prime_count(x)
            p = table.nth_prime(k)
            ((_, theta, sums),) = prefix_sums(table, ("inv", "phi"), (k,))
            _, rhs = paper_gap_sides(_BALL, p, log_ball(theta), *sums)
            log_f = add_ball(rhs, ratio_ball(2, p))
            th = mp.fsum(mp.log(int(q)) for q in table.primes[:k])
            oracle = mp.exp(mp.euler) * mp.log(th) * mp.fprod(1 - mp.mpf(1) / int(q) for q in table.primes[:k])
            assert mp.mpf(log_f[0]) - log_f[1] <= mp.log(oracle) <= mp.mpf(log_f[0]) + log_f[1]


def test_criterion_domain_starts_at_5(table):
    # theta(2) = log 2 < 1, so log theta(2) < 0 there; the domain starts at 5
    from psiverify.bounds import BOUNDS, DUAL, LOWER, scan_bound

    assert DUAL.start == LOWER.start == BOUNDS["criterion-gap"].start == 3 and table.nth_prime(3) == 5
    assert next(stream_points(table, 2)).g_ball is None
    for x in (2, 3, 4):
        n = table.prime_count(x)
        with pytest.raises(DomainError):
            scan_bound(table, "criterion-gap", n, n)


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
        assert point.theta_ball == th
