"""Enclosure soundness and comparison semantics of the ball arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from psiverify.errors import DomainError
from psiverify.numerics import (
    E_GAMMA,
    E_GAMMA_OVER_ZETA2,
    EULER_GAMMA,
    LOG_2,
    ZETA2,
    Ball,
    CertifiedValue,
    VerdictStatus,
    add_ball,
    ball_endpoints,
    ball_status,
    compare,
    div_ball,
    exp_ball,
    from_mp_interval,
    hull_ball,
    int_ball,
    log1p_ball,
    log_ball,
    log_int_ball,
    mul_ball,
    neg_ball,
    ratio_ball,
    sub_ball,
    sum_ball,
)


def contains(ball: Ball, exact: mp.mpf) -> bool:
    value, radius = ball
    return mp.mpf(value) - mp.mpf(radius) <= exact <= mp.mpf(value) + mp.mpf(radius)


@pytest.fixture(autouse=True, scope="module")
def _hi_precision():
    with mp.workdps(100):
        yield


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_enclose_reference_values():
    assert contains(EULER_GAMMA.ball, mp.euler)
    assert contains(E_GAMMA.ball, mp.exp(mp.euler))
    assert contains(ZETA2.ball, mp.zeta(2))
    assert contains(E_GAMMA_OVER_ZETA2.ball, mp.exp(mp.euler) / mp.zeta(2))
    assert contains(LOG_2.ball, mp.log(2))
    assert abs(E_GAMMA.value - 1.7810724179901980) < 1e-15
    assert abs(ZETA2.value - 1.6449340668482264) < 1e-15
    assert abs(E_GAMMA_OVER_ZETA2.value - 1.0827621932609246) < 1e-15


def test_constant_radii_are_one_ulp():
    for c in (EULER_GAMMA, E_GAMMA, ZETA2, E_GAMMA_OVER_ZETA2, LOG_2):
        assert c.radius == math.ulp(c.value)


# ---------------------------------------------------------------------------
# single operations
# ---------------------------------------------------------------------------


def test_add_exact_inputs():
    value, radius = add_ball((1.0, 0.0), (2.0, 0.0))
    assert value == 3.0
    assert radius <= 4 * math.ulp(3.0)


def test_log_of_one_is_zero():
    value, radius = log_ball((1.0, 0.0))
    assert value == 0.0
    assert radius <= 1e-15


@pytest.mark.parametrize("x", [2, 210, 30030])
def test_exp_log_roundtrip_encloses(x):
    out = exp_ball(log_ball((float(x), 0.0)))
    assert contains(out, mp.mpf(x))


def test_domain_errors():
    with pytest.raises(DomainError):
        log_ball((1e-3, 2e-3))  # interval reaches 0
    with pytest.raises(DomainError):
        div_ball((1.0, 0.0), (0.5, 0.5))
    with pytest.raises(DomainError):
        exp_ball((800.0, 0.0))
    with pytest.raises(DomainError):
        log1p_ball((-1.0, 0.5))
    with pytest.raises(DomainError):
        CertifiedValue(1.0, -1e-9)
    with pytest.raises(DomainError):
        CertifiedValue(math.inf, 0.0)


# kernel and its inputs as (value, radius) pairs
_INF, _NAN = math.inf, math.nan
_KERNEL_DOMAIN_CASES = [
    (exp_ball, [(701.0, 0.0)], "argument above 700"),
    (exp_ball, [(699.0, 2.0)], "upper endpoint above 700"),
    (exp_ball, [(1.0, _INF)], "non-finite radius"),
    (exp_ball, [(_NAN, 0.0)], "non-finite value"),
    (log_ball, [(0.0, 0.0)], "log of 0"),
    (log_ball, [(1e-3, 2e-3)], "interval reaches 0"),
    (log_ball, [(1.0, _NAN)], "non-finite radius"),
    (log_ball, [(_INF, 0.0)], "non-finite value"),
    (log1p_ball, [(-1.0, 0.0)], "log1p at -1"),
    (log1p_ball, [(-1.0, 0.5)], "interval below -1"),
    (log1p_ball, [(0.5, _INF)], "non-finite radius"),
    (mul_ball, [(1e200, 0.0), (1e200, 0.0)], "overflowing product"),
    (mul_ball, [(1e300, 1e300), (1.0, 1e10)], "overflowing product radius"),
    (mul_ball, [(1.0, _INF), (2.0, 0.0)], "non-finite radius"),
    (div_ball, [(1.0, 0.0), (0.0, 0.0)], "divisor 0"),
    (div_ball, [(1.0, 0.0), (0.5, 0.5)], "divisor interval reaches 0"),
    (div_ball, [(1.0, _INF), (2.0, 0.0)], "non-finite radius"),
    (div_ball, [(1e300, 0.0), (1e-300, 0.0)], "overflowing quotient"),
    (div_ball, [(1.0, 0.0), (1e-200, 0.0)], "radius denominator underflows"),
    (sub_ball, [(1e308, 0.0), (-1e308, 0.0)], "overflowing difference"),
    (sub_ball, [(1.0, _NAN), (0.0, 0.0)], "non-finite radius"),
    (add_ball, [(1e308, 0.0), (1e308, 0.0)], "overflowing sum"),
    (add_ball, [(1.0, 1e308), (0.0, 1e308)], "overflowing sum radius"),
]


@pytest.mark.parametrize(
    "kernel,args", [c[:2] for c in _KERNEL_DOMAIN_CASES], ids=[c[2] for c in _KERNEL_DOMAIN_CASES]
)
def test_kernel_raises_where_its_wrapper_raises(kernel, args):
    # a kernel takes plain pairs, so it must catch a non-finite input in its
    # guard or in its output check
    with pytest.raises(DomainError):
        kernel(*args)


@given(st.integers(-(2**200), 2**200), st.integers(0, 2**130))
def test_sum_ball_encloses_the_scaled_integers(units, radius_units):
    v, r = sum_ball(units, radius_units)
    exact = Fraction(units, 2**120)
    assert v == float(exact)  # correctly rounded
    assert Fraction(r) >= Fraction(radius_units, 2**120) + abs(Fraction(v) - exact)


def test_compare_is_ball_status_of_the_difference():
    rng = random.Random(5)
    for _ in range(2000):
        a = CertifiedValue(rng.uniform(-2, 2), rng.choice([0.0, 1e-3, 1e-16]))
        b = CertifiedValue(rng.uniform(-2, 2), rng.choice([0.0, 1e-3, 1e-16]))
        for claim in ("<", "<=", ">", ">="):
            verdict = compare(a, b, claim)
            margin = sub_ball(a.ball, b.ball)
            assert (verdict.margin.value, verdict.margin.radius) == margin
            assert verdict.status is ball_status(margin, claim)


def test_cv_from_int_exactness():
    """int_ball is exact within 53 bits and an enclosure beyond."""
    assert int_ball(2**53 - 1)[1] == 0.0
    big = 2**60 + 12345
    out = int_ball(big)
    assert out[1] > 0
    assert contains(out, mp.mpf(big))


def test_cv_from_ratio_encloses():
    """ratio_ball encloses the exact rational."""
    assert contains(ratio_ball(1, 3), mp.mpf(1) / 3)


@pytest.mark.parametrize("n", [3, 6, 30030, 2**64 + 7, 614889782588491410])
def test_cv_log_int(n):
    """log_int_ball encloses log n on both sides of the 53-bit split."""
    out = log_int_ball(n)
    assert contains(out, mp.log(n))
    assert out[1] < 1e-12


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def test_compare_holds():
    v = compare(CertifiedValue(1.0, 0.1), CertifiedValue(2.0, 0.1), "<")
    assert v.status is VerdictStatus.HOLDS


def test_compare_overlap_is_inconclusive():
    v = compare(CertifiedValue(1.0, 0.6), CertifiedValue(2.0, 0.6), "<")
    assert v.status is VerdictStatus.INCONCLUSIVE


def test_compare_constants_sanity():
    # e^gamma = 1.781... is not below zeta(2) = 1.645...
    assert compare(E_GAMMA, ZETA2, "<").status is VerdictStatus.FAILS
    assert compare(E_GAMMA, ZETA2, ">").status is VerdictStatus.HOLDS


def test_compare_equality_oriented():
    a = CertifiedValue(1.0)
    assert compare(a, a, "<=").status is VerdictStatus.HOLDS
    assert compare(a, a, "<").status is VerdictStatus.FAILS
    assert compare(a, a, ">=").status is VerdictStatus.HOLDS


def test_compare_unknown_claim():
    with pytest.raises(ValueError):
        compare(CertifiedValue(1.0), CertifiedValue(2.0), "==")


@given(
    st.floats(-1e6, 1e6),
    st.floats(0, 1.0),
    st.floats(-1e6, 1e6),
    st.floats(0, 1.0),
    st.sampled_from(["<", "<=", ">", ">="]),
)
def test_compare_antisymmetry(av, ar, bv, br, claim):
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[claim]
    a, b = CertifiedValue(av, ar), CertifiedValue(bv, br)
    assert compare(a, b, claim).status is compare(b, a, flipped).status


# ---------------------------------------------------------------------------
# enclosure property (randomized, against the 100-digit oracle)
# ---------------------------------------------------------------------------


def _random_cv(rng: random.Random) -> tuple[Ball, mp.mpf]:
    v = rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6)
    r = 0.0 if rng.random() < 0.3 else abs(v) * 10.0 ** rng.randint(-14, -6)
    true = mp.mpf(v) + mp.mpf(rng.uniform(-1, 1)) * mp.mpf(r)
    return (v, r), true


def test_enclosure_soundness_sampled():
    rng = random.Random(7)
    checked = 0
    for _ in range(2500):
        a, ta = _random_cv(rng)
        b, tb = _random_cv(rng)
        op = rng.choice(["add", "sub", "mul", "div", "log", "exp", "log1p"])
        try:
            if op == "add":
                out, truth = add_ball(a, b), ta + tb
            elif op == "sub":
                out, truth = sub_ball(a, b), ta - tb
            elif op == "mul":
                out, truth = mul_ball(a, b), ta * tb
            elif op == "div":
                out, truth = div_ball(a, b), ta / tb
            elif op == "log":
                out, truth = log_ball(a), mp.log(ta)
            elif op == "log1p":
                out, truth = log1p_ball(a), mp.log(1 + ta)
            else:
                if abs(a[0]) > 300:
                    continue
                out, truth = exp_ball(a), mp.exp(ta)
        except DomainError:
            continue
        assert contains(out, truth), (op, a, b, out, truth)
        checked += 1
    assert checked > 1500


@given(st.floats(1e-300, 1e300), st.floats(0, 1e-6))
def test_radius_monotonicity_log(v, widen):
    base = log_ball((v, v * 1e-12))
    wider = log_ball((v, v * (1e-12 + widen * 1e-3)))
    assert wider[1] >= base[1]


@given(
    st.floats(-1e100, 1e100),
    st.floats(-1e100, 1e100),
    st.floats(0, 1e80),
    st.floats(0, 1e80),
)
def test_radius_monotonicity_mul(av, bv, r1, r2):
    lo = mul_ball((av, min(r1, r2)), (bv, 1.0))
    hi = mul_ball((av, max(r1, r2)), (bv, 1.0))
    assert hi[1] >= lo[1]


def test_from_mp_interval_encloses():
    iv = mp.iv.mpf([1, 2]) / 3
    value, radius = from_mp_interval(iv)
    assert value - radius <= 1 / 3 <= value + radius
    assert value - radius <= 2 / 3 <= value + radius


@given(st.floats(-1e300, 1e300), st.floats(0, 1e300), st.floats(-1e300, 1e300), st.floats(0, 1e300))
def test_hull_ball_contains_both_balls_outward_endpoints(av, ar, bv, br):
    value, radius = hull_ball((av, ar), (bv, br))
    lo, hi = Fraction(value) - Fraction(radius), Fraction(value) + Fraction(radius)
    for end in (*ball_endpoints((av, ar)), *ball_endpoints((bv, br))):
        assert lo <= Fraction(end) <= hi


def test_neg_is_exact():
    assert neg_ball((1.5, 1e-10)) == (-1.5, 1e-10)
