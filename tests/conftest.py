from __future__ import annotations

import pytest

from psiverify.primes import build_table


@pytest.fixture(scope="session")
def table():
    """Shared table covering p_100000 = 1299709 (and then some)."""
    return build_table(1_400_000)


@pytest.fixture(scope="session")
def small_table():
    return build_table(1000)


def _paper_gap_sides(A, x, loglog, s_inv, s_phi):
    """The ``criterion-gap`` row in the paper's form, log g(x) >= log f(x) - 2/x, on the inv and phi sums.

    ``bounds`` decides the row on the ``sq`` sum alone, since g/f = 1/(zeta(2) prod(1 - 1/p^2));
    this is the oracle it is checked against, in either arithmetic ``A`` of ``bounds``.
    """
    log_loglog = A.log(loglog)
    lhs = A.add(A.add(A.log(A.e_gamma_over_zeta2), log_loglog), s_inv)
    rhs = A.add(A.add(A.add(A.log(A.e_gamma), log_loglog), s_phi), A.ratio(-2, x))
    return lhs, rhs


@pytest.fixture(scope="session")
def paper_gap_sides():
    return _paper_gap_sides
