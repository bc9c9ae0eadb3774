"""Precision of the closed-form bodies, checked in 50 digits.

Each ratio body is written with plain operators and the float kit's
builtin ``max``/``min``, so handing it ``mpmath.mpf`` arguments evaluates the
same expression at 50 significant digits.  At seeded feasible points,
including exponents just above 2, the float result must lie within
``REL_BOUND`` of that reference, relative.

The trip-at-round-2 body ``_cp2_ratio`` is not checked here.  Its
denominator cancels near p = 2: at p = 2.000001, on 3,000 seeded points of
the mixed region, the float body is off by up to 1.8e-13 relative, where the
denominator is 3.8e-7.  It needs a rewrite with ``expm1`` and ``log1p``
before it can meet a stated bound.
"""

import mpmath
import numpy as np
import pytest

from roundfair import guard_ratio_ceiling
from roundfair.adversarial import (
    _FLOAT_KIT,
    _cp1_ratio,
    _poly_two_round_ratio,
    _proportional_ratio,
)

REL_BOUND = 1e-15
EXPONENTS = (0.5, 1.0, 2.0, 2.000001, 2.7, 5.0, 50.0)
POINTS = 1000


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _relative_error(body, *args):
    """The float body's error against the same body on exact copies of its
    float arguments, relative to the 50-digit value."""
    exact = body(*(mpmath.mpf(a) if isinstance(a, float) else a for a in args))
    return float(abs((body(*args) - exact) / exact))


def _two_round_points(seed):
    """Seeded points of the crossed two-round family: 0 < v1, v2 <= 1 with
    v1 + v2 > 1."""
    rng = np.random.default_rng(seed)
    v1 = rng.uniform(0.0, 1.0, POINTS)
    v2 = rng.uniform(1.0 - v1, 1.0)
    keep = (v1 > 0.0) & (v1 + v2 > 1.0)
    return list(zip(v1[keep].tolist(), v2[keep].tolist()))


def test_proportional_ratio():
    points = _two_round_points(1)
    worst = max(_relative_error(_proportional_ratio, v1, v2, _FLOAT_KIT) for v1, v2 in points)
    assert worst <= REL_BOUND


@pytest.mark.parametrize("p", EXPONENTS)
def test_poly_two_round_ratio(p):
    points = _two_round_points(2)
    # The diagonal family: v1 = v2 in (1/2, 1].
    points += [(v, v) for v in np.random.default_rng(3).uniform(0.5, 1.0, POINTS).tolist()]
    worst = max(_relative_error(_poly_two_round_ratio, p, v1, v2, _FLOAT_KIT) for v1, v2 in points)
    assert worst <= REL_BOUND


@pytest.mark.parametrize("p", [p for p in EXPONENTS if p > 2.0])
def test_cp1_ratio(p):
    # The trip-at-round-1 family exists for p > 2, on 1 <= lambda1 <= ceiling.
    lambdas = np.random.default_rng(4).uniform(1.0, guard_ratio_ceiling(p), POINTS)
    lambdas = [1.0, *lambdas.tolist()]
    worst = max(_relative_error(_cp1_ratio, p, lam, _FLOAT_KIT) for lam in lambdas)
    assert worst <= REL_BOUND
