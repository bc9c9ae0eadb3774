"""The in-repo brentq against scipy's, bit for bit, and the search's zoom
refine against scipy's Nelder-Mead.

``roundfair._solvers.brentq`` ports the one scipy routine the worst-case
analysis needs; these tests hold it to scipy itself (the ``scipy_*`` oracles
in conftest), on the guard's ceiling and on synthetic cases that reach every
branch.  ``minimize_alpha`` refines by rescanning shrinking grids; scipy's
simplex, run from the same grid point, is the value it must reach.
"""

import math

import numpy as np
import pytest

from roundfair import (
    adversarial,
    guard_ratio_ceiling,
    minimize_alpha,
    objective_by_name,
)
from roundfair._solvers import brentq
from roundfair.core import REFINE_TOL
from roundfair.errors import DomainError
from conftest import scipy_brentq, scipy_nelder_mead


#: Every objective the CLI can search, at exponents around the paper's.
OBJECTIVE_CASES = (
    [("proportional", None)]
    + [("poly-two-round", p) for p in (1.0, 2.0, 2.7, 4.0)]
    + [("poly-two-round-diagonal", p) for p in (2.0, 2.01, 2.5, 2.7, 2.99, 3.0)]
    + [("guarded-cp1", p) for p in (2.01, 2.3, 2.5, 2.7, 2.99, 3.0)]
    + [(f"guarded-cp2-{sub}", p) for sub in ("mixed", "both-above") for p in (2.7, 3.0)]
)


def _shrunk_box(objective):
    """The box ``minimize_alpha`` searches: each axis less its margin, or
    less a quarter of its width where that is smaller."""
    box = []
    for lo, hi in objective.bounds:
        margin = min(objective.margin, (hi - lo) / 4)
        box.append((lo + margin, hi - margin))
    return box


@pytest.mark.parametrize("grid_step", [1e-3, 5e-3, 2e-2])
@pytest.mark.parametrize("name, p", OBJECTIVE_CASES)
def test_search_refine_matches_scipy(name, p, grid_step):
    # scipy's Nelder-Mead from the search's grid point, with 1e9 outside the
    # box and at infeasible points, is the reference: the zoom must come out
    # as low, within 1e-12, and stay in the box.
    objective = objective_by_name(name, p)
    result = minimize_alpha(objective, grid_step)
    box = _shrunk_box(objective)

    def penalized(x):
        point = tuple(x.tolist())
        if any(not lo <= v <= hi for v, (lo, hi) in zip(point, box)):
            return 1e9
        try:
            value = objective.evaluate(point)
        except DomainError:
            return 1e9
        return value if math.isfinite(value) else 1e9

    budget = 600 * len(box)
    ref = scipy_nelder_mead(
        penalized, result.grid_point, xatol=REFINE_TOL, fatol=1e-15, maxiter=budget, maxfev=budget
    )
    assert result.value <= ref.fun + 1e-12
    assert result.value <= result.grid_value
    assert all(lo <= v <= hi for v, (lo, hi) in zip(result.argmin, box))


#: Exponents in (2, 100]: three right above 2, then 120 evenly spaced.
CEILING_P = [2.0 + 1e-9, 2.0 + 1e-6, 2.0001] + np.linspace(2.0, 100.0, 121)[1:].tolist()


def test_guard_ratio_ceiling_matches_scipy(monkeypatch):
    roots = []

    def both(f, a, b, **options):
        ours = brentq(f, a, b, **options)
        assert type(ours) is float
        assert ours == scipy_brentq(f, a, b, **options), (a, b)
        roots.append(ours)
        return ours

    monkeypatch.setattr(adversarial, "brentq", both)
    for p in CEILING_P:
        assert guard_ratio_ceiling(p) == roots[-1]
    assert len(roots) == len(CEILING_P) >= 100


def _step(x):
    return -1.0 if x < 0.3 else 1.0


BRENTQ_CASES = {
    "cubic": (lambda x: x**3 - 0.2, 0.0, 1.0, 2e-12),
    "falling": (lambda x: 0.2 - x**3, 0.0, 1.0, 2e-12),
    "cosine-tight": (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-13),
    "steep": (lambda x: math.exp(x) - 1e6, 0.0, 20.0, 2e-12),
    "flat-then-steep": (lambda x: x**9 - 1e-3, 0.0, 2.0, 2e-12),
    "step-bisects": (_step, 0.0, 1.0, 2e-12),
    # converges in 95 of the 100 iterations allowed
    "step-wide-bracket": (_step, -1e16, 1e16, 2e-12),
    # takes one minimal step of xtol/2 before the bracket closes
    "loose-xtol": (lambda x: x**3 - 0.2, 0.0, 1.0, 1e-2),
    "exact-zero-inside": (lambda x: x - 0.5, 0.0, 1.0, 2e-12),
    "exact-zero-at-a": (lambda x: x, 0.0, 1.0, 2e-12),
    "exact-zero-at-b": (lambda x: x, -1.0, 0.0, 2e-12),
    # f(b) is +0.0 beside a positive f(a): returned before the sign test
    "exact-zero-at-b-falling": (lambda x: 0.0 - x, -1.0, 0.0, 2e-12),
}


@pytest.mark.parametrize("f, a, b, xtol", BRENTQ_CASES.values(), ids=BRENTQ_CASES)
def test_brentq_matches_scipy(f, a, b, xtol):
    ours = brentq(f, a, b, xtol=xtol)
    assert type(ours) is float
    assert ours == scipy_brentq(f, a, b, xtol=xtol)


def test_brentq_returns_the_zero_end():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=2e-12) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=2e-12) == 1.0


BRENTQ_FAILURES = {
    "same-sign-above": (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    "same-sign-below": (lambda x: -x * x - 1.0, -1.0, 1.0, ValueError),
    "nan-at-b": (lambda x: -1.0 if x < 0.5 else math.nan, 0.0, 1.0, ValueError),
    # bisecting a bracket this wide needs more than 100 iterations
    "iteration-budget": (_step, -1e18, 1e18, RuntimeError),
}


@pytest.mark.parametrize("f, a, b, error", BRENTQ_FAILURES.values(), ids=BRENTQ_FAILURES)
def test_brentq_fails_like_scipy(f, a, b, error):
    with pytest.raises(error):
        scipy_brentq(f, a, b, xtol=2e-12)
    with pytest.raises(error):
        brentq(f, a, b, xtol=2e-12)
