"""The search's zoom refine against scipy's Nelder-Mead.

``minimize_alpha`` refines by rescanning shrinking grids; scipy's simplex
(the ``scipy_nelder_mead`` oracle in conftest), run from the same grid
point, is the value it must reach.
"""

import math

import pytest

from roundfair import minimize_alpha, objective_by_name
from roundfair.core import REFINE_TOL
from roundfair.errors import DomainError
from conftest import scipy_nelder_mead


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
