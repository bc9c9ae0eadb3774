"""The in-repo Nelder-Mead and brentq against scipy's, bit for bit.

``roundfair._solvers`` ports the two scipy routines the worst-case analysis
needs; these tests hold each port to scipy itself (the ``scipy_*`` oracles in
conftest), on the searches the package runs and on synthetic cases that reach
every branch.
"""

import math

import numpy as np
import pytest

from roundfair import adversarial, guard_ratio_ceiling, minimize_alpha, objective_by_name
from roundfair._solvers import brentq, nelder_mead
from conftest import scipy_brentq, scipy_nelder_mead


def _assert_same_simplex(ours, ref):
    assert ours.x.dtype == ref.x.dtype and ours.x.shape == ref.x.shape
    assert ours.x.tobytes() == ref.x.tobytes(), (ours.x, ref.x)
    assert (ours.fun, ours.nfev, ours.nit) == (ref.fun, ref.nfev, ref.nit)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _walled(x):
    """A bowl centred outside [0, 1]^2 behind 1e9 walls, the way the search's
    refine sees its box and its infeasible points."""
    if np.any(x < 0.0) or np.any(x > 1.0):
        return 1e9
    return float((x[0] - 1.2) ** 2 + (x[1] - 1.1) ** 2)


def _options(budget, xatol=1e-9, fatol=1e-15):
    return dict(xatol=xatol, fatol=fatol, maxiter=budget, maxfev=budget)


NELDER_MEAD_CASES = {
    "rosenbrock-2d": (_rosenbrock, [-1.2, 1.0], _options(400, 1e-8, 1e-12)),
    # the zero coordinate takes the 0.00025 vertex instead of the 5% one
    "rosenbrock-4d-zero-start": (_rosenbrock, [-1.2, 1.0, 0.5, 0.0], _options(2400)),
    "one-dimensional": (lambda x: float((x[0] - 0.3) ** 2), [0.9], _options(600)),
    # equal values everywhere: every step contracts inside and then shrinks
    "constant-shrinks": (lambda x: 1.0, [0.5, 0.5], _options(200, 1e-6)),
    # kinks make the contractions fail, so the simplex shrinks
    "kinked-shrinks": (lambda x: float(np.max(np.abs(x - 0.25))), [0.9, -0.4], _options(1200)),
    "penalty-walls": (_walled, [0.9, 0.95], _options(1200)),
    "iteration-budget": (_rosenbrock, [-1.2, 1.0], dict(xatol=1e-9, fatol=1e-15, maxiter=5, maxfev=400)),
}


@pytest.mark.parametrize("func, x0, options", NELDER_MEAD_CASES.values(), ids=NELDER_MEAD_CASES)
def test_nelder_mead_matches_scipy(func, x0, options):
    _assert_same_simplex(
        nelder_mead(func, x0, **options), scipy_nelder_mead(func, x0, **options)
    )


@pytest.mark.parametrize("maxfev", range(1, 25))
def test_nelder_mead_evaluation_budget_matches_scipy(maxfev):
    # Budgets of 1-2 cut the initial simplex short; larger ones stop inside
    # reflections, expansions, contractions and shrinks alike.
    options = dict(xatol=1e-9, fatol=1e-15, maxiter=1000, maxfev=maxfev)
    for func, x0 in ((_rosenbrock, [-1.2, 1.0]), (NELDER_MEAD_CASES["kinked-shrinks"][0], [0.9, -0.4])):
        ours = nelder_mead(func, x0, **options)
        _assert_same_simplex(ours, scipy_nelder_mead(func, x0, **options))
        assert ours.nfev == maxfev


def test_nelder_mead_budget_spent_mid_shrink_matches_scipy():
    # Values by call order: the simplex (1, 2, 3), a reflection worse than
    # all (5), a failed inside contraction (4), then a shrink whose first
    # point is a new best (0) before the budget runs out on the second.
    values = iter([1.0, 2.0, 3.0, 5.0, 4.0, 0.0])
    ref_values = iter([1.0, 2.0, 3.0, 5.0, 4.0, 0.0])
    options = dict(xatol=1e-9, fatol=1e-15, maxiter=100, maxfev=6)
    ours = nelder_mead(lambda x: next(values), [0.5, 0.5], **options)
    ref = scipy_nelder_mead(lambda x: next(ref_values), [0.5, 0.5], **options)
    _assert_same_simplex(ours, ref)
    assert ours.x.tolist() == [0.5125, 0.5] and ours.fun == 0.0


def test_nelder_mead_passes_copies():
    seen = []

    def func(x):
        seen.append(x)
        x[:] = 7.0  # must not reach the simplex
        return float(np.sum(x))

    res = nelder_mead(func, [0.2, 0.4], **_options(10))
    assert len({id(x) for x in seen}) == len(seen) == res.nfev
    assert res.x.tolist() == [0.2, 0.4]


#: Every objective the CLI can search, at exponents around the paper's.
OBJECTIVE_CASES = (
    [("proportional", None)]
    + [("poly-two-round", p) for p in (1.0, 2.0, 2.7, 4.0)]
    + [("poly-two-round-diagonal", p) for p in (2.0, 2.7, 3.0)]
    + [("guarded-cp1", p) for p in (2.3, 2.7, 3.0)]
    + [(f"guarded-cp2-{sub}", p) for sub in ("mixed", "both-above") for p in (2.7, 3.0)]
)


@pytest.mark.parametrize("grid_step", [1e-3, 5e-3, 2e-2])
@pytest.mark.parametrize("name, p", OBJECTIVE_CASES)
def test_search_refine_matches_scipy(monkeypatch, name, p, grid_step):
    refines = []

    def both(func, x0, **options):
        ours = nelder_mead(func, x0, **options)
        _assert_same_simplex(ours, scipy_nelder_mead(func, x0, **options))
        refines.append(ours)
        return ours

    monkeypatch.setattr(adversarial, "nelder_mead", both)
    result = minimize_alpha(objective_by_name(name, p), grid_step)
    assert len(refines) == 1
    assert result.evaluations > refines[0].nfev > 0


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
