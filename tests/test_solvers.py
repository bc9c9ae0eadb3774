"""The in-repo Nelder-Mead and brentq against scipy's, bit for bit.

``roundfair._solvers`` ports the two scipy routines the worst-case analysis
needs; these tests hold each port to scipy itself (the ``scipy_*`` oracles in
conftest), on the searches the package runs and on synthetic cases that reach
every branch.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roundfair import (
    adversarial,
    guard_ratio_ceiling,
    minimize_alpha,
    objective_by_name,
    sweep_tradeoff_curves,
)
from roundfair import _solvers as solvers
from roundfair._solvers import _ranked, brentq, nelder_mead
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


def _walled_bowl(centre, wall=1e9):
    """``_walled`` in any dimension: a bowl around ``centre`` that is ``wall``
    outside the unit box."""
    centre = np.asarray(centre, dtype=float)

    def func(x):
        if np.any(x < 0.0) or np.any(x > 1.0):
            return wall
        return float(np.sum((x - centre) ** 2))

    return func


def _nan_region(x):
    """NaN beyond x[0] = 0.6, with the bowl's centre inside the NaN region."""
    if x[0] > 0.6:
        return math.nan
    return float((x[0] - 0.8) ** 2 + (x[1] - 0.3) ** 2)


def _nan_start(x):
    """NaN on the start point of (0.5, 0.5), finite on the other two vertices."""
    if x[0] + x[1] < 1.01:
        return math.nan
    return float((x[0] - 0.9) ** 2 + (x[1] - 0.6) ** 2)


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
    # NaN trial points fail every comparison, so they contract and shrink
    "nan-region": (_nan_region, [0.5, 0.5], _options(1200)),
    "nan-start": (_nan_start, [0.5, 0.5], _options(1200)),
    # one start vertex is inf: inf - inf is NaN in the stop test
    "inf-wall": (_walled_bowl((1.2, 1.1), wall=math.inf), [0.99, 0.5], _options(1200)),
    # both moved start vertices are outside, tied at 1e9
    "tied-penalties": (_walled_bowl((1.2, 1.1)), [0.99, 0.99], _options(1200)),
    "walled-bowl-3d": (_walled_bowl((1.2, 1.1, -0.3)), [0.9, 0.95, 0.1], _options(1800)),
    # each shrink halves the 0.00025 edge exactly: it stops on reaching xatol
    "stops-at-xatol": (lambda x: 1.0, [0.0], _options(200, 0.00025 / 4)),
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


def test_nelder_mead_reports_nan_like_scipy():
    # The budget ends with the NaN start vertex still in the simplex: scipy
    # reports np.min of the values, which is NaN, beside the best vertex.
    options = dict(xatol=1e-9, fatol=1e-15, maxiter=100, maxfev=3)
    ours = nelder_mead(_nan_start, [0.5, 0.5], **options)
    ref = scipy_nelder_mead(_nan_start, [0.5, 0.5], **options)
    assert ours.x.tobytes() == ref.x.tobytes() and ours.x.tolist() == [0.525, 0.5]
    assert math.isnan(ours.fun) and math.isnan(ref.fun)
    assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit) == (3, 1)


_SORT_VALUES = (0.0, -0.0, 1.0, 2.0, 1e9, math.inf, -math.inf, math.nan)


def test_vertex_order_is_argsorts():
    # Every pattern of ties, signed zeros, infinities and NaN in up to four
    # values orders as np.argsort orders it.  Up to three, the vertex counts
    # of the package's one- and two-dimensional refines, numpy is not called.
    for n in range(1, 5):
        for values in itertools.product(_SORT_VALUES, repeat=n):
            fsim = list(values)
            order = [v[0] for v in _ranked([[k] for k in range(n)], fsim)[0]]
            assert order == np.argsort(np.array(fsim)).tolist(), values


@pytest.mark.parametrize("x0", [[0.4], [-1.2, 1.0]])
def test_nelder_mead_calls_numpy_only_for_points(monkeypatch, x0):
    # One- and two-dimensional refines run on floats: numpy reads x0, then
    # builds each point handed to func and the returned x.
    calls = []

    class Numpy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(np, name)

    monkeypatch.setattr(solvers, "np", Numpy())
    func = _rosenbrock if len(x0) > 1 else NELDER_MEAD_CASES["one-dimensional"][0]
    res = nelder_mead(func, x0, **_options(400))
    assert calls.count("asarray") == 1
    assert calls.count("array") == res.nfev + 1 == len(calls) - 1


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_nelder_mead_walled_quadratics_match_scipy(dim, data):
    centre = data.draw(st.lists(st.floats(-0.5, 1.5), min_size=dim, max_size=dim), label="centre")
    x0 = data.draw(
        st.lists(st.sampled_from([0.0, 0.5, 0.99]) | st.floats(0.0, 1.0), min_size=dim, max_size=dim),
        label="x0",
    )
    maxfev = data.draw(st.integers(1, 300 * dim), label="maxfev")
    func = _walled_bowl(centre)
    options = dict(xatol=1e-9, fatol=1e-15, maxiter=600 * dim, maxfev=maxfev)
    _assert_same_simplex(
        nelder_mead(func, x0, **options), scipy_nelder_mead(func, x0, **options)
    )


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
    + [("poly-two-round-diagonal", p) for p in (2.0, 2.01, 2.5, 2.7, 2.99, 3.0)]
    + [("guarded-cp1", p) for p in (2.01, 2.3, 2.5, 2.7, 2.99, 3.0)]
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


#: The fine sweep and the six searches of the benchmark's ``analysis`` workload.
ANALYSIS_SWEEP_P = [round(2.0 + 0.01 * k, 10) for k in range(101)]
ANALYSIS_SEARCHES = (
    ("proportional", None),
    ("poly-two-round", 2.0),
    ("poly-two-round-diagonal", 2.0),
    ("guarded-cp1", 2.7),
    ("guarded-cp2-mixed", 2.7),
    ("guarded-cp2-both-above", 2.7),
)


def test_sweep_and_analysis_searches_match_scipy_refine(monkeypatch):
    refines = []

    def both(func, x0, **options):
        ours = nelder_mead(func, x0, **options)
        _assert_same_simplex(ours, scipy_nelder_mead(func, x0, **options))
        refines.append(ours)
        return ours

    def analysis():
        rows = sweep_tradeoff_curves(ANALYSIS_SWEEP_P)
        searches = [minimize_alpha(objective_by_name(name, p)) for name, p in ANALYSIS_SEARCHES]
        return rows, searches

    monkeypatch.setattr(adversarial, "nelder_mead", both)
    rows, searches = analysis()
    # two refines per exponent, except at p = 2, where no trip family exists
    assert len(refines) == 2 * len(ANALYSIS_SWEEP_P) - 1 + len(ANALYSIS_SEARCHES)
    monkeypatch.setattr(adversarial, "nelder_mead", scipy_nelder_mead)
    ref_rows, ref_searches = analysis()

    def table(sweep):
        return [(row.p, row.no_cp_alpha, row.with_cp_alpha) for row in sweep]

    assert np.array_equal(table(rows), table(ref_rows), equal_nan=True)
    assert [row.p for row in rows] == ANALYSIS_SWEEP_P and math.isnan(rows[0].with_cp_alpha)
    assert searches == ref_searches


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
