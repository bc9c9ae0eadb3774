import numpy as np
import pytest
from hypothesis import settings

from roundfair import doomsday_compatible, doomsday_witness, poly_round, validate_instance
from roundfair.core import DEFAULT_TOL, TRIP_SLACK

# Reproducible property searches: ``pytest --hypothesis-profile=ci``.
settings.register_profile("ci", derandomize=True, deadline=None)


def random_instance(rng, n=2, max_rounds=20, min_rounds=1):
    """A random normalized instance: each agent's column is a Dirichlet draw."""
    T = int(rng.integers(min_rounds, max_rounds + 1))
    columns = rng.dirichlet(np.ones(T), size=n)
    return validate_instance(columns.T, require_normalized=True)


def random_instances(seed, count, n=2, max_rounds=20):
    rng = np.random.default_rng(seed)
    return [random_instance(rng, n=n, max_rounds=max_rounds) for _ in range(count)]


def late_trip_values(rng, rounds):
    """Two agents where agent 1 slightly out-values agent 0 on the first 90%
    of rounds and wants nothing after; agent 0 is near uniform.  For p >= 2.7
    agent 0's guard binds late in that first stretch."""
    stretch = int(0.9 * rounds)
    a = rng.gamma(200.0, size=rounds)
    b = rng.gamma(200.0, size=rounds)
    b[stretch:] = 0.0
    return np.column_stack([a / a.sum(), b / b.sum()])


def guarded_reference(values, p, totals=None):
    """Reference guarded run: the power rule and the trip solve, one round at a time.

    This is the scalar definition of the guarded rule, kept to check the array
    implementation in ``run_guarded`` against.  Each agent's total is summed
    as ``validate_instance`` sums it, over her column, unless ``totals`` gives
    it.  Before each round it solves, for each agent, the fraction f of the
    round at which her utility so far plus her value still to come (her
    total less the running sum of her values) falls to her fair-share
    target, half her total, under the power rule's shares.  The first round
    with a crossing in [0, 1 + TRIP_SLACK] trips: the smaller f wins, then
    the lower agent.  Returns the fractions and ``(round, f, agent)`` or None.
    """
    values = np.asarray(values, dtype=float)
    if totals is None:
        totals = np.add.reduce(np.asfortranarray(values))
    totals = [float(total) for total in totals]
    fractions = np.zeros(values.shape)
    u = [0.0, 0.0]
    summed = [0.0, 0.0]
    for t, (a, b) in enumerate(values.tolist()):
        m = max(a, b)
        if m <= 0.0 or p == 0.0:
            x = (0.5, 0.5)
        else:
            wa, wb = (a / m) ** p, (b / m) ** p
            x = (wa / (wa + wb), wb / (wa + wb))
        candidates = []
        for i, v in enumerate((a, b)):
            slope = v - v * x[i]
            if slope > 0.0:
                rem = totals[i] - summed[i]
                f = (u[i] + rem - totals[i] / 2) / slope
                if f <= 1.0 + TRIP_SLACK:
                    candidates.append((min(max(f, 0.0), 1.0), i))
        if candidates:
            f, i = min(candidates)
            fractions[t] = [f * x[0], f * x[1]]
            fractions[t, i] += 1.0 - f
            fractions[t + 1 :, i] = 1.0
            return fractions, (t, f, i)
        fractions[t] = x
        u = [u[0] + a * x[0], u[1] + b * x[1]]
        summed = [summed[0] + a, summed[1] + b]
    return fractions, None


#: Roundings of magnitude at most 1 in the two runs' guard surpluses before
#: round t, per (t + 1) machine epsilons; see ``surplus_rounding_over_slope``.
SURPLUS_ROUNDINGS = 16


def surplus_rounding_over_slope(inst, p, t, i):
    """Bound on how far ``run_guarded``'s trip fraction for agent i in round t
    can lie from the reference's: ``c (t + 1) eps / slope``, c =
    ``SURPLUS_ROUNDINGS``.

    Both runs form the surplus before round t from the same operations on
    sums of magnitude at most 1.  The value still to come is the same bits
    in both: the agent's total, summed as ``validate_instance`` sums it,
    less the running sum of her first t values.  The utility so far takes t
    products and t - 1 additions, and the surplus two more: the value still
    to come added, and the target, half the total (exact), subtracted.  With
    unit roundoff u = eps / 2, each run's utility and surplus are within
    about (2t + 7) u of the exact ones on the same value still to come,
    which also covers shares a few ulps apart (numpy's vectorized pow need
    not match libm's, and a share enters the utility weighted by a value,
    all values summing to 1).  So the surpluses differ by at most
    8 (t + 1) eps.  The slope ``v - v * x`` carries a few ulps of
    v in each run, which moves f (at most 1 + TRIP_SLACK) by at most another
    6 eps / slope.  Together, 14 (t + 1) eps / slope, rounded up to 16.  The
    clamp to [0, 1] only shrinks a difference.
    """
    v = float(inst.values[t, i])
    slope = v - v * float(poly_round(inst.values[t], p)[i])
    return SURPLUS_ROUNDINGS * (t + 1) * np.finfo(float).eps / slope


def doomsday_maintained(utilities_so_far, remaining_values, next_round_values, tol=DEFAULT_TOL):
    """Re-check compatibility after advancing one round with the witness.

    From a compatible state, applying the ``doomsday_witness`` shares to the
    next round's values and re-testing must succeed again; a compatible state
    can always be carried forward.
    """
    witness = doomsday_witness(utilities_so_far, remaining_values, tol=tol)
    v = np.asarray(next_round_values, dtype=float)
    u_next = np.asarray(utilities_so_far, dtype=float) + v * witness
    rem_next = np.asarray(remaining_values, dtype=float) - v
    return doomsday_compatible(u_next, rem_next, tol=tol)


def dense_fair_share_lp(instance):
    """Reference offline fair-share welfare: the LP with a dense constraint matrix.

    This is the formulation ``offline_fair_share_welfare`` solves whenever a
    fair-share row might bind, kept to check both of its paths against:
    maximize total utility over shares x[t, i] in [0, 1], with each round's
    shares summing to at most 1 and each agent's utility at least her own
    total over n.
    """
    from scipy.optimize import linprog

    V = instance.values
    T, n = V.shape
    A_ub = np.zeros((T + n, T * n))
    for t in range(T):
        A_ub[t, t * n : (t + 1) * n] = 1.0
    for i in range(n):
        A_ub[T + i, i::n] = -V[:, i]
    b_ub = np.concatenate([np.ones(T), -V.sum(axis=0) / n])
    result = linprog(
        -V.reshape(-1), A_ub=A_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
    )
    assert result.success, result.message
    return float(-result.fun)


def dense_grid_axes(objective, grid_step):
    """The search grid's axes: each side of the box shrunk by the margin, at
    ``grid_step``, with the far end appended."""
    axes = []
    for lo, hi in objective.bounds:
        start, stop = lo + objective.margin, hi - objective.margin
        ax = np.arange(start, stop, grid_step)
        if ax.size == 0 or ax[-1] < stop - 1e-15:
            ax = np.append(ax, stop)
        axes.append(ax)
    return axes


def dense_grid_argmin(objective, grid_step):
    """Reference grid scan: the whole grid as one full meshgrid.

    This is the scan ``minimize_alpha`` once did in a single step, kept to
    check its blocked scan against.  Returns the best grid point (first
    minimum in row-major order), its value and the number of grid points.
    """
    mesh = np.meshgrid(*dense_grid_axes(objective, grid_step), indexing="ij")
    with np.errstate(all="ignore"):
        grid_vals = np.asarray(objective.grid(objective.p, *mesh), dtype=float)
    best_flat = int(np.nanargmin(grid_vals))
    point = tuple(float(m.reshape(-1)[best_flat]) for m in mesh)
    return point, float(grid_vals.reshape(-1)[best_flat]), grid_vals.size


def scipy_nelder_mead(func, x0, **options):
    """Reference minimizer: scipy's Nelder-Mead, whose value from the search's
    grid point ``minimize_alpha``'s refine must reach.  Takes scipy's options
    (``xatol``, ``fatol``, ``maxiter``, ``maxfev``) and returns scipy's
    result."""
    from scipy.optimize import minimize

    return minimize(func, x0, method="Nelder-Mead", options=options)


def scipy_brentq(f, a, b, **options):
    """Reference root finder: scipy's brentq, whose root of the guard's
    ceiling function ``guard_ratio_ceiling``'s bisection must land beside."""
    from scipy.optimize import brentq

    return brentq(f, a, b, **options)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
