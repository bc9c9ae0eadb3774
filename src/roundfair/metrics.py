"""Fairness and efficiency audits for (instance, allocation) pairs.

Fair-share asks every agent for 1/n of her own total value.  Includes the
doomsday feasibility test: a mid-run state passes when a single allocation of
each agent's entire remaining value could still lift everyone to that share,
within the audit tolerance.  An online rule preserves fair-share exactly when
every round of every run passes this test.  Every ``tol`` here must be finite
and nonnegative; any other raises OutOfRange.
"""

from __future__ import annotations

import numpy as np

from .algorithms import GREEDY, _poly_fractions
from .core import (
    _ARRAY_KIT,
    DEFAULT_TOL,
    Allocation,
    Instance,
    RunTrace,
    Verdict,
    _run_kit,
    check_tolerance,
    fair_share,  # re-exported: metrics.fair_share is public
    operand,
)
from .errors import DimensionMismatch, ShapeMismatch, ValidationError

_ZERO, _ONE, _INF = operand(0.0), operand(1.0), operand(np.inf)


def utilities(instance: Instance, allocation: Allocation) -> np.ndarray:
    """Each agent's realized utility: the inner product of her values and shares."""
    if instance.values.shape != allocation.fractions.shape:
        raise ShapeMismatch(
            f"instance is {instance.values.shape}, allocation is "
            f"{allocation.fractions.shape}"
        )
    return np.add.reduce(instance.values * allocation.fractions)


def optimal_welfare(instance: Instance) -> float:
    """Unconstrained welfare optimum: each round goes to whoever values it most.

    Computed once, when :func:`~roundfair.core.validate_instance` builds the
    instance."""
    return instance.optimal_welfare


def audit(instance: Instance, allocation: Allocation, tol: float = DEFAULT_TOL) -> Verdict:
    """Judge an allocation for welfare ratio, fair-share, and envy.

    Fair-share asks every utility to reach its :func:`fair_share` target.
    Envy-freeness compares each agent's own bundle against every other bundle
    under her own values, and is only reported when all rounds were fully
    allocated; otherwise it is None.
    """
    check_tolerance(tol)
    u = utilities(instance, allocation)
    sw = float(np.add.reduce(u))
    opt = instance.optimal_welfare
    ratio = sw / opt if opt > 0 else 1.0
    # Minima and maxima are read at argmin and argmax: on a short run numpy's
    # min and max reductions cost more to set up than they have to compare.
    # Both pick the first nan, as min and max propagate it.
    margins = u - instance.fair_share
    fair_share_margin = float(margins[margins.argmin()])

    # Every round sums to 1 within tol exactly when the extreme sums do:
    # subtracting 1 is monotone, so it commutes with min and max.  The sums
    # are the allocation's own, taken when it was built.
    row_sums = allocation.row_sums
    fully_allocated = bool(
        row_sums[row_sums.argmin()] - 1.0 >= -tol
        and row_sums[row_sums.argmax()] - 1.0 <= tol
    )
    envy_free_ok = None
    envy_margin = None
    if fully_allocated:
        # bundle_value[i][j] = agent i's value for agent j's bundle
        bundle_value = instance.values.T @ allocation.fractions
        envy = bundle_value.diagonal()[:, None] - bundle_value
        envy_margin = float(envy.flat[envy.argmin()])
        envy_free_ok = bool(envy_margin >= -tol)

    return Verdict(
        utilities=u,
        social_welfare=sw,
        optimal_welfare=opt,
        ratio=ratio,
        fair_share_ok=bool(fair_share_margin >= -tol),
        envy_free_ok=envy_free_ok,
        tolerance=tol,
        fair_share_margin=fair_share_margin,
        envy_margin=envy_margin,
    )


def _state_arrays(utilities_so_far, remaining_values):
    """One state's utilities and remaining values as finite float arrays of
    one shape ``(n,)``, n >= 1."""
    u = np.asarray(utilities_so_far, dtype=float)
    rem = np.asarray(remaining_values, dtype=float)
    if u.ndim != 1 or u.size == 0 or rem.shape != u.shape:
        raise DimensionMismatch(
            "expected one non-empty vector each of utilities and remaining values, "
            f"got shapes {u.shape} and {rem.shape}"
        )
    if not (np.isfinite(u).all() and np.isfinite(rem).all()):
        raise ValidationError("utilities and remaining values must be finite")
    return u, rem


def _need(u: np.ndarray, target, tol: float, kit) -> np.ndarray:
    """Each agent's ``max(d_i - tol, 0)``, where ``d_i = target_i - u_i`` is her
    deficit below her (or a shared scalar) target, in a buffer from ``kit``."""
    need = kit.subtract(target, u)
    need -= tol
    return np.maximum(need, _ZERO, out=need)


def _minimal_shares(u: np.ndarray, rem: np.ndarray, target, tol: float) -> np.ndarray:
    """Minimal last-round shares for ``(..., n)`` state arrays.

    Agent i needs the share :func:`_need` over ``rem_i`` of a last round; an
    agent with nothing left to come gets 0.
    """
    need = _need(u, target, tol, _ARRAY_KIT)
    return np.divide(need, rem, out=np.zeros_like(need), where=rem > 0.0)


def _doomsday_ok(u: np.ndarray, rem: np.ndarray, target, tol: float) -> np.ndarray:
    """The doomsday test on every state at once: one bool per row of ``(..., n)`` arrays.

    A state passes when no agent is stranded, that is still needs a share
    but has nothing left to come, and the minimal shares of
    :func:`_minimal_shares` sum to at most 1.  Both parts are one sum here,
    since a stranded agent's share counts as inf.  The need, the shares and
    their two masks come from the kit :func:`core._run_kit` picks for the
    states' size; the returned flags are new.
    """
    kit = _run_kit(u.size)
    need = _need(u, target, tol, kit)
    # A stranded agent's share is inf, any other 0, until a positive
    # remainder divides.
    shares = kit.empty_like(need)
    shares.fill(0.0)
    np.copyto(shares, _INF, where=kit.greater(need, _ZERO))
    # Only a positive remainder divides; over a subnormal one a need may
    # overflow to inf, and in an instance built around validate_instance a
    # column total that overflowed gives inf over inf.  Both fail the state
    # as they should.
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(need, rem, out=shares, where=kit.greater(rem, _ZERO))
    return np.add.reduce(shares, axis=-1) <= _ONE


def doomsday_compatible(
    utilities_so_far, remaining_values, *, tol: float = DEFAULT_TOL
) -> bool:
    """Can one last round carrying all remaining value still rescue fair-share?

    Feasibility asks for nonnegative shares x with sum at most 1 such that
    ``u_i + remaining_i * x_i >= 1/n - tol`` for all i, the same slack on the
    utility scale that :func:`audit` allows.  The minimal share for a deficit
    agent is the shortfall beyond ``tol`` over the agent's remaining value, so
    the test is the closed form: impossible when an agent lacks more than
    ``tol`` but has nothing left to come, else feasible exactly when those
    minimal shares sum to at most 1.  Putting the slack on the utilities rather than on the share
    sum keeps a roundoff-sized deficit against a small remainder from failing
    a state that fair-share accepts.  A bare state carries no totals, so the
    target is the normalized 1/n, with n the length of both vectors.
    """
    check_tolerance(tol)
    u, rem = _state_arrays(utilities_so_far, remaining_values)
    return bool(_doomsday_ok(u, rem, 1.0 / u.size, tol))


def doomsday_witness(
    utilities_so_far, remaining_values, *, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Single-round shares that restore fair-share from a compatible state.

    Every agent gets at least her minimal share ``max(d_i - tol, 0) / rem_i``,
    the share that :func:`doomsday_compatible` sums with the same ``tol``.  The
    room those shares leave in the round then lifts every deficit agent by one
    common fraction of the gap to her full deficit share ``d_i / rem_i``, so a
    state carried forward keeps a margin instead of landing on the ``tol``
    boundary, where rounding could fail it.  Should rounding push the lifted
    shares above a sum of 1, the minimal shares are returned.  Only meaningful
    when the state is doomsday-compatible, in which case the shares sum to at
    most 1.  Its target is the normalized 1/n, as in the compatibility test.
    """
    check_tolerance(tol)
    u, rem = _state_arrays(utilities_so_far, remaining_values)
    minimal = _minimal_shares(u, rem, 1.0 / u.size, tol)
    gap = _minimal_shares(u, rem, 1.0 / u.size, 0.0) - minimal
    total_gap = gap.sum()
    lift = 0.0
    if total_gap > 0.0:
        lift = min(max((1.0 - minimal.sum()) / total_gap, 0.0), 1.0)
    witness = minimal + lift * gap
    return witness if witness.sum() <= 1.0 else minimal


def doomsday_trace(
    instance: Instance, trace: RunTrace, tol: float = DEFAULT_TOL
) -> list[bool]:
    """Apply the doomsday test, against :func:`fair_share`, after every round.

    The test's T x n temporaries (the need, the shares and their two masks)
    come from the calling thread's workspace when the trace has at least
    ``core._WORKSPACE_MIN_ENTRIES`` entries, and are allocated afresh below
    that; the workspace keeps them for the thread's next long run (see
    :func:`core._run_kit`).  The returned flags are a new list.
    """
    check_tolerance(tol)
    shape = instance.values.shape
    if trace.cumulative_utility.shape != shape or trace.remaining_value.shape != shape:
        raise ShapeMismatch("trace does not match this instance")
    return _doomsday_ok(
        trace.cumulative_utility, trace.remaining_value, instance.fair_share, tol
    ).tolist()


def offline_fair_share_welfare(instance: Instance) -> float:
    """Best social welfare any offline allocation can reach subject to fair-share.

    Solved as a linear program over all fractional allocations: maximize total
    utility with per-round sums at most 1 and every agent held at or above her
    :func:`fair_share` target.  The constraint matrix is sparse: it
    stores ``T·n`` ones plus the nonzero values, so memory grows with ``T·n``.

    The LP runs only when a fair-share row might bind.  Without those rows
    the optimum is :func:`optimal_welfare`, so that value bounds this one from
    above; when the greedy rule's allocation (tied and dead rounds split as
    :func:`~roundfair.algorithms.poly_round` splits them) already gives every
    agent at least her target, with no slack, it is feasible and reaches the
    bound, and the bound is returned without solving.
    """
    V = instance.values
    target = instance.fair_share
    greedy = np.add.reduce(V * _poly_fractions(V, GREEDY), axis=0)
    if (greedy >= target).all():
        return optimal_welfare(instance)

    # loaded on first use: they dominate import time
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    T, n = V.shape
    c = -V.reshape(-1)  # variables x[t, i], row-major

    # Row t sums round t's shares; row T + i caps -(agent i's utility).
    col = np.arange(T * n)
    A_ub = csr_array(
        (
            np.concatenate([np.ones(T * n), -V.reshape(-1)]),
            (np.concatenate([col // n, T + col % n]), np.concatenate([col, col])),
        ),
        shape=(T + n, T * n),
    )
    A_ub.eliminate_zeros()
    b_ub = np.concatenate([np.ones(T), -target])

    result = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    if not result.success:
        raise RuntimeError(f"fair-share welfare LP failed: {result.message}")
    return float(-result.fun)
