"""Core domain types: valuation instances, allocations, run traces, and audit verdicts.

This module holds only the types, their validation, the fair-share target,
the package's tolerances and :func:`operand`, which makes the constant
operands of the short-run path's ufunc calls.  The instance families are
built in :mod:`adversarial`, next to the closed forms they realize.

An instance is a T x n matrix of nonnegative values, one row per round and one
column per agent.  Agents have additive utilities, and an instance is called
normalized when every agent's column sums to 1.  All types are immutable after
construction and safe to share across workers.

Instance facts.  :func:`validate_instance` is the only builder of an
:class:`Instance`, and it computes what every reader of the instance needs,
once: each agent's column total, her fair-share target (her total over n)
and her value still to come after each round (all read-only), the
unconstrained welfare optimum and the ``normalized`` flag.  Runs, audits and
doomsday traces read these fields instead of reducing the matrix again, so
an instance run and audited many times pays for them once; every run's
trace holds the instance's own remaining values.  Likewise an
:class:`Allocation` sums its rounds' shares once, when it is built, and the
audit reads those sums.  The price is memory: an instance holds two T x n
arrays, twice its matrix, and two n-vectors; an allocation holds one
T-vector beside its fractions.  Nothing is computed lazily.

Storage layout.  Every T x n array the package builds (instance values,
allocation fractions, a trace's utilities and remaining values) is stored
column-major (``order="F"``), one contiguous column per agent.  Per-agent sums
then run over contiguous memory and per-round reductions as n passes over
columns, instead of T inner loops of length n, and no result depends on the
layout the caller's matrix had.

Tolerance policy.  Every slack the package applies is defined below, once,
and other modules import it.  Each slack is absolute and named for the scale
it sits on: ``DEFAULT_TOL`` for sums of unit-scale numbers (column sums, round
sums, utilities against their targets or other bundles), ``ENTRY_TOL`` for
one computed entry, ``TRIP_SLACK`` for the guard's within-round trip
fraction, ``CLOSED_FORM_SLACK`` for round values derived from quoted
parameters, and ``REFINE_TOL`` for the worst-case search's coordinates.
Solver precisions used once, inside one routine, stay inline there.  A
caller's own ``tol`` or ``slack`` sits on the same scales and must be finite
and nonnegative (:func:`check_tolerance`); 0 asks for no slack.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInstance,
    NegativeValue,
    NotNormalized,
    OutOfRange,
    ValidationError,
)

#: Absolute slack on a sum of unit-scale values, shares or utilities.
DEFAULT_TOL = 1e-9

#: Roundoff allowed on one computed entry, such as a share lying in [0, 1].
ENTRY_TOL = 1e-12

#: Slack when deciding that a within-round trip fraction still lies in [0, 1].
#: Absorbs roundoff so a crossing that lands exactly on a round boundary is
#: never missed, which would otherwise forfeit the fair-share guarantee.  It
#: sits on the scale of f, not of utility: near p = 0 the shares barely depend
#: on the values, so a trip it admits can cost the other agent more than
#: ``DEFAULT_TOL`` of utility (a known defect of the guarded rule at small p).
TRIP_SLACK = 1e-9

#: Feasibility slack for the two-round critical-point closed forms.  Points
#: quoted to a few digits can land a hair outside the exact region; within
#: this slack the ratio is still evaluated (never clamped), beyond it the
#: point is rejected.
CLOSED_FORM_SLACK = 1e-3

#: X-scale stop of the worst-case search's refine: the step of its last
#: grid, in every coordinate.
REFINE_TOL = 1e-9


def operand(x: float) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array, for a ufunc's constant operand.

    A ufunc converts a Python float operand on every call, which costs about
    0.1 µs on numpy 2.4, a share of a short run's fixed cost; a 0-d array of
    the same float64 skips that, and the result is the same float64.
    """
    array = np.array(x, dtype=float)
    array.setflags(write=False)
    return array


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a caller's slack that is NaN, infinite or negative: NaN fails
    every comparison, inf accepts anything, and a negative slack demands
    more than the property asks."""
    if not 0.0 <= tol < math.inf:
        raise OutOfRange(f"{name} must be finite and nonnegative, got {tol!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """A T x n matrix of round valuations; ``values[t][i]`` is agent i's value in round t.

    ``values`` is column-major and read-only.  :func:`validate_instance`
    computes the other fields once, from ``values``, when it builds the
    instance: ``column_totals`` (read-only, each agent's total value),
    ``fair_share`` (read-only, ``column_totals / n``, the target the guard
    protects and the audit and doomsday test measure; :func:`fair_share`
    returns a writable copy), ``remaining_value`` (read-only, column-major;
    ``remaining_value[t][i]`` is agent i's value still to arrive strictly
    after round t, her total less the running sum of her values, which the
    guard and the doomsday test read), ``optimal_welfare`` (the unconstrained
    welfare optimum, each round to whoever values it most) and
    ``normalized`` (every total is 1 within ``DEFAULT_TOL``).
    """

    values: np.ndarray
    column_totals: np.ndarray
    fair_share: np.ndarray
    remaining_value: np.ndarray
    optimal_welfare: float
    normalized: bool

    @property
    def n(self) -> int:
        """Number of agents."""
        return self.values.shape[1]

    @property
    def num_rounds(self) -> int:
        """Number of rounds T."""
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-round fractions; ``fractions[t][i]`` is the share of round t given to agent i.

    ``fractions`` is column-major and read-only.  ``row_sums[t]`` (read-only)
    is the share of round t allocated in all; it is summed from ``fractions``
    when the allocation is built, so it always agrees with them.
    :func:`validate_allocation` checks it and :func:`~roundfair.metrics.audit`
    reads it.
    """

    fractions: np.ndarray
    row_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        row_sums = np.add.reduce(self.fractions, axis=1)
        row_sums.setflags(write=False)
        object.__setattr__(self, "row_sums", row_sums)


@dataclass(frozen=True)
class CriticalEvent:
    """The moment a guard trips: within ``round_index``, after a ``fraction`` of the item."""

    round_index: int
    fraction: float
    agent: int


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Full record of one online run.

    ``cumulative_utility[t][i]`` is agent i's utility through round t, and
    ``remaining_value[t][i]`` the value still to arrive strictly after round t.
    A rule's trace holds its instance's own ``remaining_value``, which no
    allocation changes.  At most one critical event can occur per run.  Both
    arrays are column-major and read-only, like the allocation's fractions.
    """

    allocation: Allocation
    cumulative_utility: np.ndarray
    remaining_value: np.ndarray
    critical_event: CriticalEvent | None = None


@dataclass(frozen=True, eq=False)
class Verdict:
    """Audit outcome for one (instance, allocation) pair.

    ``ratio`` is realized social welfare over the unconstrained optimum.
    ``envy_free_ok`` is None when some round was left partially unallocated,
    since the envy comparison is only meaningful for full allocations.  The
    raw margins are included so callers can re-judge with a tighter tolerance.
    """

    utilities: np.ndarray
    social_welfare: float
    optimal_welfare: float
    ratio: float
    fair_share_ok: bool
    envy_free_ok: bool | None
    tolerance: float
    fair_share_margin: float
    envy_margin: float | None


#: The largest finite float: entries at most this are not infinite.
_FLOAT_MAX = sys.float_info.max


def _entries_within(matrix: np.ndarray, low: float, high: float) -> bool:
    """Whether every entry is a number in [low, high].

    The extreme entries are read at argmin and argmax, which cost less than
    numpy's min and max reductions on a short run and make no temporary.
    Both pick the first NaN, and every comparison with NaN is False, so a
    NaN fails.
    """
    entries = matrix.ravel(order="K")
    return bool(entries[entries.argmin()] >= low and entries[entries.argmax()] <= high)


def validate_instance(values, require_normalized: bool = False) -> Instance:
    """Check a raw valuation matrix and wrap it as an immutable :class:`Instance`.

    The matrix is copied once, column-major, and frozen, and the instance's
    column totals, fair-share target, remaining values and welfare optimum
    are computed from it here, once.  It must be non-empty and rectangular
    with nonnegative finite entries.  When ``require_normalized`` is set,
    every agent's column must sum to 1 within ``DEFAULT_TOL`` (see
    :func:`check_normalized`); otherwise the instance is accepted as-is and
    its ``normalized`` flag records whether the sums happen to hold.
    """
    try:
        matrix = np.array(values, dtype=float, order="F")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"values are not a rectangular numeric matrix: {exc}") from None
    if matrix.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got {matrix.ndim}-d data")
    if matrix.size == 0:
        raise EmptyInstance("instance has no rounds or no agents")
    if matrix.shape[1] < 2:
        raise ValidationError("an instance needs at least two agents")
    # Only a matrix that fails pays for finding its error.
    if not _entries_within(matrix, 0.0, _FLOAT_MAX):
        if not np.isfinite(matrix).all():
            raise ValidationError("all values must be finite")
        t, i = np.argwhere(matrix < 0)[0]
        raise NegativeValue(int(t), int(i), float(matrix[t, i]))

    matrix.setflags(write=False)
    totals = np.add.reduce(matrix)
    totals.setflags(write=False)
    share = totals / matrix.shape[1]
    share.setflags(write=False)
    remaining = np.add.accumulate(matrix)
    np.subtract(totals, remaining, out=remaining)
    remaining.setflags(write=False)
    instance = Instance(
        values=matrix,
        column_totals=totals,
        fair_share=share,
        remaining_value=remaining,
        optimal_welfare=float(np.add.reduce(np.maximum.reduce(matrix, axis=1))),
        # A loop over the n totals as Python floats costs less than the four
        # numpy calls of the array form.
        normalized=all(abs(total - 1.0) <= DEFAULT_TOL for total in totals.tolist()),
    )
    if require_normalized:
        check_normalized(instance)
    return instance


def validate_allocation(fractions) -> Allocation:
    """Check fraction bounds and per-round sums, and wrap as an :class:`Allocation`.

    The matrix is copied once, column-major, and frozen.  Entries must be
    finite and lie in [0, 1] within ``ENTRY_TOL``; each round may allocate at
    most 1 within ``DEFAULT_TOL``.  The round sums this checks are the ones
    the allocation stores, summed once as it is built.
    """
    try:
        matrix = np.array(fractions, dtype=float, order="F")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"fractions are not a rectangular numeric matrix: {exc}") from None
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError("allocation must be a non-empty 2-d matrix")
    if not _entries_within(matrix, -ENTRY_TOL, 1.0 + ENTRY_TOL):
        raise ValidationError("allocation entries must be finite and lie in [0, 1]")
    matrix.setflags(write=False)
    allocation = Allocation(fractions=matrix)
    row_sums = allocation.row_sums
    t = int(row_sums.argmax())
    if row_sums[t] > 1.0 + DEFAULT_TOL:
        raise ValidationError(f"round {t} allocates {row_sums[t]!r} > 1")
    return allocation


def fair_share(instance: Instance) -> np.ndarray:
    """Each agent's fair-share target, which ``audit`` measures and the
    guarded rule protects: her own total value over n.  A writable copy of
    the instance's stored ``fair_share``, new on every call."""
    return instance.fair_share.copy()


def check_normalized(instance: Instance) -> None:
    """Raise :class:`NotNormalized` unless every column sums to 1 within ``DEFAULT_TOL``.

    The error names the agent whose total lies furthest from 1.
    """
    if instance.normalized:
        return
    totals = instance.column_totals
    agent = int(np.argmax(np.abs(totals - 1.0)))
    raise NotNormalized(agent, float(totals[agent]))
