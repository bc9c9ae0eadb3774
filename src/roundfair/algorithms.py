"""Online allocation rules.

Two families are implemented.  The power-weighted family is non-adaptive: in
every round each agent receives a fraction of the item proportional to the
p-th power of her value for it, so p = 0 is equal split, p = 1 the classic
proportional rule, and p = GREEDY the winner-take-all rule.  The guarded
family (two agents, finite p) follows the same per-round rule but watches a
safety condition: the moment one agent's utility so far plus everything she
still has to come drops to exactly half her own total value, the rest of that
item and all later items go to her in full.  That hand-over point is the
critical point; tracking it keeps the tripped agent's final utility at or
above her fair share.

Rounds are processed irrevocably in order and no rule ever looks ahead or
needs to know the number of rounds in advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TRIP_SLACK,
    CriticalEvent,
    Instance,
    RunTrace,
    _run_kit,
    check_normalized,
    operand,
    validate_allocation,
)
from .errors import InfiniteP, NotTwoAgents, OutOfRange, ValidationError

#: Distinguished exponent selecting the winner-take-all rule.
GREEDY = math.inf

_ZERO, _ONE = operand(0.0), operand(1.0)
#: The largest trip fraction that still hits: 1 plus ``TRIP_SLACK``.
_TRIP_LIMIT = operand(1.0 + TRIP_SLACK)


def _check_p(p: float) -> float:
    """The exponent as a float; a negative zero reads as 0."""
    p = float(p)
    if math.isnan(p) or p < 0:
        raise OutOfRange(f"exponent p must be nonnegative, got {p!r}")
    return p + 0.0  # -0.0 + 0.0 is +0.0


def poly_round(round_values, p: float) -> np.ndarray:
    """Fractions of one item under the power-weighted rule.

    Agent i receives ``v_i**p / sum_j v_j**p`` with the convention 0**p = 0
    for p > 0.  For p = 0 the item is split equally among all agents, for
    p = GREEDY equally among the agents with the largest value, and an
    all-zero round is split equally.  Weights are computed on values scaled
    by the round maximum, so large exponents cannot overflow.  The returned
    fractions always sum to 1.  ``round_values`` must be a non-empty 1-d
    sequence of finite nonnegative values.
    """
    p = _check_p(p)
    values = np.asarray(round_values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError(
            f"a round needs a non-empty 1-d value vector, got shape {values.shape}"
        )
    if not (np.all(np.isfinite(values)) and values.min() >= 0.0):
        raise ValidationError("round values must be finite and nonnegative")
    return _poly_fractions(values[None, :], p)[0]


def _poly_fractions(values: np.ndarray, p: float) -> np.ndarray:
    """The rule of :func:`poly_round` applied to every round of a T x n matrix."""
    T, n = values.shape
    if p == 0.0:
        return np.full((T, n), 1.0 / n, order="F")
    row_max = np.maximum.reduce(values, axis=1, keepdims=True)
    # Dead rounds (all zeros) get weights of 1, so they are split equally;
    # welfare-neutral, keeps rows full.  Every value of a dead round equals
    # its maximum 0, and its scaled values 0/0 are nan, which fmin takes to
    # 1; every other scaled value is at most 1 already.
    if math.isinf(p):
        weights = (values == row_max).astype(float)
    else:
        with np.errstate(invalid="ignore"):
            weights = values / row_max
        np.fmin(weights, _ONE, out=weights)
        weights **= p
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    return weights


def _trace_arrays(instance: Instance, cumulative: np.ndarray):
    """Freeze the utilities through each round and pair them with the value
    still to come, which the instance keeps, so no run re-sums it."""
    cumulative.setflags(write=False)
    return cumulative, instance.remaining_value


def run_poly(instance: Instance, p: float) -> RunTrace:
    """Run the non-adaptive power-weighted rule over every round in order.

    Works for any number of agents.  Every round is fully distributed and no
    critical event can occur.
    """
    p = _check_p(p)
    values = instance.values
    fractions = _poly_fractions(values, p)
    # Each agent's utility through each round, summed in the gains' own buffer.
    gains = values * fractions
    cumulative, remaining = _trace_arrays(instance, np.add.accumulate(gains, out=gains))
    return RunTrace(
        allocation=validate_allocation(fractions),
        cumulative_utility=cumulative,
        remaining_value=remaining,
        critical_event=None,
    )


def _first_trip(surplus, slope, kit) -> tuple[int, float, int] | None:
    """The first round whose guard binds, as ``(round, f, agent)``, or None.

    Row t of ``surplus`` is the guard surplus before round t: each agent's
    utility so far plus her value still to come, round t included, minus half
    her total.  It is overwritten.  ``slope`` is ``v_i - v_i * share_i`` for
    the round values and the power rule's shares: while round t is split by
    the power rule, agent i's surplus after a fraction f of it is
    ``surplus_i - f * slope_i``.  Setting that to 0 is linear in f.  Only
    strictly decreasing surpluses can cross, and a computed crossing within
    TRIP_SLACK of [0, 1] is clamped inside.  Within the round, ties go to the
    smaller f, then the lower agent.  The two masks come from ``kit``.
    """
    # Where the slope is 0 the quotient is inf or nan and the mask below drops
    # it; a subnormal slope gives f = inf, which cannot hit.
    with np.errstate(all="ignore"):
        f = np.divide(surplus, slope, out=surplus)
    hit = kit.less_equal(f, _TRIP_LIMIT)
    hit &= kit.greater(slope, _ZERO)
    # Most runs never trip: one argmax over the whole mask finds a hit if
    # there is one, and only then is each agent's first hit looked up.
    flat = hit.ravel(order="K")
    if not flat[flat.argmax()]:
        return None
    # Each agent's first hit, if she has one; the earliest of them trips.
    hits = [(t, i) for i, t in enumerate(hit.argmax(axis=0).tolist()) if hit[t, i]]
    t = min(hits)[0]
    f_t, agent = min(
        (min(max(float(f[t, i]), 0.0), 1.0), i) for r, i in hits if r == t
    )
    return t, f_t, agent


def run_guarded(instance: Instance, p: float) -> RunTrace:
    """Run the guarded rule for two agents: power-weighted until a trip.

    The guard solves, before each round, for the earliest in-round point where
    an agent's utility so far plus the instance's value still to come falls to
    her ``fair_share``, half her own total.  At the first round where one
    exists at fraction f, the first f of that item is split by the power rule,
    the remaining 1 - f and every later item go wholly to the tripped agent,
    and the event is recorded.  Requires a normalized two-agent instance and a
    finite exponent.  The tripped agent ends at or above her fair share; the
    other does too at the exponents the analysis uses, but not at p = 0, where
    a trip at the end of an agent's last valued round hands her the rest.

    The guard's T x n temporaries (the slope, the surplus that becomes the
    trip fractions, and two masks) come from the calling thread's workspace
    when the instance has at least ``core._WORKSPACE_MIN_ENTRIES`` entries,
    and are allocated afresh below that; the workspace keeps them for the
    thread's next long run (see :func:`core._run_kit`).  Every array of the
    returned trace is new.
    """
    p = _check_p(p)
    if math.isinf(p):
        raise InfiniteP("the guarded family is defined for finite p")
    if instance.n != 2:
        raise NotTwoAgents(f"guarded runs need exactly 2 agents, got {instance.n}")
    check_normalized(instance)

    values = instance.values
    kit = _run_kit(values.size)
    fractions = _poly_fractions(values, p)
    gains = values * fractions
    slope = kit.subtract(values, gains)
    cumulative = np.add.accumulate(gains, out=gains)
    # The guard surplus before each round: utility so far (none before round
    # 0) plus value still to come, round included, less the fair-share target.
    surplus = kit.empty_like(values)
    surplus[0] = instance.column_totals
    np.add(cumulative[:-1], instance.remaining_value[:-1], out=surplus[1:])
    surplus -= instance.fair_share
    trip = _first_trip(surplus, slope, kit)
    # Released, to the allocator or the workspace, before validate_allocation
    # copies the fractions.
    del surplus, slope
    event = None
    if trip is not None:
        t, f, i = trip
        fractions[t] *= f
        fractions[t, i] += 1.0 - f
        fractions[t + 1 :] = 0.0
        fractions[t + 1 :, i] = 1.0
        # Rows before the trip keep their sums.  The new gains go in from row
        # t on, and the sum continues from row t - 1, which it leaves as it is.
        np.multiply(values[t:], fractions[t:], out=cumulative[t:])
        resum = cumulative[max(t - 1, 0) :]
        np.add.accumulate(resum, out=resum)
        event = CriticalEvent(round_index=t, fraction=f, agent=i)

    cumulative, remaining = _trace_arrays(instance, cumulative)
    return RunTrace(
        allocation=validate_allocation(fractions),
        cumulative_utility=cumulative,
        remaining_value=remaining,
        critical_event=event,
    )


@dataclass(frozen=True)
class Algorithm:
    """A named online allocator: a power-weighted rule, optionally guarded."""

    name: str
    p: float
    guarded: bool = False

    def run(self, instance: Instance) -> RunTrace:
        if self.guarded:
            return run_guarded(instance, self.p)
        return run_poly(instance, self.p)


def builtin_algorithms() -> tuple[Algorithm, ...]:
    """The stock allocators exercised by the test and replay suites."""
    return (
        Algorithm("equal-split", 0.0),
        Algorithm("proportional", 1.0),
        Algorithm("quadratic", 2.0),
        Algorithm("greedy", GREEDY),
        Algorithm("guarded-2", 2.0, guarded=True),
        Algorithm("guarded-2.7", 2.7, guarded=True),
        Algorithm("guarded-3", 3.0, guarded=True),
    )


def algorithm_by_name(name: str, p: float | None = None) -> Algorithm:
    """Resolve a CLI-style algorithm name, with ``--p`` for the generic rules."""
    fixed = {a.name: a for a in builtin_algorithms() if not a.guarded}
    if name in fixed:
        if p is not None:
            raise ValidationError(f"algorithm {name!r} has a fixed exponent and takes no --p")
        return fixed[name]
    if name in ("poly", "guarded"):
        if p is None:
            raise ValidationError(f"algorithm {name!r} needs an exponent (--p)")
        p = _check_p(p)
        return Algorithm(f"{name}-{p:g}", p, guarded=name == "guarded")
    raise ValidationError(f"unknown algorithm {name!r}")
