"""Output checks computed apart from the program under test.

Each check recomputes a result from the raw numbers (values, fractions) or
tests a property the method must have, and raises :class:`CheckError` when
the program's output disagrees.  Nothing here calls into ``roundfair``.
"""

from __future__ import annotations

import math

import numpy as np

#: Absolute tolerance shared by every float comparison below.
TOL = 1e-9

#: The paper's trade-off table: (p, with_trip_curve, worst-case ratio).
TRADEOFF_TABLE = (
    (2.0, False, 0.894),
    (2.1, False, 0.898),
    (2.2, False, 0.902),
    (2.3, False, 0.905),
    (2.4, False, 0.908),
    (2.5, False, 0.911),
    (2.6, False, 0.914),
    (2.7, False, 0.916),
    (2.7, True, 0.916),
    (2.8, True, 0.912),
    (2.9, True, 0.908),
    (3.0, True, 0.904),
)
TABLE_SLACK = 0.002


class CheckError(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def power_fractions(values: np.ndarray, p: float) -> np.ndarray:
    """``v**p / sum(v**p)`` per round; p = 0 and all-zero rounds split equally,
    p = inf splits among the round's top valuers.  Values are scaled by the
    round maximum first, which leaves the ratio unchanged and avoids underflow."""
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    top = values.max(axis=1, keepdims=True)
    out = np.full(values.shape, 1.0 / n)
    live = top[:, 0] > 0.0
    if p == 0.0 or not live.any():
        return out
    if math.isinf(p):
        weights = (values[live] == top[live]).astype(float)
    else:
        weights = (values[live] / top[live]) ** p
    out[live] = weights / weights.sum(axis=1, keepdims=True)
    return out


def check_allocation(fractions) -> None:
    """Every entry lies in [0, 1] and every round gives out at most the item."""
    x = np.asarray(fractions, dtype=float)
    require(x.ndim == 2 and x.size > 0, f"allocation has shape {x.shape}")
    require(x.min() >= -TOL and x.max() <= 1.0 + TOL, "allocation entry outside [0, 1]")
    require(x.sum(axis=1).max() <= 1.0 + TOL, "a round gives out more than the item")


def check_power_rule(values, fractions, p: float) -> None:
    if len(values) == 0:
        return
    want = power_fractions(values, p)
    err = float(np.abs(np.asarray(fractions) - want).max())
    require(err <= TOL, f"power-rule fractions off by {err:.3g} at p={p}")


def utilities(values, fractions) -> np.ndarray:
    return (np.asarray(values) * np.asarray(fractions)).sum(axis=0)


def check_welfare(values, fractions, verdict) -> None:
    """Utilities, welfare, optimum and ratio recomputed from values x fractions
    and from the round maxima."""
    u = utilities(values, fractions)
    opt = float(np.asarray(values).max(axis=1).sum())
    sw = float(u.sum())
    require(np.abs(np.asarray(verdict.utilities) - u).max() <= TOL, "audit utilities differ")
    require(abs(verdict.social_welfare - sw) <= TOL, "audit welfare differs")
    require(abs(verdict.optimal_welfare - opt) <= TOL, "audit optimum differs")
    ratio = sw / opt if opt > 0 else 1.0
    require(abs(verdict.ratio - ratio) <= TOL, "audit ratio differs")


def is_fair(values, fractions) -> bool:
    """Fair-share on a normalized instance: every utility reaches 1/n."""
    u = utilities(values, fractions)
    return bool(u.min() >= 1.0 / u.size - TOL)


def check_guarded(values, fractions, event, p: float) -> None:
    """The guarded rule: power-rule shares before the trip, the trip round split
    between them and the hand-over, everything to the tripped agent after it,
    and both final utilities at or above 1/2."""
    values = np.asarray(values, dtype=float)
    x = np.asarray(fractions, dtype=float)
    u = utilities(values, x)
    require(u.min() >= 0.5 - TOL, f"guarded p={p} leaves a utility at {u.min():.12g} < 1/2")
    if event is None:
        check_power_rule(values, x, p)
        return
    r, f, i = event.round_index, event.fraction, event.agent
    require(0 <= r < len(x) and 0.0 <= f <= 1.0 and i in (0, 1), f"bad trip event {event}")
    check_power_rule(values[:r], x[:r], p)
    share = power_fractions(values[r : r + 1], p)[0]
    want = f * share
    want[i] += 1.0 - f
    require(np.abs(x[r] - want).max() <= TOL, f"trip round {r} is not split at f={f}")
    after = x[r + 1 :]
    require(
        np.all(np.abs(after[:, i] - 1.0) <= TOL) and np.all(np.abs(after[:, 1 - i]) <= TOL),
        "rounds after the trip do not all go to the tripped agent",
    )


def check_doomsday(values, fractions, flags, whole_trace: bool = True) -> None:
    """The doomsday flags against fair-share.

    With two agents the whole trace is compatible exactly when the run ends
    fair.  With more agents a fair run may pass through incompatible states, so
    only the last state, where nothing remains, must match the final verdict.
    ``whole_trace=False`` asks for that last-state test with two agents too.
    """
    values = np.asarray(values)
    flags = [bool(f) for f in flags]
    require(len(flags) == len(values), "doomsday trace has the wrong length")
    fair = is_fair(values, fractions)
    if whole_trace and values.shape[1] == 2:
        require(all(flags) == fair, f"all(doomsday)={all(flags)} but fair={fair}")
    else:
        require(flags[-1] == fair, f"last doomsday flag {flags[-1]} but fair={fair}")


def check_lp(values, welfare: float) -> None:
    """Equal split satisfies fair-share, and no allocation beats the row maxima."""
    values = np.asarray(values, dtype=float)
    equal = float(values.sum() / values.shape[1])
    best = float(values.max(axis=1).sum())
    require(equal - TOL <= welfare <= best + TOL,
            f"LP welfare {welfare!r} outside [{equal!r}, {best!r}]")


def multi_agent_lp_optimum(n: int) -> float:
    return (n - 1) / math.sqrt(n) + 1.0


def alpha_poly_two_round(p: float, v1: float, v2: float) -> float:
    """Welfare ratio of the power rule on the crossed two-round instance
    ((v1, 1 - v2), (1 - v1, v2)), from the allocation it makes."""
    values = np.array([[v1, 1.0 - v2], [1.0 - v1, v2]])
    x = power_fractions(values, p)
    return float(utilities(values, x).sum() / values.max(axis=1).sum())


def check_tradeoff_rows(by_p: dict) -> int:
    """``by_p`` maps p to (no_trip_alpha, with_trip_alpha).  Every table row
    whose p is present must lie within TABLE_SLACK; returns how many did."""
    matched = 0
    for p, with_trip, approx in TRADEOFF_TABLE:
        key = next((q for q in by_p if abs(q - p) < 1e-9), None)
        if key is None:
            continue
        got = by_p[key][1 if with_trip else 0]
        require(abs(got - approx) <= TABLE_SLACK,
                f"trade-off row p={p} with_trip={with_trip}: {got!r} vs {approx}")
        matched += 1
    return matched

