"""Worst-case analysis: closed-form welfare ratios, a numeric minimizer, and
the adversarial constructions that realize them.

Each ``alpha_*`` function is the welfare ratio of an allocation rule on a
small parametric family of two-agent instances, reduced to closed form; the
instance constructors below map parameter points back to explicit instances
so every closed form can be cross-checked by simulation.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .algorithms import Algorithm, _poly_fractions
from .core import (
    _ARRAY_KIT,
    _FLOAT_MAX,
    CLOSED_FORM_SLACK,
    DEFAULT_TOL,
    ENTRY_TOL,
    REFINE_TOL,
    Instance,
    _kit,
    check_tolerance,
    validate_instance,
)
from .errors import (
    DomainError,
    EmptyDomain,
    InfeasibleClosedForm,
    NotPerfectSquare,
    OutOfRange,
    PNotAboveTwo,
)
from .metrics import audit


# ---------------------------------------------------------------------------
# closed-form welfare ratios
#
# Each ratio has one arithmetic body, so the same code runs on Python floats
# (the public ``alpha_*`` functions, which add the domain checks) and on
# broadcasting arrays (the objectives' grid scans, which mask infeasible
# points with NaN instead).  A body takes one kit, and every step that makes
# a new value the size of the grid goes through it: the elementwise max and
# min, sums, differences, products and powers.  Its other steps are plain
# operators on per-axis values, and augmented assignments, which work in
# place on arrays and rebind on floats.  The float kit is builtin
# ``max``/``min`` and the plain operators; the array kit is numpy's ufuncs
# (``core._ArrayKit``); a scan passes each grid the kit ``core._kit`` gives
# it, for a block of 2^14 points or more the thread's workspace, whose
# buffers every block reuses.  An interval form would pass its own kit.  On
# the families' domains every power in a body has a base of at most 1, so no
# power overflows and none that matters underflows: the bodies are defined
# at every finite p.  Where an array gives inf or NaN, floats raise
# ZeroDivisionError at a singular point and OverflowError at a power with a
# base above 1.


class _FloatKit:
    """Builtin ``max``/``min`` and the plain operators, for Python floats and
    for ``mpmath.mpf``, which rounds each step once as floats do."""

    maximum = staticmethod(max)
    minimum = staticmethod(min)
    add = staticmethod(operator.add)
    subtract = staticmethod(operator.sub)
    multiply = staticmethod(operator.mul)
    power = staticmethod(operator.pow)


_FLOAT_KIT = _FloatKit()


def _proportional_ratio(v1, v2, kit):
    """The proportional rule's ratio, factored so that numerator and
    denominator vanish together at the corners (1, 0) and (0, 1), where the
    ratio tends to 1.  Each factor ``1 - v + w`` subtracts first, so the small
    coordinate survives."""
    num = kit.multiply(1.0 - v1, 1.0 - v2)
    num += kit.multiply(v1, v2)
    num *= 2.0
    den = kit.add(1.0 - v1, v2)
    den *= kit.add(1.0 - v2, v1)
    den *= kit.add(v1, v2)
    num /= den
    return num


def _poly_two_round_ratio(p, v1, v2, kit):
    """The two-round ratio.  Each round's share-weighted value
    ``(x**(p+1) + y**(p+1)) / (x**p + y**p)`` is written as
    ``m (1 + t s) / (1 + t)`` with ``m = max(x, y)``, ``s = min(x, y) / m`` and
    ``t = s**p``, so it is defined on the whole family for every finite p > 0.
    """

    def quotient(x, y):
        m = kit.maximum(x, y)
        s = kit.minimum(x, y)
        s /= m
        t = kit.power(s, p)
        s *= t
        s += 1.0
        s *= m
        t += 1.0
        s /= t
        return s

    out = quotient(1.0 - v1, v2)
    out += quotient(1.0 - v2, v1)
    out /= kit.add(v1, v2)
    return out


def _cp1_ratio(p, lambda1, kit=_ARRAY_KIT):
    out = kit.add(1.0, lambda1)
    out /= kit.subtract(3.0, kit.power(lambda1, -p))
    return out


def _cp2_ratio(p, lambda1, lambda2, kit):
    """Trip-at-round-2 ratio with the round values implied by the tight utility
    and exhaustion conditions.  Returns (ratio, v1, v2, v3, denominator); the
    construction is singular where the denominator is not positive.

    The conditions are divided through by ``lambda1**p * m2**p`` with
    ``m2 = max(1, lambda2)``, so every power has a base of at most 1.  With
    ``r2 = lambda2 / m2``, ``lambda2**(p-1)`` scales to ``r2**p / lambda2``.
    The optimum is ``2 - v1 - v2 r2``: ``r2`` is exactly lambda2 in the mixed
    region, lambda2 < 1, and exactly 1 where lambda2 > 1.
    """
    m2 = kit.maximum(1.0, lambda2)
    r2 = lambda2 / m2
    a = lambda1**-p
    b = m2**-p
    c = r2**p
    d = c / lambda2
    den = kit.subtract(b + c, kit.multiply(d, lambda1 * (a + 1.0)))
    v1 = kit.multiply(b + c - 2.0 * d, 0.5 * (a + 1.0))
    v1 /= den
    v2 = kit.subtract(1.0, kit.multiply(v1, lambda1))
    v2 /= lambda2
    v3 = kit.subtract(1.0, v1)
    v3 -= v2
    alg = kit.multiply(v1, lambda1 / (1.0 + a))
    alg += 0.5
    alg += kit.multiply(v2, lambda2 * c / (b + c))
    opt = kit.subtract(2.0, v1)
    opt -= kit.multiply(v2, r2)
    alg /= opt
    return alg, v1, v2, v3, den


def _check_exponent(p: float) -> None:
    """Reject an exponent that is not finite and positive, or an int too
    large for a float; NaN fails the comparison, so it is rejected too."""
    if not 0.0 < p <= _FLOAT_MAX:
        raise DomainError(f"exponent p must be finite and positive, got {p!r}")


def alpha_proportional(v1: float, v2: float) -> float:
    """Welfare ratio of the proportional rule on the crossed two-round family.

    Agent 1 values the rounds (v1, 1-v1) and agent 2 (1-v2, v2), with
    v1 + v2 >= 1 so the optimum takes the diagonal.
    """
    if not (0.0 < v1 <= 1.0 and 0.0 < v2 <= 1.0 and v1 + v2 >= 1.0):
        raise DomainError(f"need 0 < v1, v2 <= 1 with v1 + v2 >= 1, got ({v1!r}, {v2!r})")
    return _proportional_ratio(v1, v2, _FLOAT_KIT)


def alpha_poly_two_round(p: float, v1: float, v2: float) -> float:
    """Welfare ratio of the power-weighted rule (exponent p) on the same family."""
    _check_exponent(p)
    if not (0.0 < v1 <= 1.0 and 0.0 < v2 <= 1.0 and v1 + v2 > 1.0):
        raise DomainError(f"need 0 < v1, v2 <= 1 with v1 + v2 > 1, got ({v1!r}, {v2!r})")
    return float(_poly_two_round_ratio(p, v1, v2, _FLOAT_KIT))


def alpha_guarded_cp1(p: float, lambda1: float) -> float:
    """Guarded-rule welfare ratio when the guard trips at the end of round 1.

    ``lambda1`` is the opponent-to-holder value ratio on the first item; the
    construction forces lambda1 >= 1, and points past the guard's ceiling,
    which no instance realizes, raise InfeasibleClosedForm.
    """
    _cp1_first_round(p, lambda1)
    return _cp1_ratio(p, lambda1, _FLOAT_KIT)


def _cp1_first_round(p: float, lambda1: float) -> float:
    """Agent 1's first-round value ``v1`` in the trip-at-round-1 instance,
    the one at which the trip condition binds.  Raises InfeasibleClosedForm
    where agent 2's value ``lambda1 * v1`` exceeds its unit budget: past
    ``guard_ratio_ceiling(p)``, and at every lambda1 > 1 when p <= 2."""
    _check_exponent(p)
    if lambda1 < 1.0:
        raise DomainError(f"need lambda1 >= 1, got {lambda1!r}")
    v1 = 0.5 * (1.0 + lambda1**-p)
    if lambda1 * v1 > 1.0 + ENTRY_TOL:
        raise InfeasibleClosedForm(
            f"lambda1 = {lambda1!r} exceeds the feasibility ceiling for p = {p!r}"
        )
    return v1


def _cp2_point(p: float, lambda1: float, lambda2: float, slack: float):
    """Scalar :func:`_cp2_ratio` with its singular and infeasible points
    rejected: round values more than ``slack`` below zero mean no instance
    realizes the point.  Returns (ratio, v1, v2, v3)."""
    try:
        ratio, v1, v2, v3, den = _cp2_ratio(p, lambda1, lambda2, _FLOAT_KIT)
        regular = den > 0.0 and all(map(math.isfinite, (ratio, v1, v2, v3)))
    except (ZeroDivisionError, OverflowError):  # inf or NaN on arrays
        regular = False
    if not regular:
        raise DomainError(
            f"singular construction at ({lambda1!r}, {lambda2!r}): "
            "the tight conditions admit no solution here"
        )
    if v1 < -slack or v2 < -slack or v3 < -slack:
        raise InfeasibleClosedForm(
            f"derived rounds ({v1!r}, {v2!r}, {v3!r}) are negative at "
            f"({lambda1!r}, {lambda2!r})"
        )
    return ratio, v1, v2, v3


def alpha_guarded_cp2(
    p: float,
    lambda1: float,
    lambda2: float,
    subcase: str = "mixed",
    slack: float = CLOSED_FORM_SLACK,
) -> float:
    """Guarded-rule welfare ratio when the guard trips at the end of round 2.

    The first two items have opponent-to-holder ratios lambda1 and lambda2 and
    the third item is valued by agent 1 only.  ``subcase`` picks the region:
    "mixed" has lambda1 > 1 > lambda2 > 0 and "both_above" lambda1, lambda2 > 1;
    the optimum differs between them.  Derived round values more than ``slack``
    below zero mean no instance realizes the point (InfeasibleClosedForm);
    a ``slack`` that is NaN, infinite or negative raises OutOfRange.
    """
    _check_exponent(p)
    check_tolerance(slack, "slack")
    if subcase == "mixed":
        if not (lambda1 > 1.0 and 0.0 < lambda2 < 1.0):
            raise DomainError(
                f"mixed subcase needs lambda1 > 1 > lambda2 > 0, got ({lambda1!r}, {lambda2!r})"
            )
    elif subcase == "both_above":
        if not (lambda1 > 1.0 and lambda2 > 1.0):
            raise DomainError(
                f"both_above subcase needs lambda1, lambda2 > 1, got ({lambda1!r}, {lambda2!r})"
            )
    else:
        raise DomainError(f"unknown subcase {subcase!r}")
    return _cp2_point(p, lambda1, lambda2, slack)[0]


# ---------------------------------------------------------------------------
# search over the closed forms

#: Most grid points one block of a scan holds, so each buffer a scan takes
#: in the thread's workspace stays at 256 KiB whatever the grid size.
_GRID_BLOCK_POINTS = 2**15

#: Default spacing of the worst-case search's grid, on every axis.
GRID_STEP = 1e-3

#: Most points one axis of float64 can hold: numpy refuses a larger array
#: before allocating it.
_MAX_AXIS_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize

#: Each refine level divides the step by this and rescans this many steps on
#: either side of the best point.
_ZOOM = 20


def _whole_box(*axes):
    """The scan region of every family but the two-round ones: each line of
    the grid from its first column."""
    return np.zeros((len(axes[0]), axes[0].shape[1] if len(axes) > 1 else 1), dtype=np.intp)


def _two_round_region(v1, v2):
    """The two-round families' scan region: on each line v1 of the grid, the
    columns v2 from the first whose sum v1 + v2 is not below 1, before which
    the family is NaN, and, where a row's two axes are the same, from the
    diagonal on.  Both bodies are symmetric in (v1, v2) bit for bit, so a
    point below the diagonal has its twin above it, earlier in row-major
    order, and is never the scan's first minimum."""
    starts = np.empty(v1.shape, dtype=np.intp)
    for start, a, b in zip(starts, v1, v2):
        # The rounded sum grows with b, and b >= 1 - a, rounded, makes it at
        # least 1; before that column it can still round up to 1.
        start[:] = np.searchsorted(b, 1.0 - a)
        while (back := (start > 0) & (a + b[start - 1] >= 1.0)).any():
            start -= back
        if np.array_equal(a, b, equal_nan=True):
            np.maximum(start, np.arange(start.size), out=start)
    return starts


@dataclass(frozen=True)
class AlphaObjective:
    """A ratio family at exponent ``p`` over an open box, on points and on grids.

    ``point(p, *x)`` raises DomainError outside the feasible set; the search
    calls it once, at the argmin, through :meth:`evaluate`.  ``grid(p, *coords,
    kit)`` takes open coordinate arrays, one per axis, as
    ``np.meshgrid(..., indexing="ij", sparse=True)`` builds them, and returns
    ratios that broadcast to their shape, with NaN at infeasible points and
    at NaN coordinates.  Its ``p`` is a float, or a column with one exponent
    per row against coordinates with a leading row axis: objectives sharing
    a ``grid`` stack into one search.  A grid may ignore the array ``kit``
    the scan passes (:func:`_scan`); the families' grids write into it, so
    in a scan what they return is valid for that block only, and they
    allocate by default.  ``margin``, the same for every objective, keeps
    the search away from the open boundary and its singular denominators;
    an axis narrower than four margins gives up a quarter of its width on
    each side instead.

    A family has one axis or two.  ``region(*axes)`` takes a scan's axes,
    one ``(rows, size)`` array each, and returns, per row and per line of
    the first axis (one line in 1-D), the first column of the last axis the
    scan must cover: every point before it is NaN, or has an equal point
    earlier in row-major order.  It is the whole box but for the two-round
    families (:func:`_two_round_region`).
    """

    name: str
    bounds: tuple[tuple[float, float], ...]
    point: Callable[..., float]
    grid: Callable[..., np.ndarray]
    p: float
    region: Callable[..., np.ndarray] = _whole_box
    margin: ClassVar[float] = 1e-6

    def evaluate(self, x: Sequence[float]) -> float:
        """The ratio at the point ``x``, at this objective's exponent."""
        return self.point(self.p, *x)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a grid-then-refine minimization.

    ``grid_point`` and ``grid_value`` are the best grid point and its grid
    ratio, before refinement.  ``evaluations`` counts the points of each
    scan's region, of the grid and of the refine's grids: every point, but
    in the two-round families those whose v1 + v2 is not below 1 and, where
    the grid's two axes are the same, that lie on or above its diagonal
    (:func:`_two_round_region`).  It is the same stacked or alone, however
    the blocks fall.  ``refined`` says
    the refine found a value strictly below ``grid_value``.  ``value`` is
    ``evaluate`` at ``argmin``.
    """

    argmin: tuple[float, ...]
    value: float
    evaluations: int
    refined: bool
    grid_point: tuple[float, ...]
    grid_value: float


def _scan(grid, region, exponents: np.ndarray, axes: Sequence[np.ndarray], sizes: np.ndarray):
    """The best point of each row's grid and its value, NaN in a row whose
    every point is NaN, and the number of points of each row's scan region.

    Row ``i`` spans the grid of ``axes[k][i]``, one axis per ``k``, at
    exponent ``exponents[i]``; each ``axes[k]`` is NaN past the row's own
    length ``sizes[i, k]``, and ``grid`` gives NaN at a NaN coordinate, so
    padded points never win and are not counted.  ``region`` gives each
    row's region (:class:`AlphaObjective`), whose points the scan counts.
    The blocks cover all of it and may cover more: a point outside it is
    NaN or has an equal twin earlier in row-major order, so it never changes
    a row's first minimum.  A block holds as many whole rows as the budget
    does, or, where one row exceeds it, a box of one row: a slice of its
    last axis, or, where its first axis is the longer, a run of first-axis
    lines from their least start, grown while the box stays within the
    budget.  So per-axis powers are computed on 1-D data and no full-size
    grid is ever built.  A block of one row gets its exponent as a float and
    coordinates without the row axis; a block of several gets the exponents
    as a column.  numpy raises an array to a scalar power of 0.5 or 2 by
    sqrt or square, whose last bits can differ from its power loop's, so in
    such a block a row at either exponent is evaluated again on its own, as
    its search alone evaluates it.

    The blocks run in order on the calling thread, and every grid call gets
    the kit :func:`core._kit` gives for one block's points: from 2^14 on,
    the thread's workspace, whose buffers every block reuses.  Each row's
    best point so far moves only to a point of strictly lower value, or of
    equal value earlier in row-major order, so of equal minima in a row the
    first wins.
    """
    shape = tuple(ax.shape[1] for ax in axes)
    last = len(axes) - 1
    starts = region(*axes)
    # Each row's own lines, each from its start to the row's own length.
    width = np.maximum(sizes[:, last:] - starts, 0)
    width[np.arange(starts.shape[1]) >= sizes[:, :1]] = 0
    counts = width.sum(axis=1)

    per_row = math.prod(shape)
    row_step = max(1, _GRID_BLOCK_POINTS // per_row)
    whole_rows = per_row <= _GRID_BLOCK_POINTS
    long = shape.index(max(shape))
    # Each block is its first row and a (start, stop) pair per axis.
    whole = [(0, n) for n in shape]
    blocks = []
    for top in range(0, len(exponents), row_step):
        if whole_rows:
            blocks.append((top, whole))
        elif long == last:
            step = max(1, _GRID_BLOCK_POINTS // (per_row // shape[last]))
            blocks += [(top, whole[:last] + [(a, a + step)]) for a in range(0, shape[last], step)]
        else:
            # A run of lines starts at its least start, but no later than
            # the last column, so no box is empty.
            a = 0
            while a < shape[0]:
                run = np.minimum(np.minimum.accumulate(starts[top, a:]), shape[last] - 1)
                size = (shape[last] - run) * np.arange(1, run.size + 1)
                b = a + max(1, int(np.searchsorted(size, _GRID_BLOCK_POINTS, "right")))
                blocks.append((top, [(a, b), (int(run[b - a - 1]), shape[last])]))
                a = b
    # Axis k of an open mesh has shape (rows, 1, ..., 1, size, 1, ..., 1).
    open_shapes = [(1,) * k + (-1,) + (1,) * (len(axes) - 1 - k) for k in range(len(axes))]
    tail = tuple(range(1, len(axes) + 1))
    # Per row, the best point so far, as a flat index, and its value.
    best_flat = np.zeros(len(exponents), dtype=np.intp)
    best_val = np.full(len(exponents), math.nan)

    def evaluate(top, box):
        """Evaluate one block and move its rows' best points to it where it
        holds a better one.  Its temporaries die when it returns, so the
        next block reuses their buffers."""
        block = slice(top, top + row_step)
        coords = [ax[block, lo:hi] for ax, (lo, hi) in zip(axes, box)]
        open_mesh = [c.reshape(c.shape[:1] + o) for c, o in zip(coords, open_shapes)]
        block_shape = coords[0].shape[:1] + tuple(c.shape[1] for c in coords)
        p = exponents[block]
        if len(p) == 1:
            vals = grid(float(p[0]), *(c[0] for c in open_mesh), kit=kit)[np.newaxis]
        else:
            vals = grid(p.reshape((-1,) + (1,) * len(axes)), *open_mesh, kit=kit)
            for i in np.flatnonzero((p == 0.5) | (p == 2.0)):
                vals[i] = grid(float(p[i]), *(c[i] for c in open_mesh), kit=kit)
        vals = np.asarray(vals, dtype=float)
        if vals.shape != block_shape:
            vals = np.broadcast_to(vals, block_shape)
        low = np.fmin.reduce(vals, axis=tail)
        if whole_rows:
            # Whole rows: no other block holds any of them.
            hits = kit.equal(vals, low.reshape((-1,) + (1,) * len(axes)))
            best_flat[block] = np.argmax(hits.reshape(len(low), -1), axis=1)
            best_val[block] = low
            return
        # One row, in boxes.
        low, best = float(low[0]), best_val[top]
        if math.isnan(low) or low > best:
            return  # NaN, or above an earlier box's minimum
        line, column = divmod(int(np.argmax(kit.equal(vals, low))), block_shape[-1])
        if last:  # a 2-D box's lines start at its first
            line += box[0][0]
        flat = line * shape[last] + box[last][0] + column
        # Row-major order is the order of flat indices in the whole row, so
        # of equal minima in different boxes the first wins.
        if math.isnan(best) or (low, flat) < (best, best_flat[top]):
            best_flat[top], best_val[top] = flat, low

    kit = _kit(min(per_row * len(exponents), _GRID_BLOCK_POINTS))
    with np.errstate(all="ignore"):
        for top, box in blocks:
            evaluate(top, box)
    index = np.unravel_index(best_flat, shape)
    every = np.arange(len(exponents))
    return np.array([ax[every, i] for ax, i in zip(axes, index)]).T, best_val, counts


def _grid_axis(objective: AlphaObjective, lo: float, hi: float, grid_step: float):
    """One axis of the search grid: the side ``(lo, hi)`` shrunk by the margin,
    or by a quarter of its width where that is less, at step ``grid_step``,
    with the far end appended.  Returns the axis and its shrunk ends."""
    # An axis narrower than 4 margins, as the trip families' are for p just
    # above 2, keeps its middle half.
    margin = min(objective.margin, (hi - lo) / 4)
    start, stop = lo + margin, hi - margin
    if stop <= start:
        raise EmptyDomain(f"objective {objective.name!r} has an empty box")
    if (stop - start) / grid_step > _MAX_AXIS_POINTS:
        raise OutOfRange(
            f"grid_step {grid_step!r} asks for more than {_MAX_AXIS_POINTS} "
            f"points on an axis of width {stop - start!r}"
        )
    try:
        ax = np.arange(start, stop, grid_step)
    except MemoryError:
        raise OutOfRange(
            f"grid_step {grid_step!r} asks for more points than memory holds "
            f"on an axis of width {stop - start!r}"
        ) from None
    if ax.size == 0 or ax[-1] < stop - 1e-15:
        ax = np.append(ax, stop)
    return ax, start, stop


def _minimize_rows(objectives: Sequence[AlphaObjective], grid_step: float) -> list:
    """:func:`minimize_alpha` on a stack of objectives sharing one ``grid``,
    one row per objective, each at its own exponent; rows shorter than
    others are padded with NaN.  Each row keeps its own box, step, centre
    and best value and runs the scans a search of its objective alone
    would, while every scan covers all rows still zooming.  Returns, per
    row, its SearchResult, or the EmptyDomain or DomainError its search
    raised.
    """
    if not 0 < grid_step <= _FLOAT_MAX:
        raise OutOfRange("grid_step must be positive and finite")

    outcomes: list = [None] * len(objectives)
    live, grids = [], []
    for r, objective in enumerate(objectives):
        try:
            grids.append([_grid_axis(objective, lo, hi, grid_step) for lo, hi in objective.bounds])
        except EmptyDomain as exc:
            outcomes[r] = exc
            continue
        live.append(r)
    if not live:
        return outcomes
    family, region = objectives[0].grid, objectives[0].region
    exponents = np.array([objectives[r].p for r in live], dtype=float)
    # Each axis's rows, NaN-padded to the longest, and the box around them.
    axes = []
    for k in range(len(grids[0])):
        column = [grid[k][0] for grid in grids]
        axes.append(np.full((len(column), max(c.size for c in column)), math.nan))
        for row, c in zip(axes[-1], column):
            row[: c.size] = c
    lo = np.array([[start for _, start, _ in grid] for grid in grids])[:, :, None]
    hi = np.array([[stop for _, _, stop in grid] for grid in grids])[:, :, None]

    sizes = np.array([[ax.size for ax, _, _ in grid] for grid in grids])
    grid_point, grid_value, evaluations = _scan(family, region, exponents, axes, sizes)
    point, best = grid_point.copy(), grid_value.copy()
    # The rows still zooming, by position in ``live``, with their centres,
    # the centres' values, steps and boxes.
    zoom = np.flatnonzero(~np.isnan(grid_value) & (grid_step > REFINE_TOL))
    centre, centre_value = point[zoom], best[zoom]
    step = np.full(zoom.size, grid_step / _ZOOM)
    lo, hi = lo[zoom], hi[zoom]
    offsets = np.arange(-_ZOOM, _ZOOM + 1)
    while zoom.size:
        ax = centre[:, :, None] + step[:, None, None] * offsets
        # Each window ascends, so its two ends tell whether it lies wholly
        # inside its box.
        if (lo[:, :, 0] <= ax[:, :, 0]).all() and (ax[:, :, -1] <= hi[:, :, 0]).all():
            axes = list(ax.transpose(1, 0, 2))
            sizes = np.full(ax.shape[:2], offsets.size)
        else:
            # Offset 0 is the centre itself, kept even if it lies a hair outside.
            keep = (offsets == 0) | ((lo <= ax) & (ax <= hi))
            sizes = keep.sum(axis=2)
            # Kept points move to the front of their row, in order, and each
            # axis is cut to its longest row.
            ax = np.take_along_axis(ax, np.argsort(~keep, axis=2, kind="stable"), 2)
            ax[offsets + _ZOOM >= sizes[:, :, None]] = math.nan
            axes = [a[:, :n] for a, n in zip(ax.transpose(1, 0, 2), sizes.max(axis=0))]
        found, low, scanned = _scan(family, region, exponents[zoom], axes, sizes)
        evaluations[zoom] += scanned
        lower = low < centre_value
        centre = np.where(lower[:, None], found, centre)
        centre_value = np.fmin(low, centre_value)
        # A row whose centre holds shrinks its step, or stops once the step
        # is at most REFINE_TOL.
        stays = lower | (step > REFINE_TOL)
        step = np.where(lower, step, step / _ZOOM)
        if not stays.all():
            point[zoom], best[zoom] = centre, centre_value
            zoom, centre, centre_value, step, lo, hi = (
                a[stays] for a in (zoom, centre, centre_value, step, lo, hi)
            )

    for j, r in enumerate(live):
        objective = objectives[r]
        if math.isnan(grid_value[j]):
            outcomes[r] = EmptyDomain(f"objective {objective.name!r} has no feasible grid point")
            continue
        argmin = tuple(point[j].tolist())
        try:
            value = float(objective.evaluate(argmin))
        except DomainError as exc:
            outcomes[r] = exc
            continue
        outcomes[r] = SearchResult(
            argmin=argmin,
            value=value,
            evaluations=int(evaluations[j]),
            refined=bool(best[j] < grid_value[j]),
            grid_point=tuple(grid_point[j].tolist()),
            grid_value=float(grid_value[j]),
        )
    return outcomes


def minimize_alpha(objective: AlphaObjective, grid_step: float = GRID_STEP) -> SearchResult:
    """Minimize a ratio objective: a grid scan, then a zoom on shrinking grids.

    The grid covers the domain shrunk on each side by ``margin``, or by a
    quarter of the axis where that is less, at step ``grid_step``; of equal
    minima the first in row-major order wins.  Each scan covers the
    objective's region, which only the two-round families narrow: to the
    half of the grid on or above its diagonal where v1 + v2 is not below 1,
    exactly, since their grids are their own transposes bit for bit and NaN
    below v1 + v2 = 1.  It is scanned in blocks of at most 2^15 points,
    which write their temporaries into the thread's workspace from 2^14
    points on (:func:`_scan`).  The refine divides the step by ``_ZOOM``
    and rescans the ``2 _ZOOM + 1`` points per axis centred on the best
    point, clipped to the shrunk box.  While a rescan finds a strictly lower
    value it re-centres there at the same step; once the point holds, the
    step shrinks again, until it is at most ``REFINE_TOL``.  Fully
    deterministic.  This is the stack of one of :func:`_minimize_rows`.
    """
    (outcome,) = _minimize_rows([objective], grid_step)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _proportional_grid(p, v1, v2, kit=_ARRAY_KIT):
    """The proportional ratio on a grid, NaN where v1 + v2 < 1.  Swapping v1
    and v2 gives the same bits, which :func:`_two_round_region` relies on."""
    out = _proportional_ratio(v1, v2, kit)
    out[kit.less(kit.add(v1, v2), 1.0)] = np.nan
    return out


def proportional_objective() -> AlphaObjective:
    """Ratio of the proportional rule over the crossed two-round family.  Its
    scans cover the grid on or above the diagonal where v1 + v2 >= 1."""
    return AlphaObjective(
        name="proportional",
        bounds=((0.0, 1.0), (0.0, 1.0)),
        point=lambda p, v1, v2: alpha_proportional(v1, v2),
        grid=_proportional_grid,
        p=1.0,
        region=_two_round_region,
    )


def _poly_two_round_grid(p, v1, v2, kit=_ARRAY_KIT):
    """The two-round ratio on a grid, NaN where v1 + v2 <= 1.  Swapping v1
    and v2 gives the same bits, which :func:`_two_round_region` relies on."""
    out = _poly_two_round_ratio(p, v1, v2, kit)
    out[kit.less_equal(kit.add(v1, v2), 1.0)] = np.nan
    return out


def poly_two_round_objective(p: float) -> AlphaObjective:
    """Ratio of the power-weighted rule over the crossed two-round family.
    Its scans cover the grid on or above the diagonal where v1 + v2 >= 1."""
    _check_exponent(p)
    return AlphaObjective(
        name="poly-two-round",
        bounds=((0.0, 1.0), (0.0, 1.0)),
        point=alpha_poly_two_round,
        grid=_poly_two_round_grid,
        p=p,
        region=_two_round_region,
    )


def _diagonal_grid(p, v, kit=_ARRAY_KIT):
    return _poly_two_round_ratio(p, v, v, kit)


def poly_two_round_diagonal_objective(p: float) -> AlphaObjective:
    """The same ratio restricted to the symmetric diagonal v1 = v2."""
    _check_exponent(p)
    return AlphaObjective(
        name="poly-two-round-diagonal",
        bounds=((0.5, 1.0),),
        point=lambda p, v: alpha_poly_two_round(p, v, v),
        grid=_diagonal_grid,
        p=p,
    )


def guard_ratio_ceiling(p: float) -> float:
    """Largest first-round ratio lambda1 the trip-at-round-1 family can realize.

    The second agent's implied first-round value grows with lambda1 and hits
    her whole unit budget where ``h(x) = 2 x**(p-1) - x**p - 1`` crosses zero;
    beyond that no instance exists.  Only finite exponents above 2 admit any
    such instance.  On (1, 2) ``h`` has the sign of
    ``(p-1) log1p(x-1) + log1p(1-x)``, which neither overflows nor cancels to
    0 near x = 1, so the root stays accurate as p approaches 2; at x = 2,
    ``h`` is -1.  A bisection on the floats of [1, 2] halves the bracket
    until its ends are neighbouring floats, moving ``lo`` to a midpoint where
    ``h`` is positive and ``hi`` to one where it is not.  It returns ``lo``,
    which is its own certificate: ``h`` is positive there and not at the next
    float up.  The ceiling tends to 2 as p grows, and from p of about 53 up,
    where the root lies within a float spacing of 2, it is the float just
    below 2.
    """
    _check_exponent(p)
    if p <= 2.0:
        raise DomainError(f"the guard cannot bind at the end of round 1 for p <= 2, got {p!r}")

    lo, hi = 1.0, 2.0
    mid = (lo + hi) / 2
    while lo < mid < hi:
        if (p - 1.0) * math.log1p(mid - 1.0) + math.log1p(1.0 - mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2
    return lo


def guarded_cp1_objective(p: float) -> AlphaObjective:
    """Trip-at-round-1 ratio over its constructible lambda1 range."""
    return AlphaObjective(
        name="guarded-cp1",
        bounds=((1.0, guard_ratio_ceiling(p)),),
        point=alpha_guarded_cp1,
        grid=_cp1_ratio,
        p=p,
    )


def _cp2_grid(p, lambda1, lambda2, kit=_ARRAY_KIT):
    out, v1, v2, v3, den = _cp2_ratio(p, lambda1, lambda2, kit)
    infeasible = kit.less_equal(den, 0.0)
    infeasible |= kit.less(v1, 0.0)
    infeasible |= kit.less(v2, 0.0)
    infeasible |= kit.less(v3, 0.0)
    out[infeasible] = np.nan
    return out


def _cp2_mu_grid(p, lambda1, mu, kit=_ARRAY_KIT):
    """:func:`_cp2_grid` in the coordinates (lambda1, mu = 1/lambda2): the
    reciprocal is taken once per axis value."""
    return _cp2_grid(p, lambda1, 1.0 / mu, kit)


def _cp2_mu_point(p: float, lambda1: float, mu: float) -> float:
    """The both-above ratio at (lambda1, lambda2 = 1/mu), for mu in (0, 1)."""
    if not 0.0 < mu < 1.0:
        raise DomainError(f"both_above subcase needs 0 < mu = 1/lambda2 < 1, got {mu!r}")
    return alpha_guarded_cp2(p, lambda1, 1.0 / mu, "both_above", slack=0.0)


def guarded_cp2_objective(p: float, subcase: str = "mixed") -> AlphaObjective:
    """Trip-at-round-2 ratio over one subcase region.

    The mixed region is searched in (lambda1, lambda2) on (1, ceiling) x
    (0, 1).  The both-above region, lambda2 > 1, is unbounded, and its
    infimum lies at lambda2 -> inf, so it is searched in (lambda1, mu) with
    mu = 1/lambda2 on the open box (1, ceiling) x (0, 1): an argmin at the
    mu margin means the infimum is approached as lambda2 grows without
    bound.  Both run the same body, :func:`_cp2_ratio`.
    """
    ceiling = guard_ratio_ceiling(p)
    if subcase == "mixed":
        point = functools.partial(alpha_guarded_cp2, subcase=subcase, slack=0.0)
        grid = _cp2_grid
    elif subcase == "both_above":
        point, grid = _cp2_mu_point, _cp2_mu_grid
    else:
        raise DomainError(f"unknown subcase {subcase!r}")
    return AlphaObjective(
        name=f"guarded-cp2-{subcase.replace('_', '-')}",
        bounds=((1.0, ceiling), (0.0, 1.0)),
        point=point,
        grid=grid,
        p=p,
    )


def objective_by_name(name: str, p: float | None = None) -> AlphaObjective:
    """Resolve a CLI-style objective name, with ``--p`` for every objective
    but the proportional rule's, whose exponent is fixed."""
    if name == "proportional":
        if p is not None:
            raise DomainError(f"objective {name!r} has a fixed exponent and takes no --p")
        return proportional_objective()
    needs_p = {
        "poly-two-round": poly_two_round_objective,
        "poly-two-round-diagonal": poly_two_round_diagonal_objective,
        "guarded-cp1": guarded_cp1_objective,
        "guarded-cp2-mixed": lambda q: guarded_cp2_objective(q, "mixed"),
        "guarded-cp2-both-above": lambda q: guarded_cp2_objective(q, "both_above"),
    }
    if name in needs_p:
        if p is None:
            raise DomainError(f"objective {name!r} needs an exponent (--p)")
        return needs_p[name](p)
    raise DomainError(f"unknown objective {name!r}")


# ---------------------------------------------------------------------------
# instance realizations of the closed forms


def two_round_instance(v1: float, v2: float) -> Instance:
    """The crossed two-round instance behind the two-round ratio families."""
    if not (0.0 <= v1 <= 1.0 and 0.0 <= v2 <= 1.0):
        raise OutOfRange(f"need v1, v2 in [0, 1], got ({v1!r}, {v2!r})")
    return validate_instance(
        [[v1, 1.0 - v2], [1.0 - v1, v2]], require_normalized=True
    )


def guarded_cp1_instance(p: float, lambda1: float) -> Instance:
    """Three-round instance on which the guard trips exactly at the end of round 1.

    Round 1 is (v1, lambda1 * v1) with v1 chosen so the trip condition binds
    there; the leftovers arrive as one round per agent.
    """
    v1 = _cp1_first_round(p, lambda1)
    rows = [
        [v1, min(lambda1 * v1, 1.0)],
        [1.0 - v1, 0.0],
        [0.0, max(1.0 - lambda1 * v1, 0.0)],
    ]
    return validate_instance(rows, require_normalized=True)


def guarded_cp2_instance(p: float, lambda1: float, lambda2: float) -> Instance:
    """Three-round instance on which the guard trips exactly at the end of round 2.

    Where lambda2 > 1, agent 1's round-2 slope ``v2 (1 - x2)`` (x2 her
    share, at most 1/2) is at most 1/lambda2, so the trip fraction
    magnifies the guard surplus's rounding by about lambda2.  The stored
    round 1's share also differs from the closed form's by up to about p
    ulps, the rounding of its ratio raised to the p-th power.  So there v2
    is solved from round 1's share as :func:`~roundfair.algorithms.run_guarded`
    computes it, and from the surplus as the run forms it, keeping agent 2's
    round-2 value and so her column.
    """
    if lambda1 < 0.0 or lambda2 < 0.0:  # a float power would be complex
        raise DomainError(f"need lambda1, lambda2 >= 0, got ({lambda1!r}, {lambda2!r})")
    v1, v2, v3 = (max(v, 0.0) for v in _cp2_point(p, lambda1, lambda2, ENTRY_TOL)[1:])
    first, second = [v1, lambda1 * v1], [v2, lambda2 * v2]
    if lambda2 > 1.0 and v2 > 0.0:
        x1, x2 = _poly_fractions(np.array([first, second]), p)[:, 0].tolist()
        surplus = v1 * x1 + (1.0 - v1) - 0.5  # u + rem - total / 2, on a total of 1
        second[0] = v2 = max(surplus / (1.0 - x2), 0.0)
        v3 = max(1.0 - v1 - v2, 0.0)
    return validate_instance([first, second, [v3, 0.0]], require_normalized=True)


def three_round_cp(v11: float, v21: float, eps: float = 1e-6) -> Instance:
    """Two-agent, three-round instance that can drive a guard to trip.

    Agent 1's column is (v11, 1 - v11 - eps, eps) and agent 2's is
    (v21, eps, 1 - v21 - eps), so both sum to 1 for any admissible eps.
    """
    if not 0.0 < v11 < 1.0:
        raise OutOfRange(f"v11 must lie in (0, 1), got {v11!r}")
    if not 0.0 < v21 < 1.0:
        raise OutOfRange(f"v21 must lie in (0, 1), got {v21!r}")
    if not 0.0 < eps < min(1.0 - v11, 1.0 - v21):
        raise OutOfRange(
            f"eps must lie in (0, {min(1.0 - v11, 1.0 - v21)!r}), got {eps!r}"
        )
    rows = [
        [v11, v21],
        [1.0 - v11 - eps, eps],
        [eps, 1.0 - v21 - eps],
    ]
    return validate_instance(rows, require_normalized=True)


# ---------------------------------------------------------------------------
# adversarial constructions


def fair_share_violation_instance(p: float) -> Instance:
    """Two-round instance on which the unguarded rule with this p starves agent 1.

    Agent 1 values the rounds (x, 1-x) with x = (1/(p-1))**(1/p) while agent 2
    wants only round 1; the power rule then leaves agent 1 strictly below 1/2.
    Only exponents above 2 admit such an instance, and only those where x
    stays below 1 in floats: from about p = 4e17 it rounds to 1, and the
    instance would violate nothing.
    """
    if not math.isfinite(p):
        raise DomainError(f"the construction needs a finite p, got {p!r}")
    if p <= 2.0:
        raise PNotAboveTwo(f"the construction needs p > 2, got {p!r}")
    x = (1.0 / (p - 1.0)) ** (1.0 / p)
    if not x < 1.0:
        raise DomainError(f"the construction's first-round value rounds to 1 at p = {p!r}")
    return validate_instance([[x, 1.0], [1.0 - x, 0.0]], require_normalized=True)


def lower_bound_instances() -> tuple[Instance, Instance]:
    """The two-branch pair showing no fair-share rule can beat a 0.933 ratio.

    Both branches share round 1, so an online rule cannot tell them apart
    before committing; branch 2 defers part of agent 2's value to a third
    round.
    """
    first = validate_instance(
        [[0.568, 0.427], [0.432, 0.573]], require_normalized=True
    )
    second = validate_instance(
        [[0.568, 0.427], [0.432, 0.306], [0.0, 0.267]], require_normalized=True
    )
    return first, second


@dataclass(frozen=True)
class ReplayVerdict:
    """Result of replaying an allocator against the two-branch lower bound."""

    ratio1: float
    ratio2: float
    fair_share_violated: bool
    explanation: str


def replay_lower_bound(algorithm, tol: float = DEFAULT_TOL) -> ReplayVerdict:
    """Run an online allocator on both lower-bound branches and judge it.

    The branches share their first round, so any online allocator makes the
    same round-1 decision on both.  For every allocator, either the smaller
    of the two welfare ratios is at most 0.933 (within rounding of the
    construction's constants) or fair-share fails on some branch.
    """
    runner = algorithm.run if isinstance(algorithm, Algorithm) else algorithm
    first, second = lower_bound_instances()
    trace1 = runner(first)
    trace2 = runner(second)
    verdict1 = audit(first, trace1.allocation, tol)
    verdict2 = audit(second, trace2.allocation, tol)
    violated = not (verdict1.fair_share_ok and verdict2.fair_share_ok)

    x11 = float(trace1.allocation.fractions[0, 0])
    x11_second = float(trace2.allocation.fractions[0, 0])
    if abs(x11 - x11_second) > DEFAULT_TOL:
        prefix = (
            f"warning: round-1 decisions differ across branches "
            f"({x11:.6f} vs {x11_second:.6f}); allocator is not online. "
        )
    else:
        prefix = ""
    if x11 < 0.6977:
        region = f"x11 = {x11:.4f} < 0.6977, so branch 1 caps the welfare ratio"
    else:
        threshold = (0.427 * x11 - 0.194) / 0.306
        x22 = float(trace2.allocation.fractions[1, 1])
        if x22 < threshold:
            region = (
                f"x11 = {x11:.4f} >= 0.6977 and x22 = {x22:.4f} < "
                f"{threshold:.4f}, so branch 2 starves agent 2"
            )
        else:
            region = (
                f"x11 = {x11:.4f} >= 0.6977 and x22 = {x22:.4f} >= "
                f"{threshold:.4f}, so branch 2 caps the welfare ratio"
            )
    return ReplayVerdict(
        ratio1=verdict1.ratio,
        ratio2=verdict2.ratio,
        fair_share_violated=violated,
        explanation=prefix + region,
    )


def _multi_agent_root(n: int) -> int:
    """sqrt(n) for the multi-agent construction, which needs a perfect square n >= 4."""
    if n < 4:
        raise OutOfRange(f"need n >= 4, got {n!r}")
    m = math.isqrt(n)
    if m * m != n:
        raise NotPerfectSquare(f"need a perfect-square agent count, got {n!r}")
    return m


def multi_agent_instance(n: int) -> Instance:
    """The n-agent construction separating online from offline fair-share welfare.

    Needs a perfect square n >= 4 and uses sqrt(n) + n rounds: first sqrt(n)
    rounds carry (n-1)/n spikes for the first sqrt(n) agents while every later
    agent values each of them at (n-1)/(n*sqrt(n)); the last n rounds carry a
    1/n diagonal so everyone can still reach fair-share at the end.
    """
    m = _multi_agent_root(n)
    values = np.zeros((m + n, n))
    for t in range(m):
        values[t, t] = (n - 1) / n
        values[t, m:] = (n - 1) / (n * m)
    for i in range(n):
        values[m + i, i] = 1 / n
    return validate_instance(values, require_normalized=True)


def multi_agent_offline_fair_share_opt(n: int) -> float:
    """Closed-form offline fair-share optimum of :func:`multi_agent_instance`."""
    return (n - 1) / _multi_agent_root(n) + 1.0


def multi_agent_welfare_caps(n: int) -> tuple[float, float]:
    """Welfare ceilings for any online fair-share rule on the construction.

    Returns the cap after the first sqrt(n) rounds and the final cap; both are
    ``(2, 3) - (2*sqrt(n) + n + 1) / (n*sqrt(n))`` respectively, strictly below
    what offline fair-share achieves.
    """
    m = _multi_agent_root(n)
    gap = (2.0 * m + n + 1.0) / (n * m)
    return 2.0 - gap, 3.0 - gap


def truncation_adversary(algorithm, prefix):
    """Hunt for a fair-share failure of an allocator on unnormalized values.

    Runs the allocator over the prefix rounds; if after some round an agent's
    utility falls below a 1/n share of the value she has seen so far by more
    than ``DEFAULT_TOL``, the slack :func:`audit` allows, returns the prefix
    truncated there plus one all-zero round, an instance on which the
    allocator under-serves that agent no matter what.  Returns None when the
    allocator tracked an equal split of everyone's seen value throughout.
    """
    instance = validate_instance(prefix)
    runner = algorithm.run if isinstance(algorithm, Algorithm) else algorithm
    trace = runner(instance)
    n = instance.n
    seen = np.cumsum(instance.values, axis=0)
    shortfall = trace.cumulative_utility < seen / n - DEFAULT_TOL
    bad_rounds = np.nonzero(shortfall.any(axis=1))[0]
    if bad_rounds.size == 0:
        return None
    r = int(bad_rounds[0])
    rows = np.vstack([instance.values[: r + 1], np.zeros(n)])
    return validate_instance(rows)


# ---------------------------------------------------------------------------
# trade-off sweep


@dataclass(frozen=True)
class SweepRow:
    """Worst-case ratio bounds at one exponent, split by guard behavior.

    ``no_cp_alpha`` is the worst ratio over symmetric two-round instances,
    where the guard never trips; ``with_cp_alpha`` the worst over the
    trip-at-round-1 family, NaN when no such instance exists (p <= 2).
    """

    p: float
    no_cp_alpha: float
    with_cp_alpha: float


def sweep_tradeoff_curves(
    p_values: Sequence[float], grid_step: float = GRID_STEP
) -> list[SweepRow]:
    """Trace both worst-case curves across exponents, any finite p > 0.

    The two curves cross near p = 2.7, the sweet spot of the guarded family:
    below it instances without a trip are the bottleneck, above it the
    trip-at-round-1 instances are.  Every exponent is checked before the
    first search.
    """
    for p in p_values:
        _check_exponent(p)
    no_cp = _minimize_rows([poly_two_round_diagonal_objective(p) for p in p_values], grid_step)
    for outcome in no_cp:
        if isinstance(outcome, Exception):
            raise outcome
    # The trip curve has a row only where the trip family exists, p > 2.
    trips, objectives = [], []
    for i, p in enumerate(p_values):
        try:
            objectives.append(guarded_cp1_objective(p))
        except DomainError:
            continue
        trips.append(i)
    outcomes = _minimize_rows(objectives, grid_step)
    with_cp = [math.nan] * len(p_values)
    for i, outcome in zip(trips, outcomes):
        if isinstance(outcome, SearchResult):
            with_cp[i] = outcome.value
    return [
        SweepRow(p=float(p), no_cp_alpha=row.value, with_cp_alpha=trip)
        for p, row, trip in zip(p_values, no_cp, with_cp)
    ]
