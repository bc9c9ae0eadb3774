import dataclasses
import decimal
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from roundfair import (
    GREEDY,
    Instance,
    RunTrace,
    algorithm_by_name,
    alpha_guarded_cp1,
    alpha_guarded_cp2,
    alpha_poly_two_round,
    alpha_proportional,
    audit,
    builtin_algorithms,
    fair_share_violation_instance,
    guard_ratio_ceiling,
    guarded_cp1_instance,
    guarded_cp1_objective,
    guarded_cp2_instance,
    guarded_cp2_objective,
    lower_bound_instances,
    minimize_alpha,
    multi_agent_instance,
    multi_agent_offline_fair_share_opt,
    multi_agent_welfare_caps,
    optimal_welfare,
    poly_round,
    poly_two_round_diagonal_objective,
    poly_two_round_objective,
    proportional_objective,
    replay_lower_bound,
    run_guarded,
    run_poly,
    sweep_tradeoff_curves,
    truncation_adversary,
    two_round_instance,
    utilities,
    validate_allocation,
    validate_instance,
)
from roundfair.errors import (
    DomainError,
    EmptyDomain,
    InfeasibleClosedForm,
    NotPerfectSquare,
    OutOfRange,
    PNotAboveTwo,
)
from roundfair import adversarial
from roundfair.adversarial import (
    _ARRAY_KIT,
    _FLOAT_KIT,
    _GRID_BLOCK_POINTS,
    AlphaObjective,
    _cp2_ratio,
    _poly_two_round_ratio,
)
from conftest import (
    dense_grid_argmin,
    dense_grid_axes,
    random_instance,
    scipy_brentq,
    surplus_rounding_over_slope,
)

SQ2 = 1.0 / math.sqrt(2.0)

#: The six closed-form objectives at the exponents the paper quotes.
SIX_OBJECTIVES = (
    proportional_objective(),
    poly_two_round_objective(2.0),
    poly_two_round_diagonal_objective(2.7),
    guarded_cp1_objective(2.7),
    guarded_cp2_objective(2.7, "mixed"),
    guarded_cp2_objective(2.7, "both_above"),
)


class TestClosedForms:
    def test_proportional_worst_point(self):
        assert alpha_proportional(SQ2, SQ2) == pytest.approx(
            2 * (math.sqrt(2) - 1), abs=1e-12
        )

    def test_proportional_identical_agents(self):
        assert alpha_proportional(1.0, 1.0) == pytest.approx(1.0)

    def test_proportional_matches_simulation(self):
        v1, v2 = 0.9, 0.6
        inst = two_round_instance(v1, v2)
        verdict = audit(inst, run_poly(inst, 1).allocation)
        assert alpha_proportional(v1, v2) == pytest.approx(verdict.ratio, abs=1e-12)

    @pytest.mark.parametrize("v", [1e-17, 1e-300, 5e-324])
    def test_proportional_corners_tend_to_one(self, v):
        # Numerator and denominator both vanish at (1, 0) and (0, 1); in the
        # expanded form the denominator alone rounded to 0.
        assert alpha_proportional(1.0, v) == 1.0
        assert alpha_proportional(v, 1.0) == 1.0

    def test_proportional_domain(self):
        with pytest.raises(DomainError):
            alpha_proportional(0.3, 0.3)

    def test_poly_two_round_quadratic_points(self):
        assert alpha_poly_two_round(2, 0.6265, 0.6265) == pytest.approx(
            0.8941, abs=1e-3
        )
        assert alpha_poly_two_round(2, 0.355, 0.985) == pytest.approx(
            0.9234, abs=1e-3
        )

    def test_poly_two_round_sweet_spot(self):
        assert alpha_poly_two_round(2.7, 0.599, 0.599) == pytest.approx(
            0.9164, abs=5e-4
        )

    def test_poly_two_round_domain(self):
        with pytest.raises(DomainError):
            alpha_poly_two_round(2, 0.4, 0.4)
        for p in (0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite and positive"):
                alpha_poly_two_round(p, 0.7, 0.7)
            with pytest.raises(DomainError, match="finite and positive"):
                poly_two_round_objective(p)
            with pytest.raises(DomainError, match="finite and positive"):
                poly_two_round_diagonal_objective(p)

    def test_guarded_cp1_named_point(self):
        assert alpha_guarded_cp1(2.7, 1.27764) >= 0.916 - 1e-3
        assert alpha_guarded_cp1(2.7, 1.27764) == pytest.approx(0.916945, abs=1e-6)

    def test_guarded_cp1_boundary(self):
        assert alpha_guarded_cp1(2.7, 1.0) == pytest.approx(1.0)

    def test_guarded_cp1_interior_minimum_moves_down_with_p(self):
        # root of the stationarity condition 3 x^{p+1} - (1+p) x - p = 0
        from scipy.optimize import brentq

        def argmin(p):
            return brentq(lambda x: 3 * x ** (p + 1) - (1 + p) * x - p, 1.0, 3.0)

        a27 = alpha_guarded_cp1(2.7, argmin(2.7))
        a30 = alpha_guarded_cp1(3.0, argmin(3.0))
        assert argmin(3.0) == pytest.approx(1.283149, abs=1e-5)
        assert a30 < a27

    def test_guarded_cp1_domain(self):
        with pytest.raises(DomainError):
            alpha_guarded_cp1(2.7, 0.9)
        for p in (0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite and positive"):
                alpha_guarded_cp1(p, 1.2)

    @pytest.mark.parametrize("p, lambda1", [(2.7, 1.9), (1.0, 1.5)])
    def test_guarded_cp1_rejects_unrealizable_points(self, p, lambda1):
        # Past the ceiling at p = 2.7 (1.4955), and at any lambda1 > 1 for
        # p <= 2, the ratio would read 1.027 and 1.071 with no instance behind it.
        with pytest.raises(InfeasibleClosedForm):
            guarded_cp1_instance(p, lambda1)
        with pytest.raises(InfeasibleClosedForm):
            alpha_guarded_cp1(p, lambda1)
        assert alpha_guarded_cp1(2.7, 1.0) == 1.0

    def test_guarded_cp2_named_points(self):
        assert alpha_guarded_cp2(2.7, 1.3362, 0.711757, "mixed") >= 0.93 - 1e-3
        assert alpha_guarded_cp2(2.7, 1.49709, 6.55238, "both_above") >= 0.93 - 1e-3

    def test_guarded_cp2_interior_point_with_simulation(self):
        alpha = alpha_guarded_cp2(2.7, 1.2, 0.8, "mixed")
        assert 0.9 < alpha <= 1.0
        inst = guarded_cp2_instance(2.7, 1.2, 0.8)
        trace = run_guarded(inst, 2.7)
        assert trace.critical_event is not None
        assert trace.critical_event.round_index == 1
        verdict = audit(inst, trace.allocation)
        assert alpha == pytest.approx(verdict.ratio, abs=1e-9)

    def test_guarded_cp2_subcase_domains(self):
        for p in (0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite and positive"):
                alpha_guarded_cp2(p, 1.3, 0.5, "mixed")
        with pytest.raises(DomainError):
            alpha_guarded_cp2(2.7, 0.9, 0.5, "mixed")
        with pytest.raises(DomainError):
            alpha_guarded_cp2(2.7, 1.3, 1.5, "mixed")
        with pytest.raises(DomainError):
            alpha_guarded_cp2(2.7, 1.3, 0.5, "both_above")
        with pytest.raises(DomainError):
            alpha_guarded_cp2(2.7, 1.3, 0.5, "sideways")

    def test_guarded_cp2_infeasible_beyond_slack(self):
        # far above the feasibility ceiling the derived second round is
        # clearly negative
        with pytest.raises(InfeasibleClosedForm):
            alpha_guarded_cp2(2.7, 1.6, 6.0, "both_above")

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -1.0, -1e-300])
    def test_guarded_cp2_slack_must_be_finite_and_nonnegative(self, slack):
        # A NaN slack fails every comparison, so this infeasible point once
        # read 0.93728; a slack of 0 asks for exact feasibility.
        with pytest.raises(OutOfRange, match="slack must be finite and nonnegative"):
            alpha_guarded_cp2(2.7, 1.5, 0.05, "mixed", slack=slack)
        with pytest.raises(InfeasibleClosedForm):
            alpha_guarded_cp2(2.7, 1.5, 0.05, "mixed", slack=0.0)


class TestMinimizeAlpha:
    def test_proportional_search(self):
        result = minimize_alpha(proportional_objective())
        assert result.value == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-6)
        assert result.argmin[0] == pytest.approx(SQ2, abs=1e-3)
        assert result.argmin[1] == pytest.approx(SQ2, abs=1e-3)
        assert result.refined

    def test_quadratic_search(self):
        result = minimize_alpha(poly_two_round_objective(2))
        assert result.value == pytest.approx(0.8941, abs=1e-3)
        assert result.argmin[0] == pytest.approx(0.626538, abs=1e-3)
        assert result.argmin[1] == pytest.approx(0.626538, abs=1e-3)

    def test_guarded_cp1_search(self):
        result = minimize_alpha(guarded_cp1_objective(2.7))
        assert result.argmin[0] == pytest.approx(1.27764, abs=1e-3)
        assert result.value == pytest.approx(0.916945, abs=1e-6)

    def test_deterministic(self):
        a = minimize_alpha(proportional_objective(), grid_step=5e-3)
        b = minimize_alpha(proportional_objective(), grid_step=5e-3)
        assert a == b

    def test_value_is_eval_at_argmin(self):
        objective = poly_two_round_objective(2.5)
        result = minimize_alpha(objective, grid_step=5e-3)
        assert result.value == pytest.approx(
            objective.evaluate(result.argmin), abs=1e-12
        )

    def test_empty_domain(self):
        degenerate = AlphaObjective(
            name="degenerate",
            bounds=((0.5, 0.5),),
            point=lambda p, x: 1.0,
            grid=lambda p, x: np.ones_like(x),
            p=1.0,
        )
        with pytest.raises(EmptyDomain):
            minimize_alpha(degenerate)

    def test_narrow_box_keeps_its_middle_half(self):
        # Narrower than 4 margins: the box shrinks by a quarter of its width
        # on each side, not by the whole margin.
        narrow = AlphaObjective(
            name="narrow",
            bounds=((0.0, 1e-9),),
            point=lambda p, x: (x - 1e-9) ** 2,
            grid=lambda p, x: (x - 1e-9) ** 2,
            p=1.0,
        )
        result = minimize_alpha(narrow)
        low, high = 0.25e-9, 1e-9 - 0.25e-9
        assert result.grid_point == (high,)
        assert low <= result.argmin[0] <= high

    @pytest.mark.parametrize(
        "objective",
        [
            guarded_cp1_objective,
            lambda p: guarded_cp2_objective(p, "mixed"),
            lambda p: guarded_cp2_objective(p, "both_above"),
        ],
        ids=["cp1", "cp2-mixed", "cp2-both-above"],
    )
    def test_trip_family_box_just_above_two(self, objective):
        # The box (1, ceiling) is about p - 2 = 1e-6 wide here, less than
        # two margins.
        result = minimize_alpha(objective(2.0 + 1e-6))
        assert 1.0 < result.argmin[0] < guard_ratio_ceiling(2.0 + 1e-6)
        assert 0.99 < result.value <= 1.0

    def test_bad_parameters(self):
        with pytest.raises(OutOfRange):
            minimize_alpha(proportional_objective(), grid_step=0.0)

    @pytest.mark.parametrize("grid_step", [1e-300, 5e-324, 1e-17])
    def test_grid_too_fine_for_an_array_rejected(self, grid_step):
        # numpy would refuse the axis with a message that names no argument:
        # past _MAX_AXIS_POINTS it declines to count it, and at 1e-17 it
        # fails to allocate the 352 PiB asked for.
        with pytest.raises(OutOfRange, match="grid_step"):
            minimize_alpha(guarded_cp1_objective(2.7), grid_step)

    @pytest.mark.parametrize("grid_step", [math.nan, math.inf])
    def test_nan_or_infinite_grid_step_rejected(self, grid_step):
        with pytest.raises(OutOfRange):
            minimize_alpha(proportional_objective(), grid_step)

    def test_grid_of_box_corners_is_refined(self):
        # A step of 2 leaves only the corners of the box, and the best,
        # (1 - 1e-6, 1 - 1e-6), reads 0.999999; the zoom finds 2 sqrt(2) - 2.
        result = minimize_alpha(proportional_objective(), grid_step=2.0)
        assert result.grid_point == (1.0 - 1e-6, 1.0 - 1e-6)
        assert result.value == pytest.approx(2 * (math.sqrt(2) - 1), abs=1e-12)
        assert result.refined

    @pytest.mark.parametrize("objective", SIX_OBJECTIVES, ids=lambda o: o.name)
    def test_grid_agrees_with_scalar_evaluation(self, objective):
        # The grid uses numpy's pow and the scalar path libm's, so bits may
        # differ; feasibility must not.
        axes = [
            np.linspace(lo + objective.margin, hi - objective.margin, 101)
            for lo, hi in objective.bounds
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        with np.errstate(all="ignore"):
            grid = objective.grid(objective.p, *mesh)
        assert grid.shape == mesh[0].shape
        for k in range(grid.size):
            point = tuple(float(m.flat[k]) for m in mesh)
            try:
                value = objective.evaluate(point)
            except DomainError:
                assert math.isnan(grid.flat[k]), point
                continue
            assert grid.flat[k] == pytest.approx(value, rel=0, abs=1e-12), point
        # Open coordinates, as the search passes them, give the same bits
        # once broadcast, on the whole grid and on a block of leading rows.
        for rows in (slice(None), slice(7, 40)):
            open_mesh = np.meshgrid(axes[0][rows], *axes[1:], indexing="ij", sparse=True)
            with np.errstate(all="ignore"):
                sparse = objective.grid(objective.p, *open_mesh)
            np.testing.assert_array_equal(
                np.broadcast_to(sparse, grid[rows].shape), grid[rows]
            )


def _counting(objective):
    """The objective with its grid calls recorded as their broadcast shapes."""
    shapes = []

    def grid(p, *coords):
        assert all(sum(n > 1 for n in c.shape) <= 1 for c in coords), "not open"
        shapes.append(np.broadcast_shapes(*(c.shape for c in coords)))
        return objective.grid(p, *coords)

    return dataclasses.replace(objective, grid=grid), shapes


def _synthetic(grid, dimension=2, region=adversarial._whole_box):
    """A unit-box objective whose scalar form is its grid form on one point;
    ``grid`` takes no exponent."""
    return AlphaObjective(
        name="synthetic",
        bounds=((0.0, 1.0),) * dimension,
        point=lambda p, *x: float(grid(*np.asarray(x, dtype=float))),
        grid=lambda p, *coords: grid(*coords),
        p=1.0,
        region=region,
    )


def _two_bands(x, *rest):
    """-1 on x in [0.30, 0.35) and [0.80, 0.85), shifted by (y - 0.5)**2: equal
    minima on many rows of different blocks; 0 elsewhere."""
    band = ((0.30 <= x) & (x < 0.35)) | ((0.80 <= x) & (x < 0.85))
    return np.where(band, sum((y - 0.5) ** 2 for y in rest) - 1.0, 0.0)


def _two_bands_along_y(x, y):
    """-1 on two rectangles of the box (0, 0.1) x (0, 1); the first in
    row-major order (the lower x) lies in a later slice of the long y axis
    than the other."""
    first = (0.02 <= x) & (x < 0.03) & (0.80 <= y) & (y < 0.85)
    second = (0.06 <= x) & (x < 0.07) & (0.30 <= y) & (y < 0.35)
    return np.where(first | second, -1.0, 0.0)


def _mirror_squares(x, y):
    """-1 on [0.55, 0.56) x [0.90, 0.91) and on its mirror image, 0 elsewhere
    on x + y >= 1 and NaN below it: a grid equal to its transpose, as the
    two-round families' are, whose equal minima lie in lines far apart."""
    square = (0.55 <= x) & (x < 0.56) & (0.90 <= y) & (y < 0.91)
    mirror = (0.55 <= y) & (y < 0.56) & (0.90 <= x) & (x < 0.91)
    return np.where(x + y < 1.0, np.nan, np.where(square | mirror, -1.0, 0.0))


def _diagonal_band(x, y):
    """-1 within 0.0025 of the diagonal, 0 elsewhere on x + y >= 1 and NaN
    below it: equal minima along the diagonal, on both sides of it and in
    every block."""
    return np.where(x + y < 1.0, np.nan, np.where(abs(x - y) < 0.0025, -1.0, 0.0))


def _region_points(objective, *axes):
    """The points of a scan over ``axes`` that ``objective``'s region holds:
    all of them, but in a two-round region those whose rounded sum v1 + v2
    is not below 1 and, where the two axes are the same, that lie on or
    above the diagonal.  Returns their mask over the grid."""
    mesh = np.meshgrid(*axes, indexing="ij")
    keep = np.ones(mesh[0].shape, dtype=bool)
    if objective.region is adversarial._two_round_region:
        keep = mesh[0] + mesh[1] >= 1.0
        if np.array_equal(*axes):
            keep &= mesh[0] <= mesh[1]
    return keep


#: Grids whose equal minima lie in different blocks, with their steps.
TIE_GRIDS = (
    (_synthetic(_two_bands, 2), 1e-3),
    (_synthetic(_two_bands, 1), 1e-5),
    (dataclasses.replace(_synthetic(_two_bands_along_y), bounds=((0.0, 0.1), (0.0, 1.0))), 1e-3),
)


class TestBlockedGridScan:
    """``minimize_alpha``'s blocked scan against the full-mesh reference."""

    def _assert_matches_dense(self, objective, grid_step):
        """Returns the result and the grid's block shapes.

        The grid's blocks cover its region, each point once, and may cover
        more; ``evaluations`` counts the region's points, of the grid and of
        each refine scan, whose one block is its whole window."""
        calls, starts = [], []

        def grid(p, *coords):
            calls.append([np.ravel(c) for c in coords])
            return objective.grid(p, *coords)

        scan = adversarial._scan

        def spy(*args):
            starts.append(len(calls))
            return scan(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adversarial, "_scan", spy)
            result = minimize_alpha(dataclasses.replace(objective, grid=grid), grid_step)
        point, value, _ = dense_grid_argmin(objective, grid_step)
        assert result.grid_point == point
        assert result.grid_value == value
        shapes = [tuple(c.size for c in coords) for coords in calls]
        assert max(math.prod(s) for s in shapes) <= _GRID_BLOCK_POINTS
        axes = dense_grid_axes(objective, grid_step)
        region = _region_points(objective, *axes)
        covered = np.zeros(region.shape, dtype=int)
        blocks = starts[1] if len(starts) > 1 else len(calls)
        for coords in calls[:blocks]:
            index = [np.searchsorted(ax, c) for ax, c in zip(axes, coords)]
            assert all((ax[i] == c).all() for ax, i, c in zip(axes, index, coords))
            covered[np.ix_(*index)] += 1
        assert covered.max() == 1
        assert covered[region].all()
        refine = sum(int(_region_points(objective, *coords).sum()) for coords in calls[blocks:])
        assert len(calls) - blocks == len(starts) - 1  # one block per refine scan
        assert result.evaluations == int(region.sum()) + refine
        return result, shapes[:blocks]

    @pytest.mark.parametrize("grid_step", [1e-3, 5e-3, 2e-2])
    @pytest.mark.parametrize("objective", SIX_OBJECTIVES, ids=lambda o: o.name)
    def test_six_objectives(self, objective, grid_step):
        self._assert_matches_dense(objective, grid_step)

    @pytest.mark.parametrize("grid_step", [1e-3, 0.013, 0.05])
    @pytest.mark.parametrize(
        "objective",
        [proportional_objective(), poly_two_round_objective(1000.0), poly_two_round_objective(5000.0)],
        ids=lambda o: f"{o.name}-{o.p:g}",
    )
    def test_two_round_region(self, objective, grid_step):
        # The region holds the staircase above the diagonal: at the default
        # step, 251,001 of the 1,001 x 1,001 grid's points.  Its boxes hold
        # up to a worker's budget each, and together less than twice the
        # region, where the whole grid is four times it.
        result, shapes = self._assert_matches_dense(objective, grid_step)
        if grid_step == 1e-3:
            points = int(_region_points(objective, *dense_grid_axes(objective, grid_step)).sum())
            assert points == 251_001
            sizes = [math.prod(s) for s in shapes]
            assert max(sizes) <= _GRID_BLOCK_POINTS // adversarial._SCAN_WORKERS
            assert sum(sizes) < 2 * points
            assert result.evaluations < 2 * points

    @pytest.mark.parametrize("grid", [_mirror_squares, _diagonal_band])
    def test_symmetric_family_returns_the_first_minimum(self, grid):
        objective = _synthetic(grid, region=adversarial._two_round_region)
        result, shapes = self._assert_matches_dense(objective, 1e-3)
        assert len(shapes) > 1
        assert result.grid_value == -1.0
        assert result.grid_point[0] <= result.grid_point[1]

    @pytest.mark.parametrize("dimension, grid_step", [(2, 1e-3), (1, 1e-5)])
    def test_first_of_equal_minima_in_different_blocks_wins(self, dimension, grid_step):
        result, shapes = self._assert_matches_dense(
            _synthetic(_two_bands, dimension), grid_step
        )
        assert len(shapes) > 1
        assert result.grid_value == pytest.approx(-1.0, abs=1e-6)
        assert 0.30 <= result.grid_point[0] < 0.31

    def test_blocks_split_the_longest_axis(self):
        result, shapes = self._assert_matches_dense(TIE_GRIDS[2][0], 1e-3)
        assert len(shapes) > 1
        assert {s[0] for s in shapes} == {101}
        assert sum(s[1] for s in shapes) == 1001
        assert result.grid_value == -1.0
        assert 0.02 <= result.grid_point[0] < 0.03 and 0.80 <= result.grid_point[1] < 0.85

    def test_leading_blocks_all_nan(self):
        def grid(x, y):
            return np.where(x < 0.5, np.nan, (x - 0.7) ** 2 + (y - 0.3) ** 2)

        _, shapes = self._assert_matches_dense(_synthetic(grid), 1e-3)
        assert len(shapes) > 8  # at least 7 all-NaN blocks precede the minimum

    @pytest.mark.parametrize(
        "grid, row",
        [
            (lambda x, y: (x - 0.4) ** 2, 400),  # shape (B, 1) on open coordinates
            (lambda x, y: (y - 0.4) ** 2, 0),  # shape (1, N)
        ],
        ids=["rows", "columns"],
    )
    def test_lower_dimensional_grid_broadcasts(self, grid, row):
        result, _ = self._assert_matches_dense(_synthetic(grid), 1e-3)
        assert result.grid_point[0] == pytest.approx(1e-6 + row * 1e-3)

    def test_every_block_nan_is_an_empty_domain(self):
        def grid(x, y):
            return np.full(np.broadcast_shapes(x.shape, y.shape), np.nan)

        with pytest.raises(EmptyDomain):
            minimize_alpha(_synthetic(grid))

    def test_grid_point_precedes_refinement(self):
        result = minimize_alpha(guarded_cp1_objective(2.7), grid_step=1e-2)
        assert result.refined
        assert result.value <= result.grid_value
        assert result.grid_point != result.argmin

    def test_peak_memory_stays_bounded(self, monkeypatch):
        # numpy reports its buffers to tracemalloc.  A full mesh of this
        # 497 x 1,001 grid peaks near 50 MB.  The blocks write into the
        # workers' workspaces, which together hold a few buffers of one
        # block's points: with one worker or two the search peaks near
        # 4 MB, under twelve such buffers, and leaves nothing behind.
        objective = guarded_cp2_objective(2.7, "both_above")
        minimize_alpha(proportional_objective(), grid_step=2e-2)  # warm up first
        budget = 12 * _GRID_BLOCK_POINTS * np.dtype(float).itemsize
        for workers in (1, 2):
            monkeypatch.setattr(adversarial, "_SCAN_WORKERS", workers)
            tracemalloc.start()
            try:
                minimize_alpha(objective)
                left, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < budget, workers
            assert left < 2**16, workers

    def test_workspaces_reuse_their_buffers(self, monkeypatch):
        # Each worker owns one workspace for the whole scan, and every block
        # takes its buffers again: the 16 blocks of this grid hold eight
        # buffers per worker, none larger than a worker's block.  The
        # refine's scans are one block each and allocate.
        made = []

        class Recorded(adversarial._Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(adversarial, "_Workspace", Recorded)
        monkeypatch.setattr(adversarial, "_SCAN_WORKERS", 2)
        minimize_alpha(guarded_cp2_objective(2.7, "both_above"))
        assert len(made) == 2
        for workspace in made:
            assert 0 < len(workspace._buffers) <= 8
            assert max(b.nbytes for b in workspace._buffers) <= _GRID_BLOCK_POINTS // 2 * 8
        assert not hasattr(adversarial._scan_local, "kit")

    @pytest.mark.parametrize("objective", SIX_OBJECTIVES, ids=lambda o: o.name)
    def test_direct_grid_calls_allocate(self, objective):
        # Outside a scan a grid writes into no workspace: each call returns
        # a new array, still valid after the other call.
        axes = [
            np.linspace(lo + objective.margin, hi - objective.margin, 301)
            for lo, hi in objective.bounds
        ]
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        with np.errstate(all="ignore"):
            first = objective.grid(objective.p, *mesh)
            kept = first.copy()
            second = objective.grid(objective.p, *mesh)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        first[...] = 0.0
        np.testing.assert_array_equal(second, kept)


def _by_workers(monkeypatch, objective, grid_step):
    """The search with one scan worker and with two, and whether the two
    started a helper thread."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(adversarial, "_SCAN_WORKERS", workers)
        results.append(minimize_alpha(objective, grid_step))
        assert bool(started) <= (workers == 2)
    return results, bool(started)


def _grid_points(objective, grid_step):
    return math.prod(
        adversarial._grid_axis(objective, lo, hi, grid_step)[0].size for lo, hi in objective.bounds
    )


class TestScanWorkers:
    """Two scan workers, each with its own block size and workspace, find
    bit for bit what one finds."""

    @pytest.mark.parametrize("grid_step", [1e-3, 2e-2])
    @pytest.mark.parametrize("objective", SIX_OBJECTIVES, ids=lambda o: o.name)
    def test_six_objectives(self, monkeypatch, objective, grid_step):
        (one, two), threaded = _by_workers(monkeypatch, objective, grid_step)
        assert two == one
        # A grid larger than one worker's block is shared out.
        assert threaded == (_grid_points(objective, grid_step) > _GRID_BLOCK_POINTS // 2)

    @pytest.mark.parametrize("objective, grid_step", TIE_GRIDS, ids=["2-D", "1-D", "along-y"])
    def test_equal_minima_in_different_blocks(self, monkeypatch, objective, grid_step):
        (one, two), threaded = _by_workers(monkeypatch, objective, grid_step)
        assert threaded
        assert two == one
        assert two.grid_value == pytest.approx(-1.0, abs=1e-6)

    def test_more_workers_than_cores_scan_each_block_once(self, monkeypatch):
        # Four workers switching as often as the interpreter allows: each
        # block is still claimed by one worker, so the points scanned add up
        # to the evaluations, and the result is one worker's.
        objective, grid_step = TIE_GRIDS[0]
        monkeypatch.setattr(adversarial, "_SCAN_WORKERS", 1)
        alone = minimize_alpha(objective, grid_step)
        monkeypatch.setattr(adversarial, "_SCAN_WORKERS", 4)
        counted, shapes = _counting(objective)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = minimize_alpha(counted, grid_step)
        finally:
            sys.setswitchinterval(interval)
        assert len(shapes) > 60
        assert result.evaluations == sum(math.prod(shape) for shape in shapes)
        assert result == alone


#: Exponents in (2, 100]: three right above 2, then 120 evenly spaced; two
#: far above, and the first float above 2.
CEILING_P = (
    [2.0 + 1e-9, 2.0 + 1e-6, 2.0001]
    + np.linspace(2.0, 100.0, 121)[1:].tolist()
    + [5000.0, 1e6, math.nextafter(2.0, 3.0)]
)


class TestGuardRatioCeiling:
    def test_no_room_at_or_below_two(self):
        for p in (1.0, 2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                guard_ratio_ceiling(p)

    def test_ceiling_tightness(self):
        for p in (2.3, 2.7, 3.0):
            lam = guard_ratio_ceiling(p)
            assert lam > 1.0
            assert 2 * lam ** (p - 1) - lam**p - 1 == pytest.approx(0.0, abs=1e-10)
            # at the ceiling the opponent's first-round value uses her whole budget
            inst = guarded_cp1_instance(p, lam)
            assert inst.values[0, 1] == pytest.approx(1.0, abs=1e-9)
            with pytest.raises(InfeasibleClosedForm):
                guarded_cp1_instance(p, lam + 1e-3)

    @pytest.mark.parametrize("p", CEILING_P)
    def test_ceiling_is_the_float_sign_change(self, p):
        # h has the sign of 2 x**(p-1) - x**p - 1 on (1, 2), and is -1 at 2.
        def h(x):
            if x >= 2.0:
                return -1.0
            return (p - 1.0) * math.log1p(x - 1.0) + math.log1p(1.0 - x)

        c = guard_ratio_ceiling(p)
        assert h(c) > 0.0 >= h(math.nextafter(c, 3.0))
        assert 1.0 < c < 2.0
        assert abs(c - scipy_brentq(h, math.nextafter(1.0, 2.0), 2.0, xtol=1e-13)) <= 1e-13

    @pytest.mark.parametrize("p", [2.0001, 2.0 + 1e-6])
    def test_ceiling_near_two_is_the_root(self, p):
        # 2 x**(p-1) - x**p - 1 cancels to 0 in floats near x = 1; in 40-digit
        # decimals it changes sign within 1e-12 of the computed ceiling.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dp = decimal.Decimal(p)

            def h(x):
                log_x = decimal.Decimal(x).ln()
                return 2 * (log_x * (dp - 1)).exp() - (log_x * dp).exp() - 1

            lam = guard_ratio_ceiling(p)
            assert h(lam - 1e-12) > 0 > h(lam + 1e-12)


class TestLargeExponent:
    """Every power in a closed form has a base of at most 1, so each one is
    finite, and realized by simulation, at any finite p."""

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: guard_ratio_ceiling(5000), math.nextafter(2.0, 1.0)),
            (lambda: alpha_guarded_cp1(5000, 1.5), 2.5 / 3),
            (
                lambda: guarded_cp1_instance(5000, 1.5).values.tolist(),
                [[0.5, 0.75], [0.5, 0.0], [0.0, 0.25]],
            ),
            (lambda: guarded_cp1_objective(5000).bounds, ((1.0, math.nextafter(2.0, 1.0)),)),
            (
                lambda: guarded_cp2_instance(5000, 1.5, 0.5).values.tolist(),
                [[0.5, 0.75], [0.5, 0.25], [0.0, 0.0]],
            ),
        ],
        ids=[
            "guard_ratio_ceiling",
            "alpha_guarded_cp1",
            "guarded_cp1_instance",
            "guarded_cp1_objective",
            "guarded_cp2_instance",
        ],
    )
    def test_trip_family_value_at_p_5000(self, call, expected):
        assert call() == expected

    def test_cp2_singular_point_at_p_5000(self):
        # lambda1 > lambda2 > 1: the scaled denominator tends to 1 - l1/l2 < 0
        with pytest.raises(DomainError, match="singular construction"):
            guarded_cp2_instance(5000, 1.0960015837476516, 1.0945541686675568)

    def test_cp2_overflowing_power_is_singular(self):
        # lambda1 < 1 gives a power with a base above 1: 0.5 ** -1e6 raises
        # OverflowError on floats, where an array reads inf.
        with pytest.raises(DomainError, match="singular construction"):
            guarded_cp2_instance(1e6, 0.5, 0.0)

    def test_underflowed_powers_leave_the_larger_value(self):
        # 0.6**5000 and 0.4**5000 are both 0.0; each round goes to the agent
        # who values it at 0.6
        assert alpha_poly_two_round(5000, 0.6, 0.6) == 1.0

    @pytest.mark.parametrize("v1, v2", [(0.862, 0.862), (0.8622, 0.8618), (0.1, 0.95)])
    def test_subnormal_powers_keep_the_ratio(self, v1, v2):
        # The unscaled powers are subnormal here; 50-digit decimals give the
        # ratio they stand for.
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            a, b = decimal.Decimal(v1), decimal.Decimal(v2)

            def quotient(x, y):
                return (x**5001 + y**5001) / (x**5000 + y**5000)

            exact = (quotient(1 - a, b) + quotient(1 - b, a)) / (a + b)
        assert alpha_poly_two_round(5000, v1, v2) == pytest.approx(float(exact), rel=1e-15)

    def test_grid_matches_the_scalar_ratio_at_p_5000(self):
        v = np.array([0.5, 0.862, 0.999])
        two_round = poly_two_round_objective(5000).grid(5000, v[:, None], v[None, :])
        diagonal = poly_two_round_diagonal_objective(5000).grid(5000, v)
        assert np.isnan(two_round[0, 0])  # v1 + v2 = 1 is outside the family
        for i, j in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 2)]:
            assert two_round[i, j] == alpha_poly_two_round(5000, v[i], v[j])
        assert diagonal.tolist() == [1.0, two_round[1, 1], two_round[2, 2]]

    def test_p_1000_search_misses_the_diagonal_valley(self):
        # The default grid steps over the valley near (0.50032, 0.50032)
        # and the zoom walks to the box edge; the diagonal search finds it.
        result = minimize_alpha(poly_two_round_objective(1000.0))
        assert result.value == 0.9997220683630714
        assert result.argmin == (0.0012767362500000002, 0.999999)
        diagonal = minimize_alpha(poly_two_round_diagonal_objective(1000.0))
        assert diagonal.value == 0.9997217133404876
        assert diagonal.argmin == (0.5003194562500001,)

    @pytest.mark.xfail(
        strict=True, reason="a fixed grid misses the valley at large p (ROADMAP item 11)"
    )
    def test_p_1000_search_reaches_the_diagonal_minimum(self):
        two_d = minimize_alpha(poly_two_round_objective(1000.0))
        diagonal = minimize_alpha(poly_two_round_diagonal_objective(1000.0))
        assert two_d.value <= diagonal.value + 1e-12

    def test_normal_denominators_keep_their_value(self):
        # The smallest normal float is 2.2e-308; 0.93**9000 is about 1e-284.
        assert alpha_poly_two_round(9000, 0.93, 0.93) > 0.999

    @pytest.mark.parametrize(
        "objective", [poly_two_round_objective, poly_two_round_diagonal_objective]
    )
    def test_search_avoids_subnormal_denominators(self, objective):
        # The default grid reaches (0.862, 0.862), where 0.862**5000 is
        # subnormal; an unscaled quotient there read 0.773 and 0.967.
        result = minimize_alpha(objective(5000))
        assert result.value > 0.999

    @pytest.mark.parametrize(
        "objective", [poly_two_round_objective, poly_two_round_diagonal_objective]
    )
    def test_refine_skips_underflowed_points(self, objective):
        result = minimize_alpha(objective(5000), grid_step=2e-2)
        assert math.isfinite(result.value) and 0.0 < result.value <= 1.0

    @pytest.mark.parametrize("p", [50.0, 5000.0, 1e6])
    @pytest.mark.parametrize(
        "name",
        ["poly-two-round", "guarded-cp1", "guarded-cp2-mixed", "guarded-cp2-both-above"],
    )
    def test_search_minimum_is_realized_by_simulation(self, name, p):
        result = minimize_alpha(adversarial.objective_by_name(name, p), grid_step=2e-2)
        x = result.argmin
        if name == "poly-two-round":
            inst = two_round_instance(*x)
            trace = run_poly(inst, p)
        else:
            if name == "guarded-cp1":
                inst = guarded_cp1_instance(p, *x)
            elif name == "guarded-cp2-mixed":
                inst = guarded_cp2_instance(p, *x)
            else:  # searched in (lambda1, mu = 1/lambda2)
                inst = guarded_cp2_instance(p, x[0], 1.0 / x[1])
            trace = run_guarded(inst, p)
            trip_round = 0 if name == "guarded-cp1" else 1
            assert trace.critical_event.round_index == trip_round
        assert audit(inst, trace.allocation).ratio == pytest.approx(result.value, abs=1e-9)


#: The both-above search's argmins on its old box, lambda2 in [1, 16], at
#: the default step: the box edge at p = 3 and 5.
_BOX_ARGMINS = (
    (2.7, 1.4954936, 1.4954948),
    (3.0, 1.42486308, 15.999999),
    (5.0, 1.2095315, 15.999999),
)


def _exact_round_end_ratio(rows, p):
    """The welfare ratio of a both-above instance, in 50 digits, when agent 0
    trips at the end of round 2: the power rule's exact shares in rounds 1
    and 2, round 3 to agent 0.  Returns the ratio, agent 0's round-2 share
    and the optimum."""
    (v1, w1), (v2, w2), (v3, _) = [[mpmath.mpf(float(x)) for x in row] for row in rows]
    x1, x2 = (1 / (1 + (w / v) ** p) for v, w in ((v1, w1), (v2, w2)))
    opt = w1 + w2 + v3  # both ratios above 1: agent 1 values rounds 1 and 2 more
    return (v1 * x1 + w1 * (1 - x1) + v2 * x2 + w2 * (1 - x2) + v3) / opt, x2, opt


class TestBothAboveInMu:
    """The both-above family, lambda1, lambda2 > 1, is searched in (lambda1,
    mu = 1/lambda2) on the open box (0, 1); its infimum lies at lambda2 ->
    inf, the mu margin."""

    def test_default_grid_work_count(self):
        objective = guarded_cp2_objective(2.7, "both_above")
        assert _grid_points(objective, adversarial.GRID_STEP) == 497 * 1001
        assert minimize_alpha(objective).evaluations == 506_107

    @pytest.mark.parametrize("p, lambda1, lambda2", _BOX_ARGMINS)
    def test_value_is_at_most_the_old_box_argmin(self, p, lambda1, lambda2):
        result = minimize_alpha(guarded_cp2_objective(p, "both_above"))
        assert result.value <= alpha_guarded_cp2(p, lambda1, lambda2, "both_above", slack=0.0)
        assert result.argmin[1] == AlphaObjective.margin

    def test_point_is_the_closed_form_at_the_reciprocal(self):
        objective = guarded_cp2_objective(2.7, "both_above")
        assert objective.evaluate((1.45, 0.25)) == alpha_guarded_cp2(
            2.7, 1.45, 4.0, "both_above", slack=0.0
        )

    @pytest.mark.parametrize("mu", [0.0, -0.5, 1.0, 4.0, math.inf, math.nan])
    def test_point_rejects_mu_outside_the_box(self, mu):
        with pytest.raises(DomainError, match="0 < mu"):
            guarded_cp2_objective(2.7, "both_above").evaluate((1.45, mu))

    @pytest.mark.parametrize("p", [2.7, 3.0, 5.0, 50.0, 5000.0, 1e6])
    def test_argmin_instance_trips_at_the_end_of_round_2(self, p):
        # At mu = 1e-6, agent 0's round-2 slope is about 1e-6 or less, so a
        # trip fraction carries the guard surplus's rounding times 1e6, and
        # the stored round 1's share is off the closed form's by up to
        # about p ulps.  The instance solves v2 from the run's own round-1
        # share, so in 50 digits, on the run's shares, the crossing lies
        # within the float bound of the round's end.
        result = minimize_alpha(guarded_cp2_objective(p, "both_above"), grid_step=2e-2)
        lambda1, mu = result.argmin
        lambda2 = 1.0 / mu
        inst = guarded_cp2_instance(p, lambda1, lambda2)
        (v1, _), (v2, _), (v3, _) = inst.values.tolist()
        bound = surplus_rounding_over_slope(inst, p, 1, 0)
        # The instance the closed form's round values give, unsolved.
        _, c1, c2, c3 = adversarial._cp2_point(p, lambda1, lambda2, 0.0)
        unsolved = [[c1, lambda1 * c1], [c2, lambda2 * c2], [c3, 0.0]]
        assert inst.values[0].tolist() == unsolved[0]
        assert inst.values[:, 1].tolist() == [row[1] for row in unsolved]
        with mpmath.workdps(50):
            x1, x2 = (mpmath.mpf(float(poly_round(row, p)[0])) for row in inst.values[:2])
            total = mpmath.mpf(float(inst.column_totals[0]))
            crossing = (v1 * x1 + (total - v1) - total / 2) / (v2 * (1 - x2))
            assert abs(crossing - 1) <= bound
            # Solving moved only agent 0's rounds 2 and 3, and so the ratio
            # by at most (|dv2| + (v2 + w2) |dx2| + 2 |dv3|) / opt: R is
            # linear in v2 x2, w2 (1 - x2) and v3, and opt holds v3.
            ratio, share, opt = _exact_round_end_ratio(inst.values, p)
            before, share_before, _ = _exact_round_end_ratio(unsolved, p)
            w2 = mpmath.mpf(unsolved[1][1])
            moved = (
                abs(mpmath.mpf(v2) - c2)
                + (v2 + w2) * abs(share - share_before)
                + 2 * abs(mpmath.mpf(v3) - c3)
            ) / opt
            assert abs(ratio - before) <= moved <= 1e-10
        trace = run_guarded(inst, p)
        event = trace.critical_event
        assert event is not None and (event.round_index, event.agent) == (1, 0)
        assert event.fraction >= 1.0 - bound
        assert audit(inst, trace.allocation).ratio == pytest.approx(result.value, abs=1e-9)
        assert float(ratio) == pytest.approx(result.value, abs=1e-9)


def _bits(values):
    return [float(v).hex() for v in values]


@st.composite
def _closed_form_points(draw):
    """An exponent and parameter points at or next to the families' box
    edges: 0 and 1 for round values, and 1, the guard's ceiling and
    1/margin for value ratios, with the floats on either side.  1/margin is
    the largest lambda2 the both-above search reaches, at mu = margin."""

    def near(x):
        return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]

    p = draw(st.one_of(st.sampled_from([1e-3, 2.0, math.nextafter(2.0, 3.0), 1e6]),
                       st.floats(1e-3, 1e6)))
    ceiling = guard_ratio_ceiling(p) if p > 2.0 else 1.0
    ratio = st.one_of(
        st.sampled_from(
            [0.0, 5e-324, *near(1.0), *near(ceiling), *near(1.0 / AlphaObjective.margin)]
        ),
        st.floats(0.0, 16.0),
    )
    value = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, *near(1.0)[:2]]),
        st.floats(0.0, 1.0),
    )
    return p, draw(ratio), draw(ratio), draw(value), draw(value)


class TestFloatPath:
    """Single points run the closed forms on Python floats with the float
    kit, builtin max and min; the grids run the same bodies with the array
    kit, numpy's ufuncs."""

    @pytest.mark.parametrize("p", [1e-3, 2.000001, 2.7, 50.0, 5000.0])
    @pytest.mark.parametrize("family", ["poly-two-round", "cp2-mixed", "cp2-both-above"])
    def test_builtin_max_min_match_numpy_scalars(self, family, p, rng):
        f64 = np.float64
        for _ in range(400):
            if family == "poly-two-round":
                v1 = 1.0 - float(rng.random())  # in (0, 1]
                v2 = 1.0 - v1 * float(rng.random())  # v1 + v2 > 1
                on_floats = (_poly_two_round_ratio(p, v1, v2, _FLOAT_KIT),)
                on_numpy = (
                    _poly_two_round_ratio(f64(p), f64(v1), f64(v2), _ARRAY_KIT),
                )
            else:
                mixed = family == "cp2-mixed"
                l1 = 1.0 + float(rng.random())
                # Both-above: lambda2 = 1/mu, mu in (0, 1], as its search samples it.
                l2 = float(rng.random()) if mixed else 1.0 / (1.0 - float(rng.random()))
                on_floats = _cp2_ratio(p, l1, l2, _FLOAT_KIT)
                with np.errstate(all="ignore"):
                    on_numpy = _cp2_ratio(f64(p), f64(l1), f64(l2), _ARRAY_KIT)
            assert all(type(v) is float for v in on_floats)
            assert _bits(on_floats) == _bits(on_numpy), (p, on_floats, on_numpy)

    @settings(max_examples=300, deadline=None)
    @given(_closed_form_points())
    def test_only_typed_errors_escape(self, point):
        p, l1, l2, v1, v2 = point
        calls = [
            lambda: alpha_proportional(v1, v2),
            lambda: alpha_poly_two_round(p, v1, v2),
            lambda: alpha_guarded_cp1(p, l1),
            lambda: alpha_guarded_cp2(p, l1, l2, "mixed"),
            lambda: alpha_guarded_cp2(p, l1, l2, "both_above", slack=0.0),
            lambda: guarded_cp1_instance(p, l1),
            lambda: guarded_cp2_instance(p, l1, l2),
        ]
        for call in calls:
            try:
                out = call()
            except DomainError:  # InfeasibleClosedForm included
                continue
            assert isinstance(out, Instance) or (
                isinstance(out, float) and math.isfinite(out)
            ), out


class TestInstanceRealizations:
    def test_two_round_instance_layout(self):
        inst = two_round_instance(0.9, 0.6)
        assert inst.values == pytest.approx(np.array([[0.9, 0.4], [0.1, 0.6]]))
        with pytest.raises(OutOfRange):
            two_round_instance(1.2, 0.5)

    def test_cp1_construction_trips_exactly_at_round_end(self):
        for p, lam in ((2.7, 1.27764), (3.0, 1.283149), (2.5, 1.2)):
            inst = guarded_cp1_instance(p, lam)
            trace = run_guarded(inst, p)
            event = trace.critical_event
            assert event is not None and event.agent == 0
            assert event.round_index == 0
            assert event.fraction == pytest.approx(1.0, abs=1e-9)
            verdict = audit(inst, trace.allocation)
            assert verdict.ratio == pytest.approx(
                alpha_guarded_cp1(p, lam), abs=1e-9
            )

    def test_cp2_construction_agrees_with_closed_form(self):
        for lam1, lam2, subcase in (
            (1.2, 0.8, "mixed"),
            (1.3362, 0.711757, "mixed"),
            (1.45, 1.7, "both_above"),
        ):
            inst = guarded_cp2_instance(2.7, lam1, lam2)
            trace = run_guarded(inst, 2.7)
            assert trace.critical_event is not None
            verdict = audit(inst, trace.allocation)
            assert verdict.ratio == pytest.approx(
                alpha_guarded_cp2(2.7, lam1, lam2, subcase), abs=1e-9
            )

    def test_cp2_infeasible_point_rejected(self):
        with pytest.raises(InfeasibleClosedForm):
            guarded_cp2_instance(2.7, 1.6, 6.0)

    # 0.0 ** -p raises ZeroDivisionError on floats
    @pytest.mark.parametrize("lam1, lam2", [(1.0, 1.0), (1.5, 0.0), (0.0, 0.5)])
    def test_cp2_singular_point_rejected(self, lam1, lam2):
        with pytest.raises(DomainError, match="singular construction"):
            guarded_cp2_instance(2.7, lam1, lam2)

    @pytest.mark.parametrize("lam1, lam2", [(-1.2, 0.8), (1.2, -0.8)])
    def test_cp2_negative_ratio_rejected(self, lam1, lam2):
        with pytest.raises(DomainError, match="lambda1, lambda2 >= 0"):
            guarded_cp2_instance(2.7, lam1, lam2)

    def test_cp2_round_just_below_zero_is_clipped_for_both_agents(self):
        # v2 comes out at -2.2e-16, inside the ENTRY_TOL slack; agent 2's
        # entry lambda2 * v2 was left negative and failed validation.
        inst = guarded_cp2_instance(1e-3, math.nextafter(1.0, 2.0), 2.0)
        assert inst.values.min() == 0.0


class TestFairShareViolationInstance:
    def test_layout_and_guarantee(self):
        p = 3
        inst = fair_share_violation_instance(p)
        x = (1 / (p - 1)) ** (1 / p)
        assert inst.values[:, 0] == pytest.approx([x, 1 - x])
        assert inst.values[:, 1].tolist() == [1.0, 0.0]
        u = utilities(inst, run_poly(inst, p).allocation)
        assert u[0] == pytest.approx(1 - (p - 1) / p * x, abs=1e-12)
        assert u[0] < 0.5

    def test_boundary_rejected(self):
        with pytest.raises(PNotAboveTwo):
            fair_share_violation_instance(2)
        for p in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite p"):
                fair_share_violation_instance(p)

    def test_p_whose_first_round_rounds_to_one_rejected(self):
        # From about p = 4e17, x = (1/(p-1))**(1/p) is 1.0 in floats, and the
        # instance [[1, 1], [0, 0]] would violate nothing.
        with pytest.raises(DomainError, match="1e\\+18"):
            fair_share_violation_instance(1e18)
        inst = fair_share_violation_instance(1e17)
        assert inst.values[0, 0] < 1.0
        assert utilities(inst, run_poly(inst, 1e17).allocation)[0] < 0.5

    def test_simulated_violation_for_p_four(self):
        inst = fair_share_violation_instance(4)
        u = utilities(inst, run_poly(inst, 4).allocation)
        assert u.min() < 0.5


class TestLowerBound:
    def test_instances(self):
        first, second = lower_bound_instances()
        assert optimal_welfare(first) == pytest.approx(1.141, abs=1e-12)
        assert optimal_welfare(second) == pytest.approx(1.267, abs=1e-12)
        assert first.values[0].tolist() == second.values[0].tolist()

    def test_equal_split_replay(self):
        verdict = replay_lower_bound(algorithm_by_name("equal-split"))
        assert verdict.ratio1 == pytest.approx(1 / 1.141, abs=1e-9)
        assert verdict.ratio2 == pytest.approx(1 / 1.267, abs=1e-9)
        assert not verdict.fair_share_violated

    def test_greedy_replay_violates(self):
        verdict = replay_lower_bound(algorithm_by_name("greedy"))
        assert verdict.fair_share_violated
        assert verdict.ratio1 == pytest.approx(1.0)

    def test_every_builtin_hits_the_bound(self):
        for algorithm in builtin_algorithms():
            verdict = replay_lower_bound(algorithm)
            assert (
                min(verdict.ratio1, verdict.ratio2) <= 0.933 + 1e-6
                or verdict.fair_share_violated
            ), algorithm.name

    def test_guarded_replay_explanation_mentions_region(self):
        verdict = replay_lower_bound(algorithm_by_name("guarded", 2.7))
        assert "x11" in verdict.explanation
        assert min(verdict.ratio1, verdict.ratio2) < 0.933

    def test_proportional_replay_capped_by_simulation(self):
        verdict = replay_lower_bound(algorithm_by_name("proportional"))
        assert not verdict.fair_share_violated
        assert min(verdict.ratio1, verdict.ratio2) < 0.933

    def test_runner_that_looks_ahead_is_flagged(self):
        # Equal split on the two-round branch, greedy on the three-round one:
        # round 1 gets 0.5 and 1.0 of the same item, which no online rule does.
        def runner(instance):
            return run_poly(instance, 0.0 if instance.num_rounds == 2 else GREEDY)

        verdict = replay_lower_bound(runner)
        assert verdict.explanation == (
            "warning: round-1 decisions differ across branches "
            "(0.500000 vs 1.000000); allocator is not online. "
            "x11 = 0.5000 < 0.6977, so branch 1 caps the welfare ratio"
        )


class TestMultiAgent:
    def test_construction_shape_and_totals(self):
        inst = multi_agent_instance(4)
        assert inst.num_rounds == 6 and inst.n == 4
        assert inst.normalized
        assert inst.values[0, 0] == pytest.approx(3 / 4)
        assert inst.values[0, 2] == pytest.approx(3 / 8)
        assert multi_agent_offline_fair_share_opt(4) == pytest.approx(2.5)

    def test_welfare_caps(self):
        phase, final = multi_agent_welfare_caps(4)
        assert phase == pytest.approx(0.875)
        assert final == pytest.approx(1.875)
        _, final9 = multi_agent_welfare_caps(9)
        assert final9 < 3.0

    def test_nine_agents(self):
        inst = multi_agent_instance(9)
        assert inst.num_rounds == 12
        assert multi_agent_offline_fair_share_opt(9) == pytest.approx(8 / 3 + 1)

    def test_rejects_non_squares(self):
        for build in (
            multi_agent_instance,
            multi_agent_offline_fair_share_opt,
            multi_agent_welfare_caps,
        ):
            for n in (0, 1, 2):
                with pytest.raises(OutOfRange, match="n >= 4"):
                    build(n)
            with pytest.raises(NotPerfectSquare):
                build(8)

    def test_proportional_ratio_bound_on_construction(self):
        for n in (4, 9):
            inst = multi_agent_instance(n)
            verdict = audit(inst, run_poly(inst, 1).allocation)
            assert verdict.ratio >= 1 / (2 * math.sqrt(n)) - 1e-9


class TestTruncationAdversary:
    def test_proportional_fails_immediately(self):
        failing = truncation_adversary(algorithm_by_name("proportional"), [[0.3, 0.6]])
        assert failing is not None
        assert failing.values.tolist() == [[0.3, 0.6], [0.0, 0.0]]

    def test_greedy_fails_immediately(self):
        failing = truncation_adversary(algorithm_by_name("greedy"), [[0.4, 0.6]])
        assert failing is not None

    def test_quadratic_fails(self):
        assert truncation_adversary(algorithm_by_name("quadratic"), [[0.3, 0.6]]) is not None

    def test_equal_split_never_fails(self, rng):
        algorithm = algorithm_by_name("equal-split")
        for _ in range(50):
            rounds = int(rng.integers(1, 8))
            n = int(rng.integers(2, 5))
            prefix = rng.uniform(0.0, 2.0, size=(rounds, n))
            assert truncation_adversary(algorithm, prefix) is None

    def test_returned_instance_certifies_the_shortfall(self, rng):
        algorithm = algorithm_by_name("proportional")
        found = 0
        while found < 10:
            prefix = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 6)), 2))
            failing = truncation_adversary(algorithm, prefix)
            if failing is None:
                continue
            found += 1
            trace = algorithm.run(failing)
            u = utilities(failing, trace.allocation)
            totals = failing.column_totals
            assert (u < totals / failing.n - 1e-12).any()
            assert not audit(failing, trace.allocation).fair_share_ok

    def test_shortfall_within_the_audit_tolerance_passes(self):
        # Agent 0 ends 5e-10 below half of the value she has seen: audit
        # accepts that, so the adversary must not report it.
        def short_by_5e_10(instance):
            fractions = np.full(instance.values.shape, 0.5)
            fractions[0] += np.array([-5e-10, 5e-10]) / instance.values[0, 0]
            return RunTrace(
                allocation=validate_allocation(fractions),
                cumulative_utility=np.cumsum(instance.values * fractions, axis=0),
                remaining_value=np.zeros(instance.values.shape),
            )

        prefix = [[0.3, 0.6]]
        assert truncation_adversary(short_by_5e_10, prefix) is None
        padded = validate_instance([[0.3, 0.6], [0.0, 0.0]])
        verdict = audit(padded, short_by_5e_10(padded).allocation)
        assert verdict.fair_share_ok
        assert verdict.fair_share_margin == pytest.approx(-5e-10, abs=1e-15)


class TestSweep:
    def test_named_rows(self):
        rows = sweep_tradeoff_curves([2.0, 2.7, 3.0])
        by_p = {row.p: row for row in rows}
        assert by_p[2.0].no_cp_alpha == pytest.approx(0.894, abs=2e-3)
        assert math.isnan(by_p[2.0].with_cp_alpha)
        assert by_p[2.7].no_cp_alpha == pytest.approx(0.916, abs=2e-3)
        assert by_p[2.7].with_cp_alpha == pytest.approx(0.916, abs=2e-3)
        assert by_p[3.0].with_cp_alpha == pytest.approx(0.904, abs=2e-3)

    def test_rows_keep_input_order(self):
        rows = sweep_tradeoff_curves([2.5, 2.0, 3.0], grid_step=5e-3)
        assert [row.p for row in rows] == [2.5, 2.0, 3.0]
        rows = sweep_tradeoff_curves([2.0, 2.5, 3.0], grid_step=5e-3)
        assert [row.p for row in rows] == [2.0, 2.5, 3.0]

    def test_monotone_curves(self):
        ps = [2.0, 2.2, 2.4, 2.6, 2.7, 2.8, 2.9, 3.0]
        rows = sweep_tradeoff_curves(ps, grid_step=2e-3)
        no_cp = [row.no_cp_alpha for row in rows]
        assert all(a <= b + 1e-9 for a, b in zip(no_cp, no_cp[1:]))
        with_cp = [row.with_cp_alpha for row in rows if row.p >= 2.7]
        assert all(a >= b - 1e-9 for a, b in zip(with_cp, with_cp[1:]))

    def test_rejects_out_of_band_p(self, monkeypatch):
        # The band is every finite p > 0, and every p is checked before the
        # first search: the stacked search and its scan must not start.
        def no_search(*args):
            raise AssertionError("searched before checking every exponent")

        monkeypatch.setattr(adversarial, "_minimize_rows", no_search)
        monkeypatch.setattr(adversarial, "_scan", no_search)
        with pytest.raises(AssertionError, match="searched before"):
            sweep_tradeoff_curves([2.7])  # the sweep does search through them
        for p in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                sweep_tradeoff_curves([2.7, p])

    @pytest.mark.parametrize("grid_step", [1e-3, 5e-3, 1e-2])
    def test_stacked_rows_equal_single_searches(self, monkeypatch, grid_step):
        # Each curve is one stacked search; every row of it must be the
        # search of its objective alone, bit for bit.  The exponents are
        # unsorted and repeated, and the trip curve's rows differ in length:
        # its box is one float wide at the first float above 2, narrower than
        # four margins at 2.000001, and near (1, 2) far above 2.
        ps = [2.7, 0.5, 5000.0, 2.0, 1e6, math.nextafter(2.0, 3.0), 2.000001,
              3.0, 50.0, 1.0, 5.0, 2.7, 0.5]
        stacks = []
        stacked = adversarial._minimize_rows

        def spy(objectives, *args):
            outcomes = stacked(objectives, *args)
            stacks.append(list(zip(objectives, outcomes)))
            return outcomes

        monkeypatch.setattr(adversarial, "_minimize_rows", spy)
        rows = sweep_tradeoff_curves(ps, grid_step)
        assert len(stacks) == 2 and len(stacks[0]) == len(ps)
        assert [objective.p for objective, _ in stacks[1]] == [p for p in ps if p > 2.0]
        for objective, outcome in stacks[0] + stacks[1]:
            alone = minimize_alpha(objective, grid_step)
            assert outcome.value == alone.value, objective.p
            assert outcome.argmin == alone.argmin, objective.p
            assert outcome.evaluations == alone.evaluations, objective.p
            assert outcome.refined == alone.refined, objective.p
            assert outcome == alone, objective.p
        trips = {objective.p: outcome for objective, outcome in stacks[1]}
        for p, row, (_, no_cp) in zip(ps, rows, stacks[0]):
            assert row.p == p and row.no_cp_alpha == no_cp.value
            if p > 2.0:
                assert row.with_cp_alpha == trips[p].value
            else:
                assert math.isnan(row.with_cp_alpha)

    def test_stacked_blocks_stay_within_budget(self, monkeypatch):
        # The analysis sweep's 101 exponents and one far above: each curve
        # scans whole rows at once, within each worker's share of the block
        # budget, in a few dozen scans where one search per exponent took
        # about 2,000.  Every grid call on arrays is recorded: a block of
        # several rows, with the exponents as a column, and a block of one
        # row or a row at p = 2 evaluated on its own, with a float.  The trip
        # family's body also runs on floats, at each argmin; those calls are
        # not blocks.  Two workers record the grid's blocks in either order.
        shapes = []

        def recorded(grid):
            def record(p, *coords):
                if isinstance(coords[0], np.ndarray):
                    shapes.append(np.broadcast_shapes(*(c.shape for c in coords)))
                    assert np.ndim(p) == 0 or p.shape == shapes[-1][:1] + (1,)
                return grid(p, *coords)

            return record

        for name in ("_diagonal_grid", "_cp1_ratio"):
            monkeypatch.setattr(adversarial, name, recorded(getattr(adversarial, name)))
        for workers, blocks in ((1, [(102, 501)]), (2, [(65, 501), (37, 501)])):
            monkeypatch.setattr(adversarial, "_SCAN_WORKERS", workers)
            shapes.clear()
            sweep_tradeoff_curves([round(2.0 + 0.01 * k, 2) for k in range(101)] + [5000.0])
            assert max(math.prod(shape) for shape in shapes) <= _GRID_BLOCK_POINTS // workers
            # The first scan is the no-trip curve's grid: 102 rows of 501
            # points in blocks of whole rows, and the row at p = 2 on its own.
            grid_calls = shapes[: len(blocks) + 1]
            assert sorted(s for s in grid_calls if len(s) == 2) == sorted(blocks)
            assert [s for s in grid_calls if len(s) == 1] == [(501,)]
            assert len(shapes) < 50

    def test_grid_too_fine_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="grid_step"):
            sweep_tradeoff_curves([2.7], grid_step=1e-300)

    def test_exponents_outside_two_to_three(self):
        rows = sweep_tradeoff_curves([0.5, 1.0, 5.0, 50.0, 5000.0])
        by_p = {row.p: row for row in rows}
        assert by_p[0.5].no_cp_alpha == pytest.approx(0.75, abs=1e-9)
        assert math.isnan(by_p[0.5].with_cp_alpha) and math.isnan(by_p[1.0].with_cp_alpha)
        assert by_p[5.0].with_cp_alpha == pytest.approx(0.84158, abs=1e-5)
        assert by_p[5000.0].with_cp_alpha == pytest.approx(0.66727, abs=1e-5)
        assert all(0.0 < row.no_cp_alpha <= 1.0 for row in rows)

    def test_rounded_trip_instances_do_not_trip(self):
        # The two-decimal instances associated with the trip curve land just
        # on the no-trip side of the guard for p >= 2.8 (the trip condition is
        # razor thin there), so simulating them overshoots the curve by a few
        # percent.  This pins the reason the sweep reports the closed-form
        # bound instead of replaying those instances.
        from roundfair import three_round_cp

        for p, v11, v21, curve in (
            (2.8, 0.75, 0.96, 0.912),
            (2.9, 0.74, 0.95, 0.908),
            (3.0, 0.73, 0.94, 0.904),
        ):
            inst = three_round_cp(v11, v21, 1e-6)
            trace = run_guarded(inst, p)
            assert trace.critical_event is None
            ratio = audit(inst, trace.allocation).ratio
            assert ratio > curve + 0.01
            exact = minimize_alpha(guarded_cp1_objective(p), 1e-3).value
            assert exact == pytest.approx(curve, abs=2e-3)


#: Each closed-form family with the exponents its stack is tested at: the
#: two-round families below, at and above 2, the trip families from the
#: first float above 2 up.  The proportional rule's ratio takes no exponent,
#: so its rows differ only in the one its grid is handed.
_TWO_ROUND_P = (0.5, 1.0, 2.0, 2.7, 5000.0)
_TRIP_P = (math.nextafter(2.0, 3.0), 2.000001, 2.7, 3.0, 50.0)
_FAMILIES = {
    "proportional": (lambda p: dataclasses.replace(proportional_objective(), p=p), _TWO_ROUND_P),
    "poly-two-round": (poly_two_round_objective, _TWO_ROUND_P),
    "poly-two-round-diagonal": (poly_two_round_diagonal_objective, _TWO_ROUND_P),
    "guarded-cp1": (guarded_cp1_objective, _TRIP_P),
    "guarded-cp2-mixed": (lambda p: guarded_cp2_objective(p, "mixed"), _TRIP_P),
    "guarded-cp2-both-above": (lambda p: guarded_cp2_objective(p, "both_above"), _TRIP_P),
}


def _cp2_ratio_by_region(p, lambda1, lambda2, mixed, maximum):
    """The trip-at-round-2 body with its optimum written out per region:
    ``2 - v1 - v2 lambda2`` in the mixed region, ``2 - v1 - v2`` where both
    ratios exceed 1."""
    m2 = maximum(1.0, lambda2)
    a = lambda1**-p
    b = m2**-p
    c = (lambda2 / m2) ** p
    d = c / lambda2
    den = b + c - d * (lambda1 * (a + 1.0))
    v1 = (b + c - 2.0 * d) * (0.5 * (a + 1.0)) / den
    v2 = (1.0 - v1 * lambda1) / lambda2
    v3 = 1.0 - v1 - v2
    alg = 0.5 + v1 * (lambda1 / (1.0 + a)) + v2 * (lambda2 * c / (b + c))
    opt = 2.0 - v1 - v2 * lambda2 if mixed else 2.0 - v1 - v2
    return alg / opt, v1, v2, v3, den


class TestEveryFamilyStacks:
    @pytest.mark.parametrize("grid_step", [5e-3, 2e-2])
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_stacked_rows_equal_single_searches(self, family, grid_step, rng):
        # Objectives sharing a grid stack into one search, whatever the
        # family; each row must be its own search, bit for bit, or raise
        # what that search raises.
        build, ps = _FAMILIES[family]
        objectives = [build(p) for p in ps]
        outcomes = adversarial._minimize_rows(objectives, grid_step)
        assert len(outcomes) == len(objectives)
        for objective, outcome in zip(objectives, outcomes):
            try:
                alone = minimize_alpha(objective, grid_step)
            except (DomainError, EmptyDomain) as exc:
                assert type(outcome) is type(exc), objective.p
                assert str(outcome) == str(exc), objective.p
                continue
            assert outcome == alone, objective.p
        if not family.startswith("guarded-cp2"):
            return
        # One body serves both regions: its optimum 2 - v1 - v2 r2 equals the
        # per-region one bit for bit, on floats and on arrays, at one
        # exponent and at a column of them.
        mixed = family == "guarded-cp2-mixed"
        for objective in objectives:
            (lo1, hi1), (lo2, hi2) = objective.bounds
            l1 = rng.uniform(lo1, hi1, 200)
            # The both-above box is in mu = 1/lambda2.
            l2 = rng.uniform(lo2, hi2, 200) if mixed else 1.0 / rng.uniform(lo2, hi2, 200)
            p = objective.p
            for x, y in zip(l1.tolist(), l2.tolist()):
                assert _bits(_cp2_ratio(p, x, y, _FLOAT_KIT)) == _bits(
                    _cp2_ratio_by_region(p, x, y, mixed, max)
                ), (p, x, y)
            with np.errstate(all="ignore"):
                got = _cp2_ratio(p, l1, l2, _ARRAY_KIT)
                want = _cp2_ratio_by_region(p, l1, l2, mixed, np.maximum)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], p
        # A stack hands the body a column of exponents; here against the
        # last box's points.
        column = np.array(_TRIP_P)[:, None]
        with np.errstate(all="ignore"):
            got = _cp2_ratio(column, l1, l2, _ARRAY_KIT)
            want = _cp2_ratio_by_region(column, l1, l2, mixed, np.maximum)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class TestTwoRoundSymmetry:
    """The two-round scans skip the half of each grid below its diagonal.
    That is exact only because each family's grid is its own transpose, bit
    for bit and NaN for NaN: of two twin points the one above the diagonal
    comes first in row-major order."""

    @pytest.mark.parametrize("grid_step", [adversarial.GRID_STEP, 0.013])
    @pytest.mark.parametrize("p", _TWO_ROUND_P)
    @pytest.mark.parametrize(
        "grid", [adversarial._proportional_grid, adversarial._poly_two_round_grid],
        ids=["proportional", "poly-two-round"],
    )
    def test_grid_is_its_own_transpose(self, grid, p, grid_step):
        ax = adversarial._grid_axis(proportional_objective(), 0.0, 1.0, grid_step)[0]
        if grid_step == 0.013:  # the appended stop is nearer its neighbour than a step
            assert ax[-1] - ax[-2] < grid_step
        with np.errstate(all="ignore"):
            allocated = grid(p, ax[:, None], ax[None, :]).copy()
            adversarial._scan_local.kit = adversarial._Workspace()
            try:
                in_workspace = grid(p, ax[:, None], ax[None, :]).copy()
            finally:
                del adversarial._scan_local.kit
        assert np.isnan(allocated).any() and not np.isnan(allocated).all()
        for bits in (allocated.view(np.uint64), in_workspace.view(np.uint64)):
            assert (bits == bits.T).all()
        assert (allocated.view(np.uint64) == in_workspace.view(np.uint64)).all()


class TestObjectiveByName:
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_proportional_rejects_p(self, p):
        # Its exponent is fixed at 1: `search --objective proportional --p 3`
        # once searched p = 1 and exited 0.
        with pytest.raises(DomainError, match="takes no --p"):
            adversarial.objective_by_name("proportional", p)


class TestObjectiveRange:
    def test_interior_values_lie_in_unit_interval(self, rng):
        objectives = [
            proportional_objective(),
            poly_two_round_objective(2.0),
            poly_two_round_diagonal_objective(2.7),
            guarded_cp1_objective(2.7),
            guarded_cp2_objective(2.7, "mixed"),
            guarded_cp2_objective(2.7, "both_above"),
        ]
        for objective in objectives:
            seen = 0
            attempts = 0
            while seen < 50:
                attempts += 1
                assert attempts < 5000
                point = tuple(
                    rng.uniform(lo + 1e-3, hi - 1e-3) for lo, hi in objective.bounds
                )
                try:
                    value = objective.evaluate(point)
                except DomainError:
                    continue
                assert 0.0 < value <= 1.0 + 1e-12, (objective.name, point, value)
                seen += 1


class TestOracleAgreementSmoke:
    def test_two_round_families(self, rng):
        for _ in range(50):
            v1 = rng.uniform(0.55, 0.999)
            v2 = rng.uniform(max(0.55, 1.001 - v1), 0.999)
            inst = two_round_instance(v1, v2)
            prop = audit(inst, run_poly(inst, 1).allocation).ratio
            assert alpha_proportional(v1, v2) == pytest.approx(prop, abs=1e-9)
            quad = audit(inst, run_poly(inst, 2).allocation).ratio
            assert alpha_poly_two_round(2, v1, v2) == pytest.approx(quad, abs=1e-9)
