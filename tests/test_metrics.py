import math
import sys
import warnings

import numpy as np
import pytest

from roundfair import (
    GREEDY,
    Allocation,
    RunTrace,
    audit,
    builtin_algorithms,
    doomsday_compatible,
    doomsday_trace,
    doomsday_witness,
    fair_share_violation_instance,
    lower_bound_instances,
    multi_agent_instance,
    multi_agent_offline_fair_share_opt,
    offline_fair_share_welfare,
    optimal_welfare,
    run_guarded,
    run_poly,
    two_round_instance,
    utilities,
    validate_allocation,
    validate_instance,
)
from roundfair.errors import DimensionMismatch, OutOfRange, ShapeMismatch, ValidationError
from roundfair import core
from roundfair.core import DEFAULT_TOL
from roundfair.metrics import fair_share
from conftest import (
    dense_fair_share_lp,
    doomsday_maintained,
    late_trip_values,
    random_instance,
    random_instances,
)


ORTHOGONAL = validate_instance([[1, 0], [0, 1]])
EQUAL_SPLIT = validate_allocation([[0.5, 0.5], [0.5, 0.5]])


class TestUtilities:
    def test_orthogonal_equal_split(self):
        assert utilities(ORTHOGONAL, EQUAL_SPLIT).tolist() == [0.5, 0.5]

    def test_zero_allocation(self):
        zero = validate_allocation(np.zeros((2, 2)))
        assert utilities(ORTHOGONAL, zero).tolist() == [0.0, 0.0]

    def test_proportional_worst_case_run(self):
        v = 1 / math.sqrt(2)
        inst = two_round_instance(v, v)
        u = utilities(inst, run_poly(inst, 1).allocation)
        # independent route: per-round closed form v * (1 + lam^2) / (1 + lam)
        lam1 = (1 - v) / v
        expected = v * (1 + lam1**2) / (1 + lam1) + (1 - v) * (
            1 + (v / (1 - v)) ** 2
        ) / (1 + v / (1 - v))
        assert u.sum() == pytest.approx(expected, abs=1e-12)
        assert u == pytest.approx([0.5857864376269051] * 2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            utilities(ORTHOGONAL, validate_allocation(np.zeros((3, 2))))


class TestOptimalWelfare:
    def test_orthogonal(self):
        assert optimal_welfare(ORTHOGONAL) == 2.0

    def test_symmetric_dominant_diagonal(self):
        for v in (0.5, 0.626, 0.9):
            assert optimal_welfare(two_round_instance(v, v)) == pytest.approx(2 * v)

    def test_lower_bound_branch_one(self):
        first, _ = lower_bound_instances()
        assert optimal_welfare(first) == pytest.approx(1.141, abs=1e-12)


class TestAudit:
    def test_equal_split_on_orthogonal(self):
        verdict = audit(ORTHOGONAL, EQUAL_SPLIT, 1e-9)
        assert verdict.ratio == pytest.approx(0.5)
        assert verdict.fair_share_ok
        assert verdict.envy_free_ok
        assert verdict.social_welfare == pytest.approx(sum(verdict.utilities))

    def test_greedy_can_fail_fair_share(self):
        inst = validate_instance([[0.3, 0.4], [0.7, 0.6]], require_normalized=True)
        trace = run_poly(inst, GREEDY)
        verdict = audit(inst, trace.allocation, 1e-9)
        assert verdict.utilities == pytest.approx([0.7, 0.4])
        assert not verdict.fair_share_ok
        assert verdict.fair_share_margin == pytest.approx(-0.1)

    def test_greedy_on_lopsided_rounds(self):
        x = 0.3
        inst = validate_instance([[x, 1.0], [1 - x, 0.0]], require_normalized=True)
        verdict = audit(inst, run_poly(inst, GREEDY).allocation, 1e-9)
        assert verdict.utilities == pytest.approx([1 - x, 1.0])
        assert verdict.ratio == pytest.approx(1.0)

    def test_proportional_is_envy_free_on_randoms(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            verdict = audit(inst, run_poly(inst, 1).allocation, 1e-9)
            assert verdict.envy_free_ok

    def test_partial_allocation_hides_envy_flag(self):
        partial = validate_allocation([[0.5, 0.25], [0.5, 0.5]])
        verdict = audit(ORTHOGONAL, partial, 1e-9)
        assert verdict.envy_free_ok is None
        assert verdict.envy_margin is None

    def test_ratio_never_exceeds_one(self, rng):
        for _ in range(100):
            inst = random_instance(rng, n=3)
            fractions = rng.dirichlet(np.ones(4), size=inst.num_rounds)[:, :3]
            verdict = audit(inst, validate_allocation(fractions), 1e-9)
            assert 0.0 <= verdict.ratio <= 1.0 + 1e-9

    @staticmethod
    def _loop_audit(values, fractions, tol):
        """Full allocation, envy-freeness and envy margin, one entry at a time."""
        T, n = len(values), len(values[0])
        if not all(abs(sum(row) - 1.0) <= tol for row in fractions):
            return False, None, None
        bundle = [
            [sum(values[t][i] * fractions[t][j] for t in range(T)) for j in range(n)]
            for i in range(n)
        ]
        margin = min(bundle[i][i] - bundle[i][j] for i in range(n) for j in range(n))
        return True, margin >= -tol, margin

    @pytest.mark.parametrize("offset", [0.0, 1.0, -1.0, 2.0, -2.0, -2.5e8])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_row_sums_at_the_tolerance_match_a_loop(self, offset, step):
        # Round 1's shares sum to the float at 1 + offset * tol, or one ulp
        # either side; -2.5e8 tol leaves it a quarter short, a partial round.
        # Sums above 1 + tol are ones validate_allocation rejects, so the
        # matrix is wrapped as it is.
        tol = DEFAULT_TOL
        total = 1.0 + offset * tol
        if step:
            total = float(np.nextafter(total, step * np.inf))
        values = [[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]]
        for first in (0.25, 0.9):  # at 0.9 agent 1 envies agent 0's bundle
            rows = [[first, 1.0 - first], [0.25, total - 0.25], [0.5, 0.5]]
            assert sum(rows[1]) == total
            allocation = Allocation(fractions=np.asfortranarray(rows))
            verdict = audit(validate_instance(values), allocation, tol)
            full, envy_free, margin = self._loop_audit(values, rows, tol)
            assert (verdict.envy_free_ok is not None) == full
            assert verdict.envy_free_ok == envy_free
            if full:
                assert verdict.envy_margin == pytest.approx(margin, abs=1e-15)
            else:
                assert verdict.envy_margin is None

    def test_envy_freeness_implies_fair_share_when_full(self, rng):
        for p in (0, 1, 2):
            for _ in range(50):
                inst = random_instance(rng)
                verdict = audit(inst, run_poly(inst, p).allocation, 1e-9)
                if verdict.envy_free_ok:
                    assert verdict.fair_share_margin >= -1e-9


class TestFairShareTarget:
    """Fair-share is each agent's own total over n, so scale does not matter."""

    UNNORMALIZED = validate_instance([[0.05, 0.05], [0.05, 0.05]])
    LOPSIDED = validate_instance([[0.3, 0.05], [0.1, 0.05]])
    CROSSED = validate_allocation([[0.0, 1.0], [1.0, 0.0]])

    def test_target_is_own_total_over_n(self, rng):
        assert fair_share(self.LOPSIDED).tolist() == [0.2, 0.05]
        inst = random_instance(rng, n=3)
        assert fair_share(inst) == pytest.approx(np.full(3, 1 / 3), abs=1e-15)

    def test_target_is_a_new_array_each_call(self):
        first = fair_share(self.LOPSIDED)
        second = fair_share(self.LOPSIDED)
        assert first is not second and first.flags.writeable
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, self.LOPSIDED.column_totals)
        first[:] = -1.0
        assert fair_share(self.LOPSIDED).tolist() == [0.2, 0.05]

    def test_equal_split_of_unnormalized_instance_is_fair(self):
        verdict = audit(self.UNNORMALIZED, EQUAL_SPLIT)
        assert verdict.fair_share_ok and verdict.envy_free_ok
        assert verdict.fair_share_margin == 0.0
        trace = run_poly(self.UNNORMALIZED, 0)
        assert doomsday_trace(self.UNNORMALIZED, trace) == [True, True]

    def test_unnormalized_shortfall_is_measured_against_own_total(self):
        verdict = audit(self.LOPSIDED, self.CROSSED)
        assert not verdict.fair_share_ok
        # agent 0 gets 0.1 of her 0.2 target; agent 1 gets exactly her 0.05
        assert verdict.fair_share_margin == pytest.approx(-0.1)
        trace = RunTrace(
            allocation=self.CROSSED,
            cumulative_utility=np.array([[0.0, 0.05], [0.1, 0.05]]),
            remaining_value=np.array([[0.1, 0.05], [0.0, 0.0]]),
        )
        assert doomsday_trace(self.LOPSIDED, trace) == [False, False]


class TestPoolWorkCounts:
    """A pool operation runs a rule, audits the allocation and traces the
    doomsday test.  The instance stores its fair-share target and the
    allocation its round sums, so none of the three recomputes either."""

    @staticmethod
    def _calls(fn, *args):
        """``fn(*args)`` and the calls it made: Python functions by code
        object, numpy's add-reductions and ``sum`` methods by the name of the
        function that made them."""
        functions, sums = [], []

        def profile(frame, event, arg):
            if event == "call":
                functions.append(frame.f_code)
            elif event == "c_call":
                name = getattr(arg, "__name__", None)
                if name == "sum" or (name == "reduce" and getattr(arg, "__self__", None) is np.add):
                    sums.append((frame.f_code.co_name, name))

        sys.setprofile(profile)
        try:
            out = fn(*args)
        finally:
            sys.setprofile(None)
        return out, functions, sums

    @pytest.mark.parametrize("n", [2, 5])
    def test_no_operation_divides_the_totals_again(self, n):
        rules = [a for a in builtin_algorithms() if n == 2 or not a.guarded]
        for inst in random_instances(28, 10, n=n):
            for rule in rules:
                trace, functions, _ = self._calls(rule.run, inst)
                _, more, _ = self._calls(audit, inst, trace.allocation)
                functions += more
                _, more, _ = self._calls(doomsday_trace, inst, trace)
                functions += more
                assert core.fair_share.__code__ not in functions, rule.name

    def test_audit_reads_the_allocations_round_sums(self):
        # Two sums remain: each agent's utility over the rounds, in
        # ``utilities``, and the welfare over the agents, in ``audit``.
        for n in (2, 5):
            for inst in random_instances(29, 10, n=n):
                for rule in builtin_algorithms():
                    if rule.guarded and n != 2:
                        continue
                    allocation = rule.run(inst).allocation
                    _, _, sums = self._calls(audit, inst, allocation)
                    assert sums == [("utilities", "reduce"), ("audit", "reduce")], rule.name


class TestToleranceIsChecked:
    """A tol that is NaN, infinite or negative is rejected: NaN failed every
    comparison, so an exact equal split read as unfair, and inf accepted
    anything, a stranded state included.  A tol of 0 asks for no slack."""

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejected_by_every_check(self, tol):
        trace = run_poly(ORTHOGONAL, 0.0)
        calls = [
            lambda: audit(ORTHOGONAL, EQUAL_SPLIT, tol),
            lambda: doomsday_trace(ORTHOGONAL, trace, tol),
            lambda: doomsday_compatible([0.0, 0.0], [0.0, 0.0], tol=tol),
            lambda: doomsday_witness([0.5, 0.5], [0.5, 0.5], tol=tol),
        ]
        for call in calls:
            with pytest.raises(OutOfRange, match="tol must be finite and nonnegative"):
                call()

    def test_zero_asks_for_no_slack(self):
        verdict = audit(ORTHOGONAL, EQUAL_SPLIT, 0.0)
        assert verdict.fair_share_ok and verdict.envy_free_ok
        assert verdict.tolerance == 0.0
        assert doomsday_trace(ORTHOGONAL, run_poly(ORTHOGONAL, 0.0), 0.0) == [True, True]
        assert doomsday_compatible([0.5, 0.5], [0.0, 0.0], tol=0.0)
        assert not doomsday_compatible([0.5 - 1e-12, 0.5], [0.0, 0.0], tol=0.0)
        assert doomsday_witness([0.25, 0.5], [0.5, 0.5], tol=0.0).tolist() == [0.5, 0.0]


class TestDoomsdayCompatible:
    def test_no_deficit(self):
        assert doomsday_compatible([0.5, 0.5], [0.2, 0.9])

    def test_unreachable_deficit(self):
        assert not doomsday_compatible([0.0, 0.0], [0.4, 0.9])

    def test_joint_deficits_fit(self):
        # minimal shares 0.2/0.4 + 0.3/0.8 = 0.875 <= 1
        assert doomsday_compatible([0.3, 0.2], [0.4, 0.8])

    def test_deficit_with_nothing_left(self):
        assert not doomsday_compatible([0.4, 0.6], [0.0, 0.1])
        assert doomsday_compatible([0.5 - 1e-12, 0.6], [0.0, 0.1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            doomsday_compatible([0.5, 0.5, 0.5], [0.1, 0.1])

    @pytest.mark.parametrize("function", [doomsday_compatible, doomsday_witness])
    @pytest.mark.parametrize(
        "state", [([], []), ([[0.5, 0.5]], [[0.1, 0.1]]), (0.5, 0.1)], ids=["empty", "2d", "0d"]
    )
    def test_state_must_be_one_nonempty_vector_each(self, function, state):
        # The agent count is the vectors' length; an empty state once
        # divided by n = 0.
        with pytest.raises(DimensionMismatch):
            function(*state)

    @pytest.mark.parametrize("function", [doomsday_compatible, doomsday_witness])
    def test_tol_is_keyword_only(self, function):
        # A call that still passes the agent count must not read it as tol.
        with pytest.raises(TypeError):
            function([0.5, 0.5], [0.1, 0.1], 2)

    @pytest.mark.parametrize("function", [doomsday_compatible, doomsday_witness])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("argument", [0, 1])
    def test_non_finite_state_is_rejected(self, function, bad, argument):
        # A nan remaining value once counted as nothing left to come, so
        # ([nan, 0.5], [0.0, 0.5]) was called compatible.
        state = [[0.0, 0.5], [0.5, 0.5]]
        state[argument][0] = bad
        with pytest.raises(ValidationError, match="finite"):
            function(*state)

    def test_slack_is_on_the_utility_scale(self):
        # The deficit exceeds the small remainder by roundoff only: a last
        # round lifts agent 0 to within tol of 1/2, which fair-share accepts.
        rem = 1e-5
        assert doomsday_compatible([0.5 - rem * (1 + 2e-9), 0.6], [rem, 0.1], tol=1e-9)
        # Short by more than tol on the utility scale fails, however small.
        assert not doomsday_compatible([0.5 - rem - 2e-9, 0.6], [rem, 0.1], tol=1e-9)
        # No second slack on the share sum: a lone share of 1 + 5e-10 fails.
        rem = (0.5 - 1e-9) / (1 + 5e-10)
        assert not doomsday_compatible([0.0, 0.6], [rem, 0.1], tol=1e-9)
        assert doomsday_compatible([0.0, 0.6], [rem * (1 + 1e-9), 0.1], tol=1e-9)

    def test_matches_grid_oracle(self, rng):
        # exhaustive one-round allocations at resolution 1/4000 for n = 2
        grid = np.linspace(0.0, 1.0, 4001)
        for _ in range(300):
            u = rng.uniform(0.0, 0.7, size=2)
            rem = rng.uniform(0.0, 1.0, size=2)
            margins = np.minimum(
                u[0] + rem[0] * grid - 0.5, u[1] + rem[1] * (1 - grid) - 0.5
            )
            oracle_ok = bool(margins.max() >= 0)
            # skip states the grid cannot settle
            if abs(margins.max()) < 1e-3:
                continue
            assert doomsday_compatible(u, rem, tol=1e-9) == oracle_ok, (u, rem)

    def test_matches_lp_oracle_for_many_agents(self, rng):
        # independent route: feasibility LP over one-round rescue shares
        from scipy.optimize import linprog

        for n in (3, 5):
            for _ in range(100):
                u = rng.uniform(0.0, 2.0 / n, size=n)
                rem = rng.uniform(0.0, 1.0, size=n)
                res = linprog(
                    np.zeros(n),
                    A_ub=np.vstack([np.ones((1, n)), -np.diag(rem)]),
                    b_ub=np.concatenate([[1.0], u - 1.0 / n]),
                    bounds=(0.0, 1.0),
                    method="highs",
                )
                closed = doomsday_compatible(u, rem, tol=1e-9)
                if res.status not in (0, 2):
                    continue
                oracle_ok = res.status == 0
                if closed != oracle_ok:
                    # tolerate only genuine boundary states
                    deficits = np.maximum(0.0, 1.0 / n - u)
                    with np.errstate(divide="ignore"):
                        load = np.where(deficits > 0, deficits / rem, 0.0).sum()
                    assert abs(load - 1.0) < 1e-6, (u, rem)


#: (utilities so far, remaining values, compatible) at the kernel's edges:
#: agent 0 has nothing left, a roundoff below nothing or a subnormal rest,
#: and needs no share (0.5), lacks 0.1 (0.4) or lacks just over tol.  The
#: last state, with a positive rest, is the plain case.
DOOMSDAY_EDGES = {
    "zero-rest-no-need": ([0.5, 0.6], [0.0, 0.1], True),
    "zero-rest-need": ([0.4, 0.6], [0.0, 0.1], False),
    "zero-rests-no-need": ([0.5, 0.5], [0.0, 0.0], True),
    "below-zero-no-need": ([0.5, 0.6], [-1e-17, 0.1], True),
    "below-zero-need": ([0.4, 0.6], [-1e-17, 0.1], False),
    "subnormal-no-need": ([0.5, 0.6], [1e-310, 0.1], True),
    "subnormal-need": ([0.4, 0.6], [1e-310, 0.1], False),
    "least-subnormal-need": ([0.5 - 2e-9, 0.6], [5e-324, 0.1], False),
    "positive-rest-need": ([0.4, 0.6], [0.2, 0.1], True),
}


class TestDoomsdayEdges:
    """Each edge of the doomsday kernel, one state at a time and stacked as
    a trace, with no RuntimeWarning."""

    @pytest.mark.parametrize("name", sorted(DOOMSDAY_EDGES))
    def test_one_state(self, name):
        u, rem, compatible = DOOMSDAY_EDGES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert doomsday_compatible(u, rem) is compatible

    def test_stacked_as_a_trace(self):
        states = list(DOOMSDAY_EDGES.values())
        T = len(states)
        # Totals of exactly 1, so the fair-share target is exactly 1/2.
        values = np.zeros((T, 2))
        values[0] = 1.0
        trace = RunTrace(
            allocation=validate_allocation(np.full((T, 2), 0.5)),
            cumulative_utility=np.array([u for u, _, _ in states], order="F"),
            remaining_value=np.array([rem for _, rem, _ in states], order="F"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = doomsday_trace(validate_instance(values), trace)
        assert flags == [compatible for _, _, compatible in states]

    def test_overflowing_total(self):
        # Finite entries whose column total overflows: agent 0's target and
        # first remainder are inf, so her share is inf over inf, and her next
        # remainder is inf - inf.  Both states fail, quietly.
        # validate_instance rejects these values, so the instance is built
        # directly, with the fields it would have stored.
        values = np.array([[1e308, 0.5], [1e308, 0.5]], order="F")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            totals = np.add.reduce(values)
            inst = core.Instance(
                values=values,
                column_totals=totals,
                fair_share=totals / 2,
                remaining_value=totals - np.add.accumulate(values),
                optimal_welfare=float(np.add.reduce(values.max(axis=1))),
                normalized=False,
            )
        assert np.isinf(inst.remaining_value[0, 0]) and np.isnan(inst.remaining_value[1, 0])
        trace = RunTrace(
            allocation=validate_allocation(np.full((2, 2), 0.5)),
            cumulative_utility=np.array([[0.5e308, 0.25], [1e308, 0.5]], order="F"),
            remaining_value=inst.remaining_value,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert doomsday_trace(inst, trace) == [False, False]


class TestDoomsdayTrace:
    def test_equal_split_always_compatible(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            trace = run_poly(inst, 0)
            assert all(doomsday_trace(inst, trace, 1e-9))

    def test_violating_run_has_incompatible_round(self):
        inst = fair_share_violation_instance(3)
        trace = run_poly(inst, 3)
        assert not all(doomsday_trace(inst, trace, 1e-9))

    def test_guarded_runs_always_compatible(self, rng):
        for p in (1.0, 2.7, 5.0):
            for _ in range(30):
                inst = random_instance(rng)
                trace = run_guarded(inst, p)
                assert all(doomsday_trace(inst, trace, 1e-9))

    def test_shape_mismatch(self, rng):
        inst = random_instance(rng, min_rounds=3, max_rounds=3)
        other = random_instance(rng, min_rounds=4, max_rounds=4)
        with pytest.raises(ShapeMismatch):
            doomsday_trace(other, run_poly(inst, 1), 1e-9)

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3), (1, 2)])
    def test_remaining_value_shape_mismatch(self, shape):
        # A (2,) remainder would broadcast over both rounds and read
        # [False, True] where the run's own state gives [True, True]; a (3, 2)
        # one would fail inside numpy.  Both are a trace of another instance.
        inst = validate_instance([[0.5, 0.5], [0.5, 0.5]])
        trace = run_poly(inst, 1.0)
        assert doomsday_trace(inst, trace) == [True, True]
        forged = RunTrace(
            allocation=trace.allocation,
            cumulative_utility=trace.cumulative_utility,
            remaining_value=np.zeros(shape),
        )
        with pytest.raises(ShapeMismatch, match="trace does not match this instance"):
            doomsday_trace(inst, forged)

    @pytest.mark.parametrize("seed", [9, 19, 20])
    def test_late_trip_on_long_horizon_stays_compatible(self, seed):
        # The tripped agent ends a hair below 1/2 from cumsum roundoff, and
        # late in the run that deficit rivals the agent's ~1e-5 remaining value.
        values = late_trip_values(np.random.default_rng(seed), 100_000)
        inst = validate_instance(values, require_normalized=True)
        trace = run_guarded(inst, 2.7)
        assert trace.critical_event is not None
        assert trace.cumulative_utility[-1].min() == pytest.approx(0.5, abs=1e-12)
        assert all(doomsday_trace(inst, trace, 1e-9))

    @pytest.mark.parametrize("n", [2, 3, 5, 25])
    def test_trace_agrees_with_scalar_test_and_loop(self, rng, n):
        tol = 1e-9
        T = 400
        inst = validate_instance(rng.dirichlet(np.ones(T), size=n).T)
        remaining = rng.uniform(0.01, 1.0, size=(T, n))
        # Real deficits whose minimal shares sum to about 0.5-2 per state,
        # mixed with agents above 1/n and deficits within +-2 tol.
        scale = rng.uniform(0.5, 2.0, size=(T, 1))
        deficit = rng.dirichlet(np.ones(n), size=T) * scale * remaining
        deficit[rng.random((T, n)) < 0.2] = -0.1
        near = rng.random((T, n)) < 0.2
        deficit[near] = rng.uniform(-2 * tol, 2 * tol, size=near.sum())
        # Every fourth state has one agent with nothing left to come.
        remaining[::4, 0] = 0.0
        # Odd states put the last agent on the kernel's edge cases, with and
        # without need: the roundoff below zero that ``totals - cumsum`` can
        # leave, an exact zero with no need at all (0/0 in the kernel), and
        # subnormal remainders, over which a need overflows to inf.
        remaining[1::8, -1] = -1e-17
        remaining[3::8, -1] = 0.0
        deficit[3::16, -1] = 0.0
        remaining[5::8, -1] = 1e-310
        remaining[7::8, -1] = 5e-324
        deficit[7::16, -1] = 0.0
        trace = RunTrace(
            allocation=validate_allocation(np.full((T, n), 1.0 / n)),
            cumulative_utility=1.0 / n - deficit,
            remaining_value=remaining,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flags = doomsday_trace(inst, trace, tol)
        assert len(flags) == T and set(flags) <= {True, False}
        for t in range(T):
            u, rem = trace.cumulative_utility[t], remaining[t]
            assert flags[t] == doomsday_compatible(u, rem, tol=tol)
            # reference: the closed form as a loop over agents
            load, stranded = 0.0, False
            for d, r in zip((1.0 / n - u).tolist(), rem.tolist()):
                if d > tol:
                    stranded |= r <= 0.0
                    load += (d - tol) / r if r > 0.0 else 0.0
            if abs(load - 1.0) > 1e-12:
                assert flags[t] == (not stranded and load <= 1.0), (t, u, rem)
        assert 0 < sum(flags) < T


class TestDoomsdayMaintenance:
    def test_witness_shares_are_minimal_and_feasible(self):
        witness = doomsday_witness([0.3, 0.2], [0.4, 0.8])
        assert witness == pytest.approx([0.5, 0.375])
        assert witness.sum() <= 1.0

    def test_witness_carries_forward_on_random_runs(self, rng):
        for algorithm in builtin_algorithms():
            for _ in range(20):
                inst = random_instance(rng, min_rounds=2)
                trace = algorithm.run(inst)
                for t in range(inst.num_rounds - 1):
                    u = trace.cumulative_utility[t]
                    rem = trace.remaining_value[t]
                    if not doomsday_compatible(u, rem, tol=1e-9):
                        continue
                    assert doomsday_maintained(u, rem, inst.values[t + 1], 1e-9)

    def test_witness_stays_within_one_on_a_compatible_boundary_state(self):
        # The deficit lies just inside tol of the limit: a witness that hands
        # out deficit / remaining sums to 1 + 1.9e-9 here.
        u, rem = [0.0, 0.6], [(0.5 - 1e-9) / (1 - 1e-10), 0.1]
        assert doomsday_compatible(u, rem)
        assert doomsday_witness(u, rem).sum() <= 1.0

    def test_witness_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            doomsday_witness([0.1], [0.5, 0.5])

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_witness_sum_decides_compatibility(self, rng, tol):
        # Half the states sit within a few tol of the boundary, where the
        # lifted shares can round above a sum of 1.
        for k in range(2000):
            n = int(rng.integers(2, 6))
            rem = rng.uniform(1e-6, 1.0, size=n)
            if k % 2:
                u = rng.uniform(0.0, 2.0 / n, size=n)
            else:
                scale = 1.0 + rng.uniform(-3.0, 3.0) * tol / rem.min()
                u = 1.0 / n - tol - rng.dirichlet(np.ones(n)) * scale * rem
            witness = doomsday_witness(u, rem, tol=tol)
            assert np.all(witness >= 0.0)
            assert doomsday_compatible(u, rem, tol=tol) == (witness.sum() <= 1.0)


class TestOfflineFairShareWelfare:
    def test_orthogonal_instance_is_unconstrained(self):
        assert offline_fair_share_welfare(ORTHOGONAL) == pytest.approx(2.0, abs=1e-8)

    def test_single_contested_round(self):
        inst = validate_instance([[1.0, 1.0]], require_normalized=True)
        assert offline_fair_share_welfare(inst) == pytest.approx(1.0, abs=1e-8)

    def test_dominates_any_fair_share_run(self, rng):
        for _ in range(10):
            inst = random_instance(rng, n=3, max_rounds=8)
            cap = offline_fair_share_welfare(inst)
            u = utilities(inst, run_poly(inst, 1).allocation)
            assert u.sum() <= cap + 1e-8
            assert cap <= optimal_welfare(inst) + 1e-8

    def test_constraint_matrix_is_sparse(self, rng, monkeypatch):
        import scipy.optimize
        import scipy.sparse

        captured = {}
        linprog = scipy.optimize.linprog

        def spy(c, A_ub=None, **kwargs):
            captured["A_ub"] = A_ub
            return linprog(c, A_ub=A_ub, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", spy)
        T, n = 7, 3
        V = rng.dirichlet(np.ones(T), size=n).T
        V[[0, 5], [1, 2]] = 0.0
        # Agent 0 values every round at half its top value, so greedy leaves
        # her nothing, her fair-share row binds and the LP runs.
        V[:, 0] = 0.5 * V[:, 1:].max(axis=1)
        V[2, 0] = 0.0
        offline_fair_share_welfare(validate_instance(V))

        dense = np.zeros((T + n, T * n))
        for t in range(T):
            dense[t, t * n : (t + 1) * n] = 1.0
        for i in range(n):
            dense[T + i, i::n] = -V[:, i]
        A_ub = captured["A_ub"]
        assert scipy.sparse.issparse(A_ub)
        assert A_ub.nnz == T * n + np.count_nonzero(V)
        np.testing.assert_array_equal(A_ub.toarray(), dense)

    @pytest.mark.parametrize("n", [36, 49, 64, 81, 100, 121, 144])
    def test_large_multi_agent_optimum(self, n):
        welfare = offline_fair_share_welfare(multi_agent_instance(n))
        assert welfare == pytest.approx(multi_agent_offline_fair_share_opt(n), abs=1e-8)

    def test_matches_the_reference_lp_on_both_paths(self):
        # Seeded instances with tied rounds, dead rounds, an all-zero column
        # and unnormalized columns; greedy meets every target on some, and
        # the LP must run on the others.
        rng = np.random.default_rng(18)
        certified = 0
        for k in range(400):
            T, n = int(rng.integers(1, 13)), int(rng.integers(2, 7))
            V = rng.uniform(size=(T, n)) * (rng.uniform(size=(T, n)) < 0.7)
            if k % 3 == 0:
                t = rng.integers(T, size=T // 2)
                V[t, 1] = V[t, 0] = V[t].max(axis=1)
            if k % 4 == 0:
                V[rng.integers(T)] = 0.0
            if k % 5 == 0:
                V[:, rng.integers(n)] = 0.0
            totals = V.sum(axis=0)
            if k % 2:
                V = V / np.where(totals > 0.0, totals, 1.0)
            else:
                V = V * rng.uniform(0.01, 100.0, size=n)
            inst = validate_instance(V)
            greedy = utilities(inst, run_poly(inst, GREEDY).allocation)
            certified += bool((greedy >= fair_share(inst)).all())
            assert abs(offline_fair_share_welfare(inst) - dense_fair_share_lp(inst)) <= 1e-9
        assert 100 <= certified <= 300

    @pytest.mark.parametrize("p", [2.1, 3.0, 6.0])
    def test_binding_row_closed_form(self, p):
        # Agent 0 values the rounds (x, 1 - x) and agent 1 only the first,
        # which greedy gives her, so agent 0's row binds: she keeps round 2
        # and the (x - 1/2)/x of round 1 she needs, for welfare (1 + 1/x)/2.
        inst = fair_share_violation_instance(p)
        x = inst.values[0, 0]
        greedy = utilities(inst, run_poly(inst, GREEDY).allocation)
        assert greedy[0] < fair_share(inst)[0]
        assert offline_fair_share_welfare(inst) == pytest.approx(0.5 * (1 + 1 / x), abs=1e-12)

    @pytest.mark.parametrize("short", [1e-3, 1e-7])
    def test_a_target_missed_by_a_hair_still_binds(self, short):
        # Greedy leaves agent 0 `short` below her target, and meeting it
        # costs about that much welfare: the check allows no slack.
        inst = validate_instance([[0.5 + short, 1.0], [0.5 - short, 0.0]])
        welfare = offline_fair_share_welfare(inst)
        assert abs(welfare - dense_fair_share_lp(inst)) <= 1e-9
        assert welfare < optimal_welfare(inst) - short / 2
