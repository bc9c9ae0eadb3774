import ast
import math
import os
import subprocess
import sys
import tokenize
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import roundfair
from roundfair import (
    three_round_cp,
    two_round_instance,
    validate_allocation,
    validate_instance,
)
from roundfair.core import fair_share
from roundfair.errors import (
    DomainError,
    EmptyInstance,
    NegativeValue,
    NotNormalized,
    OutOfRange,
    ValidationError,
)

SQ2 = 1.0 / math.sqrt(2.0)

#: A column whose pairwise total is the largest float but whose running
#: sum rounds up past it in its last round.
RUNNING_SUM_OVERFLOWS = [
    float.fromhex(h)
    for h in (
        "0x1.913d3222a1f56p+1020", "0x1.2a8c9becd14d1p+1020", "0x1.9d00669be15a3p+1020",
        "0x1.e3c051270e942p+1020", "0x1.5407bc27f9a33p+1021", "0x1.7f41e370fbae6p+1020",
        "0x1.2ed672f6175a8p+1020", "0x1.e964468a3d44dp+1020", "0x1.3a0c8e84e07bbp+1021",
        "0x1.fa08fc530859bp+1015",
    )
]

#: The golden corpus's unnormalized instance: agent totals 0.3 and 2.5.
UNNORMALIZED = Path(__file__).parent / "golden" / "files" / "unnormalized.txt"


class TestValidateInstance:
    def test_orthogonal_unit_columns(self):
        inst = validate_instance([[1, 0], [0, 1]])
        assert inst.normalized
        assert inst.n == 2 and inst.num_rounds == 2

    def test_unnormalized_column_rejected_on_request(self):
        with pytest.raises(NotNormalized) as err:
            validate_instance([[0.5, 0.6], [0.5, 0.5]], require_normalized=True)
        assert err.value.agent == 1
        assert err.value.total == pytest.approx(1.1)
        # Agent 0's total, 0.3, is off too; the error names the agent whose
        # total lies furthest from 1, as the guarded run does.
        values = roundfair.parse_instance(UNNORMALIZED.read_text()).values
        with pytest.raises(NotNormalized) as err:
            validate_instance(values, require_normalized=True)
        assert (err.value.agent, err.value.total) == (1, 2.5)

    def test_unnormalized_accepted_with_flag_off(self):
        inst = validate_instance([[0.5, 0.6], [0.5, 0.5]])
        assert not inst.normalized

    def test_irrational_normalized_columns(self):
        inst = validate_instance([[SQ2, 1 - SQ2], [1 - SQ2, SQ2]])
        assert inst.normalized

    @pytest.mark.parametrize(
        "values, agent",
        [
            ([[1.5e308, 1e-3], [1.5e308, 1e-3], [1.5e308, 1.0]], 0),
            ([[1.0, 1e308], [0.0, 1e308]], 1),
            ([[1e308, 0.0]] * 5 + [[0.0, 1.0]], 0),
            ([[v, 0.1] for v in RUNNING_SUM_OVERFLOWS], 0),
        ],
        ids=["three-rounds", "second-agent", "six-rounds", "running-sum-only"],
    )
    def test_overflowing_total_rejected(self, values, agent):
        # Finite entries whose column total overflows would store an inf
        # total and NaN remaining values; the error names the agent, and
        # finding it warns of nothing.  In the last case only the running
        # sum overflows: numpy's pairwise total of the column rounds to the
        # largest float.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"agent {agent}'s values sum"):
                validate_instance(values)

    def test_overflowing_welfare_rejected(self):
        # Each column total is finite, but the rounds' largest values are not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="largest values sum"):
                validate_instance([[1e308, 0.0], [0.0, 1e308]])

    def test_large_finite_totals_accepted(self):
        # Near the limit but finite: T times the largest entry passes half
        # the largest float, and the sums are checked and found finite.
        big = sys.float_info.max / 4
        inst = validate_instance([[big, big], [big, 0.0], [0.0, big]])
        assert inst.column_totals.tolist() == [2 * big, 2 * big]
        assert inst.optimal_welfare == 3 * big

    def test_negative_entry(self):
        with pytest.raises(NegativeValue) as err:
            validate_instance([[0.5, -0.1], [0.5, 1.1]])
        assert (err.value.round_index, err.value.agent) == (0, 1)

    def test_empty(self):
        with pytest.raises(EmptyInstance):
            validate_instance(np.zeros((0, 2)))

    def test_single_agent_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([[1.0], [0.0]])

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([[1.0, 0.0], [0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            validate_instance([[math.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nan_and_negative_infinity_are_not_finite(self, bad):
        with pytest.raises(ValidationError, match="all values must be finite") as err:
            validate_instance([[0.5, 0.5], [bad, 0.5]])
        assert type(err.value) is ValidationError

    @pytest.mark.parametrize(
        "values",
        [[[-0.5, 0.5], [math.nan, 0.5]], [[0.5, math.nan], [-0.5, 0.5]]],
        ids=["negative-first", "nan-first"],
    )
    def test_non_finite_wins_over_negative(self, values):
        with pytest.raises(ValidationError, match="all values must be finite") as err:
            validate_instance(values)
        assert type(err.value) is ValidationError

    def test_names_the_first_negative_in_row_major_order(self):
        # Column-major order, or the smallest entry, would name (2, 0).
        with pytest.raises(NegativeValue) as err:
            validate_instance([[0.5, 0.5], [0.2, -0.1], [-0.3, 0.4]])
        assert (err.value.round_index, err.value.agent) == (1, 1)
        assert str(err.value) == "negative value -0.1 at round 1, agent 1"

    def test_negative_zero_accepted(self):
        inst = validate_instance([[-0.0, 1.0], [1.0, 0.0]])
        assert inst.normalized and inst.values[0, 0] == 0.0

    def test_values_are_immutable(self):
        inst = validate_instance([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            inst.values[0, 0] = 2.0


def _seeded_values():
    """Raw matrices: two-agent Dirichlet draws, dead rounds, 25 agents, and
    one draw handed over both row-major and column-major."""
    rng = np.random.default_rng(24)
    two = [rng.dirichlet(np.ones(T), size=2).T for T in (1, 2, 7, 40)]
    dead = rng.dirichlet(np.ones(6), size=2).T
    dead[[1, 4]] = 0.0
    wide = rng.dirichlet(np.ones(9), size=25).T
    return {
        **{f"two-agents-{len(v)}": v for v in two},
        "dead-rounds": dead,
        "n-25": wide,
        "n-25-C": np.ascontiguousarray(wide),
        "n-25-F": np.asfortranarray(wide),
        "unnormalized": wide * 3.0,
    }


def _generated():
    return {
        "two-round": roundfair.two_round_instance(0.599, 0.599),
        "guarded-cp1": roundfair.guarded_cp1_instance(2.7, 1.1),
        "guarded-cp2-mixed": roundfair.guarded_cp2_instance(2.7, 1.1, 0.5),
        "guarded-cp2-both-above": roundfair.guarded_cp2_instance(2.7, 1.2, 3.0),
        "three-round-cp": three_round_cp(0.76, 0.97),
        "multi-agent-4": roundfair.multi_agent_instance(4),
        "multi-agent-9": roundfair.multi_agent_instance(9),
        "fs-violation": roundfair.fair_share_violation_instance(2.7),
        **{f"lb-{k}": inst for k, inst in enumerate(roundfair.lower_bound_instances())},
    }


SEEDED = _seeded_values()
GENERATED = _generated()


class TestStoredFacts:
    """validate_instance computes the column totals, the fair-share target and
    the welfare optimum once; they must equal the expressions every reader
    used to evaluate."""

    @staticmethod
    def _check(inst):
        totals = np.add.reduce(inst.values)
        assert inst.column_totals.tobytes() == totals.tobytes()
        assert inst.column_totals.dtype == totals.dtype and inst.column_totals.shape == totals.shape
        share = inst.column_totals / inst.n
        assert inst.fair_share.tobytes() == share.tobytes()
        assert inst.fair_share.dtype == share.dtype and inst.fair_share.shape == share.shape
        opt = float(np.add.reduce(np.maximum.reduce(inst.values, axis=1)))
        assert type(inst.optimal_welfare) is float
        assert inst.optimal_welfare.hex() == opt.hex()
        assert inst.normalized == bool(np.all(np.abs(inst.values.sum(axis=0) - 1.0) <= 1e-9))
        remaining = inst.column_totals - np.add.accumulate(inst.values)
        assert inst.remaining_value.tobytes() == remaining.tobytes()
        assert inst.remaining_value.shape == inst.values.shape
        assert inst.remaining_value.flags.f_contiguous

    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_seeded_instances(self, name):
        inst = validate_instance(SEEDED[name])
        self._check(inst)
        assert inst.values.tobytes(order="F") == np.asarray(SEEDED[name]).tobytes(order="F")

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_instances(self, name):
        self._check(GENERATED[name])

    def test_layout_of_the_input_does_not_matter(self):
        c = validate_instance(SEEDED["n-25-C"])
        f = validate_instance(SEEDED["n-25-F"])
        assert c.column_totals.tobytes() == f.column_totals.tobytes()
        assert c.optimal_welfare.hex() == f.optimal_welfare.hex()
        lists = validate_instance(SEEDED["n-25"].tolist())
        for other in (f, lists):
            assert c.remaining_value.tobytes() == other.remaining_value.tobytes()

    def test_totals_are_read_only(self):
        inst = validate_instance(SEEDED["two-agents-7"])
        assert not inst.column_totals.flags.writeable
        with pytest.raises(ValueError):
            inst.column_totals[0] = 2.0

    def test_remaining_values_are_read_only(self):
        inst = validate_instance(SEEDED["two-agents-7"])
        assert not inst.remaining_value.flags.writeable
        with pytest.raises(ValueError):
            inst.remaining_value[0, 0] = 2.0

    @pytest.mark.parametrize("n", [2, 5, 25])
    @pytest.mark.parametrize("scale", [1.0, 0.3, 7.0])
    def test_fair_share_is_total_over_n_and_read_only(self, n, scale):
        rng = np.random.default_rng(n)
        for rounds in (1, 3, 20):
            values = rng.dirichlet(np.ones(rounds), size=n).T * scale
            inst = validate_instance(values)
            assert inst.normalized == (scale == 1.0)
            want = np.add.reduce(inst.values) / n
            assert inst.fair_share.tobytes() == want.tobytes()
            assert not inst.fair_share.flags.writeable
            with pytest.raises(ValueError):
                inst.fair_share[0] = 1.0

    def test_fair_share_accessor_returns_a_new_writable_copy(self):
        inst = validate_instance(SEEDED["unnormalized"])
        first = fair_share(inst)
        second = fair_share(inst)
        assert first.tobytes() == inst.fair_share.tobytes()
        assert first.flags.writeable and first is not second
        assert not np.shares_memory(first, inst.fair_share)
        assert not np.shares_memory(first, second)
        first[:] = -1.0
        assert fair_share(inst).tobytes() == inst.fair_share.tobytes()

    @pytest.mark.parametrize("name", ["two-agents-1", "two-agents-40", "dead-rounds", "n-25"])
    def test_every_trace_holds_the_instance_remaining_values(self, name):
        inst = validate_instance(SEEDED[name])
        rules = list(roundfair.builtin_algorithms())
        rules += [roundfair.Algorithm("guarded-0", 0.0, guarded=True)]
        for rule in rules:
            if rule.guarded and (inst.n != 2 or not inst.normalized):
                continue
            assert rule.run(inst).remaining_value is inst.remaining_value, rule.name


@pytest.mark.parametrize(
    "values",
    [
        [1.0, math.nan, -math.inf, math.nan, math.inf],
        [math.inf, -math.inf, 0.0, math.nan],
        [math.nan] * 3,
        # Longer than one SIMD register, with the NaN past the first lanes.
        [*np.linspace(-1.0, 1.0, 37), math.nan, -2.0, math.nan, 3.0],
    ],
)
def test_argmin_and_argmax_pick_the_first_nan(values):
    """Both validators read a matrix's extremes at argmin and argmax and
    rely on a NaN being picked there, so that the range check fails."""
    array = np.array(values)
    first = int(np.flatnonzero(np.isnan(array))[0])
    assert array.argmin() == first and array.argmax() == first
    matrix = np.asfortranarray(np.reshape(np.resize(array, 2 * array.size), (-1, 2)))
    entries = matrix.ravel(order="K")
    first = int(np.flatnonzero(np.isnan(entries))[0])
    assert entries.argmin() == first and entries.argmax() == first


class TestValidateAllocation:
    def test_accepts_partial_rows(self):
        alloc = validate_allocation([[0.25, 0.25], [0.0, 1.0]])
        assert alloc.fractions.shape == (2, 2)

    def test_rejects_oversubscribed_round(self):
        with pytest.raises(ValidationError):
            validate_allocation([[0.7, 0.7]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValidationError):
            validate_allocation([[1.2, -0.2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            validate_allocation([[bad, 0.5], [0.5, 0.5]])

    def test_copies_once_and_freezes(self):
        raw = np.array([[0.25, 0.75], [0.5, 0.5]])
        alloc = validate_allocation(raw)
        raw[0, 0] = 0.0
        assert alloc.fractions[0, 0] == 0.25
        with pytest.raises(ValueError):
            alloc.fractions[0, 0] = 1.0

    def test_names_the_oversubscribed_round(self):
        with pytest.raises(ValidationError, match="round 1"):
            validate_allocation([[0.5, 0.5], [0.6, 0.6], [0.7, 0.0]])

    @pytest.mark.parametrize(
        "fractions", [[[0.5], [0.5, 0.5]], [["a", "b"]], [[object(), 0.5]]]
    )
    def test_ragged_or_non_numeric_input_is_a_validation_error(self, fractions):
        # numpy's own ValueError or TypeError would escape the package's errors
        with pytest.raises(ValidationError, match="not a rectangular numeric matrix") as err:
            validate_allocation(fractions)
        assert type(err.value) is ValidationError


class TestRowSums:
    """An allocation sums its rounds once, when it is built, whoever builds it."""

    @staticmethod
    def _check(allocation):
        want = np.add.reduce(allocation.fractions, axis=1)
        assert allocation.row_sums.tobytes() == want.tobytes()
        assert allocation.row_sums.shape == (allocation.fractions.shape[0],)
        assert not allocation.row_sums.flags.writeable
        with pytest.raises(ValueError):
            allocation.row_sums[0] = 0.0

    @pytest.mark.parametrize("n", [2, 5, 25])
    def test_validated_and_run_allocations(self, n):
        rng = np.random.default_rng(n)
        for rounds in (1, 3, 20):
            fractions = rng.dirichlet(np.ones(n), size=rounds) * rng.uniform(0.5, 1.0)
            self._check(validate_allocation(fractions))
            inst = validate_instance(rng.dirichlet(np.ones(rounds), size=n).T)
            for rule in roundfair.builtin_algorithms():
                if not rule.guarded or n == 2:
                    self._check(rule.run(inst).allocation)

    def test_built_directly(self):
        for rows in ([[0.25, 0.75], [0.1, 0.2]], [[0.7, 0.7]], [[0.1, 0.2, 0.3]]):
            self._check(roundfair.Allocation(fractions=np.asfortranarray(rows)))
            self._check(roundfair.Allocation(fractions=np.ascontiguousarray(rows)))


class TestTwoRoundSymmetric:
    """The CLI's ``two-round-symmetric:V`` family, ``two_round_instance(V, V)``."""

    def test_table_point(self):
        inst = two_round_instance(0.626, 0.626)
        assert inst.values == pytest.approx(
            np.array([[0.626, 0.374], [0.374, 0.626]])
        )

    def test_identical_agents(self):
        inst = two_round_instance(0.5, 0.5)
        assert np.all(inst.values == 0.5)

    def test_sweet_spot_point(self):
        inst = two_round_instance(0.599, 0.599)
        assert inst.values[0, 0] == 0.599 and inst.values[1, 1] == 0.599

    @pytest.mark.parametrize("bad", [-0.3, 1.5])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            two_round_instance(bad, bad)


class TestThreeRoundCp:
    def test_sweet_spot_instance(self):
        inst = three_round_cp(0.76, 0.97, 1e-6)
        assert inst.values[:, 0] == pytest.approx([0.76, 1 - 0.76 - 1e-6, 1e-6])
        assert inst.values[:, 1] == pytest.approx([0.97, 1e-6, 1 - 0.97 - 1e-6])

    def test_next_exponent_row(self):
        inst = three_round_cp(0.73, 0.94, 1e-6)
        assert inst.values[0].tolist() == [0.73, 0.94]

    def test_plain_arithmetic(self):
        inst = three_round_cp(0.5, 0.5, 0.25)
        assert inst.values[:, 0].tolist() == [0.5, 0.25, 0.25]
        assert inst.values[:, 1].tolist() == [0.5, 0.25, 0.25]

    def test_eps_too_large(self):
        with pytest.raises(OutOfRange):
            three_round_cp(0.76, 0.97, 0.05)  # exceeds 1 - 0.97

    def test_bad_corner(self):
        with pytest.raises(OutOfRange):
            three_round_cp(1.0, 0.5, 1e-6)


@given(st.floats(min_value=1e-3, max_value=1 - 1e-3))
def test_two_round_symmetric_roundtrip(v11):
    inst = two_round_instance(v11, v11)
    again = validate_instance(inst.values, require_normalized=True)
    assert again.normalized
    assert np.all(np.abs(inst.column_totals - 1.0) <= 1e-12)


@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
)
def test_three_round_cp_roundtrip(v11, v21):
    eps = 0.5 * min(1 - v11, 1 - v21)
    inst = three_round_cp(v11, v21, eps)
    assert validate_instance(inst.values, require_normalized=True).normalized
    assert np.all(np.abs(inst.column_totals - 1.0) <= 1e-12)


#: A Python int too large for a float.
HUGE = 10**400
_HALVES = validate_instance([[0.5, 0.5], [0.5, 0.5]], require_normalized=True)
_EVEN = roundfair.run_poly(_HALVES, 1.0)

#: Calls given a Python int too large for a float, and the error each raises.
HUGE_INT_CALLS = {
    "validate_instance": (lambda: validate_instance([[HUGE, 1], [0, 1]]), ValidationError),
    "validate_allocation": (lambda: validate_allocation([[HUGE, 0], [0, 1]]), ValidationError),
    "poly_round": (lambda: roundfair.poly_round([HUGE, 1], 2.0), ValidationError),
    "doomsday_compatible": (
        lambda: roundfair.doomsday_compatible([HUGE, 0.1], [0.5, 0.5]), ValidationError
    ),
    "doomsday_witness": (
        lambda: roundfair.doomsday_witness([0.1, 0.1], [0.5, HUGE]), ValidationError
    ),
    "run_poly": (lambda: roundfair.run_poly(_HALVES, HUGE), OutOfRange),
    "run_guarded": (lambda: roundfair.run_guarded(_HALVES, HUGE), OutOfRange),
    "audit": (lambda: roundfair.audit(_HALVES, _EVEN.allocation, tol=HUGE), OutOfRange),
    "doomsday_trace": (lambda: roundfair.doomsday_trace(_HALVES, _EVEN, tol=HUGE), OutOfRange),
    "alpha_guarded_cp2": (
        lambda: roundfair.alpha_guarded_cp2(2.7, 1.5, 0.5, slack=HUGE), OutOfRange
    ),
    "sweep_tradeoff_curves": (lambda: roundfair.sweep_tradeoff_curves([HUGE]), DomainError),
    "minimize_alpha": (
        lambda: roundfair.minimize_alpha(roundfair.proportional_objective(), HUGE), OutOfRange
    ),
}


@pytest.mark.parametrize("call, error", HUGE_INT_CALLS.values(), ids=HUGE_INT_CALLS.keys())
def test_int_too_large_for_a_float_raises_a_typed_error(call, error):
    # Converting it raises a bare OverflowError; a slack compared with it
    # unconverted passes as finite.
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error


#: Imports roundfair, runs the analysis commands in process, then the offline
#: welfare on a greedy-fair instance and on one where a fair-share row binds,
#: and prints which scipy modules are loaded after each step.
SCIPY_LOADS = """
import contextlib, io, sys
import roundfair
from roundfair.cli import main

def loaded():
    print('scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)

def pool_loaded():
    print('concurrent.futures' in sys.modules)

loaded()
pool_loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["search", "--objective", "proportional", "--grid-step", "0.02"]) == 0
    assert main(["sweep", "--p-values", "2,2.7,3", "--grid-step", "0.02"]) == 0
pool_loaded()
roundfair.guard_ratio_ceiling(2.7)
loaded()
roundfair.offline_fair_share_welfare(roundfair.validate_instance([[0.5, 1.0], [0.5, 0.0]]))
loaded()
roundfair.offline_fair_share_welfare(roundfair.validate_instance([[0.6, 1.0], [0.4, 0.0]]))
loaded()
"""


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(roundfair.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_LOADS],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    # search and sweep need no solver, as the guard ceiling is a bisection;
    # only the offline LP loads scipy.optimize, and it runs only when greedy
    # leaves an agent below her fair share.  A search scans on the calling
    # thread, so no thread-pool module loads, on import or in a search.
    assert proc.stdout.split("\n") == [
        "False False", "False", "False", "False False", "False False", "True True", ""
    ]


def test_tolerance_literals_are_written_only_in_core():
    # core.py holds the tolerance policy; every other module imports its
    # named slacks instead of repeating 1e-9 or 1e-12.
    package = Path(roundfair.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "core.py")
    found = []
    for path in modules:
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER:
                    continue
                value = ast.literal_eval(tok.string)
                if isinstance(value, float) and value in (1e-9, 1e-12):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert len(modules) >= 7
    assert found == []


def test_threads_and_reference_counts_are_read_only_in_core():
    # core.py owns the per-thread workspace and its rule for a free buffer;
    # no other module keeps state per thread or reads a reference count.
    package = Path(roundfair.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        with tokenize.open(path) as fh:
            names = {tok.string for tok in tokenize.generate_tokens(fh.readline)}
        found[path.name] = sorted(names & {"threading", "getrefcount"})
    assert len(found) >= 8
    assert {name: hits for name, hits in found.items() if hits} == {
        "core.py": ["getrefcount", "threading"]
    }


def test_all_lists_each_public_name_once_in_order():
    # A name dropped from the package must leave __all__ too, and a new
    # export must be listed.
    exported = roundfair.__all__
    public = {
        name
        for name, value in vars(roundfair).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert set(exported) == public
