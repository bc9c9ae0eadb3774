import ast
import math
import os
import subprocess
import sys
import tokenize
import types
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
from roundfair.errors import (
    EmptyInstance,
    NegativeValue,
    NotNormalized,
    OutOfRange,
    ValidationError,
)

SQ2 = 1.0 / math.sqrt(2.0)

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

    def test_values_are_immutable(self):
        inst = validate_instance([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            inst.values[0, 0] = 2.0


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
    assert np.all(np.abs(inst.column_totals() - 1.0) <= 1e-12)


@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
)
def test_three_round_cp_roundtrip(v11, v21):
    eps = 0.5 * min(1 - v11, 1 - v21)
    inst = three_round_cp(v11, v21, eps)
    assert validate_instance(inst.values, require_normalized=True).normalized
    assert np.all(np.abs(inst.column_totals() - 1.0) <= 1e-12)


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
    # leaves an agent below her fair share.  A scan's helper threads are
    # plain threads, so no thread-pool module loads, on import or in a
    # search.
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
