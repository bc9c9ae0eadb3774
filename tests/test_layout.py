"""Storage layout: every (T, n) array the package builds is column-major, and
no result depends on the layout of the matrix the caller passed in."""

import numpy as np
import pytest

from roundfair import (
    audit,
    builtin_algorithms,
    doomsday_trace,
    validate_allocation,
    validate_instance,
)
from conftest import late_trip_values


def _two_agent_values():
    rng = np.random.default_rng(7)
    late = late_trip_values(rng, 3000)  # trips late at p = 2.7 and 3
    dirichlet = rng.dirichlet(np.ones(400), size=2).T
    return [late, dirichlet]


def _many_agent_values():
    rng = np.random.default_rng(19)
    return [rng.dirichlet(np.ones(T), size=n).T for n, T in ((5, 300), (16, 64))]


def _layouts(values):
    """The same values, row-major, column-major and as nested lists."""
    values = np.asarray(values, dtype=float)
    return {
        "C": np.ascontiguousarray(values),
        "F": np.asfortranarray(values),
        "lists": values.tolist(),
    }


def _cases():
    rules = builtin_algorithms()
    for k, values in enumerate(_two_agent_values()):
        for rule in rules:
            yield pytest.param(values, rule, id=f"two{k}-{rule.name}")
    for k, values in enumerate(_many_agent_values()):
        for rule in rules:
            if not rule.guarded:
                yield pytest.param(values, rule, id=f"many{k}-{rule.name}")


def _pipeline(values, rule):
    instance = validate_instance(values, require_normalized=True)
    trace = rule.run(instance)
    return instance, trace, audit(instance, trace.allocation), doomsday_trace(instance, trace)


@pytest.mark.parametrize("values, rule", list(_cases()))
def test_results_do_not_depend_on_the_input_layout(values, rule):
    results = {name: _pipeline(v, rule) for name, v in _layouts(values).items()}
    _, ref_trace, ref_verdict, ref_flags = results["F"]
    for name, (instance, trace, verdict, flags) in results.items():
        assert np.array_equal(trace.allocation.fractions, ref_trace.allocation.fractions), name
        assert np.array_equal(trace.cumulative_utility, ref_trace.cumulative_utility), name
        assert np.array_equal(trace.remaining_value, ref_trace.remaining_value), name
        assert trace.critical_event == ref_trace.critical_event, name
        assert np.array_equal(verdict.utilities, ref_verdict.utilities), name
        assert verdict.ratio == ref_verdict.ratio, name
        assert verdict.fair_share_margin == ref_verdict.fair_share_margin, name
        assert verdict.envy_margin == ref_verdict.envy_margin, name
        assert flags == ref_flags, name


def test_the_late_trip_case_trips():
    # Keeps the layout test on the guarded rule's trip path.
    instance = validate_instance(_two_agent_values()[0], require_normalized=True)
    tripped = [r.run(instance).critical_event for r in builtin_algorithms() if r.guarded]
    assert any(event is not None and event.round_index > 2000 for event in tripped)


@pytest.mark.parametrize("values, rule", list(_cases()))
def test_built_arrays_are_column_major(values, rule):
    instance = validate_instance(np.ascontiguousarray(values), require_normalized=True)
    trace = rule.run(instance)
    for array in (
        instance.values,
        trace.allocation.fractions,
        trace.cumulative_utility,
        trace.remaining_value,
    ):
        assert array.flags.f_contiguous and not array.flags.writeable


def test_validate_allocation_stores_column_major():
    rows = np.full((50, 3), 1.0 / 3.0)
    for given in (rows, np.asfortranarray(rows), rows.tolist()):
        fractions = validate_allocation(given).fractions
        assert fractions.flags.f_contiguous
        assert np.array_equal(fractions, rows)
