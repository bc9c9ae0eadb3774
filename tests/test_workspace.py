"""The per-thread workspace that long runs take their temporaries from.

A guarded run's guard and the doomsday test write their T x n temporaries
into the calling thread's workspace when the matrix has at least
``core._WORKSPACE_MIN_ENTRIES`` entries, and allocate them below that.
Either way the results are the same bits, and no returned array is a view
of a workspace buffer.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from roundfair import (
    doomsday_trace,
    run_guarded,
    run_poly,
    validate_instance,
)
from roundfair import core
from roundfair.core import DEFAULT_TOL, _WORKSPACE_MIN_ENTRIES
from roundfair.metrics import _doomsday_ok
from conftest import late_trip_values

#: Rounds of a two-agent instance at the threshold.
LONG = _WORKSPACE_MIN_ENTRIES // 2


def _in_new_thread(fn, *args):
    """``fn(*args)`` on a thread of its own, which starts with no workspace."""
    out = {}

    def body():
        try:
            out["value"] = fn(*args)
        except Exception as exc:  # raised again on the calling thread
            out["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def _workspace():
    return getattr(core._run_local, "workspace", None)


def _late_trip(seed, rounds):
    return validate_instance(late_trip_values(np.random.default_rng(seed), rounds))


def _round_zero_trip(rounds):
    """Agent 0's guard binds in round 0: she values it at 0.9, and agent 1,
    who values nothing else, takes most of it at p = 2.7."""
    values = np.zeros((rounds, 2))
    values[0] = 0.9, 1.0
    values[1:, 0] = 0.1 / (rounds - 1)
    return validate_instance(values, require_normalized=True)


def _dirichlet(seed, n, rounds):
    rng = np.random.default_rng(seed)
    return validate_instance(rng.dirichlet(np.ones(rounds), size=n).T)


def _doomsday_states(seed, n, rounds):
    """Utilities near each agent's target, every one above it in about half
    the rows, and remainders that are positive, 0, negative by a rounding,
    or subnormal."""
    rng = np.random.default_rng(seed)
    target = np.full(n, 0.5)
    u = target + rng.normal(0.0, 1e-9, (rounds, n))
    u[rng.random(rounds) < 0.5] += 1e-6
    u = np.asfortranarray(u)
    rem = np.asfortranarray(rng.choice([0.0, -1e-17, 5e-324, 1e-310, 1e-3, 0.4], (rounds, n)))
    return u, rem, target


def _run_record(inst, p):
    trace = run_guarded(inst, p) if p is not None else run_poly(inst, 1.0)
    return (
        trace.allocation.fractions.tobytes(),
        trace.cumulative_utility.tobytes(),
        trace.critical_event,
        doomsday_trace(inst, trace),
    )


class TestWorkspaceReuse:
    def test_second_long_run_and_trace_take_no_new_buffer(self):
        inst = _late_trip(5, 2 * LONG)

        def twice():
            trace = run_guarded(inst, 2.7)
            doomsday_trace(inst, trace)
            buffers = _workspace()._buffers
            kept = [weakref.ref(b) for b in buffers]
            count = len(buffers)
            again = run_guarded(inst, 2.7)
            doomsday_trace(inst, again)
            assert trace.critical_event == again.critical_event is not None
            return count, kept, _workspace()._buffers

        count, kept, buffers = _in_new_thread(twice)
        assert count == len(buffers) == 4
        assert all(ref() is b for ref, b in zip(kept, buffers))
        # Two float and two bool temporaries of the run's shape.
        assert sum(b.nbytes for b in buffers) == 2 * LONG * 2 * (8 + 8 + 1 + 1)

    def test_run_below_the_threshold_makes_no_workspace(self):
        short = _late_trip(6, LONG - 1)
        assert short.values.size == _WORKSPACE_MIN_ENTRIES - 2

        def run_short():
            trace = run_guarded(short, 2.7)
            doomsday_trace(short, trace)
            run_poly(short, 2.0)
            return _workspace()

        assert _in_new_thread(run_short) is None

    def test_run_at_the_threshold_makes_one(self):
        inst = _late_trip(6, LONG)
        assert _in_new_thread(lambda: (run_guarded(inst, 2.7), _workspace())[1]) is not None

    @pytest.mark.parametrize("p", [2.7, 1.0, None])
    def test_returned_arrays_share_no_workspace_memory(self, p):
        inst = _late_trip(7, 3 * LONG)

        def run():
            trace = run_guarded(inst, p) if p is not None else run_poly(inst, 2.0)
            flags = _doomsday_ok(
                trace.cumulative_utility, trace.remaining_value, inst.fair_share, DEFAULT_TOL
            )
            return trace, flags, _workspace()

        trace, flags, workspace = _in_new_thread(run)
        returned = [
            trace.allocation.fractions,
            trace.allocation.row_sums,
            trace.cumulative_utility,
            trace.remaining_value,
            flags,
        ]
        assert workspace._buffers
        for array in returned:
            for buffer in workspace._buffers:
                assert not np.shares_memory(array, buffer)


class TestKitsAgree:
    """With the threshold moved so that every run takes one kit, long and
    short instances give the same bits under both."""

    CASES = {
        "round-0-trip": (lambda: _round_zero_trip(3 * LONG), 2.7),
        "late-trip": (lambda: _late_trip(8, 2 * LONG), 2.7),
        "late-trip-p10": (lambda: _late_trip(9, 2 * LONG), 10.0),
        "no-trip": (lambda: _dirichlet(10, 2, 2 * LONG), 1.0),
        "short-trips": (lambda: _late_trip(11, 40), 2.7),
        "short-round-0": (lambda: _round_zero_trip(5), 2.7),
        "n3": (lambda: _dirichlet(12, 3, 50), None),
        "n16": (lambda: _dirichlet(13, 16, LONG // 4), None),
        "n32": (lambda: _dirichlet(14, 32, LONG // 8), None),
    }

    def _records(self, monkeypatch, threshold):
        monkeypatch.setattr(core, "_WORKSPACE_MIN_ENTRIES", threshold)
        records = {name: _run_record(make(), p) for name, (make, p) in self.CASES.items()}
        # Once more in reverse, so smaller runs meet buffers a larger run left.
        for name, (make, p) in reversed(self.CASES.items()):
            assert _run_record(make(), p) == records[name], name
        return records

    def test_runs_and_traces(self, monkeypatch):
        allocating = _in_new_thread(self._records, monkeypatch, np.inf)
        workspace = _in_new_thread(self._records, monkeypatch, 0)
        assert allocating == workspace
        events = {name: record[2] for name, record in workspace.items()}
        assert events["round-0-trip"].round_index == 0
        assert events["short-round-0"].round_index == 0
        assert events["late-trip"].round_index > LONG
        assert events["no-trip"] is None

    @pytest.mark.parametrize("n, rounds", [(2, 3 * LONG), (5, 40), (32, LONG // 8)])
    def test_doomsday_states(self, monkeypatch, n, rounds):
        u, rem, target = _doomsday_states(n, n, rounds)

        def flags(threshold):
            monkeypatch.setattr(core, "_WORKSPACE_MIN_ENTRIES", threshold)
            out = [_doomsday_ok(u, rem, target, tol).tolist() for tol in (0.0, DEFAULT_TOL)]
            return out + [_doomsday_ok(u[0], rem[0], target, 0.0).tolist()]

        allocating = _in_new_thread(flags, np.inf)
        assert allocating == _in_new_thread(flags, 0)
        # The states both pass and fail.
        assert 0 < sum(allocating[0]) < rounds


def test_threads_running_at_once_match_their_serial_results():
    # Three threads, more than the machine's cores, each with its own long
    # instance and workspace, switching often.
    instances = [
        (_late_trip(15, 3 * LONG), 2.7),
        (_round_zero_trip(2 * LONG), 5.0),
        (_dirichlet(16, 2, 2 * LONG), 1.0),
    ]
    serial = [_in_new_thread(_run_record, inst, p) for inst, p in instances]
    start = threading.Barrier(len(instances), timeout=60)
    results = [None] * len(instances)
    failures = []

    def worker(k):
        try:
            start.wait()
            results[k] = [_run_record(*instances[k]) for _ in range(4)]
        except Exception as exc:  # raised again below
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(instances))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for k, records in enumerate(results):
        assert all(record == serial[k] for record in records), k
