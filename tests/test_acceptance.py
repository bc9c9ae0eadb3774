"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

import roundfair as rf
from roundfair.cli import main as cli_main
from roundfair.errors import DomainError, InfeasibleClosedForm
from conftest import doomsday_maintained, random_instances


def _cli_output(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli_main(args) == 0
    return buffer.getvalue()


def _criterion(num, name, limit_s):
    """Context manager that times a criterion and prints its verdict line."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None and elapsed < limit_s else "FAIL"
            print(f"ACCEPTANCE {num:02d} {status} ({elapsed:.2f}s < {limit_s}s) {name}")
            if status == "FAIL" and exc_type is None:
                raise AssertionError(
                    f"criterion {num} exceeded its {limit_s}s budget ({elapsed:.2f}s)"
                )
            return False

    return _Ctx()


def _run_search_command(objective, p=None):
    args = ["search", "--objective", objective, "--grid-step", "1e-3"]
    if p is not None:
        args += ["--p", str(p)]
    header, row = _cli_output(args).strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    argmin = tuple(float(x) for x in cells["argmin"].split())
    return argmin, float(cells["value"])


def test_criterion_01_proportional_worst_case():
    with _criterion(1, "proportional worst case via search", 5.0):
        argmin, value = _run_search_command("proportional")
        assert abs(value - 0.8284271) <= 1e-4
        assert abs(argmin[0] - 0.70711) <= 1e-3
        assert abs(argmin[1] - 0.70711) <= 1e-3


def test_criterion_02_quadratic_worst_case():
    with _criterion(2, "quadratic worst case via search", 5.0):
        argmin, value = _run_search_command("poly-two-round", p=2)
        assert abs(value - 0.8941) <= 1e-3
        assert abs(argmin[0] - 0.6265) <= 1e-3
        assert abs(argmin[1] - 0.6265) <= 1e-3
        assert abs(rf.alpha_poly_two_round(2.0, 0.355, 0.985) - 0.9234) <= 1e-3


def test_criterion_03_guarded_sweet_spot_points():
    with _criterion(3, "guarded p=2.7 closed-form points", 5.0):
        assert rf.alpha_guarded_cp1(2.7, 1.27764) >= 0.916 - 1e-3
        assert abs(rf.alpha_poly_two_round(2.7, 0.599, 0.599) - 0.9164) <= 5e-4
        assert rf.alpha_guarded_cp2(2.7, 1.3362, 0.711757, "mixed") >= 0.93 - 1e-3
        assert (
            rf.alpha_guarded_cp2(2.7, 1.49709, 6.55238, "both_above") >= 0.93 - 1e-3
        )


TABLE_ROWS = (
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


def test_criterion_04_tradeoff_table():
    with _criterion(4, "trade-off sweep reproduces all 12 table rows", 60.0):
        p_values = sorted({p for p, _, _ in TABLE_ROWS})
        args = ["sweep", "--p-values", ",".join(str(p) for p in p_values)]
        lines = _cli_output(args).strip().split("\n")
        assert lines[0] == "p,no_cp_alpha,with_cp_alpha"
        by_p = {}
        for line in lines[1:]:
            p_str, no_cp, with_cp = line.split(",")
            by_p[float(p_str)] = (
                float(no_cp),
                float(with_cp) if with_cp else math.nan,
            )
        for p, with_cp, approx in TABLE_ROWS:
            got = by_p[p][1] if with_cp else by_p[p][0]
            assert abs(got - approx) <= 0.002, (p, with_cp, got, approx)


def test_criterion_05_fair_share_boundary_at_two():
    with _criterion(5, "power rule loses fair-share beyond p=2, keeps it at 2", 30.0):
        for p in (2.1, 2.5, 3.0, 4.0, 6.0):
            inst = rf.fair_share_violation_instance(p)
            u = rf.utilities(inst, rf.run_poly(inst, p).allocation)
            assert u.min() < 0.5 - 1e-6, p
        pool = random_instances(seed=101, count=10_000)
        for inst in pool:
            u = rf.utilities(inst, rf.run_poly(inst, 2.0).allocation)
            assert u.min() >= 0.5 - 1e-9


def test_criterion_06_guarded_fair_share():
    with _criterion(6, "guarded family keeps fair-share for every p", 120.0):
        pool = random_instances(seed=202, count=10_000)
        for p in (0.0, 1.0, 2.0, 2.7, 5.0, 10.0):
            for inst in pool:
                u = rf.utilities(inst, rf.run_guarded(inst, p).allocation)
                assert u.min() >= 0.5 - 1e-9, p


def test_criterion_07_lower_bound_replay():
    with _criterion(7, "every built-in hits the two-branch lower bound", 5.0):
        for algorithm in rf.builtin_algorithms():
            verdict = rf.replay_lower_bound(algorithm)
            assert (
                min(verdict.ratio1, verdict.ratio2) <= 0.933 + 1e-6
                or verdict.fair_share_violated
            ), algorithm.name


def test_criterion_08_multi_agent_bounds():
    with _criterion(8, "many-agent ratio floor and offline fair-share optimum", 60.0):
        for n in (4, 9, 16, 25):
            floor = 1.0 / (2.0 * math.sqrt(n)) - 1e-9
            inst = rf.multi_agent_instance(n)
            verdict = rf.audit(inst, rf.run_poly(inst, 1.0).allocation)
            assert verdict.ratio >= floor
            closed = rf.multi_agent_offline_fair_share_opt(n)
            assert closed == (n - 1) / math.sqrt(n) + 1.0
            assert abs(rf.offline_fair_share_welfare(inst) - closed) <= 1e-8
            for inst in random_instances(seed=300 + n, count=1_000, n=n):
                verdict = rf.audit(inst, rf.run_poly(inst, 1.0).allocation)
                assert verdict.ratio >= floor


def test_criterion_09_doomsday_characterization():
    with _criterion(9, "doomsday trace is fair-share, witness carries forward", 60.0):
        algorithms = rf.builtin_algorithms()
        pool = random_instances(seed=404, count=5_000)
        for k, inst in enumerate(pool):
            algorithm = algorithms[k % len(algorithms)]
            trace = algorithm.run(inst)
            flags = rf.doomsday_trace(inst, trace, 1e-9)
            fair = (
                rf.utilities(inst, trace.allocation).min() >= 0.5 - 1e-9
            )
            assert all(flags) == fair, (algorithm.name, k)
            for t in range(inst.num_rounds - 1):
                if flags[t]:
                    assert doomsday_maintained(
                        trace.cumulative_utility[t],
                        trace.remaining_value[t],
                        inst.values[t + 1],
                        1e-9,
                    ), (algorithm.name, k, t)


def _agreement_two_round(rng, p, count=200):
    worst = 0.0
    for _ in range(count):
        v1 = rng.uniform(0.501, 0.999)
        v2 = rng.uniform(max(0.501, 1.002 - v1), 0.999)
        inst = rf.two_round_instance(v1, v2)
        simulated = rf.audit(inst, rf.run_poly(inst, p).allocation).ratio
        closed = (
            rf.alpha_proportional(v1, v2)
            if p == 1.0
            else rf.alpha_poly_two_round(p, v1, v2)
        )
        worst = max(worst, abs(simulated - closed))
    return worst


def _agreement_cp1(rng, p, count=200):
    ceiling = rf.guard_ratio_ceiling(p)
    worst = 0.0
    for _ in range(count):
        lam = rng.uniform(1.0005, ceiling - 0.0005)
        inst = rf.guarded_cp1_instance(p, lam)
        trace = rf.run_guarded(inst, p)
        assert trace.critical_event is not None
        simulated = rf.audit(inst, trace.allocation).ratio
        worst = max(worst, abs(simulated - rf.alpha_guarded_cp1(p, lam)))
    return worst


def _agreement_cp2(rng, p, subcase, count=200):
    ceiling = rf.guard_ratio_ceiling(p)
    lo2, hi2 = (0.05, 0.95) if subcase == "mixed" else (ceiling + 0.005, 8.0)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < count:
        attempts += 1
        assert attempts < 50 * count, "sampling the feasible region stalled"
        lam1 = rng.uniform(1.001, ceiling - 0.001)
        lam2 = rng.uniform(lo2, hi2)
        try:
            inst = rf.guarded_cp2_instance(p, lam1, lam2)
            closed = rf.alpha_guarded_cp2(p, lam1, lam2, subcase, slack=0.0)
        except (InfeasibleClosedForm, DomainError):
            continue
        trace = rf.run_guarded(inst, p)
        event = trace.critical_event
        if event is None or event.round_index != 1:
            continue  # outside the trip-at-round-2 family
        simulated = rf.audit(inst, trace.allocation).ratio
        worst = max(worst, abs(simulated - closed))
        accepted += 1
    return worst


def test_criterion_10_closed_form_simulation_agreement():
    with _criterion(10, "closed forms match simulate-and-audit ratios", 30.0):
        rng = np.random.default_rng(505)
        assert _agreement_two_round(rng, 1.0) <= 1e-9
        assert _agreement_two_round(rng, 2.0) <= 1e-9
        assert _agreement_two_round(rng, 2.7) <= 1e-9
        assert _agreement_cp1(rng, 2.7) <= 1e-6
        assert _agreement_cp2(rng, 2.7, "mixed") <= 1e-6
        assert _agreement_cp2(rng, 2.7, "both_above") <= 1e-6


def test_criterion_11_truncation_adversary():
    with _criterion(11, "truncation adversary separates equal-split", 5.0):
        for name in ("proportional", "quadratic", "greedy"):
            failing = rf.truncation_adversary(
                rf.algorithm_by_name(name), [[0.3, 0.6]]
            )
            assert failing is not None, name
        rng = np.random.default_rng(606)
        equal_split = rf.algorithm_by_name("equal-split")
        for _ in range(100):
            rounds = int(rng.integers(1, 10))
            n = int(rng.integers(2, 5))
            prefix = rng.uniform(0.0, 2.0, size=(rounds, n))
            assert rf.truncation_adversary(equal_split, prefix) is None
