"""Tests of the benchmark itself: its checks reject corrupted outputs, the
tracer sees calls made inside the package, and the runner emits exactly the
metrics BENCHMARK.json declares.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import roundfair as rf  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(instance, rule):
    phases = workloads.Phases()
    return workloads._checked_run(phases, instance, rule)


def _with_fractions(out, fractions):
    trace, verdict, flags = out
    allocation = SimpleNamespace(fractions=np.asarray(fractions))
    return SimpleNamespace(allocation=allocation, critical_event=trace.critical_event), verdict, flags


@pytest.fixture
def instance():
    rng = np.random.default_rng(7)
    return workloads.normalized(workloads.dirichlet_values(rng, 2, 12))


@pytest.fixture
def tripping():
    """A late-trip instance on which the guard at p = 5 hands over."""
    rng = np.random.default_rng(3)
    inst = workloads.normalized(workloads.late_trip_values(rng, 400))
    rule = rf.Algorithm("guarded-5", 5.0, guarded=True)
    out = _run(inst, rule)
    assert out[0].critical_event is not None
    return inst, rule, out


def test_real_runs_pass_every_check(instance, tripping):
    for rule in workloads.pool_rules():
        assert workloads.check_run(instance, rule, _run(instance, rule))
    inst, rule, out = tripping
    assert workloads.check_run(inst, rule, out)


def test_perturbed_poly_fraction_is_rejected(instance):
    rule = rf.Algorithm("quadratic", 2.0)
    out = _run(instance, rule)
    x = np.array(out[0].allocation.fractions)
    x[3, 0] += 1e-6
    x[3, 1] -= 1e-6
    with pytest.raises(CheckError, match="power-rule"):
        workloads.check_run(instance, rule, _with_fractions(out, x))


def test_guarded_utility_below_half_is_rejected(tripping):
    inst, rule, out = tripping
    x = np.array(out[0].allocation.fractions)
    i = out[0].critical_event.agent
    x[-1, i], x[-1, 1 - i] = 0.0, 1.0
    x[-2, i], x[-2, 1 - i] = 0.0, 1.0
    with pytest.raises(CheckError):
        checks.check_guarded(inst.values, x, out[0].critical_event, rule.p)
    low = np.zeros_like(x)
    low[:, 1 - i] = 1.0
    with pytest.raises(CheckError, match="< 1/2"):
        checks.check_guarded(inst.values, low, out[0].critical_event, rule.p)


def test_handover_must_give_everything_to_the_tripped_agent():
    values = [[0.25, 0.75], [0.5, 0.0], [0.25, 0.25]]
    event = SimpleNamespace(round_index=0, fraction=1.0, agent=0)
    checks.check_guarded(values, [[0.25, 0.75], [1.0, 0.0], [1.0, 0.0]], event, 1.0)
    # Both utilities stay above 1/2, so only the hand-over is wrong.
    with pytest.raises(CheckError, match="tripped agent"):
        checks.check_guarded(values, [[0.25, 0.75], [1.0, 0.0], [0.0, 1.0]], event, 1.0)


def test_allocation_bounds():
    checks.check_allocation([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(CheckError):
        checks.check_allocation([[0.7, 0.7]])
    with pytest.raises(CheckError):
        checks.check_allocation([[1.1, -0.1]])


def test_wrong_welfare_is_rejected(instance):
    rule = rf.Algorithm("proportional", 1.0)
    trace, verdict, flags = _run(instance, rule)
    bad = SimpleNamespace(**{**vars(verdict), "optimal_welfare": verdict.optimal_welfare + 1e-6})
    with pytest.raises(CheckError, match="optimum"):
        checks.check_welfare(instance.values, trace.allocation.fractions, bad)


def test_doomsday_must_match_fair_share(instance):
    rule = rf.Algorithm("proportional", 1.0)
    trace, verdict, flags = _run(instance, rule)
    flipped = list(flags)
    flipped[0] = not flipped[0]
    with pytest.raises(CheckError, match="doomsday"):
        checks.check_doomsday(instance.values, trace.allocation.fractions, flipped)


def test_lp_bounds_and_closed_form():
    inst = rf.multi_agent_instance(16)
    welfare = rf.offline_fair_share_welfare(inst)
    assert workloads.check_lp(inst, 16, welfare)
    with pytest.raises(CheckError):
        workloads.check_lp(inst, 16, welfare + 1e-6)
    with pytest.raises(CheckError, match="outside"):
        checks.check_lp(inst.values, float(inst.values.max(axis=1).sum()) + 1e-3)


def test_tradeoff_rows():
    table = {p: (a, a) for p, _, a in checks.TRADEOFF_TABLE}
    assert checks.check_tradeoff_rows(table) == len(checks.TRADEOFF_TABLE)
    table[2.5] = (0.911 + 0.003, 0.911)
    with pytest.raises(CheckError, match="p=2.5"):
        checks.check_tradeoff_rows(table)


def test_search_check_rejects_a_point_above_the_minimum():
    objective, result = workloads._search("proportional", None)
    assert workloads.check_search("proportional", None, (objective, result))
    worse = SimpleNamespace(argmin=(0.8, 0.8), value=objective.evaluate((0.8, 0.8)))
    with pytest.raises(CheckError):
        workloads.check_search("proportional", None, (objective, worse))


def test_power_rule_closed_form():
    want = rf.alpha_poly_two_round(2.7, 0.599, 0.599)
    assert abs(checks.alpha_poly_two_round(2.7, 0.599, 0.599) - want) <= 1e-12


def test_unnormalized_verify_counts_as_failed_only_on_exit_3(tmp_path):
    ops = workloads.cli_ops(workloads.build_cli(1, tmp_path), workloads.Phases())
    (judge,) = [op.check for op in ops if op.name == "verify-unnormalized"]
    assert judge(SimpleNamespace(returncode=0)) and judge(SimpleNamespace(returncode=2))
    assert not judge(SimpleNamespace(returncode=3))


def test_cli_check_rejects_changed_stdout(tmp_path):
    ops = workloads.cli_ops(workloads.build_cli(1, tmp_path), workloads.Phases())
    first, second = [op.check for op in ops if op.name == "run-guarded"]
    want = checks.alpha_poly_two_round(2.7, 0.599, 0.599)
    header = "algorithm,p,instance_name,sw,opt,ratio,fair_share,envy_free,critical_round,critical_fraction\n"
    good = header + f"guarded-2.7,2.7,x,1,1,{want:.12g},true,true,,\n"
    assert first(SimpleNamespace(returncode=0, stdout=good, stderr=""))
    with pytest.raises(CheckError, match="identical"):
        second(SimpleNamespace(returncode=0, stdout=good.replace(",x,", ",y,"), stderr=""))


def test_tracer_sees_calls_inside_the_package_and_uninstalls(instance):
    original = rf.algorithms.validate_allocation
    tracer = Tracer()
    tracer.install()
    try:
        rf.builtin_algorithms()[1].run(instance)
        rf.run_guarded(instance, 2.7)
    finally:
        tracer.uninstall()
    assert rf.algorithms.validate_allocation is original
    assert tracer.calls["core.validate_allocation"] == 2
    assert tracer.calls["algorithms.run_poly"] == 1
    assert tracer.counts["rounds_simulated"] == 2 * instance.num_rounds
    assert tracer.self_time["algorithms.run_guarded"] <= tracer.total["algorithms.run_guarded"]


def test_missing_target_reads_zero(monkeypatch):
    monkeypatch.delattr(rf.algorithms, "_trace_arrays")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.layer_metrics(1, {})
    assert metrics["algorithms._trace_arrays.us_per_call"]["value"] == 0.0


def test_measure_counts_failures_and_wrong_outputs():
    def wrong(out):
        raise CheckError("bad")

    def boom():
        raise RuntimeError("boom")

    ops = [workloads.Op("ok", lambda: 1, lambda out: True),
           workloads.Op("failed", lambda: 1, lambda out: False),
           workloads.Op("raises", boom, lambda out: True),
           workloads.Op("wrong", lambda: 1, wrong)]
    times, normalised, attempted, failed, rounds, bad = run.measure(ops, 0.0)
    assert (attempted, failed, rounds) == (4, 2, 1)
    assert bad == ["wrong: bad"]
    assert [len(t) for t in times] == [1, 1, 0, 1] == [len(t) for t in normalised]
    assert run.round_seconds(normalised) > 0.0


def test_traced_run_emits_every_per_layer_metric(capsys):
    result = run.run("analysis", 1, 0.0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["adversarial.minimize_alpha.grid_points"]["value"] > 0


def test_untraced_run_emits_every_end_to_end_metric(capsys):
    result = run.run("horizon", 1, 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
