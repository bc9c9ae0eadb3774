"""The benchmark's workloads: seeded inputs, the operations of one round, and
how each operation's output is checked.

Every workload is closed-loop and single-threaded: the runner repeats whole
rounds of the same operations, one at a time, until the run's time is up.
``build`` makes all inputs from the seed (this is what ``setup_s`` times,
together with the package import); ``ops`` turns them into operations.  An
operation's ``call`` is the timed part and uses only the program; its
``check`` compares the result with the benchmark's own computation
(:mod:`checks`), raises ``CheckError`` on a wrong output and returns False
when the operation itself failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import roundfair as rf
from roundfair.errors import DomainError, InfeasibleClosedForm

import checks
from checks import require

SRC = Path(rf.__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


class Phases:
    """Seconds and work units of named phases inside operations, for the
    workload's own summary figures."""

    def __init__(self):
        self.seconds = defaultdict(list)
        self.units = Counter()

    def time(self, phase: str, units: int, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.seconds[phase].append(perf_counter() - t0)
        self.units[phase] += units
        return out

    def rate(self, phase: str) -> float:
        return self.units[phase] / sum(self.seconds[phase])

    def median(self, phase: str) -> float:
        return statistics.median(self.seconds[phase])


def child_env() -> dict:
    """Environment for a child interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    path = [str(SRC), str(BENCH), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


def dirichlet_values(rng, n: int, rounds: int) -> np.ndarray:
    """T x n values whose columns are uniform Dirichlet draws (normalized)."""
    return rng.dirichlet(np.ones(rounds), size=n).T


def normalized(values) -> rf.Instance:
    return rf.validate_instance(values, require_normalized=True)


# ---------------------------------------------------------------------------
# pool: many short runs, every built-in rule, each trace audited

POOL_SIZE = 10_000
POOL_MAX_ROUNDS = 20
SMALL_N = (4, 9, 16, 25)
SMALL_POOL = 250
GUARD_P = (0.0, 1.0, 2.0, 2.7, 5.0, 10.0)
VIOLATION_P = (2.1, 2.5, 3.0, 4.0, 6.0)


def pool_rules() -> list:
    """The built-ins plus the guarded rule at every GUARD_P, without repeats."""
    rules = list(rf.builtin_algorithms())
    have = {(a.p, a.guarded) for a in rules}
    rules += [rf.Algorithm(f"guarded-{p:g}", p, guarded=True)
              for p in GUARD_P if (p, True) not in have]
    return rules


def build_pool(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)

    def draw(n):
        return normalized(dirichlet_values(rng, n, int(rng.integers(1, POOL_MAX_ROUNDS + 1))))

    return {
        "two": [draw(2) for _ in range(POOL_SIZE)],
        "many": [draw(n) for n in SMALL_N for _ in range(SMALL_POOL)],
        "violations": [(p, rf.fair_share_violation_instance(p)) for p in VIOLATION_P],
    }


def _checked_run(phases, instance, rule):
    trace = phases.time("run", 1, rule.run, instance)
    t0 = perf_counter()
    verdict = rf.audit(instance, trace.allocation)
    flags = rf.doomsday_trace(instance, trace)
    phases.seconds["audit"].append(perf_counter() - t0)
    phases.units["audit"] += 1
    return trace, verdict, flags


def check_run(instance, rule, out, whole_doomsday: bool = True) -> bool:
    """Every property a run of ``rule`` on a normalized instance must have."""
    trace, verdict, flags = out
    values, x = instance.values, trace.allocation.fractions
    n = values.shape[1]
    checks.check_allocation(x)
    if rule.guarded:
        checks.check_guarded(values, x, trace.critical_event, rule.p)
    else:
        checks.check_power_rule(values, x, rule.p)
        require(trace.critical_event is None, f"{rule.name} reported a trip")
    checks.check_welfare(values, x, verdict)
    fair = checks.is_fair(values, x)
    require(verdict.fair_share_ok == fair, f"{rule.name}: audit fair_share disagrees")
    checks.check_doomsday(values, x, flags, whole_doomsday)
    if not rule.guarded and (rule.p == 0.0 or (n == 2 and rule.p <= 2.0)):
        require(fair, f"{rule.name} broke fair-share")
    if n > 2 and rule.p == 1.0:
        require(verdict.ratio >= 1.0 / (2.0 * math.sqrt(n)) - checks.TOL,
                f"proportional ratio {verdict.ratio} below 1/(2 sqrt {n})")
    return True


def check_violation(instance, p, out) -> bool:
    """The power rule with p > 2 must starve agent 1 on the violation instance."""
    trace, verdict, flags = out
    x = trace.allocation.fractions
    checks.check_power_rule(instance.values, x, p)
    u = checks.utilities(instance.values, x)
    require(u.min() < 0.5 - 1e-6, f"p={p} kept fair-share on its violation instance")
    require(not verdict.fair_share_ok and not all(flags), f"p={p} violation not reported")
    return True


def pool_ops(inputs, phases, trace_dir=None) -> list:
    rules = pool_rules()
    small_rules = [a for a in rules if not a.guarded and a.name in
                   {b.name for b in rf.builtin_algorithms()}]
    ops = []
    for group, pick in (("two", rules), ("many", small_rules)):
        for k, instance in enumerate(inputs[group]):
            rule = pick[k % len(pick)]
            ops.append(Op("run", partial(_checked_run, phases, instance, rule),
                          partial(check_run, instance, rule)))
    for p, instance in inputs["violations"]:
        rule = rf.Algorithm(f"poly-{p:g}", p)
        ops.append(Op("violation", partial(_checked_run, phases, instance, rule),
                      partial(check_violation, instance, p)))
    return ops


def pool_summary(phases) -> dict:
    return {"runs_per_s": (phases.rate("run"), "1/s"),
            "audits_per_s": (phases.rate("audit"), "1/s")}


# ---------------------------------------------------------------------------
# horizon: a few long runs, n-agent doomsday traces and the offline LP

def late_trip_values(rng, rounds: int) -> np.ndarray:
    """Two agents where agent 1 slightly out-values agent 0 on the first 90%
    of rounds and wants nothing after; agent 0 is near uniform.  For p >= 2.7
    agent 0's guard binds late in that first stretch."""
    stretch = int(0.9 * rounds)
    a = rng.gamma(200.0, size=rounds)
    b = rng.gamma(200.0, size=rounds)
    b[stretch:] = 0.0
    return np.column_stack([a / a.sum(), b / b.sum()])


#: (kind, agents, rounds, rule).
HORIZON_RUNS = (
    ("late", 2, 100_000, rf.Algorithm("guarded-2.7", 2.7, guarded=True)),
    ("late", 2, 30_000, rf.Algorithm("guarded-5", 5.0, guarded=True)),
    ("late", 2, 10_000, rf.Algorithm("guarded-10", 10.0, guarded=True)),
    ("random", 2, 30_000, rf.Algorithm("guarded-2", 2.0, guarded=True)),
    ("random", 2, 30_000, rf.Algorithm("proportional", 1.0)),
    ("random", 16, 10_000, rf.Algorithm("proportional", 1.0)),
    ("random", 32, 5_000, rf.Algorithm("quadratic", 2.0)),
)
#: LP sizes keep the dense LP far below the machine's memory: its constraint
#: matrix is (T + n) x (T n) doubles, and 16 x 600 peaks near 0.26 GB.
LP_MULTI_AGENT = (16, 25, 64)
LP_RANDOM = ((16, 600), (8, 800))


def build_horizon(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    runs = []
    for kind, n, rounds, rule in HORIZON_RUNS:
        values = late_trip_values(rng, rounds) if kind == "late" else dirichlet_values(rng, n, rounds)
        runs.append((normalized(values), rule))
    lps = [(rf.multi_agent_instance(n), n) for n in LP_MULTI_AGENT]
    lps += [(normalized(dirichlet_values(rng, n, rounds)), None) for n, rounds in LP_RANDOM]
    return {"runs": runs, "lps": lps}


def _long_run(phases, instance, rule):
    rounds = instance.num_rounds
    trace = phases.time("run", rounds, rule.run, instance)
    verdict = rf.audit(instance, trace.allocation)
    flags = phases.time("doomsday", rounds, rf.doomsday_trace, instance, trace)
    return trace, verdict, flags


def check_lp(instance, multi_agent_n, welfare) -> bool:
    checks.check_lp(instance.values, welfare)
    if multi_agent_n is not None:
        want = checks.multi_agent_lp_optimum(multi_agent_n)
        require(abs(welfare - want) <= 1e-8, f"LP on multi-agent({multi_agent_n}) = {welfare!r}, want {want!r}")
    return True


def horizon_ops(inputs, phases, trace_dir=None) -> list:
    # Only the last doomsday flag is checked here: on 10^5-round runs that
    # trip, accumulated roundoff can flag a late state of a fair run as
    # incompatible on some seeds, a fault of the program that a seeded
    # check would report only at random.
    ops = [Op("run", partial(_long_run, phases, instance, rule),
              partial(check_run, instance, rule, whole_doomsday=False))
           for instance, rule in inputs["runs"]]
    ops += [Op("lp", partial(phases.time, "lp", 1, rf.offline_fair_share_welfare, instance),
               partial(check_lp, instance, n)) for instance, n in inputs["lps"]]
    return ops


def horizon_summary(phases) -> dict:
    return {"rounds_per_s": (phases.rate("run"), "1/s"),
            "doomsday_rounds_per_s": (phases.rate("doomsday"), "1/s"),
            "lp_s": (phases.median("lp"), "s")}


# ---------------------------------------------------------------------------
# analysis: sweeps, searches and closed-form agreement

SWEEP_P = tuple(round(2.0 + 0.01 * k, 10) for k in range(101))
SEARCHES = (
    ("proportional", None),
    ("poly-two-round", 2.0),
    ("poly-two-round-diagonal", 2.0),
    ("guarded-cp1", 2.7),
    ("guarded-cp2-mixed", 2.7),
    ("guarded-cp2-both-above", 2.7),
)
#: Lower limits on each search's minimum, from the paper's constants.
SEARCH_FLOOR = {"guarded-cp1": 0.916, "guarded-cp2-mixed": 0.93, "guarded-cp2-both-above": 0.93}
AGREE_P = 2.7
AGREE_SAMPLES = 200
CP2_CANDIDATES = 400


def build_analysis(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    ceiling = rf.guard_ratio_ceiling(AGREE_P)
    two_round = {}
    for p in (1.0, 2.0, AGREE_P):
        v1 = rng.uniform(0.501, 0.999, AGREE_SAMPLES)
        v2 = rng.uniform(np.maximum(0.501, 1.002 - v1), 0.999)
        two_round[p] = list(zip(v1.tolist(), v2.tolist()))
    cp1 = rng.uniform(1.0005, ceiling - 0.0005, AGREE_SAMPLES).tolist()
    cp2 = {}
    for subcase, (lo, hi) in (("mixed", (0.05, 0.95)), ("both_above", (ceiling + 0.005, 8.0))):
        lam1 = rng.uniform(1.001, ceiling - 0.001, CP2_CANDIDATES)
        lam2 = rng.uniform(lo, hi, CP2_CANDIDATES)
        cp2[subcase] = list(zip(lam1.tolist(), lam2.tolist()))
    prefixes = [rng.uniform(0.0, 2.0, size=(int(rng.integers(1, 10)), int(rng.integers(2, 5))))
                for _ in range(100)]
    return {"two_round": two_round, "cp1": cp1, "cp2": cp2, "prefixes": prefixes}


def check_sweep(rows) -> bool:
    by_p = {row.p: (row.no_cp_alpha, row.with_cp_alpha) for row in rows}
    require(sorted(by_p) == sorted(SWEEP_P), "sweep rows do not match the requested p")
    require(checks.check_tradeoff_rows(by_p) == len(checks.TRADEOFF_TABLE),
            "sweep misses trade-off table rows")
    for p, (no_cp, with_cp) in by_p.items():
        require(0.0 < no_cp <= 1.0, f"no-trip ratio {no_cp!r} at p={p}")
        require(math.isnan(with_cp) == (p <= 2.0), f"with-trip ratio {with_cp!r} at p={p}")
    return True


def _search(name, p):
    objective = rf.objective_by_name(name, p)
    return objective, rf.minimize_alpha(objective)


def check_search(name, p, out) -> bool:
    """The minimum must be the objective's value at the argmin, no larger than
    the objective anywhere on a coarse probe grid, and match the paper."""
    objective, result = out
    value = result.value
    require(abs(objective.evaluate(result.argmin) - value) <= checks.TOL,
            f"{name}: value is not the objective at the argmin")
    for point in _probe_points(objective.bounds, objective.margin):
        try:
            probe = objective.evaluate(point)
        except DomainError:
            continue
        require(value <= probe + checks.TOL, f"{name}: {point} gives {probe!r} < minimum {value!r}")
    if name == "proportional":
        require(abs(value - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-9, f"proportional minimum {value!r}")
        require(max(abs(x - 1.0 / math.sqrt(2.0)) for x in result.argmin) <= 1e-4,
                f"proportional argmin {result.argmin}")
    elif name.startswith("poly-two-round"):
        want = checks.alpha_poly_two_round(p, 0.6265, 0.6265)
        require(abs(value - 0.8941) <= 1e-3 and value <= want + checks.TOL,
                f"{name} minimum {value!r}")
    else:
        require(value >= SEARCH_FLOOR[name] - 1e-3, f"{name} minimum {value!r}")
    return True


def _probe_points(bounds, margin, steps=9):
    axes = [np.linspace(lo + margin, hi - margin, steps) for lo, hi in bounds]
    return [tuple(float(v) for v in point)
            for point in np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))]


def _agree_two_round(p, points):
    out = []
    for v1, v2 in points:
        instance = rf.two_round_instance(v1, v2)
        trace = rf.run_poly(instance, p)
        verdict = rf.audit(instance, trace.allocation)
        closed = rf.alpha_proportional(v1, v2) if p == 1.0 else rf.alpha_poly_two_round(p, v1, v2)
        out.append((v1, v2, trace.allocation.fractions, verdict.ratio, closed))
    return out


def check_two_round(p, out) -> bool:
    for v1, v2, x, ratio, closed in out:
        values = np.array([[v1, 1.0 - v2], [1.0 - v1, v2]])
        checks.check_power_rule(values, x, p)
        own = checks.alpha_poly_two_round(p, v1, v2)
        require(abs(ratio - own) <= checks.TOL and abs(closed - own) <= checks.TOL,
                f"two-round p={p} at ({v1}, {v2}): audit {ratio!r}, closed {closed!r}, own {own!r}")
    return True


def _agree_cp1(lambdas):
    out = []
    for lam in lambdas:
        instance = rf.guarded_cp1_instance(AGREE_P, lam)
        trace = rf.run_guarded(instance, AGREE_P)
        verdict = rf.audit(instance, trace.allocation)
        out.append((instance, trace, verdict, rf.alpha_guarded_cp1(AGREE_P, lam)))
    return out


def _agree_cp2(subcase, candidates):
    out = []
    for lam1, lam2 in candidates:
        try:
            instance = rf.guarded_cp2_instance(AGREE_P, lam1, lam2)
            closed = rf.alpha_guarded_cp2(AGREE_P, lam1, lam2, subcase, slack=0.0)
        except (InfeasibleClosedForm, DomainError):
            continue
        trace = rf.run_guarded(instance, AGREE_P)
        event = trace.critical_event
        if event is None or event.round_index != 1:
            continue  # outside the trip-at-round-2 family
        out.append((instance, trace, rf.audit(instance, trace.allocation), closed))
    return out


def check_guarded_agreement(expect_round, out) -> bool:
    """Closed form vs simulate-and-audit, plus the guarded rule's own checks."""
    require(len(out) > 0, "no sample realised the closed form")
    for instance, trace, verdict, closed in out:
        values, x = instance.values, trace.allocation.fractions
        event = trace.critical_event
        require(event is not None and event.round_index == expect_round,
                f"expected a trip in round {expect_round}, got {event}")
        checks.check_guarded(values, x, event, AGREE_P)
        checks.check_welfare(values, x, verdict)
        require(abs(verdict.ratio - closed) <= 1e-6,
                f"closed form {closed!r} vs simulated {verdict.ratio!r}")
    return True


def _replay_all():
    return [(a, rf.replay_lower_bound(a)) for a in rf.builtin_algorithms()]


def check_replay(out) -> bool:
    for algorithm, verdict in out:
        require(min(verdict.ratio1, verdict.ratio2) <= 0.933 + 1e-6 or verdict.fair_share_violated,
                f"{algorithm.name} beats the two-branch lower bound")
    return True


TRUNCATION_PREFIX = ((0.3, 0.6),)


def _truncations(prefixes):
    named = [(name, rf.truncation_adversary(rf.algorithm_by_name(name), TRUNCATION_PREFIX))
             for name in ("proportional", "quadratic", "greedy")]
    equal = rf.algorithm_by_name("equal-split")
    return named, [rf.truncation_adversary(equal, prefix) for prefix in prefixes]


def check_truncations(out) -> bool:
    named, equal_split = out
    for name, found in named:
        require(found is not None, f"no truncation found against {name}")
        v = found.values
        require(np.all(v[-1] == 0.0) and np.array_equal(v[:-1], np.array(TRUNCATION_PREFIX)),
                f"{name}: truncation is not the prefix plus a zero round")
    require(all(found is None for found in equal_split), "equal split was truncated")
    return True


def analysis_ops(inputs, phases, trace_dir=None) -> list:
    ops = [Op("sweep", partial(phases.time, "sweep", 1, rf.sweep_tradeoff_curves, SWEEP_P),
              check_sweep)]
    ops += [Op("search", partial(phases.time, "search", 1, _search, name, p),
               partial(check_search, name, p)) for name, p in SEARCHES]
    ops += [Op("agree", partial(_agree_two_round, p, points), partial(check_two_round, p))
            for p, points in inputs["two_round"].items()]
    ops.append(Op("agree", partial(_agree_cp1, inputs["cp1"]), partial(check_guarded_agreement, 0)))
    ops += [Op("agree", partial(_agree_cp2, subcase, points), partial(check_guarded_agreement, 1))
            for subcase, points in inputs["cp2"].items()]
    ops.append(Op("replay", _replay_all, check_replay))
    ops.append(Op("truncation", partial(_truncations, inputs["prefixes"]), check_truncations))
    return ops


def analysis_summary(phases) -> dict:
    searches = len(SEARCHES)
    per_round = [sum(phases.seconds["search"][i:i + searches])
                 for i in range(0, len(phases.seconds["search"]), searches)]
    return {"sweep_s": (phases.median("sweep"), "s"),
            "search_s": (statistics.median(per_round), "s")}


# ---------------------------------------------------------------------------
# cli: cold invocations of every subcommand, one at a time

CLI_INSTANCE_ROUNDS = 20
UNNORMALIZED = ((0.05, 0.05), (0.05, 0.05))
CLI_MAIN = "import sys; from roundfair.cli import main; sys.exit(main())"


def _grid_text(matrix, name=None) -> str:
    matrix = np.asarray(matrix, dtype=float)
    lines = [f"# name: {name}"] if name else []
    lines.append(f"{matrix.shape[1]} {matrix.shape[0]}")
    lines += [" ".join(repr(float(v)) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def violation_values(p: float) -> np.ndarray:
    x = (1.0 / (p - 1.0)) ** (1.0 / p)
    return np.array([[x, 1.0], [1.0 - x, 0.0]])


def build_cli(seed: int, work: Path) -> dict:
    """Instance and allocation files for ``run`` and ``verify``."""
    rng = np.random.default_rng(seed)
    cases = {
        "fair": (dirichlet_values(rng, 2, CLI_INSTANCE_ROUNDS), 2.0),
        "violation": (violation_values(3.0), 3.0),
        "unnormalized": (np.array(UNNORMALIZED), 0.0),
    }
    files = {}
    for name, (values, p) in cases.items():
        inst, alloc = work / f"{name}.inst", work / f"{name}.alloc"
        inst.write_text(_grid_text(values, f"bench-{name}"))
        alloc.write_text(_grid_text(checks.power_fractions(values, p)))
        files[name] = (values, str(inst), str(alloc))
    return files


def _invoke(phases, args, trace_dir):
    if trace_dir is None:
        code = CLI_MAIN
    else:
        out = Path(trace_dir) / f"cli-{len(phases.seconds['cli'])}.json"
        code = f"import sys, tracer; sys.exit(tracer.traced_cli_main({str(out)!r}))"
    run = partial(subprocess.run, capture_output=True, text=True, env=child_env(), timeout=120)
    return phases.time("cli", 1, run, [sys.executable, "-c", code, *args])


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def cli_ops(inputs, phases, trace_dir=None) -> list:
    seen = {}

    def expect(key, code, check=None):
        def judge(proc):
            if proc.returncode != code:
                print(f"cli {key}: exit {proc.returncode}, expected {code}: {proc.stderr.strip()}",
                      file=sys.stderr)
                return False
            first = seen.setdefault(key, proc.stdout)
            require(proc.stdout == first, f"cli {key}: stdout differs between identical invocations")
            if check is not None:
                check(proc.stdout)
            return True
        return judge

    def guarded_run(stdout):
        (row,) = _csv_rows(stdout)
        want = checks.alpha_poly_two_round(2.7, 0.599, 0.599)
        require(abs(float(row["ratio"]) - want) <= checks.TOL, f"run ratio {row['ratio']} vs {want!r}")
        require(row["fair_share"] == "true", "guarded run reported unfair")

    fair_values, fair_inst, fair_alloc = inputs["fair"]

    def file_run(stdout):
        (row,) = json.loads(stdout)
        x = checks.power_fractions(fair_values, 1.0)
        sw = float(checks.utilities(fair_values, x).sum())
        opt = float(fair_values.max(axis=1).sum())
        require(abs(row["sw"] - sw) <= checks.TOL and abs(row["opt"] - opt) <= checks.TOL
                and abs(row["ratio"] - sw / opt) <= checks.TOL, f"run report {row}")
        require(row["fair_share"] is True, "proportional run reported unfair")

    def verdict(fair):
        def check(stdout):
            (row,) = _csv_rows(stdout)
            require(row["fair_share"] == ("true" if fair else "false"), f"verify report {row}")
        return check

    def sweep(stdout):
        by_p = {float(r["p"]): (float(r["no_cp_alpha"]),
                                float(r["with_cp_alpha"]) if r["with_cp_alpha"] else math.nan)
                for r in _csv_rows(stdout)}
        require(checks.check_tradeoff_rows(by_p) == 4, "sweep misses trade-off rows")

    def search(stdout):
        (row,) = _csv_rows(stdout)
        require(abs(float(row["value"]) - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-9, f"search {row}")
        argmin = [float(v) for v in row["argmin"].split()]
        require(max(abs(v - 1.0 / math.sqrt(2.0)) for v in argmin) <= 1e-4, f"search {row}")

    def replay(stdout):
        (row,) = _csv_rows(stdout)
        require(float(row["min_ratio"]) <= 0.933 + 1e-6 or row["fair_share_violated"] == "true",
                f"replay-lb {row}")

    def doomsday(stdout):
        flags = [r["compatible"] == "true" for r in _csv_rows(stdout)]
        values = violation_values(3.0)
        fair = checks.is_fair(values, checks.power_fractions(values, 3.0))
        require(len(flags) == 2 and all(flags) == fair, f"doomsday flags {flags}, fair={fair}")

    def unnormalized(proc):
        # Each agent's own total is 0.1, so the equal split gives every agent
        # a full fair share: a correct verify exits 0, or 2 if it rejects
        # unnormalized input.  Exit 3 calls a fair allocation a violation.
        return proc.returncode in (0, 2)

    _, viol_inst, viol_alloc = inputs["violation"]
    _, unnorm_inst, unnorm_alloc = inputs["unnormalized"]
    guarded = ["run", "--algorithm", "guarded", "--p", "2.7", "--instance", "two-round-symmetric:0.599"]
    invocations = (
        ("run-guarded", guarded, expect("run-guarded", 0, guarded_run)),
        ("run-guarded", guarded, expect("run-guarded", 0, guarded_run)),
        ("run-file", ["run", "--algorithm", "proportional", "--instance", fair_inst,
                      "--format", "json"], expect("run-file", 0, file_run)),
        ("verify-fair", ["verify", "--instance", fair_inst, "--allocation", fair_alloc],
         expect("verify-fair", 0, verdict(True))),
        ("verify-violation", ["verify", "--instance", viol_inst, "--allocation", viol_alloc],
         expect("verify-violation", 3, verdict(False))),
        ("verify-unnormalized", ["verify", "--instance", unnorm_inst, "--allocation", unnorm_alloc],
         unnormalized),
        ("sweep", ["sweep", "--p-values", "2,2.7,3"], expect("sweep", 0, sweep)),
        ("search", ["search", "--objective", "proportional"], expect("search", 0, search)),
        ("replay-lb", ["replay-lb", "--algorithm", "guarded", "--p", "2.7"],
         expect("replay-lb", 0, replay)),
        ("doomsday", ["doomsday", "--instance", "fs-violation:3", "--algorithm", "poly",
                      "--p", "3"], expect("doomsday", 0, doomsday)),
    )
    return [Op(name, partial(_invoke, phases, args, trace_dir), judge)
            for name, args, judge in invocations]


def cli_summary(phases) -> dict:
    return {"cli_p50_s": (phases.median("cli"), "s")}


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path], Any]
    ops: Callable[..., list]
    summary: Callable[[Phases], dict]
    in_process: bool = True


WORKLOADS = {
    "pool": Workload(build_pool, pool_ops, pool_summary),
    "horizon": Workload(build_horizon, horizon_ops, horizon_summary),
    "analysis": Workload(build_analysis, analysis_ops, analysis_summary),
    "cli": Workload(build_cli, cli_ops, cli_summary, in_process=False),
}
