"""Run one benchmark workload and print its result as a JSON line.

    python3 bench/run.py --workload pool --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the last line holds the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it holds the per-layer metrics from a traced
run.  Lines before it are a readable summary.  See README.md beside this file.

Times in the end-to-end metrics are normalised: each is divided by the time of
a fixed reference kernel taken just before it, then scaled by that kernel's
time on a quiet machine.  On a shared 2-vCPU sandbox the same code ran 1.0x
to 1.75x slower for minutes at a time; the kernel slows with it, so the
quotient tracks the program and not the neighbours.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

#: Seconds :func:`reference_seconds` takes on a quiet 2.1 GHz sandbox CPU.
#: Normalised times are scaled by it, so they read as seconds at that speed.
REFERENCE_QUIET_S = 0.007

#: Wall seconds between two timings of the reference kernel during a run.
REFERENCE_EVERY_S = 0.1

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), workloads.Path(sys.argv[3]))
print(time.perf_counter() - t0)
"""

WORKLOAD_NAMES = ("pool", "horizon", "analysis", "cli")


def reference_seconds() -> float:
    """Time one call of a fixed kernel of Python loops, dict work and small
    numpy arrays, the mix most operations here are made of.  It does not
    touch the program under test."""
    t0 = perf_counter()
    row = np.arange(20.0)
    total = 0.0
    for i in range(1500):
        scaled = row * (i % 7) + 1.0
        total += float(scaled.sum() / scaled.max())
        table = {k: k * i for k in range(10)}
        total += sum(table.values()) * 1e-9
    return perf_counter() - t0


def measure(ops, seconds: float):
    """Run whole rounds of ``ops`` until ``seconds`` of wall time have passed.

    Returns each operation's wall times and normalised times (one list per
    operation of the round, holding every round in which it returned), the
    counts attempted and failed, the rounds completed and the wrong outputs.
    """
    from checks import CheckError

    times = [[] for _ in ops]
    normalised = [[] for _ in ops]
    wrong = []
    attempted = failed = rounds = 0
    start = perf_counter()
    reference, referenced = reference_seconds(), perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for k, op in enumerate(ops):
            attempted += 1
            if perf_counter() - referenced > REFERENCE_EVERY_S:
                reference, referenced = reference_seconds(), perf_counter()
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception:  # a raising operation is counted as failed; the run goes on
                failed += 1
                print(f"{op.name}: operation raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            elapsed = perf_counter() - t0
            times[k].append(elapsed)
            normalised[k].append(elapsed / reference * REFERENCE_QUIET_S)
            try:
                if not op.check(out):
                    failed += 1
            except CheckError as exc:
                wrong.append(f"{op.name}: {exc}")
        rounds += 1
    return times, normalised, attempted, failed, rounds, wrong


def round_seconds(times) -> float:
    """One round's time: each operation's median over the rounds, summed.

    Summing weighs each operation by its cost, so rounds of very different
    operations still give one steady number.
    """
    return sum(statistics.median(t) for t in times if t)


def setup_seconds(name: str, seed: int, work: Path) -> tuple[float, float]:
    """Median over fresh interpreters of importing the package and building
    the workload's inputs: normalised by reference timings taken just before
    and after each interpreter, and as wall time."""
    from workloads import child_env

    wall, normalised = [], []
    for k in range(SETUP_REPEATS):
        out = work / f"setup-{k}"
        out.mkdir()
        before = reference_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, name, str(seed), str(out)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120, check=True,
        )
        reference = (before + reference_seconds()) / 2.0
        seconds = float(proc.stdout.strip().splitlines()[-1])
        wall.append(seconds)
        normalised.append(seconds / reference * REFERENCE_QUIET_S)
    return statistics.median(normalised), statistics.median(wall)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer, import_times

    workload = workloads.WORKLOADS[name]
    tracer = Tracer()
    if trace:
        import scipy.optimize  # noqa: F401  -- loaded so its solvers are wrapped too

        tracer.install()  # before build, so set-up calls are traced as well
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work_") as tmp:
        work = Path(tmp)
        (work / "inputs").mkdir()
        phases = workloads.Phases()
        inputs = workload.build(seed, work / "inputs")
        trace_dir = None
        if trace and not workload.in_process:
            trace_dir = work / "traces"
            trace_dir.mkdir()
        ops = workload.ops(inputs, phases, trace_dir)
        times, normalised, attempted, failed, rounds, wrong = measure(ops, seconds)
        tracer.uninstall()
        usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0

        summary = dict(workload.summary(phases))
        summary["round_wall_s"] = (round_seconds(times), "s")
        summary["round_norm_s"] = (round_seconds(normalised), "s")
        if trace:
            if trace_dir is not None:
                for path in sorted(trace_dir.glob("*.json")):
                    tracer.merge(json.loads(path.read_text()))
            samples = [import_times(sys.executable, workloads.child_env(), str(ROOT))
                       for _ in range(SETUP_REPEATS)]
            imports = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
            metrics = tracer.layer_metrics(rounds, imports)
        else:
            setup, setup_wall = setup_seconds(name, seed, work)
            summary["setup_wall_s"] = (setup_wall, "s")
            summary["setup_s"] = (setup, "s")
            summary["peak_rss_mb"] = (peak_mb, "MB")
            metrics = {k: {"value": summary[k][0], "unit": summary[k][1]}
                       for k in ("setup_s", "peak_rss_mb", "round_norm_s")}

    mode = "traced" if trace else "untraced"
    print(f"workload {name} seed {seed} {mode}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed")
    for key, (value, unit) in summary.items():
        print(f"  {key} {value:.6g} {unit}")
    for message in wrong[:10]:
        print(f"wrong output: {message}", file=sys.stderr)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roundfair" / "__init__.py").is_file():
        print(f"bench: no roundfair package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import roundfair

    if Path(roundfair.__file__).resolve().parent != SRC / "roundfair":
        print(f"bench: roundfair loaded from {roundfair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
