"""Command-line front end.

One subcommand per artifact class: ``run`` executes an allocator on an
instance and audits the outcome, ``verify`` audits a stored allocation,
``sweep`` traces the worst-case trade-off curves, ``search`` minimizes a
closed-form ratio objective, ``replay-lb`` replays the two-branch lower
bound, and ``doomsday`` reports per-round rescue feasibility.

Exit codes: 0 on success, 2 on parse or validation failure, 3 when ``verify``
detects a property violation.  Reports go to stdout and are byte-stable
across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adversarial import (
    GRID_STEP,
    fair_share_violation_instance,
    lower_bound_instances,
    minimize_alpha,
    multi_agent_instance,
    objective_by_name,
    replay_lower_bound,
    sweep_tradeoff_curves,
    three_round_cp,
    two_round_instance,
)
from .algorithms import algorithm_by_name
from .core import DEFAULT_TOL, Instance
from .errors import RoundFairError
from .metrics import audit, doomsday_trace
from .reporting import (
    RunRecord,
    _sig12,
    emit_report,
    emit_table,
    parse_allocation,
    parse_instance_document,
)


def _resolve_instances(spec: str) -> list[tuple[str, Instance]]:
    """Turn ``--instance`` into named instances: a generator spec or a file path."""
    kind, _, args = spec.partition(":")
    if kind == "two-round-symmetric":
        v = float(args)
        return [(spec, two_round_instance(v, v))]
    if kind == "three-round-cp":
        parts = [float(x) for x in args.split(",")]
        if len(parts) not in (2, 3):
            raise RoundFairError(
                "three-round-cp takes v11,v21[,eps] as arguments"
            )
        return [(spec, three_round_cp(*parts))]
    if kind == "fs-violation":
        return [(spec, fair_share_violation_instance(float(args)))]
    if kind == "lb-pair":
        if spec != kind:
            raise RoundFairError("lb-pair takes no arguments")
        first, second = lower_bound_instances()
        return [("lb-1", first), ("lb-2", second)]
    if kind == "multi-agent":
        return [(spec, multi_agent_instance(int(args)))]
    path = Path(spec)
    instance, metadata = parse_instance_document(path.read_text())
    return [(metadata.get("name", path.stem), instance)]


def _cmd_run(args) -> int:
    algorithm = algorithm_by_name(args.algorithm, args.p)
    records = []
    for name, instance in _resolve_instances(args.instance):
        trace = algorithm.run(instance)
        verdict = audit(instance, trace.allocation, args.tol)
        records.append(
            RunRecord(
                algorithm=algorithm.name,
                p=algorithm.p,
                instance_name=name,
                verdict=verdict,
                critical_event=trace.critical_event,
            )
        )
    sys.stdout.write(emit_report(records, args.format))
    return 0


def _cmd_verify(args) -> int:
    instance, metadata = parse_instance_document(Path(args.instance).read_text())
    allocation = parse_allocation(Path(args.allocation).read_text())
    verdict = audit(instance, allocation, args.tol)
    record = RunRecord(
        algorithm="verify",
        p=None,
        instance_name=metadata.get("name", Path(args.instance).stem),
        verdict=verdict,
    )
    sys.stdout.write(emit_report([record], args.format))
    violated = (not verdict.fair_share_ok) or verdict.envy_free_ok is False
    return 3 if violated else 0


def _cmd_sweep(args) -> int:
    p_values = [float(x) for x in args.p_values.split(",") if x.strip()]
    if not p_values:
        raise RoundFairError(f"--p-values needs at least one exponent, got {args.p_values!r}")
    rows = sweep_tradeoff_curves(p_values, args.grid_step)
    sys.stdout.write(
        emit_table(
            ("p", "no_cp_alpha", "with_cp_alpha"),
            [(r.p, r.no_cp_alpha, r.with_cp_alpha) for r in rows],
            args.format,
        )
    )
    return 0


def _cmd_search(args) -> int:
    objective = objective_by_name(args.objective, args.p)
    result = minimize_alpha(objective, args.grid_step)
    argmin = " ".join(map(_sig12, result.argmin))
    sys.stdout.write(
        emit_table(
            ("objective", "p", "argmin", "value", "evaluations", "refined"),
            [
                (
                    objective.name,
                    objective.p,
                    argmin,
                    result.value,
                    result.evaluations,
                    result.refined,
                )
            ],
            args.format,
        )
    )
    return 0


def _cmd_replay_lb(args) -> int:
    algorithm = algorithm_by_name(args.algorithm, args.p)
    verdict = replay_lower_bound(algorithm, args.tol)
    sys.stdout.write(
        emit_table(
            (
                "algorithm",
                "p",
                "ratio1",
                "ratio2",
                "min_ratio",
                "fair_share_violated",
                "explanation",
            ),
            [
                (
                    algorithm.name,
                    algorithm.p,
                    verdict.ratio1,
                    verdict.ratio2,
                    min(verdict.ratio1, verdict.ratio2),
                    verdict.fair_share_violated,
                    verdict.explanation,
                )
            ],
            args.format,
        )
    )
    return 0


def _cmd_doomsday(args) -> int:
    instances = _resolve_instances(args.instance)
    if len(instances) != 1:
        raise RoundFairError("doomsday needs a single instance, not a pair")
    name, instance = instances[0]
    algorithm = algorithm_by_name(args.algorithm, args.p)
    trace = algorithm.run(instance)
    flags = doomsday_trace(instance, trace, args.tol)
    sys.stdout.write(
        emit_table(
            ("round", "compatible"),
            [(t, ok) for t, ok in enumerate(flags)],
            args.format,
        )
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roundfair",
        description="Online fair division of divisible items: run, audit, and stress allocation rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    run = sub.add_parser("run", help="run an allocator on an instance and audit it")
    run.add_argument("--algorithm", required=True)
    run.add_argument("--p", type=float, default=None)
    run.add_argument("--instance", required=True,
                     help="file path or generator spec, e.g. two-round-symmetric:0.599")
    run.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(run)
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="audit a stored allocation against an instance")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--allocation", required=True)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(verify)
    verify.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser("sweep", help="trace the worst-case trade-off curves over p")
    sweep.add_argument("--p-values", required=True, help="comma-separated exponents, each finite and > 0")
    sweep.add_argument("--grid-step", type=float, default=GRID_STEP)
    add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    search = sub.add_parser("search", help="minimize a closed-form ratio objective")
    search.add_argument("--objective", required=True)
    search.add_argument("--p", type=float, default=None)
    search.add_argument("--grid-step", type=float, default=GRID_STEP)
    add_common(search)
    search.set_defaults(func=_cmd_search)

    replay = sub.add_parser("replay-lb", help="replay the two-branch lower bound")
    replay.add_argument("--algorithm", required=True)
    replay.add_argument("--p", type=float, default=None)
    replay.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(replay)
    replay.set_defaults(func=_cmd_replay_lb)

    doomsday = sub.add_parser("doomsday", help="per-round rescue feasibility of a run")
    doomsday.add_argument("--instance", required=True)
    doomsday.add_argument("--algorithm", required=True)
    doomsday.add_argument("--p", type=float, default=None)
    doomsday.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(doomsday)
    doomsday.set_defaults(func=_cmd_doomsday)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RoundFairError, OSError, ValueError) as exc:
        print(f"roundfair: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
