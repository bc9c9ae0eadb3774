"""In-memory per-layer tracing for the benchmark.

The tracer wraps module-level functions of each layer at every name where
callers look them up (the defining module, modules that imported the name,
the package namespace and ``scipy.optimize``), so calls made inside the
package are seen too.  Each wrapped call records its count, total time and
self time (total minus the time of wrapped calls beneath it).  Nothing is
written until the run ends.  A target that no longer exists is skipped and
reads as zero calls.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _run_counts(tracer, args, kwargs, trace):
    tracer.counts["rounds_simulated"] += len(trace.cumulative_utility)
    if getattr(trace, "critical_event", None) is not None:
        tracer.counts["trips"] += 1


def _matrix_bytes(matrix) -> int:
    """Bytes held by a dense or scipy.sparse constraint matrix."""
    if matrix is None:
        return 0
    if hasattr(matrix, "nnz"):
        parts = ("data", "indices", "indptr", "row", "col", "offsets")
        return sum(getattr(matrix, a).nbytes for a in parts if hasattr(matrix, a))
    return int(getattr(matrix, "nbytes", 0))


def _lp_bytes(tracer, args, kwargs, result):
    a_ub = kwargs.get("A_ub", args[1] if len(args) > 1 else None)
    size = _matrix_bytes(a_ub) + _matrix_bytes(kwargs.get("A_eq"))
    tracer.counts["lp_constraint_bytes"] = max(tracer.counts["lp_constraint_bytes"], size)


def _refine_evals(tracer, args, kwargs, result):
    tracer.counts["scalar_evals"] += int(getattr(result, "nfev", 0))


def _search_evals(tracer, args, kwargs, result):
    tracer.counts["search_evaluations"] += int(getattr(result, "evaluations", 0))


#: (stat name, module, attribute, timed, hook).  Untimed targets are only
#: counted: they run once per simulated round, where timing would cost more
#: than the call.
TARGETS = (
    ("core.validate_instance", "roundfair.core", "validate_instance", True, None),
    ("core.validate_allocation", "roundfair.core", "validate_allocation", True, None),
    ("algorithms.run_guarded", "roundfair.algorithms", "run_guarded", True, _run_counts),
    ("algorithms.run_poly", "roundfair.algorithms", "run_poly", True, _run_counts),
    ("algorithms._poly_fractions", "roundfair.algorithms", "_poly_fractions", True, None),
    ("algorithms._trace_arrays", "roundfair.algorithms", "_trace_arrays", True, None),
    ("metrics.audit", "roundfair.metrics", "audit", True, None),
    ("metrics.doomsday_trace", "roundfair.metrics", "doomsday_trace", True, None),
    ("metrics.doomsday_compatible", "roundfair.metrics", "doomsday_compatible", False, None),
    ("metrics.offline_fair_share_welfare", "roundfair.metrics",
     "offline_fair_share_welfare", True, None),
    ("scipy.optimize.linprog", "scipy.optimize", "linprog", True, _lp_bytes),
    ("adversarial.minimize_alpha", "roundfair.adversarial", "minimize_alpha", True,
     _search_evals),
    ("scipy.optimize.minimize", "scipy.optimize", "minimize", True, _refine_evals),
    ("adversarial.guard_ratio_ceiling", "roundfair.adversarial", "guard_ratio_ceiling",
     True, None),
    ("reporting.parse_instance_document", "roundfair.reporting",
     "parse_instance_document", True, None),
    ("reporting.emit_report", "roundfair.reporting", "emit_report", True, None),
    ("reporting.emit_table", "roundfair.reporting", "emit_table", True, None),
    ("cli.main", "roundfair.cli", "main", True, None),
)


class Tracer:
    """Aggregated call statistics for the wrapped layer functions."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = [0.0]
        self._undo = []

    def _timed(self, name, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                below = stack.pop()
                stack[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - below
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``roundfair`` module and in
        ``scipy.optimize`` if it is loaded; modules imported later are not seen."""
        spaces = [m for key, m in list(sys.modules.items())
                  if key == "roundfair" or key.startswith("roundfair.") or key == "scipy.optimize"]
        for name, module, attr, timed, hook in TARGETS:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            wrapper = self._timed(name, fn, hook) if timed else self._counted(name, fn)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is fn:
                        setattr(space, key, wrapper)
                        self._undo.append((space, key, fn))

    def uninstall(self) -> None:
        for space, key, fn in reversed(self._undo):
            setattr(space, key, fn)
        self._undo.clear()

    def to_json(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self": self.self_time,
                "counts": self.counts}

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for key, value in data["total"].items():
            self.total[key] += value
        for key, value in data["self"].items():
            self.self_time[key] += value
        for key, value in data["counts"].items():
            if key == "lp_constraint_bytes":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def _per_call(self, name, table, scale):
        calls = self.calls[name]
        return table[name] / calls * scale if calls else 0.0

    def layer_metrics(self, rounds: int, imports: dict) -> dict:
        """Every per-layer metric as ``{name: {"value", "unit"}}``.  Counts are
        per workload round, so a fixed round of operations gives exact figures."""
        us = 1e6
        searches = self.calls["adversarial.minimize_alpha"]
        evals = self.counts["scalar_evals"]
        per = lambda n: n / rounds  # noqa: E731
        per_search = lambda n: n / searches if searches else 0.0  # noqa: E731
        values = {
            "core.validate_instance.us_per_call":
                (self._per_call("core.validate_instance", self.total, us), "us"),
            "core.validate_allocation.calls":
                (per(self.calls["core.validate_allocation"]), "count/round"),
            "core.validate_allocation.us_per_call":
                (self._per_call("core.validate_allocation", self.total, us), "us"),
            "algorithms.run_guarded.self_us_per_call":
                (self._per_call("algorithms.run_guarded", self.self_time, us), "us"),
            "algorithms.run_poly.self_us_per_call":
                (self._per_call("algorithms.run_poly", self.self_time, us), "us"),
            "algorithms._poly_fractions.us_per_call":
                (self._per_call("algorithms._poly_fractions", self.total, us), "us"),
            "algorithms._trace_arrays.us_per_call":
                (self._per_call("algorithms._trace_arrays", self.total, us), "us"),
            "algorithms.trips": (per(self.counts["trips"]), "count/round"),
            "algorithms.rounds_simulated": (per(self.counts["rounds_simulated"]), "count/round"),
            "metrics.audit.us_per_call": (self._per_call("metrics.audit", self.total, us), "us"),
            "metrics.doomsday_trace.self_us_per_call":
                (self._per_call("metrics.doomsday_trace", self.self_time, us), "us"),
            "metrics.doomsday_compatible.calls":
                (per(self.calls["metrics.doomsday_compatible"]), "count/round"),
            "metrics.offline_fair_share_welfare.s_per_call":
                (self._per_call("metrics.offline_fair_share_welfare", self.total, 1.0), "s"),
            "metrics.lp.constraint_bytes": (self.counts["lp_constraint_bytes"], "B-computed"),
            "adversarial.minimize_alpha.grid_s":
                (self._per_call("adversarial.minimize_alpha", self.self_time, 1.0), "s"),
            "adversarial.minimize_alpha.refine_s":
                (per_search(self.total["scipy.optimize.minimize"]), "s"),
            "adversarial.minimize_alpha.grid_points":
                (per_search(self.counts["search_evaluations"] - evals), "count/call"),
            "adversarial.minimize_alpha.scalar_evals": (per_search(evals), "count/call"),
            "adversarial.guard_ratio_ceiling.us_per_call":
                (self._per_call("adversarial.guard_ratio_ceiling", self.total, us), "us"),
            "reporting.parse_instance_document.us_per_call":
                (self._per_call("reporting.parse_instance_document", self.total, us), "us"),
            "reporting.emit_report.us_per_call":
                (self._per_call("reporting.emit_report", self.total, us), "us"),
            "reporting.emit_table.us_per_call":
                (self._per_call("reporting.emit_table", self.total, us), "us"),
            "cli.main_s": (self._per_call("cli.main", self.total, 1.0), "s"),
            "import.roundfair_s": (imports.get("roundfair", 0.0), "s"),
            "import.scipy_optimize_s": (imports.get("scipy.optimize", 0.0), "s"),
        }
        return {k: {"value": float(v), "unit": unit} for k, (v, unit) in values.items()}


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")


def import_times(python: str, env: dict, cwd: str) -> dict:
    """Cumulative import seconds of ``roundfair`` and ``scipy.optimize`` in a
    fresh interpreter, from ``-X importtime``.  A module not imported reads 0."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import roundfair"],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120, check=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            found.setdefault(match.group(3).strip(), int(match.group(2)) / 1e6)
    return {key: found.get(key, 0.0) for key in ("roundfair", "scipy.optimize")}


def traced_cli_main(out_path: str) -> int:
    """Entry point for a traced CLI child: run ``roundfair.cli.main`` on
    ``sys.argv[1:]`` under a tracer and write its statistics to ``out_path``."""
    import roundfair.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = roundfair.cli.main()
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code
