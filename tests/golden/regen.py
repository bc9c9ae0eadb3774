"""Golden CLI corpus: every call in ``CALLS`` with its exact output.

``cli.jsonl`` holds one JSON record per call: ``argv``, ``stdout``,
``stderr`` and ``exit``.  ``tests/test_golden.py`` replays every call and
compares the records byte for byte.  A change that alters any output
regenerates the file with

    PYTHONPATH=src python tests/golden/regen.py

and lists each changed line, with its cause, in CHANGES.md.  ``--diff``
writes nothing: it prints each record whose bytes would change, by its
1-based line, argv and old and new fields, and exits 1 if any would.  The
calls run
``roundfair.cli.main`` in process, with this directory as the working
directory, so the file paths in ``argv`` are relative to it.  ``replay.py``
runs the calls of ``INSTALLED`` through the installed console script.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from roundfair.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.jsonl"

FORMATS = ("csv", "json")

#: The four fixed built-ins plus the guarded rule, by ``--p``; the guarded
#: built-ins are guarded at 2, 2.7 and 3.
ALGORITHMS = (
    ("equal-split",),
    ("proportional",),
    ("quadratic",),
    ("greedy",),
    *(("guarded", p) for p in ("0", "1e-3", "2", "2.000001", "2.7", "3", "50")),
)

INSTANCES = (
    "two-round-symmetric:0.599",
    "three-round-cp:0.76,0.97",
    "three-round-cp:0.6,0.7,0.01",
    "fs-violation:2.7",
    "multi-agent:4",
    "lb-pair",
    "files/two-agents-5.txt",
    "files/one-round.txt",
    "files/three-agents-12.txt",
    "files/six-agents-60.txt",
    "files/unnormalized.txt",
    "files/dead-round.txt",
    "files/late-trip-40.txt",
    "files/late-trip-small-p-40.txt",
    "files/late-trip-200.txt",
)

VERIFY = (
    ("two-agents-5", "two-agents-5-equal"),
    ("two-agents-5", "two-agents-5-all-to-first"),
    ("unnormalized", "unnormalized-equal"),
    ("unnormalized", "unnormalized-to-agent-1"),
    ("dead-round", "dead-round-half"),
    ("three-agents-12", "three-agents-12-thirds"),
    ("two-agents-5", "three-agents-12-thirds"),
)

OBJECTIVES = (
    "poly-two-round",
    "poly-two-round-diagonal",
    "guarded-cp1",
    "guarded-cp2-mixed",
    "guarded-cp2-both-above",
)

SEARCH_P = ("1", "2", "2.000001", "2.7", "3", "5000")

#: The certified constants at the default grid step: 0.828, 0.894 and 0.916.
CERTIFIED = (
    ("proportional",),
    ("poly-two-round", "--p", "2"),
    ("poly-two-round", "--p", "2.7"),
    ("guarded-cp1", "--p", "2.7"),
)

#: Exponents on both sides of 2 (NaN trip columns), just above it (a trip
#: box narrower than four margins) and far above it, so the trip curve's
#: rows have axes of very different lengths.
SWEEPS = (
    ("--p-values", "2,2.7,3"),
    ("--p-values", "2.000001,2.5", "--grid-step", "0.01"),
    ("--p-values", "2,5"),
    ("--p-values", "0.5,1,2,2.000001,2.5,2.7,3,5,50,5000"),
    ("--p-values", "2.000001,2.2,2.7", "--grid-step", "0.01"),
)

#: The benchmark's fine sweep, p = 2, 2.01, ..., 3 at the default step: its
#: stacked no-trip scan of 101 rows spans several blocks.
FINE_SWEEP = ("sweep", "--p-values", ",".join(f"{(200 + k) / 100:g}" for k in range(101)))

#: Generator specs with a bad argument: out of range, not finite, the wrong
#: count or type of arguments, or an unknown generator.
BAD_SPECS = (
    "two-round-symmetric:0",
    "two-round-symmetric:1.5",
    "two-round-symmetric:",
    "three-round-cp:0.5",
    "three-round-cp:1,0.5",
    "three-round-cp:0.76,0.97,0.05",
    "three-round-cp:a,b",
    "fs-violation:2",
    "fs-violation:inf",
    "fs-violation:nan",
    "fs-violation:1e18",
    "multi-agent:8",
    "multi-agent:2",
    "multi-agent:x",
    "lb-pair:3",
    "nope:1",
)

#: The argument checks' error bytes: bad generator specs, unknown algorithm
#: and objective names, rules or objectives called without ``--p``,
#: exponents that are not finite, a grid too large for memory, a sweep over
#: no exponent, tolerances that are NaN, infinite or negative, and ``--p``
#: given to a rule or objective whose exponent is fixed.
ERRORS = (
    *(("run", "--algorithm", "proportional", "--instance", spec) for spec in BAD_SPECS),
    *(
        ("run", "--algorithm", name, "--instance", "two-round-symmetric:0.599")
        for name in ("nope", "poly", "guarded")
    ),
    ("search", "--objective", "mystery"),
    ("search", "--objective", "guarded-cp1"),
    ("search", "--objective", "guarded-cp1", "--p", "nan"),
    ("search", "--objective", "guarded-cp1", "--p", "inf"),
    ("search", "--objective", "poly-two-round", "--p", "nan"),
    ("search", "--objective", "guarded-cp1", "--p", "2.7", "--grid-step", "1e-17"),
    ("sweep", "--p-values", ""),
    ("sweep", "--p-values", ","),
    (
        "verify",
        "--instance", "files/two-agents-5.txt",
        "--allocation", "files/two-agents-5-equal.txt",
        "--tol", "nan",
    ),
    ("run", "--algorithm", "proportional", "--instance", "two-round-symmetric:0.599", "--tol=-1"),
    (
        "doomsday", "--algorithm", "guarded", "--p", "2.7",
        "--instance", "three-round-cp:0.76,0.97", "--tol", "inf",
    ),
    ("replay-lb", "--algorithm", "guarded", "--p", "2.7", "--tol", "nan"),
    *(
        ("run", "--algorithm", name, "--p", "3", "--instance", "two-round-symmetric:0.599")
        for name in ("equal-split", "proportional", "quadratic", "greedy")
    ),
    ("search", "--objective", "proportional", "--p", "3"),
    ("replay-lb", "--algorithm", "greedy", "--p", "0.5"),
    (
        "doomsday", "--algorithm", "equal-split", "--p", "0",
        "--instance", "two-round-symmetric:0.599",
    ),
)


#: A negative zero exponent, which reads as 0 in the rule's name and p.
NEGATIVE_ZERO = tuple(
    ("run", "--algorithm", name, "--p", "-0.0", "--instance", "two-round-symmetric:0.599")
    for name in ("poly", "guarded")
)

#: Instance files holding an entry that is NaN, infinite or negative.
BAD_FILES = tuple(
    ("run", "--algorithm", "proportional", "--instance", f"files/{name}.txt")
    for name in ("nan-entry", "infinite-entry", "negative-entry")
)


#: The calls ``replay.py`` runs through the installed ``roundfair`` console
#: script, first the commands CI once smoke-tested by exit code alone, in
#: the default format (csv).  Those the lists above do not make are appended
#: to the corpus.
INSTALLED = (
    ("search", "--objective", "proportional"),
    ("search", "--objective", "guarded-cp2-both-above", "--p", "2.7"),
    ("sweep", "--p-values", "2,2.7,3"),
    ("sweep", "--p-values", "1,5"),
    # One stacked search per curve: rows below, at, just above and far above
    # 2, so the trip curve's rows differ in length.
    ("sweep", "--p-values", "0.5,2,2.000001,2.7,5000"),
    ("search", "--objective", "poly-two-round-diagonal", "--p", "2.7"),
    ("search", "--objective", "guarded-cp2-mixed", "--p", "2.000001"),
    ("search", "--objective", "guarded-cp1", "--p", "2.0001"),
    ("search", "--objective", "guarded-cp1", "--p", "5000"),
    ("search", "--objective", "poly-two-round", "--p", "5000", "--grid-step", "0.02"),
    ("run", "--algorithm", "guarded", "--p", "2.7", "--instance", "three-round-cp:0.76,0.97"),
    ("run", "--algorithm", "guarded", "--p", "2.7", "--instance", "two-round-symmetric:0.599"),
    ("run", "--algorithm", "guarded", "--p", "2.7", "--instance", "fs-violation:3"),
    ("run", "--algorithm", "guarded", "--p", "2.7", "--instance", "lb-pair"),
    # The guarded rule needs two agents, so the 4-agent family runs unguarded.
    ("run", "--algorithm", "poly", "--p", "2.7", "--instance", "multi-agent:4"),
    ("replay-lb", "--algorithm", "guarded", "--p", "2.7"),
    (
        "doomsday", "--algorithm", "guarded", "--p", "2.7",
        "--instance", "three-round-cp:0.76,0.97",
    ),
    ("verify", "--instance", "files/two-agents-5.txt", "--allocation", "files/two-agents-5-equal.txt"),
    # Exit 2: an fs-violation that rounds to an instance violating nothing,
    # grids too large for an array and for memory, a NaN exponent, a sweep
    # over no exponent, NaN and negative tolerances, and --p given to a
    # fixed-exponent rule or objective.
    ("run", "--algorithm", "proportional", "--instance", "fs-violation:1e18"),
    ("search", "--objective", "guarded-cp1", "--p", "2.7", "--grid-step", "1e-300"),
    ("search", "--objective", "guarded-cp1", "--p", "2.7", "--grid-step", "1e-17"),
    ("search", "--objective", "guarded-cp1", "--p", "nan"),
    ("sweep", "--p-values", ""),
    (
        "verify",
        "--instance", "files/two-agents-5.txt",
        "--allocation", "files/two-agents-5-equal.txt",
        "--tol", "nan",
    ),
    ("run", "--algorithm", "proportional", "--instance", "two-round-symmetric:0.599", "--tol=-1"),
    ("run", "--algorithm", "proportional", "--p", "3", "--instance", "two-round-symmetric:0.599"),
    ("search", "--objective", "proportional", "--p", "3"),
    # A negative zero exponent reads as 0: it once printed poly--0.
    ("run", "--algorithm", "poly", "--p", "-0.0", "--instance", "two-round-symmetric:0.599"),
)
#: The first of them for each subcommand again, in json.
INSTALLED += tuple(
    (*argv, "--format", "json")
    for k, argv in enumerate(INSTALLED)
    if argv[0] not in {earlier[0] for earlier in INSTALLED[:k]}
)


def _algorithm_args(algorithm):
    args = ["--algorithm", algorithm[0]]
    if len(algorithm) > 1:
        args += ["--p", algorithm[1]]
    return args


def _calls():
    for fmt in FORMATS:
        tail = ["--format", fmt]
        for algorithm in ALGORITHMS:
            for instance in INSTANCES:
                yield ["run", *_algorithm_args(algorithm), "--instance", instance, *tail]
                yield ["doomsday", *_algorithm_args(algorithm), "--instance", instance, *tail]
            yield ["replay-lb", *_algorithm_args(algorithm), *tail]
        for instance, allocation in VERIFY:
            yield [
                "verify",
                "--instance", f"files/{instance}.txt",
                "--allocation", f"files/{allocation}.txt",
                *tail,
            ]
        yield ["search", "--objective", "proportional", "--grid-step", "0.02", *tail]
        for objective in OBJECTIVES:
            for p in SEARCH_P:
                yield [
                    "search", "--objective", objective, "--p", p, "--grid-step", "0.02", *tail
                ]
        for sweep in SWEEPS:
            yield ["sweep", *sweep, *tail]
    for objective in CERTIFIED:
        yield ["search", "--objective", *objective]
    yield list(FINE_SWEEP)
    for argv in ERRORS:
        yield list(argv)
    for argv in NEGATIVE_ZERO:
        yield list(argv)
    for argv in BAD_FILES:
        yield list(argv)


_LISTED = tuple(_calls())

#: Every argv the corpus records, in file order.
CALLS = _LISTED + tuple(list(argv) for argv in INSTALLED if list(argv) not in _LISTED)


def record(argv) -> dict:
    """Run one CLI call in process from this directory and capture it."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def render(rec: dict) -> str:
    """One corpus line."""
    return json.dumps(rec) + "\n"


def diff() -> int:
    """Print each record whose bytes would change, with the lines of its
    fields that differ; 1 if any would, else 0."""
    old = CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    old += [None] * (len(CALLS) - len(old))
    changed = 0
    for number, (argv, line) in enumerate(zip(CALLS, old), 1):
        new = render(record(argv))
        if new == line:
            continue
        changed += 1
        print(f"line {number}: {shlex.join(argv)}")
        was = json.loads(line) if line else {}
        for field, value in json.loads(new).items():
            before = was.get(field)
            if before == value:
                continue
            if isinstance(before, str) and isinstance(value, str):
                for text in difflib.ndiff(before.splitlines(), value.splitlines()):
                    if text[:2] in ("- ", "+ "):
                        print(f"  {field} {text}")
            else:
                print(f"  {field}: {before!r} -> {value!r}")
    for number, line in enumerate(old[len(CALLS) :], len(CALLS) + 1):
        changed += 1
        print(f"line {number}: no longer made: {shlex.join(json.loads(line)['argv'])}")
    print(f"{changed} records would change")
    return 1 if changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true", help="print the records that would change; write nothing"
    )
    if parser.parse_args().diff:
        sys.exit(diff())
    CORPUS.write_text("".join(render(record(argv)) for argv in CALLS), encoding="utf-8")
    print(f"wrote {len(CALLS)} records to {CORPUS}")
