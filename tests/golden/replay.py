"""Replay golden records through the installed ``roundfair`` console script.

Each call in ``regen.INSTALLED`` runs as a subprocess from this directory,
so the file paths in its argv resolve as they did when the corpus was
recorded.  Its stdout, stderr and exit code must equal the call's record in
``cli.jsonl`` byte for byte.  After installing the package:

    python tests/golden/replay.py

``--command`` runs another command line in place of ``roundfair`` (split as
a shell would split it), and positional indices replay only those calls of
``regen.INSTALLED``.  Prints one line per call and exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys

from regen import CORPUS, HERE, INSTALLED


def replay(command: list[str], argv: list[str], want: dict) -> list[str]:
    """Run one call and name each of stdout, stderr and exit that differs."""
    got = subprocess.run([*command, *argv], cwd=HERE, capture_output=True, timeout=300)
    differs = []
    if got.stdout != want["stdout"].encode():
        differs.append("stdout")
    if got.stderr != want["stderr"].encode():
        differs.append("stderr")
    if got.returncode != want["exit"]:
        differs.append(f"exit {got.returncode} != {want['exit']}")
    return differs


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", default="roundfair")
    parser.add_argument("indices", nargs="*", type=int)
    args = parser.parse_args(args)
    command = shlex.split(args.command)
    records = {}
    for line in CORPUS.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        records[tuple(record["argv"])] = record
    calls = [INSTALLED[k] for k in args.indices] if args.indices else INSTALLED
    failed = 0
    for argv in calls:
        differs = replay(command, list(argv), records[argv])
        failed += bool(differs)
        print(f"{'differs: ' + ', '.join(differs) if differs else 'ok'}  {shlex.join(argv)}")
    print(f"{len(calls) - failed} of {len(calls)} calls match the corpus")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
