"""The CLI's outputs, byte for byte, against the committed golden corpus.

``golden/regen.py`` lists the calls and rewrites ``golden/cli.jsonl``; see
its docstring for when to regenerate.  ``golden/replay.py`` replays a marked
subset through the installed console script.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from golden import regen


def test_cli_matches_golden_corpus():
    lines = regen.CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    assert [json.loads(line)["argv"] for line in lines] == [list(a) for a in regen.CALLS], (
        "the corpus and regen.CALLS list different calls; rerun golden/regen.py"
    )
    changed = [
        " ".join(argv)
        for argv, line in zip(regen.CALLS, lines)
        if regen.render(regen.record(argv)) != line
    ]
    assert not changed, f"{len(changed)} calls differ from the corpus, first: {changed[:5]}"


REPLAY = Path(regen.__file__).with_name("replay.py")

#: The console script pip installs, run on this tree's package.
CONSOLE = [sys.executable, "-c", "import sys; from roundfair.cli import main; sys.exit(main())"]


def _replay(command, *indices):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, str(REPLAY), "--command", shlex.join(command), *map(str, indices)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_installed_replay_checks_bytes_and_exit_codes():
    picks = [regen.INSTALLED.index(argv) for argv in (
        ("run", "--algorithm", "guarded", "--p", "2.7", "--instance", "fs-violation:3"),
        ("search", "--objective", "guarded-cp1", "--p", "nan"),
    )]
    assert [regen.record(regen.INSTALLED[k])["exit"] for k in picks] == [0, 2]
    done = _replay(CONSOLE, *picks)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("2 of 2 calls match the corpus\n")
    # One newline more on stdout is a difference.
    noisy = CONSOLE[2].replace("sys.exit(main())", "c = main(); print(); sys.exit(c)")
    done = _replay([*CONSOLE[:2], noisy], *picks)
    assert done.returncode == 1
    assert done.stdout.count("differs: stdout") == 2
