"""The CLI's outputs, byte for byte, against the committed golden corpus.

``golden/regen.py`` lists the calls and rewrites ``golden/cli.jsonl``; see
its docstring for when to regenerate.
"""

import json

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
