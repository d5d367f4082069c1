"""The CLI's exit codes and ``--json`` output against the golden file.

``make_cli_golden.py`` wrote the file; after a change that is meant to keep
the output, every line must still match.  A diverging invocation is printed
with its live output.  Every subcommand the parser registers has at least
one line, so a new one cannot go unpinned.  The output must not depend on
which character the codebook gives a letter either: filled in another order
first, it must give the same lines.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from make_cli_golden import DONE_FILES, GOLDEN, PRESENTATIONS, golden_runs
from polygraph import parse_polygraph
from polygraph.cli import build_parser


def test_cli_output_matches_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    runs = golden_runs()
    diverging = 0
    for i, (line, stdout) in enumerate(runs):
        if i < len(want) and line == want[i]:
            continue
        diverging += 1
        print(f"live:   {line}")
        print(f"golden: {want[i] if i < len(want) else '(none)'}")
        print(stdout)
    assert len(runs) == len(want), (len(runs), len(want))
    assert not diverging, f"{diverging} of {len(runs)} invocations diverge"


def test_every_subcommand_has_a_golden_line():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    pinned = {json.loads(line)[0][0] for line in lines}
    assert set(commands) - pinned == set()


# Run in a fresh interpreter: fill its codebook with letters no presentation
# uses, then with the given generators, before anything else makes a word;
# then compare the runs with the file.
REORDERED = """\
import json, sys
from polygraph import Word
for i in range(300):
    Word((f"unused{i}",), ("*", "*"))
codes = [ord(Word((name,), (source, target)).text)
         for name, source, target in json.loads(sys.argv[1])]
from make_cli_golden import GOLDEN, golden_runs
want = GOLDEN.read_text(encoding="utf-8").splitlines()
got = [line for line, _ in golden_runs()]
print(json.dumps([codes, sum(a != b for a, b in zip(got, want))]))
sys.exit(got != want)
"""


def test_no_output_depends_on_the_characters_letters_get():
    # every generator of the presentations, last declared first
    triples = {}
    for text in reversed([*PRESENTATIONS.values(), *DONE_FILES.values()]):
        for g in reversed(parse_polygraph(text).generators):
            triples.setdefault((g.name, g.source, g.target), None)
    here = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    proc = subprocess.run([sys.executable, "-c", REORDERED, json.dumps(list(triples))],
                          cwd=here, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    codes, diverging = json.loads(proc.stdout.splitlines()[-1])
    assert codes == list(range(300, 300 + len(triples))) and diverging == 0
