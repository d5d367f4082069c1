"""The CLI's exit codes and ``--json`` output against the golden file.

``make_cli_golden.py`` wrote the file; after a change that is meant to keep
the output, every line must still match.  A diverging invocation is printed
with its live output.
"""

from make_cli_golden import GOLDEN, golden_runs


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
