"""Line coverage of the whole library.

    PYTHONPATH=src python tests/line_coverage.py

installs a ``sys.settrace`` hook before ``polygraph`` is imported, runs all
of tier-1 in-process with a fixed hypothesis seed, and fails, listing the
lines, when an executable line of ``src/polygraph`` goes unreached and is
not in ``ALLOWED``.  ``ALLOWED`` names a line by its file and its stripped
source text, with the reason no test reaches it; an entry that names no
unreached line fails the gate too.  Standard library only, besides pytest
and hypothesis themselves.
"""

import linecache
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
LIBRARY = (HERE.parent / "src" / "polygraph").resolve()
HYPOTHESIS_SEED = 0

ALLOWED = {
    ("cli.py", 'lines += ["validation: FAIL"] + [f"  {m}" for m in problems]'):
        "fault detector: transfer_homotopy_basis names its cells apart and checks each one",
    ("cli.py", "return 1, sections, lines"):
        "fault detector: the exit 1 of the transfer FAIL branch above",
    ("completion.py", "raise AssertionError("):
        "fault detector: a convergent input's pass 3 witness ends at the rule's rhs",
    ("completion.py", 'f"pass 3 witness for {rule.name} ends at {witness.target}, "'):
        "fault detector: the message of the assertion above",
    ("completion.py", 'f"expected {rule.rhs}; input was not convergent"'):
        "fault detector: the message of the assertion above",
    ("homology.py", 'failures.append("eps_i0: augmentation does not split")'):
        "fault detector: epsilon . i0 is the identity on Z by construction",
    ("cli.py", "sys.exit(main())"):
        "runs only when the module is run as a script, out of process",
}


def executable_lines(path):
    """The lines of a source file that carry code, as line numbers."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main():
    files = {str(path): path for path in sorted(LIBRARY.glob("*.py"))}
    left = {}  # library code object -> its lines not reached yet
    tracers = {}  # library code object -> its line tracer
    done = set()  # code objects not traced: outside the library, or every line reached

    def tracer(code):
        unreached = left[code] = {line for _, _, line in code.co_lines() if line is not None}

        def trace_lines(frame, event, arg):
            unreached.discard(frame.f_lineno)
            if not unreached:
                done.add(code)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code in done:
            return None
        trace_lines = tracers.get(code)
        if trace_lines is None:
            if os.path.realpath(code.co_filename) not in files:
                done.add(code)
                return None
            trace_lines = tracers[code] = tracer(code)
        return trace_lines(frame, event, arg)

    sys.path.insert(0, str(LIBRARY.parent))
    assert "polygraph" not in sys.modules
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              f"--hypothesis-seed={HYPOTHESIS_SEED}", str(HERE)])
    finally:
        sys.settrace(None)
    if status != 0:
        return int(status)
    reached = {filename: set() for filename in files}
    for code, unreached in left.items():
        reached[os.path.realpath(code.co_filename)].update(
            line for _, _, line in code.co_lines() if line not in unreached)
    total, missed, allowed = 0, [], set()
    for filename, path in files.items():
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached[filename]):
            key = (path.name, linecache.getline(filename, line).strip())
            if key in ALLOWED and key not in allowed:  # an entry allows one line
                allowed.add(key)
            else:
                missed.append(f"{filename}:{line}: not reached: {key[1]}")
    stale = [f"allowed but reached or gone: {f}: {text}"
             for f, text in ALLOWED if (f, text) not in allowed]
    for problem in missed + stale:
        print(problem)
    print(f"{total - len(missed)} of {total} lines reached or allowed "
          f"({len(ALLOWED)} allowed)")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
