"""Line coverage of the presentation checker.

    PYTHONPATH=src python tests/line_coverage.py

runs ``test_input_errors.py`` and ``test_presentation.py`` in-process under
``sys.settrace`` and fails, listing the lines, when any line of
``validate``, ``_diagnostics`` or ``parse_polygraph`` (the functions nested
in them included) goes unreached.  Every diagnostic of the checker is then
shown to fire by some test, from a file or from a polygraph built directly.
Standard library only, besides pytest itself.
"""

import linecache
import sys
from pathlib import Path

import pytest

from polygraph import presentation

HERE = Path(__file__).parent
TESTS = ("test_input_errors.py", "test_presentation.py")
FUNCTIONS = (presentation.validate, presentation._diagnostics, presentation.parse_polygraph)


def code_objects(code):
    """``code`` and the code of every function, generator and
    comprehension defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from code_objects(const)


def main():
    codes = {c for f in FUNCTIONS for c in code_objects(f.__code__)}
    wanted = {line for c in codes for _, _, line in c.co_lines() if line is not None}
    reached = set()

    def trace_lines(frame, event, arg):
        reached.add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code in codes:
            return trace_lines(frame, event, arg)
        return None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(str(HERE / t) for t in TESTS)])
    finally:
        sys.settrace(None)
    if status != 0:
        return int(status)
    missed = sorted(wanted - reached)
    filename = presentation.__file__
    for line in missed:
        print(f"{filename}:{line}: not reached: {linecache.getline(filename, line).strip()}")
    print(f"{len(wanted) - len(missed)} of {len(wanted)} lines reached")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
