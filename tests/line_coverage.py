"""Line coverage of the presentation checker, the sphere filler and the
rewriting engine.

    PYTHONPATH=src python tests/line_coverage.py

runs the tests in ``TESTS`` in-process under ``sys.settrace`` and fails,
listing the lines, when any line of the functions in ``FUNCTIONS`` (the
functions nested in them, and every method of a class listed, included)
goes unreached.  For the checker, these are ``validate``, ``_diagnostics``
and ``parse_polygraph``: every diagnostic is then shown to fire by some
test, from a file or from a polygraph built directly.  For the filler,
they are the 3-cell S of a step and the straightening built on it
(``_Filler``), the σ walks (``_sigma``), ``fill_sphere``, ``fill_positive``,
``fill_step`` and ``fill_local_branching``: every branch is taken, among
them a leftmost step, a leg that is σ already, a backward step, a Peiffer
and an aspherical pair, a σ walk that runs out of fuel, and a pumped
instance above the pump bound.  For the engine, they are the redex search
(``Matcher``, ``_Scan``, ``_Pumped``, ``_scan``), the one normalization
walk (``_walk``), ``normalize`` and ``normal_form``: among them an unknown
strategy, a word or presentation the encoding cannot give back, and a
partial path built when it is read.  Standard library only, besides
pytest itself.
"""

import linecache
import sys
from pathlib import Path

import pytest

from polygraph import coherence, presentation, rewrite

HERE = Path(__file__).parent
TESTS = (
    "test_input_errors.py",
    "test_presentation.py",
    "test_filler_oracle.py",
    "test_budget.py",
    "test_coherence.py",
    "test_matcher.py",
    "test_normal_form_oracle.py::test_words_and_rules_the_encoding_cannot_type_fall_back",
    "test_normal_form_oracle.py::test_the_matcher_decodes_exactly_the_presentations_that_validate",
    "test_normal_form_oracle.py::test_the_partial_path_is_built_when_the_trace_is_read",
    "test_rewrite.py::test_an_unknown_strategy_is_a_value_error",
    "test_expr_oracle.py::test_walks_match_the_recursions_on_every_kind_of_node",
    "test_cli.py::test_homology_pump_bound_too_small_is_partial",
    "test_cli.py::test_homology_stale_declared_cells_is_usage_error",
)
FUNCTIONS = (
    presentation.validate,
    presentation._diagnostics,
    presentation.parse_polygraph,
    coherence._Filler,
    coherence._sigma,
    coherence._first,
    coherence._one,
    coherence.fill_positive,
    coherence.fill_step,
    coherence.fill_sphere,
    coherence.fill_local_branching,
    rewrite.Matcher,
    rewrite._Scan,
    rewrite._Pumped,
    rewrite._scan,
    rewrite._walk,
    rewrite.normalize,
    rewrite.normal_form,
)


def code_objects(code):
    """``code`` and the code of every function, generator and
    comprehension defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from code_objects(const)


def function_codes(obj):
    """The code objects of a function, or of every method of a class."""
    functions = [f for f in vars(obj).values() if callable(f)] if isinstance(obj, type) else [obj]
    for f in functions:
        yield from code_objects(f.__code__)


def main():
    codes = {c for obj in FUNCTIONS for c in function_codes(obj)}
    wanted = {(c.co_filename, line) for c in codes for _, _, line in c.co_lines()
              if line is not None}
    reached = set()

    def trace_lines(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
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
    for filename, line in missed:
        print(f"{filename}:{line}: not reached: {linecache.getline(filename, line).strip()}")
    print(f"{len(wanted) - len(missed)} of {len(wanted)} lines reached")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
