"""Line coverage of the presentation checker, the sphere filler, the
rewriting engine, the Tietze moves and the basis transfer.

    PYTHONPATH=src python tests/line_coverage.py

runs the tests in ``TESTS`` in-process under ``sys.settrace`` and fails,
listing the lines, when any line of the functions in ``FUNCTIONS`` (the
functions nested in them, and every method a listed class defines in its
own source, included) goes unreached.  For the checker, these are
``validate``, ``_diagnostics``, its word and rule-use checks
(``word_problem``, ``rule_use_problems``), ``parse_polygraph`` and
``parse_path``: every diagnostic is then shown to fire by some test, from
a file or from a polygraph built directly.  For the filler, they are the
3-cell S of a step and the straightening built on it (``_Filler``), the σ
walks (``_sigma``), ``fill_sphere``, ``fill_positive``,
``fill_step`` and ``fill_local_branching``: every branch is taken, among
them a leftmost step, a leg that is σ already, a backward step, a Peiffer
and an aspherical pair, a σ walk that runs out of fuel, and a pumped
instance above the pump bound; a step carried along σ in a run that ends
at the next step of σ and in one that ends at the S of the carried step,
a Peiffer step too near σ's first to carry, and a presentation with
pumped families, where no step carries.  For the engine, they are the
redex search (``Matcher``, ``_Scan``, ``_Pumped``, ``_scan``), the one
normalization walk (``_walk``), ``normalize`` and ``normal_form``: among
them an unknown strategy, an unrecorded walk refusing a rule whose sides
are not parallel, and a partial path built when it is read.  For the moves, they are
``tietze_apply`` with ``_removable``, ``_check_witness`` and
``_substitute``: each refusal fires, those ``validate`` names and those
only a move can make.  For the transfer, they are ``check_two_functor``, ``TwoFunctor``
and ``transfer_homotopy_basis``, every problem of a functor included.
Besides these, the refusals of ``classify_local_branching``,
``transported``, ``Exchange`` and ``Word.slice``, the boundary of a run
(``Exchange.boundary``), and every branch of ``is_reduced`` and
``knuth_bendix``.  Standard library only, besides pytest itself.
"""

import linecache
import sys
from pathlib import Path

import pytest

from polygraph import branchings, coherence, completion, presentation, rewrite

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
    "test_expr_oracle.py::test_runs_expand_into_nested_one_step_exchanges",
    "test_cli.py::test_homology_pump_bound_too_small_is_partial",
    "test_cli.py::test_homology_stale_declared_cells_is_usage_error",
    "test_cli.py::test_transfer_refuses_a_tau_component_with_the_wrong_source",
    "test_branchings.py",
    "test_completion.py",
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
    presentation.word_problem,
    presentation.rule_use_problems,
    presentation.tietze_apply,
    presentation._removable,
    presentation._check_witness,
    presentation._substitute,
    presentation.Word.slice,
    presentation.parse_path,
    coherence.check_two_functor,
    coherence.TwoFunctor,
    coherence.transfer_homotopy_basis,
    coherence.Exchange,
    coherence.transported,
    branchings.classify_local_branching,
    completion.is_reduced,
    completion.knuth_bendix,
)


def code_objects(code):
    """``code`` and the code of every function, generator and
    comprehension defined inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from code_objects(const)


def function_codes(obj):
    """The code objects of a function, or of every method written in a
    class's module (so not those a dataclass generates)."""
    functions = [obj]
    if isinstance(obj, type):
        source = sys.modules[obj.__module__].__file__
        functions = [f for f in vars(obj).values()
                     if callable(f) and f.__code__.co_filename == source]
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
