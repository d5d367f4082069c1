"""Knuth–Bendix completion and the reduction of convergent presentations."""

import dataclasses
import typing

import pytest

import polygraph
from polygraph import (
    PresentationError,
    decide_confluence,
    is_reduced,
    knuth_bendix,
    metivier_squier_reduce,
    parse_polygraph,
)
from polygraph.rewrite import _Scan

from conftest import A4_TEXT


def test_self_overlap_completes_in_one_rule(xyx):
    result = knuth_bendix(xyx)
    assert result.status == "Completed"
    assert [str(r) for r in result.added_rules] == ["kb1: y y y x => x y y y"]
    ok, _ = decide_confluence(result.final)
    assert ok


def test_completion_of_convergent_system_is_identity(b3):
    result = knuth_bendix(b3)
    assert result.status == "Completed"
    assert result.added_rules == ()
    assert result.final == b3
    assert all(e["action"] == "joined" for e in result.trace)


def test_completion_divergence_stops_at_rule_cap(lp):
    result = knuth_bendix(lp, max_rules=6)
    assert result.status == "FuelExhausted"
    assert [str(r) for r in result.added_rules] == [
        "kb1: a c b => a c",
        "kb2: a c c b => a c c",
        "kb3: a c c c b => a c c c",
    ]
    assert result.trace[-1]["action"].startswith("stopped: rule cap 6")
    # the partial system is still a presentation (of the same monoid)
    assert len(result.final.rules) == 6


def test_completion_skips_a_rule_name_that_is_taken(xyx):
    from dataclasses import replace

    taken = replace(xyx, rules=(replace(xyx.rules[0], name="kb1"),))
    result = knuth_bendix(taken)
    assert [str(r) for r in result.added_rules] == ["kb2: y y y x => x y y y"]


def test_completion_requires_decreasing_order():
    grow = parse_polygraph(
        "monoid\ngenerators: x y\norder: x < y\nrules:\ngrow: y x => x y y\n"
    )
    with pytest.raises(PresentationError, match="do not decrease"):
        knuth_bendix(grow)


def test_completion_requires_an_order(mu):
    from dataclasses import replace

    with pytest.raises(PresentationError):
        knuth_bendix(replace(mu, gen_order=None))


def test_completion_rejects_pumped_families(sq):
    with pytest.raises(PresentationError, match="pumped"):
        knuth_bendix(sq)


def test_is_reduced(b3, xyx_done):
    assert is_reduced(b3)[0]
    assert is_reduced(xyx_done)[0]
    unreduced = parse_polygraph(
        "monoid\ngenerators: x y\norder: x < y\nrules:\n"
        "alpha: x y x => y y\nkb1: y y y x => x y y y\n"
        "long: x y x y => y y y\n"
    )
    ok, violations = is_reduced(unreduced)
    assert not ok and violations
    reducible_rhs = parse_polygraph(
        "monoid\ngenerators: x y\norder: x < y\nrules:\nxx: x x => x\nyy: y y => x x\n"
    )
    assert is_reduced(reducible_rhs) == (False, ["rule yy: rhs x x reducible by xx at 0"])


def test_reduce_drops_duplicates_and_nested_lhs():
    p = parse_polygraph(
        "monoid\ngenerators: x y\norder: x < y\nrules:\n"
        "alpha: x y x => y y\nkb1: y y y x => x y y y\n"
        "dup: x y x => y y\nlong: x y x y => y y y\n"
    )
    result = metivier_squier_reduce(p)
    assert [r.name for r in result.final.rules] == ["alpha", "kb1"]
    actions = [(e["pass"], e.get("removed")) for e in result.trace]
    assert (2, "dup") in actions and (3, "long") in actions
    assert is_reduced(result.final)[0]


def test_reduce_normalizes_right_hand_sides():
    p = parse_polygraph(
        "monoid\ngenerators: a\norder: a\nrules:\n"
        "mu: a a => a\nnu: a a a => a a\n"
    )
    result = metivier_squier_reduce(p)
    # pass 1 rewrites nu's right side to its normal form, pass 3 then drops
    # nu entirely since its left side contains mu's
    passes = [e["pass"] for e in result.trace]
    assert 1 in passes and 3 in passes
    assert [str(r) for r in result.final.rules] == ["mu: a a => a"]


def test_reduce_keeps_reduced_systems_unchanged(b3):
    result = metivier_squier_reduce(b3)
    assert result.final == b3
    assert result.trace == ()


@pytest.fixture
def matchers_built(monkeypatch):
    """The polygraphs a redex scan is built for while the test runs."""
    built = []
    original = _Scan.__init__

    def counting(self, p, reverse):
        built.append(p)
        original(self, p, reverse)

    monkeypatch.setattr(_Scan, "__init__", counting)
    return built


def test_reduce_builds_a_matcher_only_when_a_rule_changes(matchers_built):
    done = knuth_bendix(parse_polygraph(A4_TEXT)).final
    fresh = dataclasses.replace(done)  # no scan cached yet
    matchers_built.clear()
    result = metivier_squier_reduce(fresh)
    # completed A4 has no right-hand side to change and nothing to drop:
    # the confluence check and pass 1 share the input's one scan
    assert result.trace == ()
    assert result.final == done
    assert matchers_built == [fresh]


def test_reduce_rebuilds_after_each_changed_right_hand_side(matchers_built):
    p = parse_polygraph(
        "monoid\ngenerators: a b c d\norder: a < b < c < d\nrules:\n"
        "r1: d => c\nr2: c => b\nr3: b => a\n"
    )
    result = metivier_squier_reduce(p)
    assert result.trace == (
        {"pass": 1, "rule": "r1", "old": "c", "new": "a",
         "witness": "1*r1*1 . 1*r2*1 . 1*r3*1"},
        {"pass": 1, "rule": "r2", "old": "b", "new": "a",
         "witness": "1*r2*1 . 1*r3*1"},
    )
    assert [str(r) for r in result.final.rules] == ["r1: d => a", "r2: c => a", "r3: b => a"]
    # the input's scan, then one after each of the two changes
    assert len(matchers_built) == 3


def test_public_dataclasses_resolve_type_hints():
    classes = [obj for obj in vars(polygraph).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    assert polygraph.CompletionResult in classes and polygraph.FreeResolution in classes
    for cls in classes:
        typing.get_type_hints(cls)
