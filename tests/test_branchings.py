"""Local/critical branchings, their resolution, and the confluence decision."""

import pytest
from dataclasses import replace

from polygraph import (
    CompositionError,
    NotCertified,
    RewriteStep,
    boundary3,
    classify_local_branching,
    decide_confluence,
    enumerate_critical_branchings,
    make_local_branching,
    parse_multiplication_table,
    parse_polygraph,
    resolve_branching,
    standard_coherent_presentation,
)
from polygraph.branchings import ASPHERICAL, OVERLAPPING, PEIFFER
from polygraph.coherence import Exchange, transported

from conftest import Z2_TABLE, rstep


def test_classification(b3):
    beta = b3.lookup_rule("beta")
    alpha = b3.lookup_rule("alpha")
    # on s t s t: two disjoint copies of the s t redex
    s_beta0 = rstep(b3.word("1"), beta, b3.word("s t"))
    s_beta2 = rstep(b3.word("s t"), beta, b3.word("1"))
    assert classify_local_branching(s_beta0, s_beta0) == ASPHERICAL
    assert classify_local_branching(s_beta0, s_beta2) == PEIFFER
    # on s t a: the redexes s t and t a share the middle letter
    s_beta = rstep(b3.word("1"), beta, b3.word("a"))
    s_alpha = rstep(b3.word("s"), alpha, b3.word("1"))
    assert classify_local_branching(s_beta, s_alpha) == OVERLAPPING
    b = make_local_branching(b3, s_alpha, s_beta)
    assert b.step1 == s_beta  # canonical order: by position first
    assert b.offset == 1


def test_steps_that_do_not_branch_are_refused(b3):
    beta = b3.lookup_rule("beta")
    alpha = b3.lookup_rule("alpha")
    on_sts = rstep(b3.word("1"), beta, b3.word("s"))
    on_sta = rstep(b3.word("1"), beta, b3.word("a"))
    with pytest.raises(CompositionError, match="branching steps rewrite different words: "
                                               "s t s vs s t a"):
        classify_local_branching(on_sts, on_sta)
    s_beta, s_alpha = on_sta, rstep(b3.word("s"), alpha, b3.word("1"))
    with pytest.raises(CompositionError, match="Exchange needs two steps with disjoint spans"):
        Exchange(s_beta, s_alpha)
    with pytest.raises(CompositionError, match="cannot transport across overlapping spans"):
        transported(s_beta, s_alpha)


def test_backward_steps_span_their_rhs():
    """A backward step has the rhs at its position: with r: b b b => a on
    a a b, the inverse steps at 0 and 1 rewrite disjoint letters."""
    p = parse_polygraph("monoid\ngenerators: a b\nrules:\nr: b b b => a\n")
    r = p.lookup_rule("r")
    s, t = (RewriteStep(p.word("a a b"), i, r, forward=False) for i in (0, 1))
    assert (s.span, t.span) == ((0, 1), (1, 2))
    assert str(t.right) == "b"
    assert classify_local_branching(s, t) == PEIFFER
    src, tgt = boundary3(Exchange(s, t))
    assert (src.source, src.target) == (tgt.source, tgt.target)


def test_forward_and_backward_steps_side_by_side():
    """On a b b b the inverse step at 0 (a <= b b b) and the forward step
    at 1 (b b b => a) are a Peiffer branching."""
    p = parse_polygraph("monoid\ngenerators: a b\nrules:\nr: b b b => a\n")
    r = p.lookup_rule("r")
    w = p.word("a b b b")
    back, fwd = RewriteStep(w, 0, r, forward=False), RewriteStep(w, 1, r)
    assert (back.span, fwd.span) == ((0, 1), (1, 4))
    assert classify_local_branching(back, fwd) == PEIFFER
    src, tgt = boundary3(Exchange(back, fwd))
    assert (src.source, src.target) == (tgt.source, tgt.target)
    assert str(src.target) == "b b b a"


def test_four_critical_branchings(b3):
    bs = enumerate_critical_branchings(b3)
    assert len(bs) == 4
    seen = {
        (str(b.source_word), b.step1.rule.name, b.step2.rule.name, b.offset)
        for b in bs
    }
    assert seen == {
        ("s t a", "beta", "alpha", 1),
        ("s a s t", "gamma", "beta", 2),
        ("s a s a s", "gamma", "gamma", 2),
        ("s a s a a", "gamma", "delta", 2),
    }


def test_branching_resolutions_join(b3):
    joins = {}
    for b in enumerate_critical_branchings(b3):
        res = resolve_branching(b3, b)
        assert res.status == "Confluent"
        assert res.f_prime.source == b.step1.target_word
        assert res.f_prime.target == res.join_word
        assert res.g_prime.source == b.step2.target_word
        assert res.g_prime.target == res.join_word
        joins[str(b.source_word)] = str(res.join_word)
    assert joins == {
        "s t a": "a a",
        "s a s t": "a a t",
        "s a s a s": "a a a s",
        "s a s a a": "a a a a",
    }


def test_self_overlap_not_confluent(xyx):
    bs = enumerate_critical_branchings(xyx)
    assert len(bs) == 1
    b = bs[0]
    assert str(b.source_word) == "x y x y x"
    assert b.step1.rule.name == "alpha" and b.step2.rule.name == "alpha"
    assert b.offset == 2
    res = resolve_branching(xyx, b)
    assert res.status == "NotConfluent"
    assert {str(res.nf1), str(res.nf2)} == {"y y y x", "x y y y"}


def test_completed_system_confluent(xyx_done):
    ok, report = decide_confluence(xyx_done)
    assert ok
    assert report["count"] == 2
    assert all(e["status"] == "Confluent" for e in report["branchings"])


def test_decide_confluence_negative_includes_normal_forms(xyx):
    ok, report = decide_confluence(xyx)
    assert not ok
    entry = report["branchings"][0]
    assert entry["status"] == "NotConfluent"
    assert {entry["nf1"], entry["nf2"]} == {"y y y x", "x y y y"}


def test_decide_confluence_demands_evidence(xyx):
    bare = replace(xyx, gen_order=None)
    with pytest.raises(NotCertified):
        decide_confluence(bare)
    # but the gate can be explicitly skipped
    ok, _ = decide_confluence(bare, assume_terminating=True)
    assert not ok


def test_pumped_family_branchings(sq, sq_cert):
    ok, report = decide_confluence(sq, sq_cert, ack_sampled=True, pump_bound=4)
    assert ok
    assert report["count"] == 5
    assert report["truncated"] is True
    for entry in report["branchings"]:
        assert entry["status"] == "Confluent"
        assert entry["join"] == "x"
        assert entry["family"] == "beta ~ alpha[n] @ offset 1"


def test_pumped_family_resolution_legs(sq):
    """The continuation of the first leg slides x rightwards through the t
    block (n sliding steps), pushes it past b, and cancels with the next
    family instance; the second leg is one sliding family."""
    for b in enumerate_critical_branchings(sq, pump_bound=4):
        n = int(b.step2.rule.name[6:-1])  # alpha[n]
        res = resolve_branching(sq, b)
        assert res.status == "Confluent"
        names = [s.rule.name for s in res.f_prime.steps]
        assert names == ["gamma"] * n + ["delta", f"alpha[{n + 1}]"]
        gamma_lefts = [str(s.left) for s in res.f_prime.steps[:n]]
        assert gamma_lefts == ["a " + " ".join(["t"] * (k + 1)) for k in range(n)]
        # the second leg lands on the join immediately: x is a normal form
        assert res.g_prime.steps == ()


def test_a_rule_with_an_empty_left_hand_side_is_in_no_critical_branching():
    # the standard coherent presentation's unit rule i: 1 => g_e
    p = standard_coherent_presentation(parse_multiplication_table(Z2_TABLE))
    assert p.lookup_rule("i").lhs.is_identity
    without = replace(p, rules=tuple(r for r in p.rules if r.name != "i"))
    found = enumerate_critical_branchings(p)
    assert found and [b.entry() for b in found] == [
        b.entry() for b in enumerate_critical_branchings(without)]
