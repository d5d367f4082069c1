"""Local/critical branchings, their resolution, and the confluence decision."""

import pytest
from dataclasses import replace

from polygraph import (
    NotCertified,
    RewriteStep,
    classify_local_branching,
    decide_confluence,
    enumerate_critical_branchings,
    make_local_branching,
    resolve_branching,
)
from polygraph.branchings import ASPHERICAL, OVERLAPPING, PEIFFER


def test_classification(b3):
    beta = b3.lookup_rule("beta")
    alpha = b3.lookup_rule("alpha")
    # on s t s t: two disjoint copies of the s t redex
    s_beta0 = RewriteStep(b3.word("1"), beta, b3.word("s t"))
    s_beta2 = RewriteStep(b3.word("s t"), beta, b3.word("1"))
    assert classify_local_branching(s_beta0, s_beta0) == ASPHERICAL
    assert classify_local_branching(s_beta0, s_beta2) == PEIFFER
    # on s t a: the redexes s t and t a share the middle letter
    s_beta = RewriteStep(b3.word("1"), beta, b3.word("a"))
    s_alpha = RewriteStep(b3.word("s"), alpha, b3.word("1"))
    assert classify_local_branching(s_beta, s_alpha) == OVERLAPPING
    b = make_local_branching(b3, s_alpha, s_beta)
    assert b.step1 == s_beta  # canonical order: by position first
    assert b.offset == 1


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
