"""Rewriting steps, normalization strategies, the deglex order, and
termination evidence (deglex check and sampled interpretation certificates)."""

import pytest

from polygraph import (
    FuelExhausted,
    NotCertified,
    PresentationError,
    check_deglex_termination,
    check_interpretation_certificate,
    find_redexes,
    normalize,
    orient,
    parse_certificate,
    parse_polygraph,
    termination_evidence,
    word_eq,
)
from polygraph.rewrite import EQUAL, GREATER, LESS, deglex_compare

from conftest import SQ_BAD_CERT_TEXT


def test_deglex_length_first(b3):
    order = ("a", "s", "t")
    assert deglex_compare(order, b3.word("s t s"), b3.word("a s")) == GREATER
    assert deglex_compare(order, b3.word("a"), b3.word("s t")) == LESS


def test_deglex_letterwise_on_ties(b3, xyx):
    assert deglex_compare(("a", "s", "t"), b3.word("t a"), b3.word("a s")) == GREATER
    assert deglex_compare(("x", "y"), xyx.word("y y y x"), xyx.word("x y y y")) == GREATER
    assert deglex_compare(("x", "y"), xyx.word("x y"), xyx.word("x y")) == EQUAL


def test_orient(xyx):
    u, v = xyx.word("y y y x"), xyx.word("x y y y")
    assert orient(("x", "y"), v, u) == (u, v)
    assert orient(("x", "y"), u, u) is None


def test_find_redexes(b3):
    w = b3.word("s t a")
    hits = {(s.rule.name, s.position) for s in find_redexes(b3, w)}
    assert hits == {("beta", 0), ("alpha", 1)}


def test_find_redexes_pumped_instances(sq):
    w = sq.word("a t t b")
    hits = find_redexes(sq, w, pump_bound=4)
    assert ("alpha[2]", 0) in [(s.rule.name, s.position) for s in hits]
    # bound too small: the instance is invisible
    hits0 = find_redexes(sq, w, pump_bound=1)
    assert all(not s.rule.name.startswith("alpha") for s in hits0)


def test_normalize_leftmost_path_is_sound(b3):
    nf, path = normalize(b3, b3.word("s t s"))
    assert str(nf) == "a s"
    assert path.source == b3.word("s t s") and path.target == nf
    assert path.positive
    # the path really is a rewriting derivation: each step matches the word
    current = path.source
    for s in path.steps:
        assert s.source_word == current
        current = s.target_word
    assert current == nf


def test_normalize_strategies_agree_on_convergent(b3):
    w = b3.word("s a s a a t a")
    left, _ = normalize(b3, w, "leftmost")
    right, _ = normalize(b3, w, "rightmost")
    assert left == right


def test_normalize_fuel_exhaustion_carries_partial_trace(b3):
    w = b3.word("s a s a s a s a s")
    with pytest.raises(FuelExhausted) as exc:
        normalize(b3, w, "leftmost", fuel=1)
    assert exc.value.trace is not None
    assert len(exc.value.trace.steps) == 1


def test_normal_form_is_fixed_point(b3):
    nf, _ = normalize(b3, b3.word("t a t a"))
    again, path = normalize(b3, nf)
    assert again == nf and not path.steps


def test_check_deglex_termination(b3, xyx):
    ok, report = check_deglex_termination(b3)
    assert ok and all(e["ok"] for e in report)
    bad = parse_polygraph(
        "monoid\ngenerators: x y\norder: x < y\nrules:\ngrow: y x => x y y\n"
    )
    ok, report = check_deglex_termination(bad)
    assert not ok
    assert report[0]["rule"] == "grow"


def test_check_deglex_termination_pumped(sq):
    # the length-increasing rule defeats deglex — that is why this system
    # needs an interpretation certificate — but the pumped family itself
    # (n+2 letters down to the empty word) passes the affine length check
    ok, report = check_deglex_termination(sq)
    assert not ok
    by_rule = {e["rule"]: e["ok"] for e in report}
    assert by_rule["alpha[n]"]
    assert not by_rule["beta"]


def test_certificate_parse_and_evaluation(sq, sq_cert):
    assert sq_cert.star["x"] == (1, 1)  # n + 1
    assert sq_cert.star["a"] == (1, 0)  # n
    # der a = 3^n
    assert [sq_cert.der_word(sq.word("a"), n) for n in (0, 1, 2)] == [1, 3, 9]
    # der x = 0
    assert sq_cert.der_word(sq.word("x"), 5) == 0
    assert sq_cert.covers(sq)


def test_certificate_star_grammar():
    cert = parse_certificate("a: star 2*n+3 ; der 0\nb: star 2n ; der 0\nc: star 4 ; der 0\n")
    assert cert.star == {"a": (2, 3), "b": (2, 0), "c": (0, 4)}
    with pytest.raises(PresentationError, match="line 2: cannot parse affine"):
        parse_certificate("a: star n ; der 0\nb: star n-1 ; der 0\n")


def test_certificate_passes_sampled_check(sq, sq_cert):
    rep = check_interpretation_certificate(sq, sq_cert, sample_bound=16)
    assert rep["passed"]
    assert rep["status"] == "PASS(sampled)"
    assert rep["rules_checked"] == 21  # 4 fixed rules + 17 family instances
    assert rep["failures"] == []


def test_certificate_literal_zero_derivation_fails(sq):
    cert = parse_certificate(SQ_BAD_CERT_TEXT)
    rep = check_interpretation_certificate(sq, cert, sample_bound=16)
    assert not rep["passed"]
    first = rep["failures"][0]
    assert first["rule"] == "gamma"
    assert first["n"] == 0
    assert first["detail"] == "need star 1 >= 1 and der 0 > 0"


def test_certificate_must_cover_generators(sq):
    cert = parse_certificate("a: star n ; der 3^n\n")
    with pytest.raises(PresentationError, match="does not cover"):
        check_interpretation_certificate(sq, cert)


def test_certificate_rejects_negative_sample_bound(sq, sq_cert):
    with pytest.raises(ValueError, match="sample_bound must be at least 0"):
        check_interpretation_certificate(sq, sq_cert, sample_bound=-1)


def test_termination_evidence_deglex(b3):
    assert termination_evidence(b3) == "deglex"


def test_termination_evidence_requires_acknowledgment(sq, sq_cert):
    with pytest.raises(NotCertified, match="ack"):
        termination_evidence(sq, sq_cert, ack_sampled=False)
    assert termination_evidence(sq, sq_cert, ack_sampled=True) == "interpretation (sampled)"


def test_termination_evidence_absent(mu):
    from dataclasses import replace

    bare = replace(mu, gen_order=None)
    with pytest.raises(NotCertified, match="no termination evidence"):
        termination_evidence(bare)


def test_word_eq_decides(b3):
    assert word_eq(b3, b3.word("s t s"), b3.word("t s t"))
    assert not word_eq(b3, b3.word("s"), b3.word("t"))


def test_word_eq_refuses_uncertified(xyx):
    # one branching is not confluent, so normal forms do not decide equality
    with pytest.raises(NotCertified, match="not confluent"):
        word_eq(xyx, xyx.word("x y x"), xyx.word("x y x"))
