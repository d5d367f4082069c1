"""Rewriting steps, normalization strategies, the deglex order, and
termination evidence (deglex check and sampled interpretation certificates)."""

import random

import pytest

from polygraph import (
    CompositionError,
    FuelExhausted,
    NotCertified,
    PresentationError,
    check_deglex_termination,
    check_interpretation_certificate,
    find_redexes,
    normal_form,
    normalize,
    orient,
    parse_certificate,
    parse_polygraph,
    termination_evidence,
    word_eq,
)
from polygraph.cli import run
from polygraph.rewrite import EQUAL, GREATER, LESS, deglex_compare

from conftest import CATEGORY_TEXT, SQ_BAD_CERT_TEXT


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
    hits = find_redexes(sq, w)
    assert ("alpha[2]", 0) in [(s.rule.name, s.position) for s in hits]


def test_find_redexes_is_exact(b3, sq):
    """A word's redex list is empty exactly when the word is normal: on
    Squier's example with a t^n b inside (n = 0…20, past any pump bound),
    and on B3+ and a category."""
    rng = random.Random(1)
    cat = parse_polygraph(CATEGORY_TEXT)
    words = []
    for n in range(21):
        for _ in range(3):
            left, right = (rng.choices("abtxy", k=rng.randint(0, 4)) for _ in "lr")
            words.append((sq, sq.word(" ".join(left + ["a"] + ["t"] * n + ["b"] + right))))
    for p in (b3, cat):
        for _ in range(60):
            node, letters = p.objects[0], []
            for _ in range(rng.randint(0, 10)):
                g = rng.choice([g for g in p.generators if g.source == node])
                letters.append(g.name)
                node = g.target
            words.append((p, p.word_from_letters(letters, at=p.objects[0])))
    for p, w in words:
        assert (not find_redexes(p, w)) == (normal_form(p, w) == w), f"'{w}'"
    w = sq.word("a " + "t " * 10 + "b")
    assert [(s.rule.name, s.position) for s in find_redexes(sq, w)] == [("alpha[10]", 0)]


def test_normalize_leftmost_path_is_sound(b3):
    nf, path = normalize(b3, b3.word("s t s"))
    assert str(nf) == "a s"
    assert path.source == b3.word("s t s") and path.target == nf
    assert all(s.forward for s in path.steps)
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


def test_an_unknown_strategy_is_a_value_error(b3):
    w = b3.word("s a s")
    for function in (normalize, normal_form):
        with pytest.raises(ValueError, match="unknown strategy 'middle'"):
            function(b3, w, "middle")


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


@pytest.mark.parametrize("family, ok, detail", [
    ("a ( t )^n b => ( t )^( n )", True, "every instance shortens by 2"),
    ("( t )^n a => b b ( t )^( n ) a", False, "every instance grows by 2"),
    ("b ( t )^n => a ( t )^( n )", True,
     "length-tied; letterwise decrease verified (stable in n)"),
    ("a ( t )^n => b ( t )^( n )", False, "instance n=0 does not decrease"),
])
def test_check_deglex_termination_exponent_n_plus_q(family, ok, detail):
    """A family whose right-hand exponent is n+q changes length by a
    constant; a length-tied one is compared letterwise for small n."""
    p = parse_polygraph(
        f"monoid\ngenerators: a b t\norder: a < b < t\npumped:\nphi[n]: {family}\n"
    )
    assert check_deglex_termination(p) == (ok, [{"rule": "phi[n]", "ok": ok, "detail": detail}])


@pytest.mark.parametrize("family, first_bad", [
    ("( g )^n s s s s => g g g x ( g )^( n )", 4),
    ("( g )^n s s s s s s s s s s => g g g g g g g g g x ( g )^( n )", 10),
])
def test_check_deglex_termination_length_tied_family_past_the_pump_bound(
        tmp_path, family, first_bad):
    """Both families decrease for n < first_bad and increase from there on,
    so no pump bound may make their deglex check pass, nor `cp` resolve
    their branchings on deglex evidence."""
    text = f"monoid\ngenerators: g x s\norder: g < x < s\npumped:\nbeta[n]: {family}\n"
    p = parse_polygraph(text)
    assert check_deglex_termination(p) == (False, [
        {"rule": "beta[n]", "ok": False, "detail": f"instance n={first_bad} does not decrease"}
    ])
    for pump_bound in (0, 3, 8, 16):
        with pytest.raises(NotCertified, match="no termination evidence"):
            termination_evidence(p, pump_bound=pump_bound)
    path = tmp_path / "family.txt"
    path.write_text(text)
    code, report = run(["cp", str(path)])
    assert code == 0
    assert report.sections["resolved"] is False
    assert report.sections["note"].startswith("no termination evidence")


def test_certificate_parse_and_evaluation(sq, sq_cert):
    assert sq_cert.star["x"] == (1, 1)  # n + 1
    assert sq_cert.star["a"] == (1, 0)  # n
    # der a = 3^n
    assert [sq_cert.interpret(sq.word("a"), n, {})[1] for n in (0, 1, 2)] == [1, 3, 9]
    # der x = 0
    assert sq_cert.interpret(sq.word("x"), 5, {})[1] == 0
    assert sq_cert.missing(sq) == []


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


def test_word_eq_refuses_words_that_are_not_parallel():
    cat = parse_polygraph(CATEGORY_TEXT)
    with pytest.raises(CompositionError) as exc:
        word_eq(cat, cat.word("f"), cat.word("f g"))
    assert str(exc.value) == "'f' and 'f g' are not parallel"


def test_word_eq_refuses_uncertified(xyx):
    # one branching is not confluent, so normal forms do not decide equality
    with pytest.raises(NotCertified, match="not confluent"):
        word_eq(xyx, xyx.word("x y x"), xyx.word("x y x"))
