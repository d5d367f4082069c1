"""Words, rules, zigzags, 3-cells: construction, parsing, serialization,
and the Tietze moves."""

import pytest

from polygraph import (
    AddGenerator,
    AddRule,
    CompositionError,
    PresentationError,
    RemoveGenerator,
    RemoveRule,
    RewriteStep,
    ThreeCell,
    ZigZag,
    identity_word,
    parse_path,
    parse_polygraph,
    serialize_polygraph,
    tietze_apply,
    validate,
)

from conftest import CATEGORY_TEXT


def test_parse_monoid_basics(b3):
    assert b3.is_monoid
    assert [g.name for g in b3.generators] == ["s", "t", "a"]
    assert [r.name for r in b3.rules] == ["alpha", "beta", "gamma", "delta"]
    assert b3.gen_order == ("a", "s", "t")
    assert not b3.pumped and not b3.three_cells


def test_word_parsing(b3):
    w = b3.word("s t s")
    assert w.letters == ("s", "t", "s")
    assert len(w) == 3
    assert str(w) == "s t s"
    one = b3.word("1")
    assert one.is_identity and str(one) == "1"
    assert w.concat(one) == w


def test_word_unknown_generator(b3):
    with pytest.raises(PresentationError):
        b3.word("s q")


def test_category_words_compose_by_type():
    cat = parse_polygraph(CATEGORY_TEXT)
    assert not cat.is_monoid
    fg = cat.word("f g")
    assert fg.source == "X" and fg.target == "X"
    with pytest.raises(PresentationError, match="not composable"):
        cat.word("f f")
    with pytest.raises(PresentationError):
        cat.word("1")  # identity of which object?
    assert cat.word("1", at="Y").is_identity


def test_identity_lhs_rejected():
    text = "monoid\ngenerators: a\nrules:\nbad: 1 => a\n"
    with pytest.raises(PresentationError, match="identity"):
        parse_polygraph(text)


def test_parse_error_carries_line_number():
    text = "monoid\ngenerators: a\nrules:\nbad rule without arrow\n"
    with pytest.raises(PresentationError) as exc:
        parse_polygraph(text)
    assert "line 4" in str(exc.value)


def test_pumped_rule_instances(sq):
    fam = sq.pumped[0]
    inst = fam.instance(3)
    assert inst.name == "alpha[3]"
    assert str(inst.lhs) == "a t t t b"
    assert str(inst.rhs) == "1"
    assert sq.lookup_rule("alpha[3]") == inst
    # plain rules keep working through the same lookup
    assert sq.lookup_rule("beta").name == "beta"
    with pytest.raises(PresentationError):
        sq.lookup_rule("alpha[x]")


def test_pumped_rule_mismatched_letters_rejected():
    text = (
        "monoid\ngenerators: a b t u\nrules:\n"
        "pumped:\nbad[n]: a ( t )^n b => ( u )^( 0 )\n"
    )
    with pytest.raises(PresentationError, match="pump letters differ"):
        parse_polygraph(text)


def test_pumped_rule_exponent_coefficient_checked():
    head = "monoid\ngenerators: a b t\npumped:\n"
    fam = parse_polygraph(head + "f[n]: a ( t )^n b => ( t )^( 1*n+2 )\n").pumped[0]
    assert (fam.rhs_p, fam.rhs_q) == (1, 2)
    with pytest.raises(PresentationError, match="line 4: affine exponent must have"):
        parse_polygraph(head + "f[n]: a ( t )^n b => ( t )^( 2*n )\n")
    with pytest.raises(PresentationError, match="line 4: cannot parse affine"):
        parse_polygraph(head + "f[n]: a ( t )^n b => ( t )^( n-1 )\n")


def test_all_rule_instances_bound(sq):
    names = [r.name for r in sq.all_rule_instances(2)]
    assert names == ["beta", "gamma", "delta", "eps",
                     "alpha[0]", "alpha[1]", "alpha[2]"]


def test_serialization_round_trip(b3, sq, xyx_done):
    for p in (b3, sq, xyx_done):
        assert parse_polygraph(serialize_polygraph(p)) == p


def test_rewrite_step_words(b3):
    beta = b3.lookup_rule("beta")
    step = RewriteStep(b3.word("1"), beta, b3.word("s"))
    assert str(step.source_word) == "s t s"
    assert str(step.target_word) == "a s"
    assert step.position == 0
    back = RewriteStep(b3.word("1"), beta, b3.word("s"), forward=False)
    assert back.source_word == step.target_word
    assert back.target_word == step.source_word


def test_zigzag_composition_and_inverse(b3):
    beta = b3.lookup_rule("beta")
    alpha = b3.lookup_rule("alpha")
    z = ZigZag.of(
        RewriteStep(b3.word("1"), beta, b3.word("s")),
    ).then(ZigZag(b3.word("a s")))
    assert str(z.source) == "s t s" and str(z.target) == "a s"
    assert len(z.steps) == 1
    assert z.positive
    inv = z.inverse()
    assert inv.source == z.target and inv.target == z.source
    assert not inv.positive
    assert z.then(inv).reduced() == ZigZag(z.source)
    with pytest.raises(CompositionError):
        ZigZag.of(
            RewriteStep(b3.word("1"), beta, b3.word("s")),
            RewriteStep(b3.word("1"), alpha, b3.word("1")),
        )


def test_zigzag_whisker(b3):
    beta = b3.lookup_rule("beta")
    z = ZigZag.of(RewriteStep(b3.word("1"), beta, b3.word("1")))
    w = z.whisker(b3.word("a"), b3.word("t a"))
    assert str(w.source) == "a s t t a"
    assert str(w.target) == "a a t a"
    assert w.steps[0].left == b3.word("a")


def test_parse_path_round_trip(b3):
    for text in ("1*beta*s", "s*alpha*1 . 1*gamma*1", "id(a s)", "1*beta-*1"):
        z = parse_path(b3, text)
        assert parse_path(b3, str(z)) == z
    assert parse_path(b3, "1*beta-*1").source == b3.word("a")


def test_parse_path_rejects_non_composable(b3):
    with pytest.raises(PresentationError):
        parse_path(b3, "1*beta*1 . 1*beta*1")


def test_three_cell_boundary_must_be_parallel(b3):
    one = parse_path(b3, "1*beta*a")               # s t a => a a
    other = parse_path(b3, "s*alpha*1 . 1*gamma*1")  # s t a => s a s => a a
    cell = ThreeCell("c", one, other)
    assert cell.parallel
    bad = ThreeCell("c", one, parse_path(b3, "id(a a)"))
    assert not bad.parallel


def test_three_cells_parse_and_serialize(xyx_done):
    text = serialize_polygraph(xyx_done) + (
        "threecells:\n  w: x y*alpha*1 === 1*alpha*y x . 1*kb1*1\n"
    )
    p = parse_polygraph(text)
    assert len(p.three_cells) == 1
    assert parse_polygraph(serialize_polygraph(p)) == p


def test_validate_flags_identity_lhs_rule(mu):
    # validate() is what parse_polygraph enforces; build the bad rule directly
    from dataclasses import replace
    from polygraph import Rule

    bad = Rule("i", identity_word(mu.objects[0]), mu.word("a"))
    p = replace(mu, rules=mu.rules + (bad,))
    assert validate(p) == ["rule i: lhs is an identity"]


def test_tietze_add_remove_rule(b3):
    witness = parse_path(b3, "1*beta*s")  # s t s => a s
    p2 = tietze_apply(b3, AddRule("extra", b3.word("s t s"), b3.word("a s"), witness))
    assert p2.lookup_rule("extra").lhs == b3.word("s t s")
    assert validate(p2) == []
    p3 = tietze_apply(p2, RemoveRule("extra", witness))
    assert [r.name for r in p3.rules] == [r.name for r in b3.rules]


def test_tietze_add_rule_rejects_wrong_witness(b3):
    witness = parse_path(b3, "1*beta*s")
    with pytest.raises(PresentationError):
        tietze_apply(b3, AddRule("extra", b3.word("s t s"), b3.word("a a"), witness))


def test_tietze_remove_rule_rejects_self_witness(b3):
    witness = parse_path(b3, "1*beta*1")
    with pytest.raises(PresentationError, match="removed rule"):
        tietze_apply(b3, RemoveRule("beta", witness))


def test_tietze_add_remove_generator(xyx):
    p2 = tietze_apply(xyx, AddGenerator("z", xyx.word("y y"), "zdef"))
    assert "z" in p2.generator_map
    assert str(p2.lookup_rule("zdef")) == "zdef: y y => z"
    assert validate(p2) == []
    p3 = tietze_apply(p2, RemoveGenerator("z", "zdef"))
    assert "z" not in p3.generator_map
    assert [str(r) for r in p3.rules] == [str(r) for r in xyx.rules]


def test_tietze_remove_generator_substitutes(xyx):
    p2 = tietze_apply(xyx, AddGenerator("z", xyx.word("y y"), "zdef"))
    witness = parse_path(p2, "1*alpha*1 . 1*zdef*1")  # x y x => y y => z
    p3 = tietze_apply(p2, AddRule("short", p2.word("x y x"), p2.word("z"), witness))
    p4 = tietze_apply(p3, RemoveGenerator("z", "zdef"))
    # the added rule survives with z replaced by its definition
    assert str(p4.lookup_rule("short")) == "short: x y x => y y"
