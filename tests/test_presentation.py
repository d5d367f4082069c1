"""Words, rules, zigzags, 3-cells: construction, parsing, serialization,
and the Tietze moves."""

import random

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
    Word,
    ZigZag,
    identity_word,
    normalize,
    parse_path,
    parse_polygraph,
    serialize_polygraph,
    tietze_apply,
    validate,
)

from conftest import B3_TEXT, CATEGORY_TEXT, S3_TABLE, SQ_TEXT, XYX_TEXT, rstep


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
    assert w != "s t s" and w != w.text  # a word is never equal to a str


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


def test_concat_names_the_word_built_so_far():
    a, b, c = Word(("a",), ("X", "X")), Word(("b",), ("X", "Y")), Word(("c",), ("Z", "Z"))
    with pytest.raises(CompositionError) as exc:
        a.concat(b, c)  # the second junction fails: a b ends at Y
    assert str(exc.value) == "cannot compose a b (ends at Y) with c (starts at Z)"


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
        assert str(p) == serialize_polygraph(p)


def test_rewrite_step_words(b3):
    beta = b3.lookup_rule("beta")
    step = rstep(b3.word("1"), beta, b3.word("s"))
    assert str(step.source_word) == "s t s"
    assert str(step.target_word) == "a s"
    assert step.position == 0
    back = rstep(b3.word("1"), beta, b3.word("s"), forward=False)
    assert back.source_word == step.target_word
    assert back.target_word == step.source_word


def test_rewrite_step_input_side_must_be_at_its_position(b3):
    beta, alpha = b3.lookup_rule("beta"), b3.lookup_rule("alpha")
    w = b3.word("a s t s s")  # beta's lhs s t sits at 1
    assert RewriteStep(w, 1, beta).left == b3.word("a")
    assert RewriteStep(w, 1, beta).right == b3.word("s s")
    for position, rule, forward in (
        (2, beta, True),  # slid one letter right
        (0, beta, True),  # slid one letter left
        (1, alpha, True),  # another rule
        (-1, beta, True),  # negative positions; -4 is the redex counted
        (-4, beta, True),  # from the end
        (4, beta, True),  # past the end
        (6, beta, True),
        (1, beta, False),  # backward: beta's rhs a is not at 1
    ):
        with pytest.raises(CompositionError, match="does not occur at"):
            RewriteStep(w, position, rule, forward)
    assert RewriteStep(w, 0, beta, False).target_word == b3.word("s t s t s s")


def test_rewrite_step_checks_the_objects_inside_the_redex():
    p = parse_polygraph(CATEGORY_TEXT)
    rho = p.lookup_rule("rho")  # f g f : X -> Y
    w = p.word("g f g f")  # Y -> X -> Y -> X -> Y
    assert RewriteStep(w, 1, rho).target_word == p.word("g f")
    # the same letters, one junction object inside the redex moved
    moved = Word(w.letters, ("Y", "X", "X", "X", "Y"))
    with pytest.raises(CompositionError, match="does not occur at"):
        RewriteStep(moved, 1, rho)


def category_word(p, rng, length):
    letters = ("f", "g") if rng.random() < 0.5 else ("g", "f")
    start = "X" if letters[0] == "f" else "Y"
    return p.word_from_letters([letters[i % 2] for i in range(length)], at=start)


def plain_word(p, rng, length):
    return p.word_from_letters(rng.choice([g.name for g in p.generators]) for _ in range(length))


@pytest.mark.parametrize("text, word", [
    (B3_TEXT, plain_word), (SQ_TEXT, plain_word), (CATEGORY_TEXT, category_word),
], ids=["b3", "sq", "category"])
def test_parse_path_round_trips_seeded_paths(text, word):
    p = parse_polygraph(text)
    rng = random.Random(13)
    paths = 0
    for _ in range(15):
        w = word(p, rng, rng.randint(1, 12))
        _, left = normalize(p, w, "leftmost")
        _, right = normalize(p, w, "rightmost")
        for path in (left, right, left.then(right.inverse()), right.inverse().then(left)):
            assert parse_path(p, str(path)) == path, str(path)
            paths += bool(path.steps)
    assert paths >= 30


def test_zigzag_composition_and_inverse(b3):
    beta = b3.lookup_rule("beta")
    alpha = b3.lookup_rule("alpha")
    z = ZigZag.of(
        rstep(b3.word("1"), beta, b3.word("s")),
    ).then(ZigZag(b3.word("a s")))
    assert str(z.source) == "s t s" and str(z.target) == "a s"
    assert len(z.steps) == 1
    assert all(s.forward for s in z.steps)
    inv = z.inverse()
    assert inv.source == z.target and inv.target == z.source
    assert not all(s.forward for s in inv.steps)
    assert z.then(inv).reduced() == ZigZag(z.source)
    with pytest.raises(CompositionError):
        ZigZag.of(
            rstep(b3.word("1"), beta, b3.word("s")),
            rstep(b3.word("1"), alpha, b3.word("1")),
        )


def test_zigzag_whisker(b3):
    beta = b3.lookup_rule("beta")
    z = ZigZag.of(rstep(b3.word("1"), beta, b3.word("1")))
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


def test_validate_flags_cells_no_file_can_declare(mu, sq):
    """Problems the parser stops at before they reach ``validate``, in
    cells built directly; each diagnostic names its cell."""
    from dataclasses import replace
    from polygraph import Rule

    cat = parse_polygraph(CATEGORY_TEXT)
    alpha = sq.pumped[0]
    one, real = mu.word("1"), mu.rules[0]
    foreign = Rule("x", mu.word("a a"), mu.word("a"))
    impostor = Rule("mu", mu.word("a a a"), mu.word("a"))
    cells = (
        ThreeCell("c", ZigZag.of(rstep(one, foreign, one)), ZigZag.of(rstep(one, real, one))),
        ThreeCell("d", ZigZag.of(rstep(one, impostor, one)),
                  ZigZag.of(rstep(one, real, mu.word("a")), rstep(one, real, one))),
    )
    cases = [
        (replace(mu, rules=(Rule("r", Word(("q",), ("*", "*")), mu.word("a")),)),
         ["rule r: unknown generator 'q'"]),
        (replace(cat, rules=(Rule("r", Word(("f", "g"), ("X", "X", "X")), cat.word("1", at="X")),)),
         ["rule r: word f g has inconsistent endpoints at 'f'"]),
        (replace(mu, rules=(Rule("r", mu.word("a"), identity_word("Z")),)),
         ["rule r: identity word at unknown object 'Z'",
          "rule r: sides not parallel (*->* vs Z->Z)"]),
        (replace(sq, pumped=(replace(alpha, pump="q"),)),
         ["pumped rule alpha: unknown pump letter 'q'",
          "pumped rule alpha[1]: unknown generator 'q'",
          "pumped rule alpha[2]: unknown generator 'q'"]),
        (replace(sq, pumped=(replace(alpha, rhs_q=-1),)),
         ["pumped rule alpha: instance 0 invalid: word () has 0 nodes, expected 1"]),
        (replace(mu, three_cells=cells),
         ["3-cell c: source uses unknown rule 'x'",
          "3-cell d: source uses a rule named 'mu' that differs from the declared one"]),
        (replace(mu, three_cells=(ThreeCell("e", ZigZag(Word(("q",), ("*", "*"))),
                                            ZigZag(Word(("q",), ("*", "*")))),)),
         ["3-cell e: unknown generator 'q'"]),
    ]
    for p, problems in cases:
        assert validate(p) == problems


def test_a_slice_out_of_range_is_an_index_error(b3):
    with pytest.raises(IndexError, match=r"slice \[2:4\] out of range for s t s"):
        b3.word("s t s").slice(2, 4)


def test_a_path_step_without_two_stars_is_refused(b3):
    with pytest.raises(PresentationError, match="line 7: cannot parse path step 's beta 1'"):
        parse_path(b3, "1*alpha*1 . s beta 1", line=7)


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


PUMPED_DEFINED_TEXT = """\
monoid
generators: a b t z
rules:
zdef: a b => z
pumped:
alpha[n]: z ( t )^n b => a ( t )^( n )
"""


def test_tietze_remove_generator_substitutes_in_pumped_families():
    p = parse_polygraph(PUMPED_DEFINED_TEXT)
    p2 = tietze_apply(p, RemoveGenerator("z", "zdef"))
    assert [g.name for g in p2.generators] == ["a", "b", "t"]
    assert str(p2.pumped[0]) == "alpha[n]: a b ( t )^n b => a ( t )^( n ) 1"
    assert validate(p2) == []


def test_tietze_refuses_what_validate_rejects(b3, xyx, mu):
    """Each move is judged by ``validate`` on its result, so a move that
    would make a diagnostic is refused with it."""
    from dataclasses import replace

    witness = parse_path(b3, "1*beta*s")  # s t s => a s
    p2 = tietze_apply(b3, AddRule("extra", b3.word("s t s"), b3.word("a s"), witness))
    used = replace(p2, three_cells=(ThreeCell("c", parse_path(p2, "1*extra*1"), witness),))
    q = Word(("q",), ("*", "*"))
    one = identity_word()
    cases = [
        (used, RemoveRule("extra", witness), "3-cell c: source uses unknown rule 'extra'"),
        (mu, AddRule("r", q, q, ZigZag(q)), "rule r: unknown generator 'q'"),
        (mu, AddRule("e", one, one, ZigZag(one)), "rule e: lhs is an identity"),
        (xyx, AddGenerator("z", xyx.word("1"), "zdef"), "rule zdef: lhs is an identity"),
        (xyx, AddGenerator("z", xyx.word("x"), "alpha"), "rule alpha: duplicate name"),
        (xyx, AddGenerator("x", xyx.word("y y"), "xdef"), "generator x: duplicate name"),
        (xyx, AddGenerator("z", Word(("x", "q"), ("*",) * 3), "zdef"),
         "rule zdef: unknown generator 'q'"),
        (b3, AddRule("alpha", b3.word("s t s"), b3.word("a s"), witness),
         "rule alpha: duplicate name"),
    ]
    for p, move, message in cases:
        with pytest.raises(PresentationError) as info:
            tietze_apply(p, move)
        assert str(info.value) == message


def test_tietze_refuses_to_remove_what_is_still_used(xyx):
    """A generator that a 3-cell or a pumped family still mentions stays."""
    from dataclasses import replace

    p2 = tietze_apply(xyx, AddGenerator("z", xyx.word("y y"), "zdef"))
    in_word = ThreeCell("c", ZigZag(p2.word("z")), ZigZag(p2.word("z")))
    in_rule = ThreeCell("d", parse_path(p2, "1*zdef*1"), parse_path(p2, "1*zdef*1"))
    cases = [
        (replace(p2, three_cells=(in_word,)), "3-cell c: unknown generator 'z'"),
        (replace(p2, three_cells=(in_rule,)), "3-cell d: source uses unknown rule 'zdef'"),
    ]
    for p, message in cases:
        with pytest.raises(PresentationError) as info:
            tietze_apply(p, RemoveGenerator("z", "zdef"))
        assert str(info.value) == message
    pump = parse_polygraph(PUMPED_DEFINED_TEXT.replace("zdef: a b => z", "tdef: a b => t"))
    with pytest.raises(PresentationError) as info:
        tietze_apply(pump, RemoveGenerator("t", "tdef"))
    assert str(info.value) == "pumped rule alpha: unknown pump letter 't'"


def test_tietze_refusals_only_a_move_can_make(xyx, mu):
    """The checks ``validate`` cannot make: the defining rule's shape, the
    witness, and the move itself."""
    other = parse_polygraph(XYX_TEXT.replace("alpha", "other"))
    impostor = parse_polygraph(XYX_TEXT.replace("=> y y", "=> y x y"))
    cases = [
        (xyx, RemoveGenerator("y", "alpha"),
         "rule alpha does not define generator 'y' (rhs is y y)"),
        (mu, RemoveGenerator("a", "mu"), "defining word for 'a' mentions it"),
        (xyx, AddRule("extra", xyx.word("x y x"), xyx.word("y y"),
                      parse_path(other, "1*other*1")),
         "witness uses unknown rule 'other'"),
        (xyx, AddRule("extra", xyx.word("x y x"), xyx.word("y x y"),
                      parse_path(impostor, "1*alpha*1")),
         "witness uses a rule named 'alpha' that differs from the declared one"),
    ]
    for p, move, message in cases:
        with pytest.raises(PresentationError) as info:
            tietze_apply(p, move)
        assert str(info.value) == message
    with pytest.raises(TypeError, match="not a Tietze move"):
        tietze_apply(xyx, "x")


def test_tietze_refuses_to_remove_a_pumped_instance():
    """A Remove move names a plain rule: removing one instance of a pumped
    family returned its input unchanged, and removing a generator along one
    kept the family, whose instance 0 became a b => a b."""
    extra = parse_polygraph(SQ_TEXT.replace("rules:\n", "rules:\nextra: a t t b => 1\n"))
    defined = parse_polygraph(
        "monoid\ngenerators: a b t z\npumped:\nalpha[n]: a ( t )^n b => z ( t )^( 0 )\n")
    cases = [
        (extra, RemoveRule("alpha[2]", parse_path(extra, "1*extra*1"))),
        (defined, RemoveGenerator("z", "alpha[0]")),
    ]
    for p, move in cases:
        with pytest.raises(PresentationError) as info:
            tietze_apply(p, move)
        assert str(info.value) == (
            f"rule {move.rule_name} is an instance of the pumped family 'alpha', "
            "which a move cannot remove one instance of"
        )


def test_tietze_moves_leave_a_diagnostic_the_input_has():
    """The standard coherent presentation declares a rule with an identity
    lhs on purpose; that diagnostic blocks no move."""
    from polygraph import parse_multiplication_table, standard_coherent_presentation

    std = standard_coherent_presentation(parse_multiplication_table(S3_TABLE))
    assert validate(std) == ["rule i: lhs is an identity"]
    p2 = tietze_apply(std, AddGenerator("z", std.word("g_p1 g_p2"), "zdef"))
    assert validate(p2) == ["rule i: lhs is an identity"]
    assert tietze_apply(p2, RemoveGenerator("z", "zdef")) == std
