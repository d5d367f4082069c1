"""Squier completion, 3-cell expressions, sphere filling, the standard
coherent presentation of a finite monoid, and homotopy-basis transfer."""

import pytest
from dataclasses import replace

from polygraph import (
    CoherentPresentation,
    CompositionError,
    NotCertified,
    PresentationError,
    RewriteStep,
    ThreeCell,
    TwoFunctor,
    Word,
    ZigZag,
    boundary3,
    check_two_functor,
    fill_sphere,
    generating_cells,
    parse_multiplication_table,
    parse_path,
    parse_polygraph,
    parse_transfer_maps,
    sigma_path,
    squier_completion,
    standard_coherent_presentation,
    transfer_homotopy_basis,
    validate,
    validate_table,
)
from polygraph.coherence import Gen, Inv, Whisker

from conftest import CATEGORY_TEXT, NONASSOC_TABLE, TRIVIAL_TABLE, XYX_DONE_TEXT, Z2_TABLE


@pytest.fixture(scope="module")
def cp_mu(mu):
    return squier_completion(mu)


@pytest.fixture(scope="module")
def cp_xyx(xyx_done):
    return squier_completion(xyx_done)


def test_single_overlap_cell_boundary(cp_mu):
    assert len(cp_mu.cells) == 1
    cell = cp_mu.cells[0]
    assert cell.parallel
    assert str(cell) == "conf0: a*mu*1 . 1*mu*1 === 1*mu*a . 1*mu*1"


def test_branching_index_skips_cells_of_no_critical_branching(mu, cp_mu):
    """A cell with an empty side, or (built without validate) one whose
    sides start on different words, indexes no branching."""
    (conf0,) = cp_mu.cells
    w = conf0.source2.source
    on_a_a = ZigZag.of(RewriteStep(mu.word("a a"), 0, mu.lookup_rule("mu")))
    cells = (ThreeCell("identity", ZigZag(w), ZigZag(w)),
             ThreeCell("skew", conf0.source2, on_a_a), conf0)
    assert list(CoherentPresentation(mu, cells).branching_index.values()) == [conf0]


def test_completed_system_cells(cp_xyx):
    assert [str(c) for c in cp_xyx.cells] == [
        "conf0: x y*alpha*1 === 1*alpha*y x . 1*kb1*1",
        "conf1: y y y*alpha*1 === 1*kb1*y x . x y*kb1*1 . 1*alpha*y y y",
    ]


def test_cells_attach_to_presentation(xyx_done, cp_xyx):
    p = replace(xyx_done, three_cells=cp_xyx.cells)
    assert validate(p) == []


def test_squier_refuses_nonconfluent(xyx):
    with pytest.raises(NotCertified, match="cannot build a coherent presentation: "
                                           "branching on 'x y x y x' is not confluent"):
        squier_completion(xyx)


def test_pumped_completion_truncates(sq, sq_cert):
    cp = squier_completion(sq, pump_bound=6, cert=sq_cert, ack_sampled=True)
    assert [c.name for c in cp.cells] == [f"conf{i}" for i in range(7)]
    for cell in cp.cells:
        assert cell.parallel


def test_expression_boundary_and_cells(cp_mu, mu):
    cell = cp_mu.cells[0]
    e = Gen(cell)
    src, tgt = boundary3(e)
    assert src == cell.source2 and tgt == cell.target2
    assert generating_cells(e) == {"conf0"}
    inv_src, inv_tgt = boundary3(Inv(e))
    assert inv_src == cell.target2 and inv_tgt == cell.source2
    w = mu.word("a")
    wsrc, wtgt = boundary3(Whisker(w, e, mu.word("1")))
    assert wsrc == cell.source2.whisker(w, mu.word("1"))
    assert wtgt == cell.target2.whisker(w, mu.word("1"))


def test_sigma_path_reaches_normal_form(cp_xyx, xyx_done):
    w = xyx_done.word("x y x y x")
    z = sigma_path(cp_xyx, w)
    assert z.source == w
    assert str(z.target) == "x y y y"
    assert all(s.forward for s in z.steps)


def test_fill_sphere_boundary_exact(cp_mu, mu):
    f = parse_path(mu, "1*mu*a . 1*mu*1")
    g = parse_path(mu, "a*mu*1 . 1*mu*1")
    expr = fill_sphere(cp_mu, f, g)
    src, tgt = boundary3(expr)
    assert src.reduced() == f.reduced() and tgt.reduced() == g.reduced()
    assert generating_cells(expr) == {"conf0"}


def test_fill_sphere_with_inverse_steps(cp_xyx, xyx_done):
    f = parse_path(xyx_done, "1*alpha*y x . 1*kb1*1")
    g = parse_path(xyx_done, "x y*alpha*1")
    zig = f.then(g.inverse())  # a loop at x y x y x; fill against the identity
    expr = fill_sphere(cp_xyx, zig, ZigZag(zig.source))
    src, tgt = boundary3(expr)
    assert src.reduced() == zig.reduced()
    assert tgt == ZigZag(zig.source)


def test_fill_sphere_rejects_non_parallel(cp_mu, mu):
    f = parse_path(mu, "1*mu*a . 1*mu*1")
    with pytest.raises(CompositionError):
        fill_sphere(cp_mu, f, ZigZag(mu.word("a a")))


def test_generating_cells_of_each_cell_sphere(cp_xyx):
    """Filling the boundary of a generating cell uses that cell alone."""
    for cell in cp_xyx.cells:
        assert generating_cells(fill_sphere(cp_xyx, cell.source2, cell.target2)) == {cell.name}


# ---------------------------------------------------------------------------
# standard coherent presentation of a finite monoid


def test_z2_standard_presentation():
    table = parse_multiplication_table(Z2_TABLE)
    assert validate_table(table) == []
    std = standard_coherent_presentation(table)
    assert len(std.generators) == 2
    assert len(std.rules) == 5
    assert len(std.three_cells) == 12
    # the unit rule is the single deliberate violation of rewriting hygiene
    assert validate(std) == ["rule i: lhs is an identity"]


def test_trivial_monoid_standard_presentation():
    table = parse_multiplication_table(TRIVIAL_TABLE)
    std = standard_coherent_presentation(table)
    assert (len(std.generators), len(std.rules), len(std.three_cells)) == (1, 2, 3)
    assert validate(std) == ["rule i: lhs is an identity"]


def test_non_associative_table_rejected():
    table = parse_multiplication_table(NONASSOC_TABLE)
    problems = validate_table(table)
    assert "associativity fails at (a, a, b): e vs a" in problems
    with pytest.raises(PresentationError, match="associativity"):
        standard_coherent_presentation(table)


def test_table_parse_errors():
    with pytest.raises(PresentationError, match="unit"):
        parse_multiplication_table("elements: e\ntable:\ne*e=e\n")
    with pytest.raises(PresentationError, match="cannot parse"):
        parse_multiplication_table("elements: e\nunit: e\ntable:\nnonsense\n")
    incomplete = parse_multiplication_table("elements: e a\nunit: e\ntable:\ne*e=e\n")
    assert any("missing" in m for m in validate_table(incomplete))


# ---------------------------------------------------------------------------
# homotopy-basis transfer


IDENTITY_MAP = """\
fgen:
x => x ; y => y
frule:
alpha => 1 * alpha * 1
kb1 => 1 * kb1 * 1
ggen:
x => x ; y => y
grule:
alpha => 1 * alpha * 1
kb1 => 1 * kb1 * 1
tau:
x => id(x) ; y => id(y)
"""


def test_parse_transfer_maps_identity(xyx_done):
    F, G, tau = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    assert check_two_functor(F) == [] and check_two_functor(G) == []
    w = xyx_done.word("x y x")
    assert F.word(w) == w
    z = parse_path(xyx_done, "1*alpha*1")
    assert F.zigzag(z) == z
    assert set(tau) == {"x", "y"}


def test_parse_transfer_maps_errors(xyx_done):
    with pytest.raises(PresentationError, match="unknown generator"):
        parse_transfer_maps(xyx_done, xyx_done, "fgen:\nz => x\n")
    with pytest.raises(PresentationError, match="lacks '=>'"):
        parse_transfer_maps(xyx_done, xyx_done, "fgen:\nx x\n")
    with pytest.raises(PresentationError, match="before any section"):
        parse_transfer_maps(xyx_done, xyx_done, "x => x\n")


def test_check_two_functor_catches_wrong_endpoints(xyx_done):
    F = TwoFunctor(
        xyx_done, xyx_done,
        {"x": xyx_done.word("x"), "y": xyx_done.word("y")},
        {"alpha": parse_path(xyx_done, "id(x y x)"),  # wrong: should reach y y
         "kb1": parse_path(xyx_done, "1*kb1*1")},
    )
    problems = check_two_functor(F)
    assert any("image of rule alpha" in m for m in problems)


def test_check_two_functor_names_each_problem(xyx_done):
    p = xyx_done
    other = parse_polygraph(XYX_DONE_TEXT.replace("alpha", "other"))
    impostor = parse_polygraph(XYX_DONE_TEXT.replace("=> y y", "=> y x y"))
    F = TwoFunctor(
        p, p,
        {"x": p.word("x"), "y": Word(("q",), ("*", "*")), "z": p.word("x")},
        {"alpha": parse_path(other, "1*other*1"),
         "kb1": parse_path(impostor, "1*alpha*y"),
         "nope": parse_path(p, "id(x)")},
    )
    assert check_two_functor(F) == [
        "image of 'y': unknown generator 'q'",
        "gen image for unknown generator 'z'",
        "image of rule alpha goes x y x -> y y, expected x q x -> q q",
        "image of rule alpha uses unknown rule 'other'",
        "image of rule kb1 goes x y x y -> y x y y, expected q q q x -> x q q q",
        "image of rule kb1 uses a rule named 'alpha' that differs from the declared one",
        "rule image for unknown rule 'nope'",
    ]


def test_functor_images_of_steps_and_words(xyx_done):
    F, _, _ = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    alpha = xyx_done.lookup_rule("alpha")
    backward = RewriteStep(xyx_done.word("x y y"), 1, alpha, forward=False)
    assert F.step(backward) == ZigZag.of(backward)
    with pytest.raises(PresentationError, match="functor has no image for rule 'nope'"):
        F.rule_image("nope")
    cat = parse_polygraph(CATEGORY_TEXT)
    f = cat.word("f")
    swapped = TwoFunctor(cat, cat, {"f": f, "g": f}, {})
    with pytest.raises(CompositionError,
                       match=r"cannot compose f \(ends at Y\) with f \(starts at X\)"):
        swapped.word(cat.word("f g"))
    with pytest.raises(PresentationError, match="functor has no image for generator 'g'"):
        TwoFunctor(cat, cat, {"f": f}, {}).word(cat.word("g"))


def test_transfer_identity_functor(xyx_done, cp_xyx):
    F, G, tau = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    cells = transfer_homotopy_basis(xyx_done, F, G, tau, cp_xyx.cells)
    assert [c.name for c in cells] == ["F_conf0", "F_conf1", "tau_alpha", "tau_kb1"]
    for c in cells:
        assert c.parallel
    # tau cells of an identity transfer are degenerate: both sides the rule
    tau_alpha = cells[2]
    assert str(tau_alpha.source2) == str(tau_alpha.target2) == "1*alpha*1"
    assert validate(replace(xyx_done, three_cells=tuple(cells))) == []


def test_transfer_demands_tau_components(xyx_done, cp_xyx):
    F, G, _ = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    with pytest.raises(PresentationError):
        transfer_homotopy_basis(xyx_done, F, G, {}, cp_xyx.cells)
