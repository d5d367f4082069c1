"""The exact error texts of the four input readers: presentations,
multiplication tables, transfer maps and termination certificates.

Each case is a short file text and the PresentationError message it must
raise, line number included, so a change to how entries and sections are
read shows up as a changed message rather than passing unnoticed.
"""

import pytest

from polygraph import (
    PresentationError,
    parse_certificate,
    parse_multiplication_table,
    parse_polygraph,
    parse_transfer_maps,
)
from polygraph.cli import run

from conftest import IDENTITY_MAP, XYX_DONE_TEXT

PRESENTATION_ERRORS = [
    ("", "empty presentation"),
    ("# nothing\n\n", "empty presentation"),
    ("group\ngenerators: a\n", "line 1: expected 'monoid' or 'category', got 'group'"),
    ("monoid\nx\ngenerators: a\n", "line 2: unexpected entry before any section: 'x'"),
    ("monoid\nobjects: X\ngenerators: a\n",
     "monoid presentations do not take an objects section"),
    ("category\ngenerators: f: X -> X\n",
     "category presentations need an objects: section"),
    ("category\nobjects: X\ngenerators: f\n",
     "line 3: generator f in a category presentation needs a type"),
    ("monoid\ngenerators: a a\n", "line 2: generator a: duplicate name"),
    ("monoid\ngenerators: a\nrules:\nr: a a => a\nr: a a a => a\n",
     "line 5: rule r: duplicate name"),
    ("monoid\ngenerators: a\nrules:\nr: a a => a\n"
     "threecells:\nc: id(a) === id(a)\nc: id(a) === id(a)\n",
     "line 7: 3-cell c: duplicate name"),
    ("monoid\ngenerators: a b\norder: a\n",
     "line 3: order clause does not cover every generator exactly once"),
    ("monoid\ngenerators: a b\norder: a < < b\n", "line 3: malformed order clause"),
    ("monoid\ngenerators: a\npumped:\nf[n]: a (t)^n => a (t)^(n)\n",
     "line 4: pumped rule f: unknown pump letter 't'"),
    ("monoid\ngenerators: a\nrules:\nr: a a => a\nthreecells:\nc: id(a)\n",
     "line 6: 3-cell entry lacks '===': 'c: id(a)'"),
    ("category\nobjects: X X\ngenerators: f: X -> X\n", "line 2: duplicate object names"),
    ("monoid\ngenerators: a=b\n", "line 2: bad generator name 'a=b'"),
    ("category\nobjects: X\ngenerators: f: X X\n",
     "line 3: bad typed generator declaration near 'f'"),
    ("category\nobjects: X\ngenerators: f: X -> Y\n",
     "line 3: generator f: X -> Y uses undeclared objects"),
    ("monoid\ngenerators: a\norder: a < b\n", "line 3: order clause names unknown generator 'b'"),
    ("monoid\ngenerators: a\nrules:\nr: a b => a\n", "line 4: unknown generator 'b' in word"),
    ("monoid\ngenerators: a\nrules:\nr: 1 => a\n", "line 4: rule r: lhs is an identity"),
    ("category\nobjects: X Y\ngenerators: f: X -> Y ; g: Y -> X\nrules:\nr: f g => f\n",
     "line 5: rule r: sides not parallel (X->X vs X->Y)"),
    # the rule's problem, not the 3-cell that cannot use it
    ("category\nobjects: X Y\ngenerators: f: X -> Y ; g: Y -> X\nrules:\nr: f g => f\n"
     "threecells:\nc: 1*r*1 === 1*r*1\n",
     "line 5: rule r: sides not parallel (X->X vs X->Y)"),
    ("monoid\ngenerators: a\npumped:\nf[n]: a => a\n",
     "line 4: cannot parse pumped rule entry 'f[n]: a => a'"),
    ("monoid\ngenerators: a t\nrules:\nf: a a => a\npumped:\nf[n]: a (t)^n => (t)^(n)\n",
     "line 6: pumped rule f: duplicate name"),
    ("category\nobjects: X Y\ngenerators: f: X -> Y\npumped:\nphi[n]: (f)^n => (f)^(n)\n",
     "line 5: pumped rule phi: pump letter 'f' is not an endo-generator"),
    ("category\nobjects: X Y\ngenerators: g: Y -> X ; t: Y -> Y ; f: Y -> X\n"
     "pumped:\nphi[n]: g (t)^n f => g (t)^(n) f\n",
     "line 5: pumped rule phi: instance 0 invalid: "
     "cannot compose g (ends at X) with 1 (starts at Y)"),
    ("category\nobjects: X Y\ngenerators: a: X -> Y ; t: Y -> Y\n"
     "pumped:\nphi[n]: a (t)^n => (t)^(n)\n",
     "line 5: pumped rule phi: instance 0 sides not parallel"),
    ("monoid\ngenerators: a\nrules:\nr: a a => a\nthreecells:\nc d: id(a) === id(a)\n",
     "line 6: cannot parse 3-cell entry 'c d: id(a) === id(a)'"),
    ("monoid\ngenerators: a\nrules:\nr: a a => a\nthreecells:\nc: 1*r*1 === id(a a)\n",
     "line 6: 3-cell c: boundary not parallel"),
    ("monoid\ngenerators: a\nrules:\nr: a a => a\nthreecells:\nc: 1*q*1 === id(a)\n",
     "line 6: unknown rule 'q'"),
]


@pytest.mark.parametrize("text, message", PRESENTATION_ERRORS)
def test_presentation_error_text(text, message):
    with pytest.raises(PresentationError) as exc:
        parse_polygraph(text)
    assert str(exc.value) == message


def test_presentation_sections_open_bare_or_with_a_first_entry():
    """`rules` alone on its line opens a section, and the text after
    `generators:` is that section's first entry, also after a ';'."""
    bare = parse_polygraph("monoid\ngenerators\na b\nrules\nr: a b => a\n")
    inline = parse_polygraph("monoid\ngenerators: a b; rules: r: a b => a\n")
    for p in (bare, inline):
        assert [g.name for g in p.generators] == ["a", "b"]
        assert [str(r) for r in p.rules] == ["r: a b => a"]


TABLE_ERRORS = [
    ("x\nelements: e\nunit: e\ntable:\ne*e=e\n",
     "line 1: unexpected entry before any section: 'x'"),
    ("elements: e\nunit: e\ntable: e*e\n", "line 3: cannot parse table entry 'e*e'"),
    ("elements: e\nunit: e\ntable:\ne*e\n", "line 4: cannot parse table entry 'e*e'"),
    ("elements: e\ntable:\ne*e=e\n", "multiplication table needs a unit: section"),
    ("unit: e\ntable:\ne*e=e\n", "multiplication table needs an elements: section"),
    ("elements: e a\nunit: e\ntable:\ne*e=e ; e*a=a ; a*e=a\na*a=e\na * a = a\n",
     "line 6: a second product for a*a: 'a * a = a'"),
    ("elements: e\nunit: e\ntable: e*e=e ; e*e=e\n", "line 3: a second product for e*e: 'e*e=e'"),
]


@pytest.mark.parametrize("text, message", TABLE_ERRORS)
def test_table_error_text(text, message):
    with pytest.raises(PresentationError) as exc:
        parse_multiplication_table(text)
    assert str(exc.value) == message


def test_table_takes_the_last_unit_entry():
    table = parse_multiplication_table("elements: e a\nunit: a\nunit: e\ntable: e*e=e\n")
    assert table.elements == ("e", "a")
    assert table.unit == "e"
    assert table.product == {("e", "e"): "e"}


def test_table_bare_unit_opens_the_unit_section():
    table = parse_multiplication_table("elements: e\nunit\ne\ntable:\ne*e=e\n")
    assert table.elements == ("e",)
    assert table.unit == "e"


CERTIFICATE_ERRORS = [
    ("a: star n ; der 1\nb: star n\n", "line 2: cannot parse certificate entry 'b: star n'"),
    ("# a\n\na: star n ; der 1\na: star 2*n ; der 2\n",
     "line 4: duplicate certificate entry for 'a'"),
    # star maps take natural coefficients only, so one that is not monotone
    # does not parse
    ("a: star -1*n ; der 1\n", "line 1: cannot parse affine expression '-1*n'"),
    ("a: star n ; der 3^n + 4^n\n", "line 1: cannot parse derivation expression '4^n'"),
]


@pytest.mark.parametrize("text, message", CERTIFICATE_ERRORS)
def test_certificate_error_text(text, message):
    with pytest.raises(PresentationError) as exc:
        parse_certificate(text)
    assert str(exc.value) == message


MAP_ERRORS = [
    ("x => x\n", "line 1: unexpected entry before any section: 'x => x'"),
    ("fgen:\nx\n", "line 2: map entry lacks '=>': 'x'"),
    ("tau:\nq => id(x)\n", "line 2: tau: unknown generator 'q'"),
    ("frule:\nalpha => 1 * q * 1\n", "line 2: unknown rule 'q'"),
    ("fgen:\nx => q\n", "line 2: unknown generator 'q' in word"),
    ("frule:\nzeta => 1 * alpha * 1\n", "line 2: unknown rule 'zeta'"),
]


@pytest.mark.parametrize("text, message", MAP_ERRORS)
def test_map_error_text(xyx_done, text, message):
    with pytest.raises(PresentationError) as exc:
        parse_transfer_maps(xyx_done, xyx_done, text)
    assert str(exc.value) == message


def test_transfer_rule_image_with_the_wrong_boundary(tmp_path):
    """A rule image that parses but goes between the wrong words is a usage
    error of `polygraph transfer`, exit 2, naming the rule."""
    bad_map = (
        "fgen:\nx => x ; y => y\n"
        "frule:\nalpha => 1 * kb1 * 1\nkb1 => 1 * kb1 * 1\n"
        "ggen:\nx => x ; y => y\n"
        "grule:\nalpha => 1 * alpha * 1\nkb1 => 1 * kb1 * 1\n"
        "tau:\nx => id(x) ; y => id(y)\n"
    )
    p, m = tmp_path / "p.txt", tmp_path / "map.txt"
    p.write_text(XYX_DONE_TEXT)
    m.write_text(bad_map)
    code, report = run(["transfer", str(p), str(p), str(m)])
    assert code == 2
    assert report.sections == {
        "error": "image of rule alpha goes y y y x -> x y y y, expected x y x -> y y"
    }


def test_map_section_first_entry_after_the_colon(xyx_done):
    """`fgen: x => x` on one line reads as `fgen:` followed by `x => x`."""
    inline = parse_transfer_maps(xyx_done, xyx_done, (
        "fgen: x => x ; y => y\n"
        "frule: alpha => 1 * alpha * 1\nkb1 => 1 * kb1 * 1\n"
        "ggen: x => x ; y => y\n"
        "grule: alpha => 1 * alpha * 1\nkb1 => 1 * kb1 * 1\n"
        "tau: x => id(x) ; y => id(y)\n"
    ))
    F, G, tau = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    assert inline[0].gen_map == F.gen_map and inline[0].rule_map == F.rule_map
    assert inline[1].gen_map == G.gen_map and inline[1].rule_map == G.rule_map
    assert inline[2] == tau
