"""``standard_coherent_presentation`` against the construction it replaced.

The builder makes each word once (one per element, pair and triple) and
each bare multiplication step once per pair, and joins a cell side's first
step to the bare step by ``then``.  ``ref_standard`` below builds every
step in its context with fresh words and walks every side, as the builder
did before; the presentations must be equal, the targets of the sides too
(``ZigZag`` equality does not compare them), and every side must survive
a walk by the checking ``ZigZag`` constructor.
"""

import pytest

from conftest import (
    NONASSOC_TABLE,
    S3_TABLE,
    T2_TABLE,
    TRIVIAL_TABLE,
    Z2_TABLE,
    symmetric_group_table,
)
from polygraph import (
    Generator,
    Polygraph,
    PresentationError,
    RewriteStep,
    Rule,
    ThreeCell,
    Word,
    ZigZag,
    parse_multiplication_table,
    standard_coherent_presentation,
    validate_table,
)
from polygraph.presentation import identity_word


def ref_standard(table):
    problems = validate_table(table)
    if problems:
        raise PresentationError("; ".join(problems))

    def gname(e):
        return f"g_{e}"

    def gword(*elts):
        letters = tuple(gname(e) for e in elts)
        return Word(letters, ("*",) * (len(letters) + 1))

    generators = tuple(Generator(gname(e)) for e in table.elements)
    mul = {}
    rules = []
    for u in table.elements:
        for v in table.elements:
            r = Rule(f"m_{u}_{v}", gword(u, v), gword(table.product[(u, v)]))
            mul[(u, v)] = r
            rules.append(r)
    iota = Rule("i", identity_word(), gword(table.unit))
    rules.append(iota)

    def step(rule, left=identity_word(), right=identity_word()):
        return RewriteStep(left.concat(rule.lhs, right), len(left), rule)

    one = table.unit
    cells = []
    for u in table.elements:
        for v in table.elements:
            for w in table.elements:
                uv, vw = table.product[(u, v)], table.product[(v, w)]
                src = ZigZag.of(step(mul[(u, v)], right=gword(w)), step(mul[(uv, w)]))
                tgt = ZigZag.of(step(mul[(v, w)], left=gword(u)), step(mul[(u, vw)]))
                cells.append(ThreeCell(f"a_{u}_{v}_{w}", src, tgt))
    for u in table.elements:
        src = ZigZag.of(step(iota, right=gword(u)), step(mul[(one, u)]))
        cells.append(ThreeCell(f"l_{u}", src, ZigZag(gword(u))))
    for u in table.elements:
        src = ZigZag.of(step(iota, left=gword(u)), step(mul[(u, one)]))
        cells.append(ThreeCell(f"r_{u}", src, ZigZag(gword(u))))

    return Polygraph(generators=generators, rules=tuple(rules), three_cells=tuple(cells))


TABLES = {
    "z2": Z2_TABLE,
    "trivial": TRIVIAL_TABLE,
    "s3": S3_TABLE,
    "t2": T2_TABLE,
    "s4": symmetric_group_table(4),
}


@pytest.mark.parametrize("name", TABLES)
def test_the_presentation_equals_the_reference(name):
    table = parse_multiplication_table(TABLES[name])
    std, ref = standard_coherent_presentation(table), ref_standard(table)
    assert std == ref
    m = len(table.elements)
    assert len(std.three_cells) == m**3 + 2 * m
    for cell, want in zip(std.three_cells, ref.three_cells):
        for side, ref_side in ((cell.source2, want.source2), (cell.target2, want.target2)):
            assert side.target == ref_side.target, cell.name
            walked = ZigZag(side.source, side.steps)
            assert walked == side and walked.target == side.target, cell.name
        assert cell.parallel, cell.name


def test_both_sides_of_an_associativity_cell_share_the_triple_word():
    std = standard_coherent_presentation(parse_multiplication_table(T2_TABLE))
    cells = [c for c in std.three_cells if c.name.startswith("a_")]
    assert len(cells) == 4**3
    for cell in cells:
        assert cell.source2.source is cell.target2.source


def test_a_table_that_is_not_a_monoid_is_refused_first():
    table = parse_multiplication_table(NONASSOC_TABLE)
    with pytest.raises(PresentationError, match="associativity fails") as got:
        standard_coherent_presentation(table)
    with pytest.raises(PresentationError) as want:
        ref_standard(table)
    assert str(got.value) == str(want.value)
