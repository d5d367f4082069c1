"""Property-based tests: the order axioms, rewriting soundness, monoid laws,
sphere filling, and the differential/bracket chain rules, all on randomly
generated inputs.

Words are drawn as letter lists over a fixture's alphabet and assembled
in-test; presentations themselves are the fixed worked examples (generating
random *valid* presentations buys little — the interesting structure lives in
the words and paths over a fixed one).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polygraph import (
    EQUAL,
    GREATER,
    LESS,
    FreeResolution,
    boundary3,
    deglex_compare,
    fill_sphere,
    generating_cells,
    normalize,
    orient,
    squier_completion,
    word_eq,
)
from polygraph.homology import add_into

B3_LETTERS = st.lists(st.sampled_from(("a", "s", "t")), max_size=10)
XY_LETTERS = st.lists(st.sampled_from(("x", "y")), max_size=9)


def wd(p, letters):
    return p.word(" ".join(letters) if letters else "1")


@pytest.fixture(scope="module")
def res_b3(b3):
    return FreeResolution(squier_completion(b3, 8))


@pytest.fixture(scope="module")
def cp_xyx(xyx_done):
    return squier_completion(xyx_done, 8)


@pytest.fixture(scope="module")
def res_xyx(cp_xyx):
    return FreeResolution(cp_xyx)


# --------------------------------------------------------------------------
# deglex is a strict total order compatible with concatenation


@given(u=B3_LETTERS, v=B3_LETTERS)
def test_deglex_antisymmetric_and_reflexive(b3, u, v):
    order = ("a", "s", "t")
    c = deglex_compare(order, wd(b3, u), wd(b3, v))
    assert c == -deglex_compare(order, wd(b3, v), wd(b3, u))
    assert (c == EQUAL) == (u == v)


@given(u=B3_LETTERS, v=B3_LETTERS, w=B3_LETTERS)
def test_deglex_transitive(b3, u, v, w):
    order = ("a", "s", "t")
    words = sorted(
        (wd(b3, u), wd(b3, v), wd(b3, w)),
        key=lambda x: (len(x), tuple(order.index(l) for l in x.letters)),
    )
    assert deglex_compare(order, words[0], words[1]) != GREATER
    assert deglex_compare(order, words[1], words[2]) != GREATER
    assert deglex_compare(order, words[0], words[2]) != GREATER


@given(u=B3_LETTERS, v=B3_LETTERS, l=B3_LETTERS, r=B3_LETTERS)
def test_deglex_compatible_with_context(b3, u, v, l, r):
    order = ("a", "s", "t")
    c = deglex_compare(order, wd(b3, u), wd(b3, v))
    assume(c == LESS)
    lur = wd(b3, l + u + r)
    lvr = wd(b3, l + v + r)
    assert deglex_compare(order, lur, lvr) == LESS


@given(u=B3_LETTERS, v=B3_LETTERS)
def test_orient_builds_decreasing_rule(b3, u, v):
    order = ("a", "s", "t")
    pair = orient(order, wd(b3, u), wd(b3, v))
    if u == v:
        assert pair is None
    else:
        lhs, rhs = pair
        assert deglex_compare(order, lhs, rhs) == GREATER


# --------------------------------------------------------------------------
# rewriting on a convergent system


@given(letters=B3_LETTERS)
def test_normalize_strategies_agree(b3, letters):
    w = wd(b3, letters)
    left, _ = normalize(b3, w, "leftmost")
    right, _ = normalize(b3, w, "rightmost")
    assert left == right


@given(letters=B3_LETTERS)
def test_normalize_path_is_sound_and_decreasing(b3, letters):
    w = wd(b3, letters)
    nf, path = normalize(b3, w)
    assert path.source == w and path.target == nf and all(s.forward for s in path.steps)
    order = ("a", "s", "t")
    current = w
    for s in path.steps:
        assert s.source_word == current
        assert deglex_compare(order, s.target_word, current) == LESS
        current = s.target_word
    assert current == nf


@given(letters=B3_LETTERS)
def test_normal_form_is_idempotent(b3, letters):
    nf, _ = normalize(b3, wd(b3, letters))
    again, path = normalize(b3, nf)
    assert again == nf and not path.steps


@given(u=B3_LETTERS, v=B3_LETTERS, w=B3_LETTERS)
def test_word_eq_is_a_congruence(b3, u, v, w):
    if word_eq(b3, wd(b3, u), wd(b3, v)):
        assert word_eq(b3, wd(b3, w + u), wd(b3, w + v))
        assert word_eq(b3, wd(b3, u + w), wd(b3, v + w))


# --------------------------------------------------------------------------
# the induced monoid: the product is associative and unital on normal forms


@given(u=B3_LETTERS, v=B3_LETTERS, w=B3_LETTERS)
def test_mult_monoid_laws(res_b3, b3, u, v, w):
    def m(x, y):
        return res_b3.nf(x.concat(y))

    a, c, d = wd(b3, u), wd(b3, v), wd(b3, w)
    assert m(m(a, c), d) == m(a, m(c, d))
    one = b3.word("1")
    na, _ = normalize(b3, a)
    assert m(one, a) == na and m(a, one) == na


# --------------------------------------------------------------------------
# sphere filling: boundary3 recovers both sides, cells come from the basis


@settings(max_examples=60, deadline=None)
@given(letters=XY_LETTERS)
def test_fill_sphere_boundary(cp_xyx, xyx_done, letters):
    w = wd(xyx_done, letters)
    _, f = normalize(xyx_done, w, "leftmost")
    _, g = normalize(xyx_done, w, "rightmost")
    expr = fill_sphere(cp_xyx, f, g)
    src, tgt = boundary3(expr)
    assert src.reduced() == f.reduced() and tgt.reduced() == g.reduced()
    assert generating_cells(expr) <= {c.name for c in cp_xyx.cells}


# --------------------------------------------------------------------------
# chain rules tying the brackets to the differentials


def minus(x, y):
    return add_into(dict(x), y, -1)


@settings(max_examples=60, deadline=None)
@given(letters=XY_LETTERS)
def test_bracket2_chain_rule(res_xyx, xyx_done, letters):
    w = wd(xyx_done, letters)
    _, path = normalize(xyx_done, w)
    lhs = res_xyx.d2(res_xyx.bracket_2cell(path))
    rhs = minus(res_xyx.fox_bracket(path.source), res_xyx.fox_bracket(path.target))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(letters=XY_LETTERS)
def test_bracket3_chain_rule(res_xyx, cp_xyx, xyx_done, letters):
    w = wd(xyx_done, letters)
    _, f = normalize(xyx_done, w, "leftmost")
    _, g = normalize(xyx_done, w, "rightmost")
    expr = fill_sphere(cp_xyx, f, g)
    src, tgt = boundary3(expr)
    lhs = res_xyx.d3(res_xyx.bracket_3cell(expr))
    rhs = minus(res_xyx.bracket_2cell(src), res_xyx.bracket_2cell(tgt))
    assert lhs == rhs


# --------------------------------------------------------------------------
# ring helpers and pumped families


@given(st.dictionaries(st.sampled_from(("k1", "k2", "k3")),
                       st.integers(-5, 5)))
def test_scaled_and_add_into_cancel(coeffs):
    elt = {k: v for k, v in coeffs.items() if v != 0}
    assert add_into(dict(elt), elt, -1) == {}
    assert add_into({}, elt, 0) == {}


@given(n=st.integers(0, 40))
def test_pumped_instance_shape(sq, n):
    inst = sq.pumped[0].instance(n)
    assert inst.name == f"alpha[{n}]"
    assert inst.lhs.letters == ("a",) + ("t",) * n + ("b",)
    assert inst.rhs.letters == ()
