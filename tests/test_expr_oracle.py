"""Walks over 3-cell expressions against the recursions they replaced.

The references below are the recursive walkers the library had: the
boundary, the generating cells, the cell content (``bracket_3cell``) and
the printer, each walking an expression as a tree, and the recursion that
lists the distinct nodes.  The library has one walk, ``_nodes``, on a
stack of its own, and reads everything else off its list once per
distinct node.  On the spheres of ``test_filler_oracle`` and on hand-built
expressions holding every kind of node, both must give equal values, in
the same order where order shows.  A zigzag far deeper than the
interpreter's recursion limit must still fill, check, linearize and print.
"""

import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from polygraph import (
    CompositionError,
    FreeResolution,
    ZigZag,
    boundary3,
    fill_sphere,
    find_redexes,
    generating_cells,
    normalize,
    parse_path,
    parse_polygraph,
    squier_completion,
)
from polygraph.cli import run
from polygraph.coherence import (
    Comp1,
    Comp2,
    Exchange,
    Gen,
    Id2,
    Inv,
    Whisker,
    _nodes,
    fill_local_branching,
    transported,
)
from polygraph.homology import _acc, add_into
from polygraph.presentation import identity_word

import conftest as texts
from test_filler_oracle import cases  # noqa: F401  (the spheres, as a fixture)

# ---------------------------------------------------------------------------
# the references: one recursion per walk


def ref_boundary(e, at="e"):
    if isinstance(e, Gen):
        return e.cell.source2, e.cell.target2
    if isinstance(e, Inv):
        s, t = ref_boundary(e.expr, at + ".inv")
        return t, s
    if isinstance(e, Id2):
        return e.path, e.path
    if isinstance(e, Exchange):
        if e.rest:
            return ref_boundary(expand_run(e), at + ".run")
        first = ZigZag.of(e.step1, transported(e.step1, e.step2))
        second = ZigZag.of(e.step2, transported(e.step2, e.step1))
        return first, second
    if isinstance(e, Whisker):
        s, t = ref_boundary(e.expr, at + ".whisker")
        try:
            return s.whisker(e.left, e.right), t.whisker(e.left, e.right)
        except CompositionError as exc:
            raise CompositionError(f"at {at}.whisker: {exc}") from None
    if isinstance(e, Comp1):
        s, t = ref_boundary(e.expr, at + ".comp1")
        try:
            return e.pre.then(s, e.post), e.pre.then(t, e.post)
        except CompositionError as exc:
            raise CompositionError(f"at {at}.comp1: {exc}") from None
    if isinstance(e, Comp2):
        s1, t1 = ref_boundary(e.first, at + ".first")
        s2, t2 = ref_boundary(e.second, at + ".second")
        if t1.reduced() != s2.reduced():
            raise CompositionError(
                f"at {at}: vertical composite joint mismatch — first ends with "
                f"[{t1}] but second starts with [{s2}] (compared after reduction)"
            )
        return s1, t2
    raise TypeError(f"not a 3-cell expression: {e!r}")


def expand_run(e):
    """A run as nested one-step exchanges: a carried past b₁ … b_k is the
    exchange of a and b₁, padded with b₂′ … b_k′, then b₁ followed by the
    run of a₁ (a after b₁) past b₂ … b_k."""
    if not e.rest:
        return e
    a, b = e.step1, e.step2
    inner = expand_run(Exchange(transported(b, a), e.rest[0], e.rest[1:]))
    source = ref_boundary(inner)[0]  # a₁ then b₂′ … b_k′
    after = ZigZag(source.steps[0].target_word, source.steps[1:])
    return Comp2(Comp1(ZigZag(a.source_word), Exchange(a, b), after),
                 Comp1(ZigZag.of(b), inner, ZigZag(after.target)))


def expand_runs(e, memo=None):
    """e with every run expanded, each shared node rebuilt once."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        if isinstance(e, Exchange):
            out = expand_run(e)
        elif isinstance(e, (Inv, Whisker, Comp1)):
            out = replace(e, expr=expand_runs(e.expr, memo))
        elif isinstance(e, Comp2):
            out = Comp2(expand_runs(e.first, memo), expand_runs(e.second, memo))
        else:
            out = e
        memo[id(e)] = out
    return memo[id(e)]


def ref_generating_cells(e):
    if isinstance(e, Gen):
        return {e.cell.name}
    if isinstance(e, (Inv, Whisker, Comp1)):
        return ref_generating_cells(e.expr)
    if isinstance(e, Comp2):
        return ref_generating_cells(e.first) | ref_generating_cells(e.second)
    return set()


def ref_bracket_3cell(res, e):
    out = {}
    ref_bracket_into(res, e, identity_word(res.presentation.objects[0]), 1, out)
    return out


def ref_bracket_into(res, e, left, sign, out):
    if isinstance(e, Gen):
        _acc(out, (res.nf(left), e.cell.name), sign)
    elif isinstance(e, Inv):
        ref_bracket_into(res, e.expr, left, -sign, out)
    elif isinstance(e, Whisker):
        ref_bracket_into(res, e.expr, res.nf(left.concat(e.left)), sign, out)
    elif isinstance(e, Comp1):
        ref_bracket_into(res, e.expr, left, sign, out)
    elif isinstance(e, Comp2):
        ref_bracket_into(res, e.first, left, sign, out)
        ref_bracket_into(res, e.second, left, sign, out)
    elif not isinstance(e, (Id2, Exchange)):
        raise TypeError(f"not a 3-cell expression: {e!r}")


def ref_children(e):
    if isinstance(e, (Inv, Whisker, Comp1)):
        return [e.expr]
    if isinstance(e, Comp2):
        return [e.first, e.second]
    return []


def ref_nodes(e):
    """Each distinct node once, with the number of times its parents read
    it, in the order a recursion from e, first child first, finishes them."""
    reads, order = {id(e): 0}, []

    def finish(n):
        for kid in ref_children(n):
            if id(kid) not in reads:
                reads[id(kid)] = 0
                finish(kid)
            reads[id(kid)] += 1
        order.append(n)

    finish(e)
    return [(n, reads[id(n)]) for n in order]


def same_nodes(got, want):
    return [(id(n), k) for n, k in got] == [(id(n), k) for n, k in want]


def ref_expr_str(e):
    """Every node that two or more parents read bound once, numbered as a
    recursion from e, first child first, finishes it."""
    reads, seen = {}, set()

    def count(n):
        if id(n) not in seen:
            seen.add(id(n))
            for kid in ref_children(n):
                reads[id(kid)] = reads.get(id(kid), 0) + 1
                count(kid)

    names, shared, done = {}, [], set()

    def finish(n):
        if id(n) not in done:
            done.add(id(n))
            for kid in ref_children(n):
                finish(kid)
            if reads.get(id(n), 0) > 1:
                shared.append(n)
                names[id(n)] = f"#{len(shared)}"

    count(e)
    finish(e)
    lets = "".join(f"let {names[id(n)]} = {ref_tree_str(n, names, n)} in " for n in shared)
    return lets + ref_tree_str(e, names, e)


def ref_tree_str(e, names, top):
    if e is not top and id(e) in names:
        return names[id(e)]
    if isinstance(e, Gen):
        return e.cell.name
    if isinstance(e, Inv):
        return f"inv({ref_tree_str(e.expr, names, top)})"
    if isinstance(e, Whisker):
        return f"({e.left} * {ref_tree_str(e.expr, names, top)} * {e.right})"
    if isinstance(e, Comp1):
        parts = []
        if e.pre.steps:
            parts.append(f"[{e.pre}]")
        parts.append(ref_tree_str(e.expr, names, top))
        if e.post.steps:
            parts.append(f"[{e.post}]")
        return " . ".join(parts)
    if isinstance(e, Comp2):
        return f"({ref_tree_str(e.first, names, top)} ; {ref_tree_str(e.second, names, top)})"
    if isinstance(e, Id2):
        return f"id2({e.path})"
    run = " . ".join(str(b) for b in (e.step2, *e.rest))
    return f"exchange({e.step1} | {run})"


def assert_walks_agree(res, expr, label):
    assert boundary3(expr) == ref_boundary(expr), label
    assert generating_cells(expr) == ref_generating_cells(expr), label
    # equal as lists: the terms come out in the same order
    got = res.bracket_3cell(expr)
    assert list(got.items()) == list(ref_bracket_3cell(res, expr).items()), label
    assert str(expr) == ref_expr_str(expr), label


# ---------------------------------------------------------------------------
# spheres and hand-built expressions


def test_walks_match_the_recursions_on_the_filler_spheres(cases):  # noqa: F811
    resolutions = {}
    for label, cp, f, g in cases:
        res = resolutions.setdefault(id(cp), FreeResolution(cp))
        expr = fill_sphere(cp, f, g)
        assert boundary3(expr) == (f, g), label
        assert_walks_agree(res, expr, label)


def test_nodes_lists_each_node_once_in_the_order_a_recursion_finishes_them(cases):  # noqa: F811
    for label, cp, f, g in cases:
        expr = fill_sphere(cp, f, g)
        got = _nodes(expr)
        assert same_nodes(got, ref_nodes(expr)), label
        assert len({id(n) for n, _ in got}) == len(got), label
        assert got[-1][0] is expr and got[-1][1] == 0, label


def test_a_node_read_twice_by_one_parent_counts_twice(b3):
    """A hand-built DAG: the whiskered cell ``wg`` is both children of one
    vertical composite, and the cell ``g`` is read at three depths (under
    ``wg``, under an inverse and at the top).  ``_nodes`` lists each node
    once, children first, with its parents' reads; the cell content counts
    ``wg`` twice, and the two reads of ``g`` at the identity cancel.  The
    DAG is not composable: nothing here asks for its boundary."""
    cp = squier_completion(b3)
    res = FreeResolution(cp)
    g = Gen(cp.cells[0])
    wg = Whisker(b3.word("a"), g, b3.word("s"))
    twice = Comp2(wg, wg)
    inv = Inv(g)
    first = Comp2(twice, inv)
    dag = Comp2(first, g)
    got = _nodes(dag)
    assert same_nodes(got, [(g, 3), (wg, 2), (twice, 1), (inv, 1), (first, 1), (dag, 0)])
    assert same_nodes(got, ref_nodes(dag))
    content = res.bracket_3cell(dag)
    assert content == ref_bracket_3cell(res, dag) == {(b3.word("a"), "conf0"): 2}
    assert str(dag) == ref_expr_str(dag) == (
        "let #1 = conf0 in let #2 = (a * #1 * s) in (((#2 ; #2) ; inv(#1)) ; #1)")
    assert generating_cells(dag) == ref_generating_cells(dag) == {"conf0"}


def test_walks_match_the_recursions_on_every_kind_of_node(b3):
    """Local branchings give Whisker, Inv, Gen, Exchange and Id2 nodes;
    they are padded with paths, whiskered, and composed vertically with
    their own inverse, so that one node has two parents."""
    cp = squier_completion(b3)
    res = FreeResolution(cp)
    u, v = b3.word("a"), b3.word("s t")
    kinds = set()
    for text in ("s t a s", "s a s t a", "t a s a a", "s t t a", "s a a s t"):
        w = b3.word(text)
        steps = find_redexes(b3, w)
        for f in steps:
            for g in steps:
                f1, _, cell = fill_local_branching(cp, f, g)
                kinds.update(type(n).__name__ for n in (cell, getattr(cell, "expr", cell)))
                _, h = normalize(b3, f1.target, "leftmost")
                padded = Comp1(ZigZag(w), cell, h)
                whiskered = Whisker(u, padded, v)
                shared = Comp2(whiskered, Inv(whiskered))
                for expr in (cell, padded, whiskered, shared,
                             Comp2(Id2(boundary3(shared)[0]), shared)):
                    assert_walks_agree(res, expr, (text, str(f), str(g)))
    assert kinds == {"Whisker", "Inv", "Gen", "Exchange", "Id2"}


def category_spheres():
    """The leftmost against the rightmost path of (f g)^n f, n = 3 … 6, in
    the category with rho: f g f => f."""
    cp = squier_completion(parse_polygraph(texts.CATEGORY_TEXT + "order: f < g\n"))
    out = []
    for n in range(3, 7):
        w = cp.base.word("f g " * n + "f")
        _, f = normalize(cp.base, w, "leftmost")
        _, g = normalize(cp.base, w, "rightmost")
        out.append((f"category/{n}", cp, f, g))
    return out


def test_runs_expand_into_nested_one_step_exchanges(cases):  # noqa: F811
    """Each run the filler builds, expanded into nested one-step
    exchanges, has the run's boundary and its (zero) cell content, and so
    has the whole filler with every run expanded (the category, of two
    objects, has no free resolution to take the content in).  B3+, A4 and
    the category build runs of two steps or more; Squier's pumped example
    has no longest left-hand side and builds none."""
    resolutions = {}
    runs = {}
    for label, cp, f, g in [*cases, *category_spheres()]:
        if len(cp.base.objects) == 1:
            res = resolutions.setdefault(id(cp), FreeResolution(cp))
            bracket = res.bracket_3cell
        else:
            bracket = lambda e: {}  # noqa: E731
        expr = fill_sphere(cp, f, g)
        name = label.split("/")[0]
        runs.setdefault(name, 0)
        for node, _ in _nodes(expr):
            if isinstance(node, Exchange) and node.rest:
                runs[name] += 1
                expanded = expand_run(node)
                assert boundary3(expanded) == boundary3(node) == ref_boundary(node), label
                assert bracket(expanded) == bracket(node) == {}, label
        expanded = expand_runs(expr)
        assert not any(isinstance(n, Exchange) and n.rest for n, _ in _nodes(expanded))
        assert boundary3(expanded) == (f, g), label
        assert bracket(expanded) == bracket(expr), label
    assert runs["b3"] and runs["a4"] and runs["category"], runs
    assert runs["sq"] == 0


# ---------------------------------------------------------------------------
# ill-composed nodes and non-expressions


@pytest.fixture(scope="module")
def cp_category():
    return squier_completion(parse_polygraph(texts.CATEGORY_TEXT + "order: f < g\n"))


def test_ill_composed_nodes_raise_the_composition_texts(cp_category, b3):
    cat = cp_category.base
    fgf = Id2(ZigZag(cat.word("f g f")))
    # a whisker whose left word does not compose with the expression
    whisker = Whisker(cat.word("f"), fgf, cat.word("g"))
    for walk in (boundary3, ref_boundary):
        with pytest.raises(CompositionError, match="cannot compose f"):
            walk(whisker)
    with pytest.raises(CompositionError) as exc:
        boundary3(whisker)
    assert str(exc.value) == "cannot compose f (ends at Y) with f g f (starts at X)"

    cp = squier_completion(b3)
    cell = cp.cells[0]
    # a 1-composite whose padding does not chain with the expression
    comp1 = Comp1(ZigZag(b3.word("a")), Gen(cell), ZigZag(cell.target2.target))
    with pytest.raises(CompositionError) as exc:
        boundary3(comp1)
    assert str(exc.value) == (
        f"cannot chain path ending at a with one starting at {cell.source2.source}"
    )
    with pytest.raises(CompositionError, match="at e.comp1: cannot chain"):
        ref_boundary(comp1)

    # a vertical composite whose joint does not match
    comp2 = Comp2(Gen(cell), Gen(cell))
    with pytest.raises(CompositionError) as exc:
        boundary3(comp2)
    assert str(exc.value) == (
        f"vertical composite joint mismatch — first ends with [{cell.target2}] but "
        f"second starts with [{cell.source2}] (compared after reduction)"
    )
    with pytest.raises(CompositionError, match="at e: vertical composite joint mismatch"):
        ref_boundary(comp2)
    # deeper down, the same text: a node has no single path in a DAG
    with pytest.raises(CompositionError) as deep:
        boundary3(Inv(Comp1(ZigZag(cell.source2.source), comp2, ZigZag(cell.target2.target))))
    assert str(deep.value) == str(exc.value)


def test_walks_refuse_a_non_expression(b3):
    cp = squier_completion(b3)
    res = FreeResolution(cp)
    # a generating cell without its Gen node
    bad = Inv(Comp2(Gen(cp.cells[0]), cp.cells[0]))
    for walk in (boundary3, generating_cells, res.bracket_3cell, str):
        with pytest.raises(TypeError, match=r"not a 3-cell expression: ThreeCell\(name='conf0'"):
            walk(bad)


# ---------------------------------------------------------------------------
# a zigzag far deeper than the recursion limit


def test_a_deep_zigzag_fills_checks_linearizes_and_prints(b3, tmp_path):
    """The leftmost path of a word and the inverse of its rightmost path,
    repeated 100 times (1,200 steps), against the identity.  The σ route
    nests two nodes per step, so each walk goes about 2,400 nodes deep,
    past the default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    cp = squier_completion(b3)
    res = FreeResolution(cp)
    w = b3.word("s t s a s t a s")
    _, left = normalize(b3, w, "leftmost")
    _, right = normalize(b3, w, "rightmost")
    loop = left.then(right.inverse())
    f, g = ZigZag(w), ZigZag(w)
    for _ in range(100):
        f = f.then(loop)
    assert len(f) >= 1200

    expr = fill_sphere(cp, f, g)
    assert boundary3(expr) == (f, g)
    # every repeat of the loop is filled with the same cells
    cells = ref_generating_cells(fill_sphere(cp, loop, g))
    assert cells
    assert generating_cells(expr) == cells
    want = add_into(res.bracket_2cell(f), res.bracket_2cell(g), -1)
    assert res.d3(res.bracket_3cell(expr)) == want

    file = tmp_path / "b3.txt"
    file.write_text(texts.B3_TEXT, encoding="utf-8")
    code, report = run(["fill", str(file), str(f), str(g), "--json"])
    assert code == 0, report.sections
    assert report.sections["cells_used"] == sorted(cells)
    assert report.sections["expression"] == str(expr)
    assert parse_path(b3, report.sections["source"]) == f


def test_boundary_drops_each_value_once_its_parents_have_read_it(b3):
    """The first seeded B3+ sphere of test_filler_oracle's draw (34 letters,
    53 against 131 steps) fills as a DAG of about 12,900 distinct nodes.
    Keeping a boundary per node until the walk ends peaked at 12.9 MB;
    boundary3 drops a child's once its last parent has read it."""
    cp = squier_completion(b3)
    rng = random.Random(7)
    w = b3.word_from_letters(
        rng.choice([g.name for g in b3.generators]) for _ in range(rng.randint(24, 40))
    )
    _, f = normalize(b3, w, "leftmost")
    _, g = normalize(b3, w, "rightmost")
    assert (len(w), len(f), len(g)) == (34, 53, 131)
    expr = fill_sphere(cp, f, g)
    tracemalloc.start()
    try:
        got = boundary3(expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (f, g)
    assert peak < 5_000_000
