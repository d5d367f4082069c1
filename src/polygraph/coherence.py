"""3-cell expressions, Squier completion, sphere filling, the standard
coherent presentation of a finite monoid, homotopy-basis transfer, and
finite-subbasis extraction.

The central algorithm turns a convergent presentation into a *coherent* one:
one generating 3-cell per critical branching (squier_completion), after
which every pair of parallel rewriting paths — indeed every zigzag 2-sphere
— bounds a composite of those generators (fill_sphere).  The composites are
kept as syntax trees (ThreeCellExpr) so that homology can linearize them.

Orientation convention: the generating cell of a critical branching goes
FROM the lexicographically-second leg TO the first one, i.e. source2 is the
step2 side.  (The direction is a free choice; this one makes the boundary
map d₃ of the resolution come out with the signs used throughout.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .presentation import (
    DEFAULT_FUEL,
    MONOID_OBJECT,
    Budget,
    CompositionError,
    FuelExhausted,
    Generator,
    NotCertified,
    Polygraph,
    PresentationError,
    RewriteStep,
    Rule,
    ThreeCell,
    Word,
    ZigZag,
    identity_word,
)
from .rewrite import DEFAULT_PUMP_BOUND, normalize, termination_evidence
from .branchings import (
    ASPHERICAL,
    PEIFFER,
    classify_local_branching,
    enumerate_critical_branchings,
    resolve_branching,
)


# ---------------------------------------------------------------------------
# 3-cell expressions


class _Node:
    """The base of the seven kinds of node."""

    def __str__(self):
        """The text ``polygraph fill`` prints (not parsed back), written as a
        tree from a stack of nodes and literal pieces still to write."""
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Comp1):
                stack += (f" . [{item.post}]" if item.post.steps else "", item.expr,
                          f"[{item.pre}] . " if item.pre.steps else "")
            elif isinstance(item, Comp2):
                stack += (")", item.second, " ; ", item.first, "(")
            elif isinstance(item, Gen):
                out.append(item.cell.name)
            elif isinstance(item, Inv):
                stack += (")", item.expr, "inv(")
            elif isinstance(item, Whisker):
                stack += (f" * {item.right})", item.expr, f"({item.left} * ")
            elif isinstance(item, Id2):
                out.append(f"id2({item.path})")
            elif isinstance(item, Exchange):
                out.append(f"exchange({item.step1} | {item.step2})")
            else:
                raise TypeError(f"not a 3-cell expression: {item!r}")
        return "".join(out)


@dataclass(frozen=True)
class Gen(_Node):
    """A generating 3-cell, used as declared."""

    cell: ThreeCell


@dataclass(frozen=True)
class Inv(_Node):
    """The ⋆₂-inverse: swaps the boundary."""

    expr: "ThreeCellExpr"


@dataclass(frozen=True)
class Whisker(_Node):
    """0-composition with words on both sides."""

    left: Word
    expr: "ThreeCellExpr"
    right: Word


@dataclass(frozen=True)
class Comp1(_Node):
    """1-composition with zigzags before and after."""

    pre: ZigZag
    expr: "ThreeCellExpr"
    post: ZigZag


@dataclass(frozen=True)
class Comp2(_Node):
    """Vertical composition; the joint must match up to free-groupoid
    reduction of the step sequences."""

    first: "ThreeCellExpr"
    second: "ThreeCellExpr"


@dataclass(frozen=True)
class Id2(_Node):
    """The identity 3-cell on a 2-cell (zigzag)."""

    path: ZigZag


@dataclass(frozen=True)
class Exchange(_Node):
    """The interchange filler of a Peiffer branching: two steps with
    disjoint redex spans applied in either order.  Its boundary is
    (step1 then transported step2, step2 then transported step1); its
    linearization is zero.
    """

    step1: RewriteStep
    step2: RewriteStep

    def __post_init__(self):
        if classify_local_branching(self.step1, self.step2) != PEIFFER:
            raise CompositionError(
                "Exchange needs two steps with disjoint spans on one word"
            )


ThreeCellExpr = Gen | Inv | Whisker | Comp1 | Comp2 | Id2 | Exchange


def transported(a, b):
    """The step b as it acts after a (disjoint spans), contexts adjusted."""
    (i1, j1), (i2, j2) = a.span, b.span
    if not (j1 <= i2 or j2 <= i1):
        raise CompositionError("cannot transport across overlapping spans")
    w = a.target_word
    pos = i2 + (len(w) - len(a.source_word)) if j1 <= i2 else i2
    return RewriteStep(w, pos, b.rule, b.forward)


def _children(node):
    """The child expressions of a 3-cell expression node, first child first."""
    if isinstance(node, (Comp1, Inv, Whisker)):
        return (node.expr,)
    if isinstance(node, Comp2):
        return (node.first, node.second)
    if isinstance(node, (Gen, Id2, Exchange)):
        return ()
    raise TypeError(f"not a 3-cell expression: {node!r}")


def _nodes(e):
    """Each distinct node of e (by identity) as [node, number of times its
    parents read it], the walk on a stack of its own."""
    nodes = {id(e): [e, 0]}
    stack = [e]
    while stack:
        for kid in _children(stack.pop()):
            entry = nodes.get(id(kid))
            if entry is None:
                entry = nodes[id(kid)] = [kid, 0]
                stack.append(kid)
            entry[1] += 1
    return nodes


def _fold(e, rule):
    """Apply rule(node, *values of its children) to each distinct node of
    e (by identity, so a subexpression shared in a DAG is read once),
    children first and the first child first; return the value at e.  The
    walk keeps its own stack: e may nest deeper than the recursion limit.
    A child's value is dropped once the last of its parents has read it.
    """
    nodes = _nodes(e)
    values = {}
    stack = [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if id(node) not in values:
                kids = _children(node)
                stack.append((node, kids))
                stack += ((kid, None) for kid in reversed(kids))
            continue
        values[id(node)] = rule(node, *[values[id(k)] for k in kids])
        for k in kids:
            entry = nodes[id(k)]
            entry[1] -= 1
            if not entry[1]:
                del values[id(k)]
    return values[id(e)]


def _node_boundary(e, inner=None, second=None):
    """The boundary of one node, given its children's: ``inner`` is the
    first (or only) child's, ``second`` a vertical composite's second."""
    if isinstance(e, Comp1):
        s, t = inner
        return e.pre.then(s, e.post), e.pre.then(t, e.post)
    if isinstance(e, Comp2):
        (s1, t1), (s2, t2) = inner, second
        if t1.reduced() != s2.reduced():
            raise CompositionError(
                f"vertical composite joint mismatch — first ends with [{t1}] but "
                f"second starts with [{s2}] (compared after reduction)"
            )
        return s1, t2
    if isinstance(e, Inv):
        return inner[1], inner[0]
    if isinstance(e, Whisker):
        s, t = inner
        return s.whisker(e.left, e.right), t.whisker(e.left, e.right)
    if isinstance(e, Gen):
        return e.cell.source2, e.cell.target2
    if isinstance(e, Id2):
        return e.path, e.path
    first = ZigZag.of(e.step1, transported(e.step1, e.step2))
    return first, ZigZag.of(e.step2, transported(e.step2, e.step1))


def boundary3(e):
    """The (source 2-cell, target 2-cell) boundary, computed structurally:
    once per distinct node, from its children's, without recursion.

    Composability is validated lazily here, not at construction; an
    ill-composed node raises the CompositionError of the composition that
    fails (a node shared in a DAG has no one path to name).
    """
    return _fold(e, _node_boundary)


def generating_cells(e):
    """The set of generating 3-cell names used anywhere in the expression."""
    return {node.cell.name for node, _ in _nodes(e).values() if isinstance(node, Gen)}


# ---------------------------------------------------------------------------
# coherent presentations


@dataclass(frozen=True)
class CoherentPresentation:
    """A convergent base polygraph plus a homotopy basis of 3-cells, one per
    critical branching (when produced by squier_completion)."""

    base: Polygraph
    cells: tuple[ThreeCell, ...]
    pump_bound: int = DEFAULT_PUMP_BOUND

    @cached_property
    def cell_by_name(self):
        return {c.name: c for c in self.cells}

    @cached_property
    def branching_index(self):
        """Map a critical branching's signature to its generating cell.

        The signature is read off the cell's own boundary: target2 starts
        with the lexicographically-first step, source2 with the second.
        Cells not of that shape (e.g. transferred ones) simply do not index.
        """
        index = {}
        for cell in self.cells:
            if not (cell.target2.steps and cell.source2.steps):
                continue
            h, k = cell.target2.steps[0], cell.source2.steps[0]
            if h.source_word != k.source_word:
                continue
            index[_branching_key(h, k)] = cell
        return index


def _branching_key(h, k):
    legs = sorted(
        [(h.rule.name, h.position), (k.rule.name, k.position)],
        key=lambda t: (t[1], t[0]),
    )
    return (h.source_word.letters, tuple(legs))


def squier_completion(p, pump_bound=DEFAULT_PUMP_BOUND, fuel=DEFAULT_FUEL,
                      cert=None, ack_sampled=False):
    """Attach one 3-cell per critical branching of a convergent system.

    Each branching (f, g) resolves by the leftmost strategy into legs
    f′, g′ reaching the joint normal form; the cell conf{i} is directed
    g ⋆₁ g′ ⇛ f ⋆₁ f′ (see the module docstring on orientation).  All
    resolutions draw on one budget; the first non-confluent branching
    raises NotCertified.
    """
    termination_evidence(p, cert, ack_sampled, pump_bound)
    budget = Budget.of(fuel)
    cells = []
    for i, b in enumerate(enumerate_critical_branchings(p, pump_bound)):
        res = resolve_branching(p, b, budget)
        if res.status == "NotConfluent":
            raise NotCertified(
                f"cannot build a coherent presentation: branching on '{b.source_word}' "
                f"is not confluent ({res.nf1} vs {res.nf2})"
            )
        target2 = ZigZag(b.source_word, (b.step1,) + res.f_prime.steps)
        source2 = ZigZag(b.source_word, (b.step2,) + res.g_prime.steps)
        cells.append(ThreeCell(f"conf{i}", source2, target2))
    return CoherentPresentation(p, tuple(cells), pump_bound)


# ---------------------------------------------------------------------------
# filling local branchings and spheres


def fill_local_branching(cp, f, g):
    """Resolve one local branching (f, g) coherently.

    Returns (f_prime, g_prime, expr) with boundary3(expr) equal to
    (f ⋆₁ f_prime, g ⋆₁ g_prime) exactly, both legs ending at one word.
    Aspherical pairs need the identity, Peiffer pairs the interchange, and
    overlapping pairs factor through the generating cell of their critical
    core.  A missing core is a bound hit (FuelExhausted) when it uses a
    pumped instance above the pump bound, and otherwise means the coherent
    presentation is stale (PresentationError).
    """
    kind = classify_local_branching(f, g)
    w = f.source_word
    if kind == ASPHERICAL:
        empty = ZigZag(f.target_word)
        return empty, empty, Id2(ZigZag.of(f))
    if kind == PEIFFER:
        f_prime = ZigZag.of(transported(f, g))
        g_prime = ZigZag.of(transported(g, f))
        return f_prime, g_prime, Exchange(f, g)

    # overlapping: factor the critical core out of the shared context
    h, k = (f, g) if (f.position, cp.base.rule_key(f.rule)) <= (
        g.position, cp.base.rule_key(g.rule)) else (g, f)
    start = h.position
    end = max(h.span[1], k.span[1])
    u, v = w.slice(0, start), w.slice(end, len(w))
    core_word = w.slice(start, end)
    h_core = RewriteStep(core_word, 0, h.rule, h.forward)
    k_core = RewriteStep(core_word, k.position - start, k.rule, k.forward)
    cell = cp.branching_index.get(_branching_key(h_core, k_core))
    if cell is None:
        core = (f"the critical branching ({h.rule.name} @ {h.position}, "
                f"{k.rule.name} @ {k.position}) on '{w}'")
        over = [r.name for r in (h.rule, k.rule) if r.origin and r.origin[1] > cp.pump_bound]
        if over:
            raise FuelExhausted(f"{core} needs {over[0]}, above the pump bound {cp.pump_bound}")
        raise PresentationError(f"no generating 3-cell for {core} — stale coherent presentation")
    h_rest = _rest(cell.target2)
    k_rest = _rest(cell.source2)
    if f is h or (f.rule == h.rule and f.position == h.position):
        # f runs along the cell's target side, so invert the cell
        f_prime = h_rest.whisker(u, v)
        g_prime = k_rest.whisker(u, v)
        return f_prime, g_prime, Whisker(u, Inv(Gen(cell)), v)
    f_prime = k_rest.whisker(u, v)
    g_prime = h_rest.whisker(u, v)
    return f_prime, g_prime, Whisker(u, Gen(cell), v)


def fill_positive(cp, p_path, q_path, fuel=DEFAULT_FUEL):
    """Fill a sphere between parallel *positive* paths to a *normal* word.

    Follows the noetherian recursion of the coherence theorem: equal first
    steps peel off; differing first steps resolve through
    fill_local_branching plus a leftmost confluence path h, and the three
    sub-spheres are pasted vertically.  boundary3(result) = (p, q) exactly.
    The recursion meets the same sub-sphere many times; a memo that lives
    for this one call fills each distinct sub-sphere once and shares its
    expression, so the result is a DAG with the value of the tree.  Each
    sub-sphere filled and each step of its h costs one unit of the one
    budget; a sub-sphere met again costs nothing.
    """
    return _fill(cp, p_path, q_path, Budget.of(fuel), {})


def _fill(cp, p, q, budget, memo):
    """fill_positive on the caller's budget and memo."""
    return _fill_positive(cp, p, _step_keys(p), 0, q, _step_keys(q), 0, budget, memo)


def _source_at(path, i):
    """The word before step i of a path (its target when i is the path's
    length)."""
    return path.steps[i].source_word if i < len(path.steps) else path.target


def _rest(path):
    """The path without its first step."""
    return ZigZag._chained(_source_at(path, 1), path.steps[1:], path.target)


def _step_keys(path):
    """Each step of a path as (position, rule name, direction): with the
    source word, these name the path in the filler's memo."""
    return tuple((s.position, s.rule.name, s.forward) for s in path.steps)


def _fill_positive(cp, p, p_keys, i, q, q_keys, j, budget, memo):
    """fill_positive on the sphere between p.steps[i:] and q.steps[j:].

    Both paths are checked already, so a suffix is read by its index; it
    is never rebuilt as a ZigZag, which would check it again.  ``p_keys``
    and ``q_keys`` are the paths' step keys, and ``memo`` maps each
    sphere filled in this call to its expression.
    """
    p_source, q_source = _source_at(p, i), _source_at(q, j)
    key = (p_source.letters, p_source.nodes, p_keys[i:], q_keys[j:])
    known = memo.get(key)
    if known is not None:
        return known
    if p_source != q_source or p.target != q.target:
        raise CompositionError(
            f"paths are not parallel: {p_source}->{p.target} "
            f"vs {q_source}->{q.target}"
        )
    budget.charge()

    if i == len(p.steps) and j == len(q.steps):
        memo[key] = expr = Id2(ZigZag(p_source))
        return expr
    assert i < len(p.steps) and j < len(q.steps), (
        "one-sided sphere at a normal word is impossible: a positive path "
        "out of a normal form has no first step"
    )
    a, b = p.steps[i], q.steps[j]
    a_path = ZigZag._chained(p_source, (a,), _source_at(p, i + 1))
    end = ZigZag(p.target)
    # the source words are equal, so the first steps are equal when these are
    if p_keys[i] == q_keys[j]:
        inner = _fill_positive(cp, p, p_keys, i + 1, q, q_keys, j + 1, budget, memo)
        memo[key] = expr = Comp1(a_path, inner, end)
        return expr

    f1, g1, cell_expr = fill_local_branching(cp, a, b)
    join = f1.target
    _, h = normalize(cp.base, join, "leftmost", budget)
    assert h.target == p.target, (
        f"confluence path from '{join}' reaches '{h.target}', "
        f"not the sphere target '{p.target}'"
    )
    h_keys = _step_keys(h)
    top = Comp1(
        a_path,
        _fill_positive(cp, p, p_keys, i + 1, f1.then(h), _step_keys(f1) + h_keys, 0,
                       budget, memo),
        end,
    )
    middle = Comp1(ZigZag(p_source), cell_expr, h)
    bottom = Comp1(
        ZigZag._chained(q_source, (b,), _source_at(q, j + 1)),
        _fill_positive(cp, g1.then(h), _step_keys(g1) + h_keys, 0, q, q_keys, j + 1,
                       budget, memo),
        end,
    )
    memo[key] = expr = Comp2(Comp2(top, middle), bottom)
    return expr


def sigma_path(cp, w, fuel=DEFAULT_FUEL):
    """The leftmost normalization path of w (the chosen section σ)."""
    _, path = normalize(cp.base, w, "leftmost", fuel)
    return path


def _sigma_step(cp, step, sig_u, sig_m, budget, memo):
    """An expression [step] ⋆₁ σ(target word) ⇛ σ(source word), for a step
    of either direction, given sig_u = σ(source word) and sig_m = σ(target
    word).

    Forward steps fill directly (both sides are positive paths to the
    normal form).  A backward step s = t⁻ instead fills the sphere
    ([t] ⋆₁ σ(source), σ(target)) and conjugates: the resulting target side
    carries an uncancelled [s][t] pair, which the reduction-aware joint
    check of Comp2 absorbs.
    """
    if step.forward:
        return _fill(cp, ZigZag.of(step).then(sig_m), sig_u, budget, memo)
    fwd = step.inverse()  # the underlying forward step, target word -> source word
    inner = _fill(cp, ZigZag.of(fwd).then(sig_u), sig_m, budget, memo)
    return Inv(Comp1(ZigZag.of(step), inner, ZigZag(sig_u.target)))


def sigma_zigzag(cp, f, budget, memo):
    """An expression f ⇛ σ(source) ⋆₁ σ(target)⁻ — the segmentwise
    straightening of a zigzag onto its normalization square.

    The source boundary is exactly f; the target boundary is the
    normalization square up to step/inverse cancellation (exact when f is
    positive).  The steps are straightened from the last to the first,
    each word of f is normalized once, and each step's sphere is filled
    with the filler memo ``memo``.
    """
    v = f.target
    if not f.steps:
        return Id2(ZigZag(v))
    sig_m = sigma_path(cp, v, budget)
    sig_v_back = sig_m.inverse()
    expr = Id2(ZigZag(v))
    for step in reversed(f.steps):
        u = step.source_word
        sig_u = sigma_path(cp, u, budget)
        top = Comp1(ZigZag(u, (step,)), expr, ZigZag(v))
        bottom = Comp1(ZigZag(u), _sigma_step(cp, step, sig_u, sig_m, budget, memo), sig_v_back)
        expr = Comp2(top, bottom)
        sig_m = sig_u
    return expr


def fill_sphere(cp, f, g, fuel=DEFAULT_FUEL):
    """Fill an arbitrary 2-sphere: parallel zigzags f, g become the boundary
    of a composite 3-cell expression, with boundary3(result) = (f, g).

    Positive parallel paths into a normal form take the direct noetherian
    recursion; general zigzags straighten each side onto the normalization
    square (σ_f, σ_g) and paste the two straightenings; a sub-sphere met
    twice in one call is filled once.  Filler nodes and the normalizations
    inside the filler draw on one budget; FuelExhausted names the sphere
    when it runs out or a pumped instance above the pump bound is needed.
    """
    if f.source != g.source or f.target != g.target:
        raise CompositionError(
            f"not a 2-sphere: {f.source}->{f.target} vs {g.source}->{g.target}"
        )
    budget = Budget.of(fuel)
    try:
        if f.positive and g.positive and cp.base.matcher.is_normal(f.target):
            return fill_positive(cp, f, g, budget)
        memo = {}
        return Comp2(sigma_zigzag(cp, f, budget, memo), Inv(sigma_zigzag(cp, g, budget, memo)))
    except FuelExhausted as exc:
        raise FuelExhausted(f"filling a sphere from '{f.source}': {exc}") from None


# ---------------------------------------------------------------------------
# the standard coherent presentation of a finite monoid


@dataclass(frozen=True)
class MultiplicationTable:
    elements: tuple[str, ...]
    unit: str
    product: dict  # (x, y) -> z


def parse_multiplication_table(text):
    """Parse a finite monoid from `elements:`, `unit:`, and `table:` sections
    (table entries `x*y=z`, ';'/newline separated, '#' comments)."""
    elements, unit, product = [], None, {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for entry in line.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            head, colon, rest = entry.partition(":")
            if colon and head.strip() in ("elements", "unit", "table"):
                section = head.strip()
                entry = rest.strip()
                if not entry:
                    continue
            if section == "elements":
                elements.extend(entry.split())
            elif section == "unit":
                unit = entry.strip()
            elif section == "table":
                m = None
                parts = entry.replace(" ", "")
                if "=" in parts and "*" in parts:
                    lhs, _, z = parts.partition("=")
                    x, star, y = lhs.partition("*")
                    if star:
                        m = (x, y, z)
                if m is None:
                    raise PresentationError(f"cannot parse table entry {entry!r}", lineno)
                product[(m[0], m[1])] = m[2]
            else:
                raise PresentationError(f"entry outside any section: {entry!r}", lineno)
    if not elements:
        raise PresentationError("multiplication table needs an elements: section")
    if unit is None:
        raise PresentationError("multiplication table needs a unit: section")
    return MultiplicationTable(tuple(elements), unit, product)


def validate_table(table):
    out = []
    elems = table.elements
    if len(set(elems)) != len(elems):
        out.append("duplicate elements")
    if table.unit not in elems:
        out.append(f"unit {table.unit!r} not among the elements")
    for x in elems:
        for y in elems:
            z = table.product.get((x, y))
            if z is None:
                out.append(f"product {x}*{y} missing")
            elif z not in elems:
                out.append(f"product {x}*{y} = {z!r} not an element")
    if out:
        return out
    for x in elems:
        if table.product[(table.unit, x)] != x or table.product[(x, table.unit)] != x:
            out.append(f"unit law fails at {x}")
    for x in elems:
        for y in elems:
            for z in elems:
                left = table.product[(table.product[(x, y)], z)]
                right = table.product[(x, table.product[(y, z)])]
                if left != right:
                    out.append(f"associativity fails at ({x}, {y}, {z}): {left} vs {right}")
    return out


def standard_coherent_presentation(table):
    """The standard coherent presentation of a finite monoid.

    One generator per element (the unit included), a multiplication 2-cell
    per ordered pair, one unit 2-cell with an *identity* left-hand side, and
    the associativity/left-unit/right-unit 3-cells.  The identity-lhs rule
    is flagged by validate() by design — this presentation is a coherence
    object, not a rewriting system.

    Each word is made once: one per element, pair and triple, and both
    sides of a_u_v_w share the word u v w.  A side is its first step,
    checked where it is made, then the checked one-step path of the
    multiplication on its target, joined by ``then``, which checks the
    word between them.
    """
    problems = validate_table(table)
    if problems:
        raise PresentationError("; ".join(problems))

    elements, product = table.elements, table.product
    name = {e: f"g_{e}" for e in elements}
    word = {e: Word((name[e],), (MONOID_OBJECT,) * 2) for e in elements}
    mul = {}
    bare = {}  # (x, y) -> the path of the one step m_x_y on the word x y
    for u in elements:
        for v in elements:
            r = Rule(f"m_{u}_{v}", Word((name[u], name[v]), (MONOID_OBJECT,) * 3),
                     word[product[(u, v)]])
            mul[(u, v)] = r
            bare[(u, v)] = ZigZag.of(RewriteStep(r.lhs, 0, r))
    iota = Rule("i", identity_word(), word[table.unit])

    def side(uvw, position, rule, rest):
        first = RewriteStep(uvw, position, rule)
        return ZigZag._chained(uvw, (first,), first.target_word).then(rest)

    cells = []
    for u in elements:
        for v in elements:
            uv = product[(u, v)]
            for w in elements:
                vw = product[(v, w)]
                uvw = Word((name[u], name[v], name[w]), (MONOID_OBJECT,) * 4)
                src = side(uvw, 0, mul[(u, v)], bare[(uv, w)])
                tgt = side(uvw, 1, mul[(v, w)], bare[(u, vw)])
                cells.append(ThreeCell(f"a_{u}_{v}_{w}", src, tgt))
    one = table.unit
    for u in elements:
        src = ZigZag.of(RewriteStep(word[u], 0, iota)).then(bare[(one, u)])
        cells.append(ThreeCell(f"l_{u}", src, ZigZag(word[u])))
    for u in elements:
        src = ZigZag.of(RewriteStep(word[u], 1, iota)).then(bare[(u, one)])
        cells.append(ThreeCell(f"r_{u}", src, ZigZag(word[u])))

    return Polygraph(
        generators=tuple(Generator(name[e]) for e in elements),
        rules=(*mul.values(), iota),
        three_cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# homotopy-basis transfer along 2-functors


@dataclass(frozen=True)
class TwoFunctor:
    """A 2-functor between the free (2,1)-categories of two presentations,
    given by images of generators (words) and of rules (zigzags)."""

    source: Polygraph
    target: Polygraph
    gen_map: dict  # generator name -> Word over target
    rule_map: dict  # rule (instance) name -> ZigZag over target

    def word(self, w):
        out = identity_word(w.source)
        for letter in w.letters:
            try:
                out = out.concat(self.gen_map[letter])
            except KeyError:
                raise PresentationError(f"functor has no image for generator {letter!r}") from None
        return out

    def rule_image(self, name):
        try:
            return self.rule_map[name]
        except KeyError:
            raise PresentationError(f"functor has no image for rule {name!r}") from None

    def step(self, s):
        z = self.rule_image(s.rule.name)
        if not s.forward:
            z = z.inverse()
        return z.whisker(self.word(s.left), self.word(s.right))

    def zigzag(self, f):
        out = ZigZag(self.word(f.source))
        for s in f.steps:
            out = out.then(self.step(s))
        return out


def check_two_functor(F):
    """Validate the provided functor data: generator images are words over
    the target; each rule image is a zigzag between the images of the rule's
    sides, built from the target's own rules."""
    problems = []
    for name, image in F.gen_map.items():
        if name not in F.source.generator_map:
            problems.append(f"gen image for unknown generator {name!r}")
        for letter in image.letters:
            if letter not in F.target.generator_map:
                problems.append(f"image of {name!r} uses unknown generator {letter!r}")
    for name, z in F.rule_map.items():
        try:
            rule = F.source.lookup_rule(name)
        except PresentationError:
            problems.append(f"rule image for unknown rule {name!r}")
            continue
        want_src, want_tgt = F.word(rule.lhs), F.word(rule.rhs)
        if z.source != want_src or z.target != want_tgt:
            problems.append(
                f"image of rule {name} goes {z.source} -> {z.target}, "
                f"expected {want_src} -> {want_tgt}"
            )
        for s in z.steps:
            try:
                known = F.target.lookup_rule(s.rule.name)
            except PresentationError:
                problems.append(f"image of rule {name} uses unknown rule {s.rule.name!r}")
                continue
            if known != s.rule:
                problems.append(
                    f"image of rule {name} uses a rule named {s.rule.name!r} "
                    f"that differs from the declared one"
                )
    return problems


def tau_word(F, G, tau_gen, w):
    """The natural-transformation component at a word: τ_{v·w} is τ_v on the
    still-unfixed tail followed by the fixed head acting on τ_w."""
    if w.is_identity:
        return ZigZag(w)
    head, rest = w.slice(0, 1), w.slice(1, len(w))
    letter = w.letters[0]
    try:
        tau_v = tau_gen[letter]
    except KeyError:
        raise PresentationError(f"no tau component for generator {letter!r}") from None
    fg_rest = F.word(G.word(rest))
    first = tau_v.whisker(identity_word(w.source), fg_rest)
    return first.then(tau_word(F, G, tau_gen, rest).whisker(head, identity_word(w.target)))


def transfer_homotopy_basis(sigma, xi, F, G, tau_gen, gamma,
                            pump_bound=DEFAULT_PUMP_BOUND):
    """Transport a homotopy basis Γ of sigma along F: sigma -> xi
    (with quasi-inverse data G: xi -> sigma and τ_v: FG(v) ⇒ v per
    generator v of xi).

    Emits F(γ) for each γ in Γ, then one cell per rule α: u ⇒ v of xi with
    boundary (FG(α) ⋆₁ τ_v, τ_u ⋆₁ α).  Together these form a homotopy
    basis of xi's free (2,1)-category.
    """
    problems = check_two_functor(F) + check_two_functor(G)
    for name, z in tau_gen.items():
        want = F.word(G.word(xi.word_from_letters((name,))))
        if z.source != want or z.target.letters != (name,):
            problems.append(
                f"tau component for {name!r} goes {z.source} -> {z.target}, "
                f"expected {want} -> {name}"
            )
    if problems:
        raise PresentationError("; ".join(problems))

    cells = []
    for cell in gamma:
        out = ThreeCell(f"F_{cell.name}", F.zigzag(cell.source2), F.zigzag(cell.target2))
        assert out.parallel, f"transferred cell {out.name} has a non-parallel boundary"
        cells.append(out)
    for rule in xi.all_rule_instances(pump_bound):
        alpha = ZigZag.of(RewriteStep(rule.lhs, 0, rule))
        fg_alpha = F.zigzag(G.zigzag(alpha))
        source2 = fg_alpha.then(tau_word(F, G, tau_gen, rule.rhs))
        target2 = tau_word(F, G, tau_gen, rule.lhs).then(alpha)
        out = ThreeCell(f"tau_{rule.name}", source2, target2)
        assert out.parallel, f"transferred cell {out.name} has a non-parallel boundary"
        cells.append(out)
    return cells


# ---------------------------------------------------------------------------
# finite subbasis extraction


def extract_finite_subbasis(cp, deltas, fuel=DEFAULT_FUEL):
    """The generating 3-cells actually needed to fill the given spheres.

    Fills each (f, g) pair in deltas with fill_sphere and returns the cells
    (in declaration order) that occur in some filler.  No minimality claim:
    the filler takes its standard route, which may pass through cells a
    cleverer homotopy would avoid.  All fillings draw on one budget.
    """
    budget = Budget.of(fuel)
    used = set()
    for f, g in deltas:
        used |= generating_cells(fill_sphere(cp, f, g, budget))
    return [c for c in cp.cells if c.name in used]


# ---------------------------------------------------------------------------
# transfer map files


_MAP_SECTIONS = ("fgen", "frule", "ggen", "grule", "tau")


def parse_transfer_maps(sigma, xi, text):
    """Parse a transfer map file into (F, G, tau_gen).

    The file has five sections, each a list of ``name => image`` entries:

        fgen:    sigma generator -> word over xi
        frule:   sigma rule (instance) -> path over xi
        ggen:    xi generator -> word over sigma
        grule:   xi rule (instance) -> path over sigma
        tau:     xi generator v -> path FG(v) => v over xi

    Rule names may be pumped instances (``alpha[3]``); paths use the same
    grammar as 3-cell boundaries (``left * rule * right`` steps joined by
    ``.``, ``-`` for inverses, ``id(word)`` for empty paths).
    """
    from .presentation import _logical_entries, parse_path

    entries = _logical_entries(text)
    sections = {}
    current = None
    for line, entry in entries:
        before, colon, after = entry.partition(":")
        key = before.strip()
        if key in _MAP_SECTIONS and colon and not after.strip():
            current = key
            sections.setdefault(current, [])
            continue
        if current is None:
            raise PresentationError(f"unexpected entry before any section: {entry!r}", line)
        sections[current].append((line, entry))

    def split(entry, line):
        if "=>" not in entry:
            raise PresentationError(f"map entry lacks '=>': {entry!r}", line)
        name, image = entry.split("=>", 1)
        return name.strip(), image.strip()

    def gen_section(key, domain, codomain):
        out = {}
        for line, entry in sections.get(key, []):
            name, image = split(entry, line)
            if name not in domain.generator_map:
                raise PresentationError(f"{key}: unknown generator {name!r}", line)
            out[name] = codomain.word(image)
        return out

    def rule_section(key, domain, codomain):
        out = {}
        for line, entry in sections.get(key, []):
            name, image = split(entry, line)
            domain.lookup_rule(name)  # raises on unknown names
            out[name] = parse_path(codomain, image, line=line)
        return out

    F = TwoFunctor(sigma, xi, gen_section("fgen", sigma, xi),
                   rule_section("frule", sigma, xi))
    G = TwoFunctor(xi, sigma, gen_section("ggen", xi, sigma),
                   rule_section("grule", xi, sigma))
    tau_gen = {}
    for line, entry in sections.get("tau", []):
        name, image = split(entry, line)
        if name not in xi.generator_map:
            raise PresentationError(f"tau: unknown generator {name!r}", line)
        tau_gen[name] = parse_path(xi, image, line=line)
    return F, G, tau_gen
