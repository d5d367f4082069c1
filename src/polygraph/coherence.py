"""3-cell expressions, Squier completion, sphere filling, the standard
coherent presentation of a finite monoid, and homotopy-basis transfer.

The central algorithm turns a convergent presentation into a *coherent* one:
one generating 3-cell per critical branching (squier_completion), after
which every pair of parallel rewriting paths — indeed every zigzag 2-sphere
— bounds a composite of those generators (fill_sphere), pasted from one
3-cell per rewriting step (fill_step).  The composites are kept as DAGs
of expression nodes (ThreeCellExpr), which ``_nodes`` walks once and every
reader folds over, so that homology can linearize them.

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
    _at_line,
    _logical_entries,
    _sections,
    identity_word,
    parse_path,
    rule_use_problems,
    word_problem,
)
from .rewrite import DEFAULT_PUMP_BOUND, _scan, _walk, normalize, termination_evidence
from .branchings import (
    ASPHERICAL,
    PEIFFER,
    classify_local_branching,
    enumerate_critical_branchings,
    make_local_branching,
    resolve_branching,
)


# ---------------------------------------------------------------------------
# 3-cell expressions


class _Node:
    """The base of the seven kinds of node."""

    def __str__(self):
        """The text ``polygraph fill`` prints (not parsed back).  A node
        that two or more parents read is written once, as a binding ``let
        #i = <text> in`` ahead of the text, which reads it as ``#i``.  The
        bindings are numbered in the order ``_nodes`` lists them, children
        first, so each reads only those before it."""
        shared = [node for node, parents in _nodes(self) if parents > 1]
        names = {id(node): f"#{i}" for i, node in enumerate(shared, 1)}
        lets = [f"let {names[id(node)]} = {_text(node, names)} in " for node in shared]
        return "".join(lets) + _text(self, names)


def _text(e, names):
    """e written as a tree, from a stack of nodes and literal pieces still
    to write, with each node below e that ``names`` names written as its
    name."""
    out = []
    stack = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item is not e and id(item) in names:
            out.append(names[id(item)])
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
        else:
            run = " . ".join(str(b) for b in (item.step2, *item.rest))
            out.append(f"exchange({item.step1} | {run})")
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
    """A Peiffer run: step1 carried past the steps step2, *rest, each
    disjoint from step1 as carried to its word; a single exchange, the
    interchange filler of a Peiffer branching, is a run of length one.
    With a₀ = step1, b₁ = step2, b₂ … b_k the rest, and aᵢ the step aᵢ₋₁
    as it acts after bᵢ, the boundary is (a₀ then b₁′ … b_k′, b₁ … b_k
    then a_k), where bᵢ′ is bᵢ as it acts after aᵢ₋₁; it is built only
    when asked for, and the linearization is zero.
    """

    step1: RewriteStep
    step2: RewriteStep
    rest: tuple[RewriteStep, ...] = ()

    def __post_init__(self):
        if classify_local_branching(self.step1, self.step2) != PEIFFER:
            raise CompositionError(
                "Exchange needs two steps with disjoint spans on one word"
            )

    def boundary(self):
        """(a₀ then b₁′ … b_k′, b₁ … b_k then a_k), each side checked."""
        a, source, target = self.step1, [self.step1], []
        for b in (self.step2, *self.rest):
            source.append(transported(a, b))
            target.append(b)
            a = transported(b, a)
        target.append(a)
        w = self.step1.source_word
        return ZigZag(w, tuple(source)), ZigZag(w, tuple(target))


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
    """Each distinct node of e (by identity) once, as [node, number of times
    its parents read it], in the order a recursion from e, first child
    first, finishes them: the one walk over an expression, on a stack of its
    own, as e may nest deeper than the recursion limit."""
    entries = {id(e): [e, 0]}
    out, stack = [], [(e, iter(_children(e)))]
    while stack:
        for kid in stack[-1][1]:
            entry = entries.get(id(kid))
            if entry is None:
                entries[id(kid)] = [kid, 1]
                stack.append((kid, iter(_children(kid))))
                break
            entry[1] += 1
        else:
            out.append(entries[id(stack.pop()[0])])
    return out


def _fold(e, rule):
    """Apply rule(node, *values of its children) to each node that
    ``_nodes`` lists, in its order, so a subexpression shared in a DAG is
    read once; return the value at e.  A child's value is dropped once the
    last of its parents has read it.
    """
    values = {}  # id -> [value, parents still to read it]
    for node, parents in _nodes(e):
        kids = _children(node)
        values[id(node)] = [rule(node, *[values[id(k)][0] for k in kids]), parents]
        for k in kids:
            entry = values[id(k)]
            entry[1] -= 1
            if not entry[1]:
                del values[id(k)]
    return values[id(e)][0]


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
    return e.boundary()


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
    return {node.cell.name for node, _ in _nodes(e) if isinstance(node, Gen)}


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
            key = _branching_key(h.source_word.text, (h.position, h.rule.name),
                                 (k.position, k.rule.name))
            index[key] = cell
        return index


def _branching_key(text, *legs):
    """A branching on a word's text, by its legs' (offset, rule name)."""
    return text, tuple(sorted(legs))


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
    b = make_local_branching(cp.base, f, g)
    w = f.source_word
    if b.kind == ASPHERICAL:
        empty = ZigZag(f.target_word)
        return empty, empty, Id2(ZigZag.of(f))
    if b.kind == PEIFFER:
        f_prime = ZigZag.of(transported(f, g))
        g_prime = ZigZag.of(transported(g, f))
        return f_prime, g_prime, Exchange(f, g)

    # overlapping: factor the critical core out of the shared context
    h, k = b.step1, b.step2
    start = h.position
    end = max(h.span[1], k.span[1])
    u, v = w.slice(0, start), w.slice(end, len(w))
    key = _branching_key(w.text[start:end], (0, h.rule.name),
                         (k.position - start, k.rule.name))
    cell = cp.branching_index.get(key)
    if cell is None:
        core = f"the critical branching {b.describe()}"
        over = [r.name for r in (h.rule, k.rule) if r.origin and r.origin[1] > cp.pump_bound]
        if over:
            raise FuelExhausted(f"{core} needs {over[0]}, above the pump bound {cp.pump_bound}")
        raise PresentationError(f"no generating 3-cell for {core} — stale coherent presentation")
    h_rest = _suffix(cell.target2, 1)
    k_rest = _suffix(cell.source2, 1)
    if f is h:
        # f runs along the cell's target side, so invert the cell
        f_prime = h_rest.whisker(u, v)
        g_prime = k_rest.whisker(u, v)
        return f_prime, g_prime, Whisker(u, Inv(Gen(cell)), v)
    f_prime = k_rest.whisker(u, v)
    g_prime = h_rest.whisker(u, v)
    return f_prime, g_prime, Whisker(u, Gen(cell), v)


def _suffix(path, i):
    """The path from its i-th step on."""
    steps = path.steps[i:]
    return ZigZag._chained(steps[0].source_word if steps else path.target, steps, path.target)


def sigma_path(cp, w, fuel=DEFAULT_FUEL):
    """The leftmost normalization path of w (the chosen section σ)."""
    _, path = normalize(cp.base, w, "leftmost", fuel)
    return path


def _sigma(cp, w, budget, memo):
    """sigma_path(cp, w, budget), built at most once per word in one fill
    call: ``memo`` maps each word whose path the call built to that path.

    The leftmost strategy is memoryless, so σ(w) is w's first leftmost step
    followed by σ of that step's target.  ``normalize``'s walk runs until
    it reaches the normal form or a word the memo holds (a path met again
    costs nothing), then the path of every word it passed is recorded, back
    to front.  When the budget runs out, the walk's FuelExhausted passes
    through and nothing is recorded.
    """
    tail = memo.get(w)
    if tail is not None:
        return tail
    steps, current = _walk(cp.base, w, "leftmost", budget, memo)
    tail = memo.get(current)
    if tail is None:  # a normal form
        tail = memo[current] = ZigZag._chained(current, (), current)
    rest, nf = tail.steps, tail.target
    for step in reversed(steps):
        rest = (step,) + rest
        tail = memo[step.source_word] = ZigZag._chained(step.source_word, rest, nf)
    return tail


class _Filler:
    """One fill call: its budget, the σ path of each word it met (``paths``)
    and the 3-cell S of each forward step it built (``cells``, keyed by the
    step's source word, position and rule name).

    For a forward step a on w, S(a) is an expression a ⋆₁ σ(a's target) ⇛
    σ(w), after the normalisation strategies of Guiraud and Malbos.  Let b
    be the first step of σ(w).  If a is b, S(a) is the identity on σ(w).
    Otherwise fill_local_branching(a, b) gives legs f′, g′ and an expression
    c from a ⋆₁ f′ to b ⋆₁ g′, and with h = σ(f′'s target)

        S(a) = (a ⋆₁ P(f′, h))⁻ ⋆₂ (c ⋆₁ h) ⋆₂ (b ⋆₁ P(g′, h)),

    where P (``straighten``) pastes S over the steps of a path; a leg whose
    f′ ⋆₁ h is σ already has no term.

    Most pairs (a, b) are Peiffer, and then a is carried along σ(w) = b₁ b₂
    … on integer offsets, past each step bᵢ that starts more than ``reach``
    letters before it (the leftmost scan's reach): no redex that the carried
    step's rewrite creates starts that far left, so bᵢ, carried after it, is
    still the first step of σ.  Past b₁ … b_k, with a_k the carried step on
    w_k and w_k′ its target, σ(a's target) is b₁′ … b_k′ σ(w_k′), and

        S(a) = (run ⋆₁ σ(w_k′)) ⋆₂ (b₁ … b_k ⋆₁ S(a_k)),

    where the run (an Exchange) goes from a ⋆₁ b₁′ … b_k′ to b₁ … b_k ⋆₁
    a_k, and the second term is left out when a_k is the next step of σ.
    A presentation with pumped families has no longest left-hand side and
    makes no runs; a step that does not carry past b₁ takes the general S.

    Each S built costs one unit of the budget, each run one and each σ
    step walked one more; a step or a word met again costs nothing.
    """

    def __init__(self, cp, budget):
        self.cp = cp
        self.budget = budget
        self.paths = {}
        self.cells = {}
        scan = _scan(cp.base, "leftmost")
        self.reach = None if scan.families else scan.reach

    def sigma(self, w):
        return _sigma(self.cp, w, self.budget, self.paths)

    def tail(self, path):
        """Where the σ tail of path starts: its steps from there on are
        forward, each the first step of σ of its source.  σ of the path's
        source is needed in any case; it is walked first, so that one walk
        takes a leftmost path's steps."""
        self.sigma(path.source)
        j = len(path.steps)
        while j and path.steps[j - 1].forward and _first(
                path.steps[j - 1], self.sigma(path.steps[j - 1].source_word)):
            j -= 1
        return j

    def step(self, a):
        """S(a), built on a stack of its own: a step waits there under the
        S of its carried step, or of the steps its legs take before their
        σ tails (of the inverse, for a backward one), so no Python frame
        depth grows with the sphere.  a is at the bottom, so the last S the
        loop meets is a's."""
        expr = self.cells.get((a.source_word, a.position, a.rule.name))
        stack = [(a, None)] if expr is None else []
        while stack:
            s, parts = stack.pop()
            key = (s.source_word, s.position, s.rule.name)
            expr = self.cells.get(key)
            if expr is not None:
                continue
            if parts is None:
                self.budget.charge()
                sig = self.sigma(s.source_word)
                if _first(s, sig):
                    expr = self.cells[key] = Id2(sig)
                    continue
                k, position = self.carry(s, sig)
                if k:
                    self.budget.charge()
                    steps = sig.steps
                    run = Exchange(s, steps[0], steps[1:k])
                    if (steps[k].position, steps[k].rule.name) == (position, s.rule.name):
                        # a_k is the next step of σ, and its S the identity
                        expr = self.cells[key] = Comp1(ZigZag(s.source_word), run,
                                                       _suffix(sig, k + 1))
                        continue
                    carried = RewriteStep(steps[k].source_word, position, s.rule)
                    pre = ZigZag._chained(sig.source, steps[:k], carried.source_word)
                    stack += ((s, (run, carried, pre)), (carried, None))
                    continue
                b = sig.steps[0]
                f1, g1, c = fill_local_branching(self.cp, s, b)
                legs = ((f1, self.tail(f1)), (g1, self.tail(g1)))
                stack.append((s, (b, c, self.sigma(f1.target), legs)))
                stack += ((t if t.forward else t.inverse(), None)
                          for leg, j in legs for t in leg.steps[:j])
                continue
            if len(parts) == 3:  # a run, then S of the carried step
                run, carried, pre = parts
                post = self.sigma(carried.target_word)
                inner = self.cells[(carried.source_word, carried.position, carried.rule.name)]
                expr = self.cells[key] = Comp2(Comp1(ZigZag(s.source_word), run, post),
                                               Comp1(pre, inner, ZigZag(post.target)))
                continue
            b, c, h, ((f1, jf), (g1, jg)) = parts
            end = ZigZag(h.target)
            expr = Comp1(ZigZag(s.source_word), c, h)
            if jf:  # a leg that is σ already has no term
                top = Comp1(_one(s, f1.source), self.straighten(f1, h, jf), end)
                expr = Comp2(Inv(top), expr)
            if jg:
                expr = Comp2(expr, Comp1(_one(b, g1.source), self.straighten(g1, h, jg), end))
            self.cells[key] = expr
        return expr

    def carry(self, a, sig):
        """How far the step a carries along sig, the σ path of its source:
        (k, a's position on the source of sig's k-th step), carried past
        the first k steps, each of which starts more than ``reach`` letters
        before it; (0, a's position) when it carries past none."""
        k, position = 0, a.position
        if self.reach is None:
            return k, position
        for b in sig.steps:
            if position - b.position <= self.reach:
                break
            position += len(b.rule.rhs) - len(b.rule.lhs)
            k += 1
        return k, position

    def straighten(self, path, h=None, j=None):
        """P(path, h): an expression path ⋆₁ h ⇛ σ(u) ⋆₁ σ(v)⁻, for a path
        from u and a prefix h of σ(path's target) that ends at v (the empty
        path when None); j, when given, is where the σ tail of path starts.

        S is pasted over each step before the σ tail of path ⋆₁ h, the last
        step first; a backward step pastes the conjugate of S of its
        inverse, and the term of a step whose S is an identity is dropped.
        The source is path ⋆₁ h exactly, and so is the target when v is
        normal; otherwise the target is σ(u) ⋆₁ σ(v)⁻ up to step/inverse
        cancellation, which the joint check of Comp2 allows.
        """
        h = ZigZag(path.target) if h is None else h
        back = self.sigma(h.target).inverse()
        end = ZigZag(h.target)
        j = self.tail(path) if j is None else j
        rest = _suffix(path, j)
        expr = Id2(rest.then(h)) if j == 0 or back.steps else None
        after = rest.source
        for step in reversed(path.steps[:j]):
            one, after = _one(step, after), step.source_word
            if step.forward:
                cell = self.step(step)
            else:
                cell = Inv(Comp1(one, self.step(step.inverse()), ZigZag(back.source)))
            bottom = Comp1(ZigZag(after), cell, back) if back.steps else cell
            if expr is None:
                expr = bottom
            elif isinstance(cell, Id2):
                expr = Comp1(one, expr, end)
            else:
                expr = Comp2(Comp1(one, expr, end), bottom)
        return expr


def _first(step, sigma):
    """Whether step is the first step of sigma, a σ path from its source."""
    first = sigma.steps[0]
    return (first.position, first.rule.name) == (step.position, step.rule.name)


def _one(step, target):
    """The path of one step whose target word is known."""
    return ZigZag._chained(step.source_word, (step,), target)


def fill_positive(cp, p_path, q_path, fuel=DEFAULT_FUEL):
    """Fill a sphere between parallel paths as fill_sphere does, without
    naming the sphere on FuelExhausted: a σ walk that runs out keeps
    normalize's message and its partial path in ``.trace``."""
    if p_path.source != q_path.source or p_path.target != q_path.target:
        raise CompositionError(
            f"paths are not parallel: {p_path.source}->{p_path.target} "
            f"vs {q_path.source}->{q_path.target}"
        )
    filler = _Filler(cp, Budget.of(fuel))
    return Comp2(filler.straighten(p_path), Inv(filler.straighten(q_path)))


def fill_step(cp, step, fuel=DEFAULT_FUEL):
    """S(step), for a forward step from u to v: an expression step ⋆₁ σ(v)
    ⇛ σ(u), the filler of that sphere.  FuelExhausted names the sphere as
    fill_sphere does."""
    try:
        return _Filler(cp, Budget.of(fuel)).step(step)
    except FuelExhausted as exc:
        raise FuelExhausted(f"filling a sphere from '{step.source_word}': {exc}") from None


def fill_sphere(cp, f, g, fuel=DEFAULT_FUEL):
    """Fill an arbitrary 2-sphere: parallel zigzags f, g become the boundary
    of a composite 3-cell expression, with boundary3(result) = (f, g).

    Each side, from u to v, is straightened onto σ(u) ⋆₁ σ(v)⁻ by pasting S
    over its steps (see _Filler), and the two straightenings are pasted.
    They share one memo, so within the call each σ path and each S is built
    once and the result is a DAG.  S and the σ walks draw on one budget;
    FuelExhausted names the sphere when it runs out or a pumped instance
    above the pump bound is needed.
    """
    if f.source != g.source or f.target != g.target:
        raise CompositionError(
            f"not a 2-sphere: {f.source}->{f.target} vs {g.source}->{g.target}"
        )
    try:
        return fill_positive(cp, f, g, fuel)
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
    """Parse a finite monoid from `elements:`, `unit:` and `table:` sections,
    read as presentation files are; table entries are `x*y=z`, at most one
    per pair, and the last `unit` entry names the unit."""
    sections = _sections(_logical_entries(text), ("elements", "unit", "table"))
    elements = [x for _, entry in sections.get("elements", []) for x in entry.split()]
    units = sections.get("unit", [])
    product = {}
    for line, entry in sections.get("table", []):
        lhs, eq, z = entry.replace(" ", "").partition("=")
        x, star, y = lhs.partition("*")
        if not (eq and star):
            raise PresentationError(f"cannot parse table entry {entry!r}", line)
        if (x, y) in product:
            raise PresentationError(f"a second product for {x}*{y}: {entry!r}", line)
        product[(x, y)] = z
    if not elements:
        raise PresentationError("multiplication table needs an elements: section")
    if not units:
        raise PresentationError("multiplication table needs a unit: section")
    return MultiplicationTable(tuple(elements), units[-1][1], product)


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
            r = Rule(f"m_{u}_{v}", word[u].concat(word[v]), word[product[(u, v)]])
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
                uvw = word[u].concat(word[v], word[w])
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
        """The image of w: the images of its letters, composed."""
        try:
            images = [self.gen_map[letter] for letter in w.letters]
        except KeyError as exc:
            raise PresentationError(f"functor has no image for generator {exc.args[0]!r}") from None
        return identity_word(w.source).concat(*images)

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
        if problem := word_problem(F.target, image):
            problems.append(f"image of {name!r}: {problem}")
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
        problems += [f"image of rule {name} {problem}"
                     for problem in rule_use_problems(F.target, z)]
    return problems


def tau_word(F, G, tau_gen, w):
    """The natural-transformation component at a word w = v_1 ⋯ v_n, a path
    from FG(w) to w: τ_{v_1} on the first letters, with the still-unfixed
    tail FG(v_2 ⋯ v_n) after it, then v_1 acting on τ_{v_2 ⋯ v_n}.

    Built without recursion and checked in the recursion's order, so the
    first failing check raises what the recursion raises: left to right,
    each τ_{v_k}, its tail FG(v_{k+1} ⋯ v_n) (only the first is built
    whole; a later one is new only where it starts) and τ_{v_k} whiskered
    by it; then the junctions right to left, each on the words next to it.
    Each τ_{v_k} is whiskered once, by v_1 ⋯ v_{k-1} and its tail.
    """
    n = len(w)
    if n == 0:
        return ZigZag(w)
    letters = w.letters
    taus = [_tau_component(tau_gen, letters[0])]
    F.word(G.word(w.slice(1, n)))  # raises what building the first tail raises
    # at each index k ≥ 1: FG of the letter's text, where G of it starts,
    # and where F of the first letter of G of the letters from k on starts
    images, starts, meets = [""] * (n + 1), [None] * (n + 1), [None] * (n + 1)
    for k in range(n - 1, 0, -1):
        g = G.gen_map[letters[k]]
        images[k], starts[k] = "".join([F.gen_map[x].text for x in g.letters]), g.source
        meets[k] = F.gen_map[g.letters[0]].source if g.text else meets[k + 1]

    def tail(k):
        """FG(v_{k+2} ⋯ v_n), the tail of the letter at index k, in one join."""
        return Word._of("".join(images[k + 1:]), w.node(k + 1))

    for k in range(n):
        at = w.node(k + 1)
        if k:
            taus.append(_tau_component(tau_gen, letters[k]))
            if k + 1 < n and (starts[k + 1] != at or meets[k + 1] not in (None, at)):
                F.word(G.word(w.slice(k + 1, n)))  # raises: the tail starts elsewhere
        source = taus[k].source
        if (source.source, source.target) != (w.node(k), at):
            taus[k].whisker(identity_word(w.node(k)), tail(k))  # raises
    chunks = []  # the whiskered steps of τ_{v_n}, ..., τ_{v_1}
    for k in range(n - 1, -1, -1):
        tau = taus[k]
        met = taus[k + 1].source.text if k < n - 1 else ""
        if tau.target.text + images[k + 1] != w.text[k] + met:
            reached = taus[k + 1].source.concat(tail(k + 1)) if k < n - 1 else tail(k)
            stop = w.slice(k, k + 1).concat(reached)
            ZigZag(tau.target.concat(tail(k))).then(ZigZag(stop))  # raises
        if tau.steps:
            left, right = w.slice(0, k), tail(k)
            chunks.append([s.whisker(left, right) for s in tau.steps])
    steps = tuple(s for chunk in reversed(chunks) for s in chunk)
    return ZigZag._chained(taus[0].source.concat(tail(0)), steps, w)


def _tau_component(tau_gen, letter):
    try:
        return tau_gen[letter]
    except KeyError:
        raise PresentationError(f"no tau component for generator {letter!r}") from None


def transfer_homotopy_basis(xi, F, G, tau_gen, gamma, pump_bound=DEFAULT_PUMP_BOUND):
    """Transport a homotopy basis Γ of sigma = F.source along F: sigma -> xi
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
    sections = _sections(_logical_entries(text), _MAP_SECTIONS)

    def split(entry, line):
        if "=>" not in entry:
            raise PresentationError(f"map entry lacks '=>': {entry!r}", line)
        name, image = entry.split("=>", 1)
        return name.strip(), image.strip()

    def gen_section(key, domain, read):
        out = {}
        for line, entry in sections.get(key, []):
            name, image = split(entry, line)
            if name not in domain.generator_map:
                raise PresentationError(f"{key}: unknown generator {name!r}", line)
            out[name] = _at_line(line, read, image)
        return out

    def rule_section(key, domain, codomain):
        out = {}
        for line, entry in sections.get(key, []):
            name, image = split(entry, line)
            _at_line(line, domain.lookup_rule, name)  # raises on unknown names
            out[name] = parse_path(codomain, image, line=line)
        return out

    F = TwoFunctor(sigma, xi, gen_section("fgen", sigma, xi.word),
                   rule_section("frule", sigma, xi))
    G = TwoFunctor(xi, sigma, gen_section("ggen", xi, sigma.word),
                   rule_section("grule", xi, sigma))
    return F, G, gen_section("tau", xi, lambda image: parse_path(xi, image))
