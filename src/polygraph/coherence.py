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


@dataclass(frozen=True)
class Gen:
    """A generating 3-cell, used as declared."""

    cell: ThreeCell

    def __str__(self):
        return self.cell.name


@dataclass(frozen=True)
class Inv:
    """The ⋆₂-inverse: swaps the boundary."""

    expr: "ThreeCellExpr"

    def __str__(self):
        return f"inv({self.expr})"


@dataclass(frozen=True)
class Whisker:
    """0-composition with words on both sides."""

    left: Word
    expr: "ThreeCellExpr"
    right: Word

    def __str__(self):
        return f"{self.left} * ({self.expr}) * {self.right}"


@dataclass(frozen=True)
class Comp1:
    """1-composition with zigzags before and after."""

    pre: ZigZag
    expr: "ThreeCellExpr"
    post: ZigZag

    def __str__(self):
        return f"{self.pre} . ({self.expr}) . {self.post}"


@dataclass(frozen=True)
class Comp2:
    """Vertical composition; the joint must match up to free-groupoid
    reduction of the step sequences."""

    first: "ThreeCellExpr"
    second: "ThreeCellExpr"

    def __str__(self):
        return f"({self.first}) ; ({self.second})"


@dataclass(frozen=True)
class Id2:
    """The identity 3-cell on a 2-cell (zigzag)."""

    path: ZigZag

    def __str__(self):
        return f"id2({self.path})"


@dataclass(frozen=True)
class Exchange:
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

    def __str__(self):
        return f"exch({self.step1} , {self.step2})"


ThreeCellExpr = Gen | Inv | Whisker | Comp1 | Comp2 | Id2 | Exchange


def transported(a, b):
    """The step b as it acts after a (disjoint spans), contexts adjusted."""
    (i1, j1), (i2, j2) = a.span, b.span
    if not (j1 <= i2 or j2 <= i1):
        raise CompositionError("cannot transport across overlapping spans")
    w = a.target_word
    if j1 <= i2:
        pos = i2 + (len(a.target_word) - len(a.source_word))
    else:
        pos = i2
    inner = len(b.rule.lhs) if b.forward else len(b.rule.rhs)
    return RewriteStep(w.slice(0, pos), b.rule, w.slice(pos + inner, len(w)), b.forward)


def boundary3(e):
    """The (source 2-cell, target 2-cell) boundary, computed structurally.

    Composability is validated lazily here, not at construction; an
    ill-composed node raises CompositionError naming the path to it.
    """
    return _boundary(e, "e")


def _boundary(e, at):
    if isinstance(e, Gen):
        return e.cell.source2, e.cell.target2
    if isinstance(e, Inv):
        s, t = _boundary(e.expr, at + ".inv")
        return t, s
    if isinstance(e, Id2):
        return e.path, e.path
    if isinstance(e, Exchange):
        first = ZigZag.of(e.step1, transported(e.step1, e.step2))
        second = ZigZag.of(e.step2, transported(e.step2, e.step1))
        return first, second
    if isinstance(e, Whisker):
        s, t = _boundary(e.expr, at + ".whisker")
        try:
            return s.whisker(e.left, e.right), t.whisker(e.left, e.right)
        except CompositionError as exc:
            raise CompositionError(f"at {at}.whisker: {exc}") from None
    if isinstance(e, Comp1):
        s, t = _boundary(e.expr, at + ".comp1")
        try:
            return e.pre.then(s, e.post), e.pre.then(t, e.post)
        except CompositionError as exc:
            raise CompositionError(f"at {at}.comp1: {exc}") from None
    if isinstance(e, Comp2):
        s1, t1 = _boundary(e.first, at + ".first")
        s2, t2 = _boundary(e.second, at + ".second")
        if t1.reduced() != s2.reduced():
            raise CompositionError(
                f"at {at}: vertical composite joint mismatch — first ends with "
                f"[{t1}] but second starts with [{s2}] (compared after reduction)"
            )
        return s1, t2
    raise TypeError(f"not a 3-cell expression: {e!r}")


def generating_cells(e):
    """The set of generating 3-cell names used anywhere in the expression."""
    if isinstance(e, Gen):
        return {e.cell.name}
    if isinstance(e, (Inv, Whisker, Comp1)):
        return generating_cells(e.expr)
    if isinstance(e, Comp2):
        return generating_cells(e.first) | generating_cells(e.second)
    return set()


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
        res = resolve_branching(p, b, "leftmost", budget)
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
    h_core = RewriteStep(
        w.slice(start, h.position), h.rule, w.slice(h.span[1], end), h.forward
    )
    k_core = RewriteStep(
        w.slice(start, k.position), k.rule, w.slice(k.span[1], end), k.forward
    )
    cell = cp.branching_index.get(_branching_key(h_core, k_core))
    if cell is None:
        core = (f"the critical branching ({h.rule.name} @ {h.position}, "
                f"{k.rule.name} @ {k.position}) on '{w}'")
        over = [r.name for r in (h.rule, k.rule) if r.origin and r.origin[1] > cp.pump_bound]
        if over:
            raise FuelExhausted(f"{core} needs {over[0]}, above the pump bound {cp.pump_bound}")
        raise PresentationError(f"no generating 3-cell for {core} — stale coherent presentation")
    h_rest = ZigZag(cell.target2.steps[0].target_word, cell.target2.steps[1:])
    k_rest = ZigZag(cell.source2.steps[0].target_word, cell.source2.steps[1:])
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
    Each node and each step of h costs one unit of the one budget.
    """
    budget = Budget.of(fuel)
    if p_path.source != q_path.source or p_path.target != q_path.target:
        raise CompositionError(
            f"paths are not parallel: {p_path.source}->{p_path.target} "
            f"vs {q_path.source}->{q_path.target}"
        )
    budget.charge()

    if not p_path.steps and not q_path.steps:
        return Id2(ZigZag(p_path.source))
    assert p_path.steps and q_path.steps, (
        "one-sided sphere at a normal word is impossible: a positive path "
        "out of a normal form has no first step"
    )
    a, b = p_path.steps[0], q_path.steps[0]
    p_rest = ZigZag(a.target_word, p_path.steps[1:])
    q_rest = ZigZag(b.target_word, q_path.steps[1:])
    if a == b:
        inner = fill_positive(cp, p_rest, q_rest, budget)
        return Comp1(ZigZag.of(a), inner, ZigZag(p_path.target))

    f1, g1, cell_expr = fill_local_branching(cp, a, b)
    join = f1.target
    _, h = normalize(cp.base, join, "leftmost", budget)
    assert h.target == p_path.target, (
        f"confluence path from '{join}' reaches '{h.target}', "
        f"not the sphere target '{p_path.target}'"
    )
    top = Comp1(ZigZag.of(a), fill_positive(cp, p_rest, f1.then(h), budget),
                ZigZag(p_path.target))
    middle = Comp1(ZigZag(p_path.source), cell_expr, h)
    bottom = Comp1(ZigZag.of(b), fill_positive(cp, g1.then(h), q_rest, budget),
                   ZigZag(p_path.target))
    return Comp2(Comp2(top, middle), bottom)


def sigma_path(cp, w, fuel=DEFAULT_FUEL):
    """The leftmost normalization path of w (the chosen section σ)."""
    _, path = normalize(cp.base, w, "leftmost", fuel)
    return path


def _sigma_step(cp, step, budget):
    """An expression [step] ⋆₁ σ(target word) ⇛ σ(source word), for a step
    of either direction.

    Forward steps fill directly (both sides are positive paths to the
    normal form).  A backward step s = t⁻ instead fills the sphere
    ([t] ⋆₁ σ(source), σ(target)) and conjugates: the resulting target side
    carries an uncancelled [s][t] pair, which the reduction-aware joint
    check of Comp2 absorbs.
    """
    sig_u = sigma_path(cp, step.source_word, budget)
    sig_m = sigma_path(cp, step.target_word, budget)
    if step.forward:
        return fill_positive(cp, ZigZag.of(step).then(sig_m), sig_u, budget)
    fwd = step.inverse()  # the underlying forward step, target word -> source word
    inner = fill_positive(cp, ZigZag.of(fwd).then(sig_u), sig_m, budget)
    return Inv(Comp1(ZigZag.of(step), inner, ZigZag(sig_u.target)))


def sigma_zigzag(cp, f, budget):
    """An expression f ⇛ σ(source) ⋆₁ σ(target)⁻ — the segmentwise
    straightening of a zigzag onto its normalization square.

    The source boundary is exactly f; the target boundary is the
    normalization square up to step/inverse cancellation (exact when f is
    positive).
    """
    u = f.source
    if not f.steps:
        return Id2(ZigZag(u))
    step = f.steps[0]
    rest = ZigZag(step.target_word, f.steps[1:])
    v = f.target
    sig_v_back = sigma_path(cp, v, budget).inverse()
    top = Comp1(ZigZag.of(step), sigma_zigzag(cp, rest, budget), ZigZag(v))
    bottom = Comp1(ZigZag(u), _sigma_step(cp, step, budget), sig_v_back)
    return Comp2(top, bottom)


def fill_sphere(cp, f, g, fuel=DEFAULT_FUEL):
    """Fill an arbitrary 2-sphere: parallel zigzags f, g become the boundary
    of a composite 3-cell expression, with boundary3(result) = (f, g).

    Positive parallel paths into a normal form take the direct noetherian
    recursion; general zigzags straighten each side onto the normalization
    square (σ_f, σ_g) and paste the two straightenings.  Filler nodes and
    the normalizations inside the filler draw on one budget; FuelExhausted
    names the sphere when it runs out or a pumped instance above the pump
    bound is needed.
    """
    if f.source != g.source or f.target != g.target:
        raise CompositionError(
            f"not a 2-sphere: {f.source}->{f.target} vs {g.source}->{g.target}"
        )
    budget = Budget.of(fuel)
    try:
        if f.positive and g.positive and cp.base.matcher.is_normal(f.target):
            return fill_positive(cp, f, g, budget)
        return Comp2(sigma_zigzag(cp, f, budget), Inv(sigma_zigzag(cp, g, budget)))
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
    """
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

    def step(rule, left=None, right=None):
        return RewriteStep(left or identity_word(), rule, right or identity_word())

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

    return Polygraph(
        generators=generators,
        rules=tuple(rules),
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
        alpha = ZigZag.of(RewriteStep(identity_word(rule.lhs.source), rule,
                                      identity_word(rule.lhs.target)))
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
