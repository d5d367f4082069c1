"""Free resolution of Z over the monoid ring of a convergent presentation.

A coherent presentation of a monoid M packs exactly the combinatorics needed
to write down the start of a free resolution of the trivial module Z over the
integral monoid ring ZM:

    ZM[cells] --d3--> ZM[rules] --d2--> ZM[generators] --d1--> ZM --eps--> Z

Degree 0 is ZM itself (free of rank one), degree 1 is free on the generators,
degree 2 free on the rewriting rules, degree 3 free on the generating 3-cells.
The differentials send a generator x to x-1, a rule to the Fox difference of
its two sides, and a 3-cell to the difference of the rule content of its two
boundary paths.  Exactness in low degrees is witnessed constructively: we
build a contracting homotopy i0..i3 out of the normalization strategy and the
3-cell filler, and check the homotopy identities numerically on sampled basis
elements rather than trusting the derivation.

Everything is exact integer arithmetic.  Ring elements are dicts mapping
normal-form Words to ints; module elements are dicts mapping (Word, basis
name) pairs to ints.  No zero coefficients are ever stored, so dict equality
is equality of elements.
"""

import random
from dataclasses import dataclass, field
from functools import cmp_to_key

from .presentation import (
    FuelExhausted,
    PresentationError,
    RewriteStep,
    ZigZag,
    identity_word,
)
from .rewrite import deglex_compare, normal_form
from .coherence import (
    Comp1,
    Comp2,
    CoherentPresentation,
    Exchange,
    Gen,
    Id2,
    Inv,
    Whisker,
    fill_sphere,
    sigma_path,
)


# ---------------------------------------------------------------------------
# ring / module element helpers
#
# RingElt:   dict Word -> int            (element of ZM, keys are normal forms)
# ModuleElt: dict (Word, str) -> int     (element of a free ZM-module, the str
#                                         names the module basis element)


def _acc(d, key, coef):
    """Add coef at key, dropping the entry if it cancels to zero."""
    if coef == 0:
        return
    new = d.get(key, 0) + coef
    if new == 0:
        d.pop(key, None)
    else:
        d[key] = new


def add_into(target, other, scale=1):
    for key, coef in other.items():
        _acc(target, key, scale * coef)
    return target


def scaled(elt, scale):
    out = {}
    add_into(out, elt, scale)
    return out


def _word_sort_key(order):
    def cmp(u, v):
        return deglex_compare(order, u, v)

    return cmp_to_key(cmp)


def format_ring(relt, order):
    """Render a ring element as 'c*w + c*w', deglex-sorted; '0' when empty."""
    if not relt:
        return "0"
    words = sorted(relt, key=_word_sort_key(order))
    return " + ".join(f"{relt[w]}*{w}" for w in words)


# ---------------------------------------------------------------------------
# the resolution


@dataclass
class FreeResolution:
    """Length-3 free resolution attached to a coherent convergent presentation.

    The caller is responsible for having certified convergence (the CLI and
    squier_completion both gate on termination evidence); here we just consume
    the coherent presentation and normalize freely.  The pump bound is the
    coherent presentation's.

    Every normal form the resolution meets gets a number: ``_words[i]`` is
    the i-th, and 0 is the identity.  Products walk the monoid's right
    Cayley graph, built as it is used: the edge from i along a letter x is
    the number of the normal form of ``_words[i]·x``, normalized on first use
    as a top-level call with a fresh budget of DEFAULT_FUEL (as is each σ
    path and each ``i3`` filling).  The system being convergent, walking the
    letters of any word from i reaches the normal form of ``_words[i]``
    followed by that word.  Inside, ring and module elements are keyed by
    these numbers; every public method takes and returns Word-keyed ones.
    Normal forms keyed by their letters need one object, so a presentation
    with several is refused.

    ``d2`` and ``d3`` compute the image of each basis element at the identity
    once and act on it by the coefficient word: d(u[b]) = u·d([b]).
    """

    coherent: CoherentPresentation
    _words: list = field(default_factory=list, repr=False)
    _numbers: dict = field(default_factory=dict, repr=False)  # letters -> number
    _right: list = field(default_factory=list, repr=False)  # number -> {letter: number}
    _products: list = field(default_factory=list, repr=False)  # number i -> {j: number of i·j}
    _images: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        objects = self.presentation.objects
        if len(objects) > 1:
            raise PresentationError(
                "the free resolution is over a monoid ring and needs one object; "
                f"this presentation has {len(objects)}: {', '.join(objects)}"
            )
        self._register(identity_word(objects[0]))

    @property
    def presentation(self):
        return self.coherent.base

    @property
    def pump_bound(self):
        return self.coherent.pump_bound

    # -- numbered normal forms and the right Cayley graph --------------------

    def _register(self, v):
        """The number of the normal form v, new if v is new."""
        i = self._numbers.get(v.letters)
        if i is None:
            i = self._numbers[v.letters] = len(self._words)
            self._words.append(v)
            self._right.append({})
            self._products.append({})
        return i

    def _walk(self, i, letters):
        """The number of the product of the i-th normal form and a word."""
        right = self._right
        for x in letters:
            j = right[i].get(x)
            if j is None:
                w = self._words[i].concat(self.presentation.word_from_letters((x,)))
                v = normal_form(self.presentation, w, "leftmost")
                j = right[i][x] = self._register(v)
            i = j
        return i

    def _number(self, w):
        """The number of the normal form of w; a known normal form is looked
        up, any other word walked from the identity."""
        i = self._numbers.get(w.letters)
        return self._walk(0, w.letters) if i is None else i

    def _mult(self, i, j):
        """The number of the product of the i-th and j-th normal forms."""
        k = self._products[i].get(j)
        if k is None:
            k = self._products[i][j] = self._walk(i, self._words[j].letters)
        return k

    def _worded(self, melt):
        words = self._words
        return {(words[i], basis): coef for (i, basis), coef in melt.items()}

    def _act_into(self, out, i, melt, scale):
        """Add scale times the i-th normal form times melt to out (both
        keyed by numbers)."""
        products = self._products[i]
        for (j, basis), coef in melt.items():
            k = products.get(j)
            key = (self._mult(i, j) if k is None else k, basis)
            new = out.get(key, 0) + scale * coef
            if new:
                out[key] = new
            else:
                out.pop(key, None)

    # -- normal forms ------------------------------------------------------

    def nf(self, w):
        """The normal form of w: its letters walked from the identity."""
        return self._words[self._number(w)]

    def mult(self, u, v):
        """Product in the monoid: normal form of the concatenation."""
        return self._words[self._mult(self._number(u), self._number(v))]

    def _act(self, u, elt):
        """Left action of the monoid element u on a module element: multiply
        every coefficient word and renormalize."""
        numbered = {}
        for (w, basis), coef in elt.items():
            _acc(numbered, (self._number(w), basis), coef)
        out = {}
        self._act_into(out, self._number(u), numbered, 1)
        return self._worded(out)

    # -- augmentation and differentials --------------------------------------

    def epsilon(self, relt):
        """Augmentation ZM -> Z: total coefficient sum."""
        return sum(relt.values())

    def i0(self, n):
        """Z -> ZM, the unit section of the augmentation."""
        if n == 0:
            return {}
        return {self._words[0]: n}

    def d1(self, melt):
        """ZM[generators] -> ZM:  u[x] |-> u*x - u."""
        out = {}
        for (u, gen), coef in melt.items():
            i = self._number(u)
            _acc(out, self._walk(i, (gen,)), coef)
            _acc(out, i, -coef)
        return {self._words[i]: coef for i, coef in out.items()}

    def _fox_into(self, out, letters, scale):
        """Add scale times the Fox bracket of a word to out: the letter at
        position i counts with the normal form of the prefix before it."""
        i = 0
        for x in letters:
            _acc(out, (i, x), scale)
            i = self._walk(i, (x,))

    def fox_bracket(self, w):
        """Fox-type derivative of a word: [1] = 0, [uv] = [u] + u~[v]."""
        out = {}
        self._fox_into(out, w.letters, 1)
        return self._worded(out)

    def d2(self, melt):
        """ZM[rules] -> ZM[generators]:  u[alpha] |-> u*(fox lhs - fox rhs)."""
        return self._differential(2, melt)

    def _bracket2_into(self, out, path, scale):
        for step in path.steps:
            _acc(out, (self._number(step.left), step.rule.name),
                 scale if step.forward else -scale)

    def bracket_2cell(self, path):
        """Rule content of a rewriting path: each step contributes the normal
        form of its left context on its rule, signed by direction."""
        out = {}
        self._bracket2_into(out, path, 1)
        return self._worded(out)

    def d3(self, melt):
        """ZM[cells] -> ZM[rules]: u[gamma] |-> u*(bracket2(src) - bracket2(tgt))."""
        return self._differential(3, melt)

    def _differential(self, degree, melt):
        out = {}
        for (u, name), coef in melt.items():
            self._act_into(out, self._number(u), self._image(degree, name), coef)
        return self._worded(out)

    def _image(self, degree, name):
        """d2 or d3 of the basis element [name] at the identity, keyed by
        numbers and computed on first use.  Keyed by degree too: a rule and
        a 3-cell may share a name."""
        key = (degree, name)
        image = self._images.get(key)
        if image is None:
            image = {}
            if degree == 2:
                rule = self.presentation.lookup_rule(name)
                self._fox_into(image, rule.lhs.letters, 1)
                self._fox_into(image, rule.rhs.letters, -1)
            else:
                cell = self.coherent.cell_by_name[name]
                self._bracket2_into(image, cell.source2, 1)
                self._bracket2_into(image, cell.target2, -1)
            self._images[key] = image
        return image

    def bracket_3cell(self, expr):
        """Cell content of a 3-cell expression.

        Generators count once with the normal form of the accumulated left
        whiskering as coefficient; inverses negate; horizontal and vertical
        composition are additive; identities and exchange cells are invisible
        (exchange permutes disjoint steps, no cell is consumed).  Walked top
        down on a stack of (node, left whiskering, sign), the first child
        first; a node shared in a DAG is read once per path to it.
        """
        out = {}
        stack = [(expr, 0, 1)]
        while stack:
            node, left, sign = stack.pop()
            while isinstance(node, Comp1):
                node = node.expr
            if isinstance(node, Comp2):
                stack += ((node.second, left, sign), (node.first, left, sign))
            elif isinstance(node, Gen):
                _acc(out, (left, node.cell.name), sign)
            elif isinstance(node, Inv):
                stack.append((node.expr, left, -sign))
            elif isinstance(node, Whisker):
                stack.append((node.expr, self._walk(left, node.left.letters), sign))
            elif not isinstance(node, (Id2, Exchange)):
                raise TypeError(f"not a 3-cell expression: {node!r}")
        return self._worded(out)

    # -- contracting homotopy -------------------------------------------------

    def i1(self, relt):
        """ZM -> ZM[generators]: a normal form goes to its Fox derivative."""
        out = {}
        for w, coef in relt.items():
            self._fox_into(out, w.letters, coef)
        return self._worded(out)

    def i2(self, melt):
        """ZM[generators] -> ZM[rules]: u[x] |-> rule content of the leftmost
        normalization path of u*x."""
        out = {}
        for (u, gen), coef in melt.items():
            x = self.presentation.word_from_letters((gen,))
            self._bracket2_into(out, sigma_path(self.coherent, u.concat(x)), coef)
        return self._worded(out)

    def i3(self, melt):
        """ZM[rules] -> ZM[cells]: u[alpha] fills the sphere between the
        whiskered rule step followed by normalization and the direct
        normalization of u*lhs, and takes its cell content."""
        out = {}
        for (u, rule_name), coef in melt.items():
            rule = self.presentation.lookup_rule(rule_name)
            step = RewriteStep(u.concat(rule.lhs), len(u), rule)
            f = ZigZag.of(step).then(sigma_path(self.coherent, step.target_word))
            g = sigma_path(self.coherent, step.source_word)
            expr = fill_sphere(self.coherent, f, g)
            add_into(out, self.bracket_3cell(expr), coef)
        return out

    def contract(self, n, x):
        """The contracting homotopy at degree n (0..3)."""
        return (self.i0, self.i1, self.i2, self.i3)[n](x)


# ---------------------------------------------------------------------------
# numerical verification of the resolution identities


def sample_elements(res, samples, seed=0):
    """A deterministic sample of monoid elements as normal-form words.

    If breadth-first enumeration closes within `samples` elements the monoid
    is that small and the sample is exhaustive.  Otherwise we draw random
    words (seeded) and normalize them, so the sample is not biased toward the
    shortest elements only.
    """
    elements, closed = try_enumerate(res, samples)
    if closed:
        return elements
    p = res.presentation
    rng = random.Random(seed)
    gens = [g.name for g in p.generators]
    found = {w.letters: w for w in elements[: max(1, samples // 4)]}
    attempts = 0
    while len(found) < samples and attempts < samples * 200:
        attempts += 1
        length = rng.randint(1, 12)
        letters = tuple(rng.choice(gens) for _ in range(length))
        v = res.nf(p.word_from_letters(letters))
        found.setdefault(v.letters, v)
    return sorted(found.values(), key=_word_sort_key(p.gen_order))


def verify_identities(res, samples=16, seed=0):
    """Check the chain and homotopy identities on sampled basis elements.

    The sample always contains the identity and short normal forms, topped up
    with seeded random ones; every identity is tested exactly, over the
    integers.  Returns a report dict with one boolean per identity family
    plus the failures, if any.
    """
    p = res.presentation
    elements = sample_elements(res, samples, seed)
    rules = p.all_rule_instances(res.pump_bound)
    failures = []
    report = {
        "samples": len(elements),
        "rules_checked": len(rules),
        "cells_checked": len(res.coherent.cells),
    }

    # eps . i0 = id on Z
    report["eps_i0"] = res.epsilon(res.i0(1)) == 1 and res.epsilon(res.i0(0)) == 0
    if not report["eps_i0"]:
        failures.append("eps_i0: augmentation does not split")

    ok_d1d2 = True
    ok_d2d3 = True
    ok_h1 = True
    ok_h2 = True
    ok_h3 = True

    for u in elements:
        # d1 i1 + i0 eps = id on ZM
        one = {u: 1}
        lhs = res.d1(res.i1(one))
        add_into(lhs, res.i0(res.epsilon(one)))
        if lhs != one:
            ok_h1 = False
            failures.append(f"d1i1_i0eps fails at {u}")
        for g in p.generators:
            basis = {(u, g.name): 1}
            got = res.d2(res.i2(basis))
            add_into(got, res.i1(res.d1(basis)))
            if got != basis:
                ok_h2 = False
                failures.append(f"d2i2_i1d1 fails at {u}[{g.name}]")
        for rule in rules:
            basis = {(u, rule.name): 1}
            boundary = res.d2(basis)
            if res.d1(boundary):
                ok_d1d2 = False
                failures.append(f"d1d2 nonzero at {u}[{rule.name}]")
            got = res.d3(res.i3(basis))
            add_into(got, res.i2(boundary))
            if got != basis:
                ok_h3 = False
                failures.append(f"d3i3_i2d2 fails at {u}[{rule.name}]")
        for cell in res.coherent.cells:
            basis = {(u, cell.name): 1}
            if res.d2(res.d3(basis)):
                ok_d2d3 = False
                failures.append(f"d2d3 nonzero at {u}[{cell.name}]")

    report["d1d2"] = ok_d1d2
    report["d2d3"] = ok_d2d3
    report["d1i1_i0eps"] = ok_h1
    report["d2i2_i1d1"] = ok_h2
    report["d3i3_i2d2"] = ok_h3
    report["passed"] = not failures
    report["failures"] = failures
    return report


# ---------------------------------------------------------------------------
# element enumeration and matrix export


def try_enumerate(res, bound):
    """Breadth-first closure of the monoid from the identity under right
    multiplication by generators, stopping after `bound` elements.

    Returns (elements, closed): closed is True when the closure completed, so
    the list is the whole monoid; False means the monoid has more than
    `bound` elements (possibly infinitely many).  Elements come deglex-sorted.
    """
    p = res.presentation
    gens = [g.name for g in p.generators]
    seen = {0: None}  # numbered normal forms, in the order found
    queue = [0]
    closed = True
    while queue and closed:
        frontier = []
        for i in queue:
            for x in gens:
                j = res._walk(i, (x,))
                if j in seen:
                    continue
                if len(seen) >= bound:
                    closed = False
                    break
                seen[j] = None
                frontier.append(j)
            if not closed:
                break
        queue = frontier
    elements = [res._words[i] for i in seen]
    return sorted(elements, key=_word_sort_key(p.gen_order)), closed


def enumerate_elements(res, bound):
    """The whole monoid as normal-form words, deglex-sorted; raises
    PresentationError when there are more than `bound` elements."""
    elements, closed = try_enumerate(res, bound)
    if not closed:
        raise PresentationError(
            f"monoid has more than {bound} elements; "
            "raise the bound or export symbolically"
        )
    return elements


def _basis_labels(p, res):
    """Module basis names in declaration order for degrees 0..3."""
    rules = [r.name for r in p.all_rule_instances(res.pump_bound)]
    cells = [c.name for c in res.coherent.cells]
    gens = [g.name for g in p.generators]
    return [""], gens, rules, cells


def _sparse_differentials(res, elements):
    """The three differentials over the Z-basis of ``integer_matrices``, one
    at a time, as (name, row count, columns): column j maps the row index of
    each nonzero coefficient of the j-th source basis vector's image to it."""
    p = res.presentation
    idx = {w.letters: i for i, w in enumerate(elements)}
    n = len(elements)
    _, gens, rules, cells = _basis_labels(p, res)

    yield "d1", n, [
        {idx[w.letters]: coef for w, coef in res.d1({(u, g): 1}).items()}
        for g in gens
        for u in elements
    ]
    for name, d, sources, targets in (
        ("d2", res.d2, rules, gens),
        ("d3", res.d3, cells, rules),
    ):
        offset = {label: k * n for k, label in enumerate(targets)}
        yield name, len(targets) * n, [
            {offset[b] + idx[w.letters]: coef for (w, b), coef in d({(u, s): 1}).items()}
            for s in sources
            for u in elements
        ]


def integer_matrices(res, elements):
    """The three differentials as integer matrices over the Z-basis.

    The Z-basis of ZM[B] is ordered basis-major: all monoid elements (deglex)
    under the first basis name, then the next.  Rows index the target, columns
    the source; column j holds the differential of the j-th source basis
    vector.
    """
    mats = {}
    for name, rows, columns in _sparse_differentials(res, elements):
        dense = [[0] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, coef in col.items():
                dense[i][j] = coef
        mats[name] = dense
    return mats


def symbolic_matrices(res):
    """The three differentials as matrices over the monoid ring, one ring
    element string per (target basis, source basis) entry.

    On a pumped family the rows of d3 are the rule instances up to the pump
    bound; an image that needs an instance above it is a bound hit
    (FuelExhausted), as in ``coherence.fill_local_branching``."""
    p = res.presentation
    order = p.gen_order
    _, gens, rules, cells = _basis_labels(p, res)

    def collect(name, melt, labels, source):
        per = {label: {} for label in labels}
        for (w, basis), coef in melt.items():
            if basis not in per:  # a cell at the pump bound resolves through the next instance
                raise FuelExhausted(
                    f"{name} of {source} needs {basis}, above the pump bound {res.pump_bound}")
            per[basis][w] = coef
        return [format_ring(per[label], order) for label in labels]

    d1 = [[] for _ in range(1)]
    for g in gens:
        relt = res.d1({(identity_word(p.objects[0]), g): 1})
        d1[0].append(format_ring(relt, order))
    d2_cols = [collect("d2", res.d2({(identity_word(p.objects[0]), r): 1}), gens, r)
               for r in rules]
    d3_cols = [collect("d3", res.d3({(identity_word(p.objects[0]), c): 1}), rules, c)
               for c in cells]

    def transpose(cols, rows):
        return [[col[i] for col in cols] for i in range(rows)]

    return {
        "d1": d1,
        "d2": transpose(d2_cols, len(gens)) if d2_cols else [[] for _ in gens],
        "d3": transpose(d3_cols, len(rules)) if d3_cols else [[] for _ in rules],
        "row_labels": {"d1": [""], "d2": gens, "d3": rules},
        "col_labels": {"d1": gens, "d2": rules, "d3": cells},
    }


def _write_int_matrix(path, name, rows, columns, row_desc, col_desc):
    """Write the dense text form of a sparse matrix, one row at a time; a
    row with nonzero entries is slices of one zero line with the entries
    between them."""
    by_row = {}
    for j, col in enumerate(columns):
        for i, coef in col.items():
            by_row.setdefault(i, []).append((j, str(coef)))
    zero_line = ("0 " * len(columns))[:-1] + "\n"  # column j starts at character 2j
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# {name} (integer matrix over the Z-basis; rows = target, cols = source)\n"
            f"# rows: {row_desc}\n"
            f"# cols: {col_desc}\n"
        )
        for i in range(rows):
            entries = by_row.get(i)
            if entries is None:
                fh.write(zero_line)
                continue
            pieces, done = [], 0  # characters of zero_line written so far
            for j, text in entries:
                pieces += (zero_line[done : 2 * j], text)
                done = 2 * j + 1
            pieces.append(zero_line[done:])
            fh.write("".join(pieces))


def _write_sym_matrix(path, name, matrix, row_labels, col_labels):
    lines = [
        f"# {name} (entries in the monoid ring)",
        f"# rows: {' | '.join(lab or '[]' for lab in row_labels)}",
        f"# cols: {' | '.join(col_labels)}",
    ]
    for row in matrix:
        lines.append(" ; ".join(row) if row else "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_matrices(res, out_dir, bound=2000):
    """Export the differentials to out_dir.

    Symbolic matrices are always written.  Integer matrices additionally need
    the monoid to be finite (at most `bound` elements); when it is not, they
    are skipped and the report says so — the caller decides how loudly to
    complain.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = res.presentation
    _, gens, rules, cells = _basis_labels(p, res)

    sym = symbolic_matrices(res)
    for name in ("d1", "d2", "d3"):
        _write_sym_matrix(
            out / f"{name}_symbolic.txt",
            name,
            sym[name],
            sym["row_labels"][name],
            sym["col_labels"][name],
        )

    report = {
        "out_dir": str(out),
        "symbolic": [f"{n}_symbolic.txt" for n in ("d1", "d2", "d3")],
        "finite": None,
        "elements": None,
        "integer": [],
    }
    try:
        elements = enumerate_elements(res, bound)
    except PresentationError as exc:
        report["finite"] = False
        report["error"] = str(exc)
        return report

    report["finite"] = True
    report["elements"] = len(elements)
    (out / "elements.txt").write_text(
        "\n".join(str(w) for w in elements) + "\n", encoding="utf-8"
    )
    elt_desc = ", ".join(str(w) for w in elements)

    def basis_desc(labels):
        if labels == [""]:
            return elt_desc
        return ", ".join(f"{w}[{lab}]" for lab in labels for w in elements)

    labels = {"d1": ([""], gens), "d2": (gens, rules), "d3": (rules, cells)}
    for name, rows, columns in _sparse_differentials(res, elements):
        targets, sources = labels[name]
        _write_int_matrix(
            out / f"{name}.txt", name, rows, columns, basis_desc(targets), basis_desc(sources)
        )
    report["integer"] = ["elements.txt", "d1.txt", "d2.txt", "d3.txt"]
    return report
