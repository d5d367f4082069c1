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

from .presentation import (
    FuelExhausted,
    PresentationError,
    RewriteStep,
    Word,
    identity_word,
)
from .rewrite import _deglex_key, normal_form
from .coherence import (
    Comp2,
    CoherentPresentation,
    Gen,
    Inv,
    Whisker,
    _fold,
    fill_step,
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


def _order(p):
    """p's generator order; the order of declaration when it declares none."""
    return p.gen_order or tuple(g.name for g in p.generators)


def format_ring(relt, order):
    """Render a ring element as 'c*w + c*w', deglex-sorted; '0' when empty."""
    if not relt:
        return "0"
    words = sorted(relt, key=_deglex_key(order))
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
    Normal forms keyed by their text, which names no object for the
    identity, need one object, so a presentation with several is refused.

    ``d1``, ``d2`` and ``d3`` compute the image of each basis element at the
    identity once (``_image``) and act on it by the coefficient word:
    d(u[b]) = u·d([b]).
    """

    coherent: CoherentPresentation
    _words: list = field(default_factory=list, repr=False)
    _numbers: dict = field(default_factory=dict, repr=False)  # text -> number
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
        i = self._numbers.get(v.text)
        if i is None:
            i = self._numbers[v.text] = len(self._words)
            self._words.append(v)
            self._right.append({})
            self._products.append({})
        return i

    def _walk(self, i, text):
        """The number of the product of the i-th normal form and a word's text."""
        right = self._right
        for x in text:
            j = right[i].get(x)
            if j is None:
                w = self._words[i]
                v = normal_form(self.presentation, Word._of(w.text + x, w.source), "leftmost")
                j = right[i][x] = self._register(v)
            i = j
        return i

    def _number(self, w):
        """The number of the normal form of w; a known normal form is looked
        up, any other word walked from the identity."""
        i = self._numbers.get(w.text)
        return self._walk(0, w.text) if i is None else i

    def _mult(self, i, j):
        """The number of the product of the i-th and j-th normal forms."""
        k = self._products[i].get(j)
        if k is None:
            k = self._products[i][j] = self._walk(i, self._words[j].text)
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
        return {w: coef for (w, _), coef in self._differential(1, melt).items()}

    def _fox_into(self, out, w, scale):
        """Add scale times the Fox bracket of a word to out: the letter at
        position i counts with the normal form of the prefix before it."""
        i = 0
        for x, name in zip(w.text, w.letters):
            _acc(out, (i, name), scale)
            i = self._walk(i, x)

    def fox_bracket(self, w):
        """Fox-type derivative of a word: [1] = 0, [uv] = [u] + u~[v]."""
        out = {}
        self._fox_into(out, w, 1)
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
        """d1, d2 or d3 of the basis element [name] at the identity, keyed
        by numbers and computed on first use: x - 1 (on the basis element ""
        of ZM) for a generator x, the Fox difference of the two sides for a
        rule, the rule content of the two boundary paths for a 3-cell.
        Keyed by degree too: a rule and a 3-cell may share a name."""
        key = (degree, name)
        image = self._images.get(key)
        if image is None:
            image = {}
            if degree == 1:
                x = self.presentation.word_from_letters((name,))
                _acc(image, (self._walk(0, x.text), ""), 1)
                _acc(image, (0, ""), -1)
            elif degree == 2:
                rule = self.presentation.lookup_rule(name)
                self._fox_into(image, rule.lhs, 1)
                self._fox_into(image, rule.rhs, -1)
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
        composition are additive; identities and exchanges, Peiffer runs
        included, are invisible (they permute disjoint steps, no cell is
        consumed).  A fold over the distinct nodes (``coherence._fold``):
        a node shared in a DAG is read once and counts once per path to it.
        """
        return self._worded(_fold(expr, self._node_content))

    def _node_content(self, node, inner=None, second=None):
        """One node's content, keyed by numbers, from its children's (unchanged)."""
        if isinstance(node, Gen):
            return {(0, node.cell.name): 1}
        if isinstance(node, Inv):
            return {key: -coef for key, coef in inner.items()}
        if isinstance(node, Whisker):
            out = {}
            self._act_into(out, self._walk(0, node.left.text), inner, 1)
            return out
        if isinstance(node, Comp2):
            return add_into(dict(inner), second) if inner and second else inner or second
        return {} if inner is None else inner  # Comp1 is its expression's; Id2 and Exchange none

    # -- contracting homotopy -------------------------------------------------

    def i1(self, relt):
        """ZM -> ZM[generators]: a normal form goes to its Fox derivative."""
        out = {}
        for w, coef in relt.items():
            self._fox_into(out, w, coef)
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
        """ZM[rules] -> ZM[cells]: u[alpha] goes to the cell content of
        S(u·alpha), the filler of the sphere between the whiskered rule step
        followed by normalization and the direct normalization of u*lhs."""
        out = {}
        for (u, rule_name), coef in melt.items():
            rule = self.presentation.lookup_rule(rule_name)
            step = RewriteStep(u.concat(rule.lhs), len(u), rule)
            add_into(out, self.bracket_3cell(fill_step(self.coherent, step)), coef)
        return out


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
    found = {w.text: w for w in elements[: max(1, samples // 4)]}
    attempts = 0
    while len(found) < samples and attempts < samples * 200:
        attempts += 1
        length = rng.randint(1, 12)
        letters = tuple(rng.choice(gens) for _ in range(length))
        v = res.nf(p.word_from_letters(letters))
        found.setdefault(v.text, v)
    return sorted(found.values(), key=_deglex_key(_order(p)))


# the identity families verify_identities checks, in the order they are reported
IDENTITIES = ("eps_i0", "d1d2", "d2d3", "d1i1_i0eps", "d2i2_i1d1", "d3i3_i2d2")


def verify_identities(res, samples=16, seed=0):
    """Check the chain and homotopy identities on sampled basis elements.

    The sample always contains the identity and short normal forms, topped up
    with seeded random ones; every identity is tested exactly, over the
    integers.  Returns a report dict with one boolean per identity family
    (``IDENTITIES``) plus the failures, if any.
    """
    elements = sample_elements(res, samples, seed)
    _, gens, rules, cells = _basis_labels(res)
    failures = []
    report = {
        "samples": len(elements),
        "rules_checked": len(rules),
        "cells_checked": len(cells),
    }

    ok = dict.fromkeys(IDENTITIES, True)
    # eps . i0 = id on Z
    ok["eps_i0"] = res.epsilon(res.i0(1)) == 1 and res.epsilon(res.i0(0)) == 0
    if not ok["eps_i0"]:
        failures.append("eps_i0: augmentation does not split")

    for u in elements:
        # d1 i1 + i0 eps = id on ZM
        one = {u: 1}
        lhs = res.d1(res.i1(one))
        add_into(lhs, res.i0(res.epsilon(one)))
        if lhs != one:
            ok["d1i1_i0eps"] = False
            failures.append(f"d1i1_i0eps fails at {u}")
        for g in gens:
            basis = {(u, g): 1}
            got = res.d2(res.i2(basis))
            add_into(got, res.i1(res.d1(basis)))
            if got != basis:
                ok["d2i2_i1d1"] = False
                failures.append(f"d2i2_i1d1 fails at {u}[{g}]")
        for rule in rules:
            basis = {(u, rule): 1}
            boundary = res.d2(basis)
            if res.d1(boundary):
                ok["d1d2"] = False
                failures.append(f"d1d2 nonzero at {u}[{rule}]")
            got = res.d3(res.i3(basis))
            add_into(got, res.i2(boundary))
            if got != basis:
                ok["d3i3_i2d2"] = False
                failures.append(f"d3i3_i2d2 fails at {u}[{rule}]")
        for cell in cells:
            if res.d2(res.d3({(u, cell): 1})):
                ok["d2d3"] = False
                failures.append(f"d2d3 nonzero at {u}[{cell}]")

    report.update(ok)
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
    gens = [p.word_from_letters((g.name,)).text for g in p.generators]
    seen = {0: None}  # numbered normal forms, in the order found
    queue = [0]
    closed = True
    while queue and closed:
        frontier = []
        for i in queue:
            for x in gens:
                j = res._walk(i, x)
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
    return sorted(elements, key=_deglex_key(_order(p))), closed


def _basis_labels(res):
    """The names of the module bases of degrees 0..3 in declaration order:
    "" for ZM itself, the generators, the rule instances up to the pump
    bound, the 3-cells.  The differential of degree k maps basis k to
    basis k-1."""
    p = res.presentation
    return ([""], [g.name for g in p.generators],
            [r.name for r in p.all_rule_instances(res.pump_bound)],
            [c.name for c in res.coherent.cells])


def _sparse_differentials(res, elements):
    """The three differentials over the Z-basis, one at a time, as (name,
    row count, columns): column j maps the row index of each nonzero
    coefficient of the j-th source basis vector's image to it.  The Z-basis
    of ZM[B] is basis-major: the elements, in the order given, under the
    first basis name, then under the next.  The column of u[b] is the image
    of [b] (``_image``) acted on by the number of u, its entries placed by
    element number; no Word is built."""
    n = len(elements)
    row_of = {res._number(w): k for k, w in enumerate(elements)}  # number -> row
    bases = _basis_labels(res)
    for degree in (1, 2, 3):
        targets, sources = bases[degree - 1], bases[degree]
        offset = {label: k * n for k, label in enumerate(targets)}
        columns = []
        for s in sources:
            image = res._image(degree, s)
            for u in row_of:
                col = {}
                res._act_into(col, u, image, 1)
                columns.append({offset[b] + row_of[i]: coef for (i, b), coef in col.items()})
        yield f"d{degree}", len(targets) * n, columns


def symbolic_matrices(res):
    """The three differentials as matrices over the monoid ring, one ring
    element string per (target basis, source basis) entry: the column of a
    source basis element is its image at the identity (``_image``), split
    by target basis element.

    On a pumped family the rows of d3 are the rule instances up to the pump
    bound; an image that needs an instance above it is a bound hit
    (FuelExhausted), as in ``coherence.fill_local_branching``."""
    order = _order(res.presentation)
    bases = _basis_labels(res)
    mats = {}
    for degree in (1, 2, 3):
        name, targets, sources = f"d{degree}", bases[degree - 1], bases[degree]
        columns = []
        for source in sources:
            per = {label: {} for label in targets}
            for (i, basis), coef in res._image(degree, source).items():
                if basis not in per:  # a cell at the pump bound resolves through the next instance
                    raise FuelExhausted(
                        f"{name} of {source} needs {basis}, above the pump bound {res.pump_bound}")
                per[basis][res._words[i]] = coef
            columns.append([format_ring(per[label], order) for label in targets])
        mats[name] = [[col[k] for col in columns] for k in range(len(targets))]
    names = ("d1", "d2", "d3")
    return {**mats, "row_labels": dict(zip(names, bases)),
            "col_labels": dict(zip(names, bases[1:]))}


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
    bases = _basis_labels(res)

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
    elements, closed = try_enumerate(res, bound)
    if not closed:
        report["finite"] = False
        report["error"] = (f"monoid has more than {bound} elements; "
                           "raise the bound or export symbolically")
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

    for degree, (name, rows, columns) in enumerate(_sparse_differentials(res, elements), 1):
        targets, sources = bases[degree - 1], bases[degree]
        _write_int_matrix(
            out / f"{name}.txt", name, rows, columns, basis_desc(targets), basis_desc(sources)
        )
    report["integer"] = ["elements.txt", "d1.txt", "d2.txt", "d3.txt"]
    return report
