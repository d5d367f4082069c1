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
    PresentationError,
    RewriteStep,
    Word,
    ZigZag,
    identity_word,
)
from .rewrite import deglex_compare, normalize
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
    coherent presentation's.  Each ``nf`` cache miss, σ path and ``i3``
    filling is a top-level call with a fresh budget of DEFAULT_FUEL.
    """

    coherent: CoherentPresentation
    _nf_cache: dict = field(default_factory=dict, repr=False)

    @property
    def presentation(self):
        return self.coherent.base

    @property
    def pump_bound(self):
        return self.coherent.pump_bound

    # -- normal forms ------------------------------------------------------

    def nf(self, w):
        key = w.letters
        hit = self._nf_cache.get(key)
        if hit is None:
            hit, _ = normalize(self.presentation, w, "leftmost")
            self._nf_cache[key] = hit
        return hit

    def mult(self, u, v):
        """Product in the monoid: normal form of the concatenation."""
        return self.nf(u.concat(v))

    def _sigma(self, w):
        return sigma_path(self.coherent, w)

    def _act(self, u, elt):
        """Left action of the monoid element (normal form word) u on a module
        element: multiply every coefficient word and renormalize."""
        out = {}
        for (w, basis), coef in elt.items():
            _acc(out, (self.nf(u.concat(w)), basis), coef)
        return out

    # -- augmentation and differentials --------------------------------------

    def epsilon(self, relt):
        """Augmentation ZM -> Z: total coefficient sum."""
        return sum(relt.values())

    def i0(self, n):
        """Z -> ZM, the unit section of the augmentation."""
        if n == 0:
            return {}
        return {identity_word(self.presentation.objects[0]): n}

    def d1(self, melt):
        """ZM[generators] -> ZM:  u[x] |-> u*x - u."""
        out = {}
        for (u, gen), coef in melt.items():
            x = self.presentation.word_from_letters((gen,))
            _acc(out, self.nf(u.concat(x)), coef)
            _acc(out, u, -coef)
        return out

    def fox_bracket(self, w):
        """Fox-type derivative of a word: [1] = 0, [uv] = [u] + u~[v].

        Expanding letter by letter: the letter at position i contributes the
        normal form of the prefix before it as coefficient.
        """
        out = {}
        for i, letter in enumerate(w.letters):
            prefix = w.slice(0, i)
            _acc(out, (self.nf(prefix), letter), 1)
        return out

    def d2(self, melt):
        """ZM[rules] -> ZM[generators]:  u[alpha] |-> u*(fox lhs - fox rhs)."""
        out = {}
        for (u, rule_name), coef in melt.items():
            rule = self.presentation.lookup_rule(rule_name)
            delta = self.fox_bracket(rule.lhs)
            add_into(delta, self.fox_bracket(rule.rhs), -1)
            add_into(out, self._act(u, delta), coef)
        return out

    def bracket_2cell(self, path):
        """Rule content of a rewriting path: each step contributes the normal
        form of its left context on its rule, signed by direction."""
        out = {}
        for step in path.steps:
            sign = 1 if step.forward else -1
            _acc(out, (self.nf(step.left), step.rule.name), sign)
        return out

    def d3(self, melt):
        """ZM[cells] -> ZM[rules]: u[gamma] |-> u*(bracket2(src) - bracket2(tgt))."""
        out = {}
        for (u, cell_name), coef in melt.items():
            cell = self.coherent.cell_by_name[cell_name]
            delta = self.bracket_2cell(cell.source2)
            add_into(delta, self.bracket_2cell(cell.target2), -1)
            add_into(out, self._act(u, delta), coef)
        return out

    def bracket_3cell(self, expr):
        """Cell content of a 3-cell expression.

        Generators count once with the normal form of the accumulated left
        whiskering as coefficient; inverses negate; horizontal and vertical
        composition are additive; identities and exchange cells are invisible
        (exchange permutes disjoint steps, no cell is consumed).
        """
        out = {}
        self._bracket3_into(expr, identity_word(self.presentation.objects[0]), 1, out)
        return out

    def _bracket3_into(self, expr, left, sign, out):
        if isinstance(expr, Gen):
            _acc(out, (self.nf(left), expr.cell.name), sign)
        elif isinstance(expr, Inv):
            self._bracket3_into(expr.expr, left, -sign, out)
        elif isinstance(expr, Whisker):
            self._bracket3_into(expr.expr, self.nf(left.concat(expr.left)), sign, out)
        elif isinstance(expr, Comp1):
            self._bracket3_into(expr.expr, left, sign, out)
        elif isinstance(expr, Comp2):
            self._bracket3_into(expr.first, left, sign, out)
            self._bracket3_into(expr.second, left, sign, out)
        elif isinstance(expr, (Id2, Exchange)):
            pass
        else:
            raise TypeError(f"not a 3-cell expression: {expr!r}")

    # -- contracting homotopy -------------------------------------------------

    def i1(self, relt):
        """ZM -> ZM[generators]: a normal form goes to its Fox derivative."""
        out = {}
        for w, coef in relt.items():
            add_into(out, self.fox_bracket(w), coef)
        return out

    def i2(self, melt):
        """ZM[generators] -> ZM[rules]: u[x] |-> rule content of the leftmost
        normalization path of u*x."""
        out = {}
        for (u, gen), coef in melt.items():
            x = self.presentation.word_from_letters((gen,))
            path = self._sigma(u.concat(x))
            add_into(out, self.bracket_2cell(path), coef)
        return out

    def i3(self, melt):
        """ZM[rules] -> ZM[cells]: u[alpha] fills the sphere between the
        whiskered rule step followed by normalization and the direct
        normalization of u*lhs, and takes its cell content."""
        out = {}
        for (u, rule_name), coef in melt.items():
            rule = self.presentation.lookup_rule(rule_name)
            step = RewriteStep(u, rule, identity_word(rule.lhs.target), True)
            f = ZigZag.of(step).then(self._sigma(step.target_word))
            g = self._sigma(step.source_word)
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
            if res.d1(res.d2(basis)):
                ok_d1d2 = False
                failures.append(f"d1d2 nonzero at {u}[{rule.name}]")
            got = res.d3(res.i3(basis))
            add_into(got, res.i2(res.d2(basis)))
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
    start = identity_word(p.objects[0])
    seen = {start.letters: start}
    queue = [start]
    closed = True
    while queue and closed:
        frontier = []
        for u in queue:
            for g in p.generators:
                v = res.nf(u.concat(p.word_from_letters((g.name,))))
                if v.letters in seen:
                    continue
                if len(seen) >= bound:
                    closed = False
                    break
                seen[v.letters] = v
                frontier.append(v)
            if not closed:
                break
        queue = frontier
    return sorted(seen.values(), key=_word_sort_key(p.gen_order)), closed


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


def integer_matrices(res, elements):
    """The three differentials as integer matrices over the Z-basis.

    The Z-basis of ZM[B] is ordered basis-major: all monoid elements (deglex)
    under the first basis name, then the next.  Rows index the target, columns
    the source; column j holds the differential of the j-th source basis
    vector.
    """
    p = res.presentation
    idx = {w.letters: i for i, w in enumerate(elements)}
    n = len(elements)
    deg0, deg1, deg2, deg3 = _basis_labels(p, res)

    def ring_column(relt, rows):
        col = [0] * rows
        for w, coef in relt.items():
            col[idx[w.letters]] = coef
        return col

    def module_column(melt, labels, rows):
        col = [0] * rows
        pos = {label: k for k, label in enumerate(labels)}
        for (w, basis), coef in melt.items():
            col[pos[basis] * n + idx[w.letters]] = coef
        return col

    def assemble(columns, rows):
        return [[col[i] for col in columns] for i in range(rows)]

    d1_cols = [
        ring_column(res.d1({(u, g): 1}), n) for g in deg1 for u in elements
    ]
    d2_cols = [
        module_column(res.d2({(u, r): 1}), deg1, len(deg1) * n)
        for r in deg2
        for u in elements
    ]
    d3_cols = [
        module_column(res.d3({(u, c): 1}), deg2, len(deg2) * n)
        for c in deg3
        for u in elements
    ]
    return {
        "d1": assemble(d1_cols, n),
        "d2": assemble(d2_cols, len(deg1) * n),
        "d3": assemble(d3_cols, len(deg2) * n),
    }


def symbolic_matrices(res):
    """The three differentials as matrices over the monoid ring, one ring
    element string per (target basis, source basis) entry."""
    p = res.presentation
    order = p.gen_order
    _, gens, rules, cells = _basis_labels(p, res)

    def collect(melt, labels):
        per = {label: {} for label in labels}
        for (w, basis), coef in melt.items():
            per[basis][w] = coef
        return [format_ring(per[label], order) for label in labels]

    d1 = [[] for _ in range(1)]
    for g in gens:
        relt = res.d1({(identity_word(p.objects[0]), g): 1})
        d1[0].append(format_ring(relt, order))
    d2_cols = [collect(res.d2({(identity_word(p.objects[0]), r): 1}), gens) for r in rules]
    d3_cols = [collect(res.d3({(identity_word(p.objects[0]), c): 1}), rules) for c in cells]

    def transpose(cols, rows):
        return [[col[i] for col in cols] for i in range(rows)]

    return {
        "d1": d1,
        "d2": transpose(d2_cols, len(gens)) if d2_cols else [[] for _ in gens],
        "d3": transpose(d3_cols, len(rules)) if d3_cols else [[] for _ in rules],
        "row_labels": {"d1": [""], "d2": gens, "d3": rules},
        "col_labels": {"d1": gens, "d2": rules, "d3": cells},
    }


def _write_int_matrix(path, name, matrix, row_desc, col_desc):
    lines = [
        f"# {name} (integer matrix over the Z-basis; rows = target, cols = source)",
        f"# rows: {row_desc}",
        f"# cols: {col_desc}",
    ]
    for row in matrix:
        lines.append(" ".join(str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_sym_matrix(path, name, matrix, row_labels, col_labels):
    lines = [
        f"# {name} (entries in the monoid ring)",
        f"# rows: {' | '.join(lab or '[]' for lab in row_labels)}",
        f"# cols: {' | '.join(col_labels)}",
    ]
    for row in matrix:
        lines.append(" ; ".join(row) if row else "")
    path.write_text("\n".join(lines) + "\n")


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
        "\n".join(str(w) for w in elements) + "\n"
    )
    mats = integer_matrices(res, elements)
    elt_desc = ", ".join(str(w) for w in elements)

    def basis_desc(labels):
        if labels == [""]:
            return elt_desc
        return ", ".join(f"{w}[{lab}]" for lab in labels for w in elements)

    _write_int_matrix(out / "d1.txt", "d1", mats["d1"], basis_desc([""]), basis_desc(gens))
    _write_int_matrix(out / "d2.txt", "d2", mats["d2"], basis_desc(gens), basis_desc(rules))
    _write_int_matrix(out / "d3.txt", "d3", mats["d3"], basis_desc(rules), basis_desc(cells))
    report["integer"] = ["elements.txt", "d1.txt", "d2.txt", "d3.txt"]
    return report
