"""The free resolution's ring arithmetic against the Word-keyed reference.

``FreeResolution`` numbers the normal forms it meets and multiplies along
its right Cayley graph.  ``RefResolution`` below is the arithmetic that
replaced: every product normalizes the whole concatenated word (through a
cache keyed by letters), and every ring or module element is a dict keyed
by ``Word``s.  Every public method, ``try_enumerate``, ``verify_identities``
and both matrix exports must agree with it on seeded elements; the exports
are compared with matrices built from the reference's own d1, d2 and d3.
The reference reads a Peiffer run of a filler as the nested one-step
exchanges it stands for (``test_expr_oracle.expand_run``), not as a node
of its own.
"""

import random
from functools import cache, cmp_to_key

import pytest

from conftest import (
    A4_TEXT,
    CONF0_TEXT,
    COXETER_A3_TEXT,
    COXETER_B3_TEXT,
    FAMILY_TEXT,
    MU_TEXT,
    SIGMA_TEXT,
    SQ_CERT_TEXT,
    SQ_TEXT,
    XYX_DONE_TEXT,
)
from polygraph import (
    FreeResolution,
    FuelExhausted,
    RewriteStep,
    ZigZag,
    fill_sphere,
    integer_matrices,
    knuth_bendix,
    metivier_squier_reduce,
    normalize,
    parse_certificate,
    parse_polygraph,
    sigma_path,
    squier_completion,
    symbolic_matrices,
    try_enumerate,
    verify_identities,
)
from polygraph.coherence import Comp1, Comp2, Exchange, Gen, Id2, Inv, Whisker
from polygraph.homology import _acc, _basis_labels, add_into, format_ring
from polygraph.presentation import identity_word
from polygraph.rewrite import deglex_compare
from test_export_oracle import reference_matrices
from test_expr_oracle import expand_run

# ---------------------------------------------------------------------------
# the reference: Word-keyed arithmetic, every product a whole-word normalize


class RefResolution:
    def __init__(self, coherent):
        self.coherent = coherent
        self._nf_cache = {}
        self._images = {}

    @property
    def presentation(self):
        return self.coherent.base

    @property
    def pump_bound(self):
        return self.coherent.pump_bound

    def nf(self, w):
        key = w.letters
        hit = self._nf_cache.get(key)
        if hit is None:
            hit, _ = normalize(self.presentation, w, "leftmost")
            self._nf_cache[key] = hit
        return hit

    def mult(self, u, v):
        return self.nf(u.concat(v))

    def _act(self, u, elt):
        out = {}
        for (w, basis), coef in elt.items():
            _acc(out, (self.nf(u.concat(w)), basis), coef)
        return out

    def epsilon(self, relt):
        return sum(relt.values())

    def i0(self, n):
        if n == 0:
            return {}
        return {identity_word(self.presentation.objects[0]): n}

    def d1(self, melt):
        out = {}
        for (u, gen), coef in melt.items():
            x = self.presentation.word_from_letters((gen,))
            _acc(out, self.nf(u.concat(x)), coef)
            _acc(out, u, -coef)
        return out

    def fox_bracket(self, w):
        out = {}
        for i, letter in enumerate(w.letters):
            _acc(out, (self.nf(w.slice(0, i)), letter), 1)
        return out

    def d2(self, melt):
        out = {}
        for (u, rule_name), coef in melt.items():
            add_into(out, self._act(u, self._image(2, rule_name)), coef)
        return out

    def bracket_2cell(self, path):
        out = {}
        for step in path.steps:
            _acc(out, (self.nf(step.left), step.rule.name), 1 if step.forward else -1)
        return out

    def d3(self, melt):
        out = {}
        for (u, cell_name), coef in melt.items():
            add_into(out, self._act(u, self._image(3, cell_name)), coef)
        return out

    def _image(self, degree, name):
        key = (degree, name)
        if key not in self._images:
            if degree == 2:
                rule = self.presentation.lookup_rule(name)
                image = self.fox_bracket(rule.lhs)
                add_into(image, self.fox_bracket(rule.rhs), -1)
            else:
                cell = self.coherent.cell_by_name[name]
                image = self.bracket_2cell(cell.source2)
                add_into(image, self.bracket_2cell(cell.target2), -1)
            self._images[key] = image
        return self._images[key]

    def bracket_3cell(self, expr):
        out = {}
        stack = [(expr, identity_word(self.presentation.objects[0]), 1)]
        while stack:
            node, left, sign = stack.pop()
            while isinstance(node, Comp1):
                node = node.expr
            if isinstance(node, Comp2):
                stack += ((node.second, left, sign), (node.first, left, sign))
            elif isinstance(node, Gen):
                _acc(out, (self.nf(left), node.cell.name), sign)
            elif isinstance(node, Inv):
                stack.append((node.expr, left, -sign))
            elif isinstance(node, Whisker):
                stack.append((node.expr, self.nf(left.concat(node.left)), sign))
            elif isinstance(node, Exchange) and node.rest:  # a run: its one-step exchanges
                stack.append((expand_run(node), left, sign))
            elif not isinstance(node, (Id2, Exchange)):
                raise TypeError(f"not a 3-cell expression: {node!r}")
        return out

    def i1(self, relt):
        out = {}
        for w, coef in relt.items():
            add_into(out, self.fox_bracket(w), coef)
        return out

    def i2(self, melt):
        out = {}
        for (u, gen), coef in melt.items():
            x = self.presentation.word_from_letters((gen,))
            add_into(out, self.bracket_2cell(sigma_path(self.coherent, u.concat(x))), coef)
        return out

    def i3(self, melt):
        out = {}
        for (u, rule_name), coef in melt.items():
            rule = self.presentation.lookup_rule(rule_name)
            step = RewriteStep(u.concat(rule.lhs), len(u), rule)
            f = ZigZag.of(step).then(sigma_path(self.coherent, step.target_word))
            g = sigma_path(self.coherent, step.source_word)
            add_into(out, self.bracket_3cell(fill_sphere(self.coherent, f, g)), coef)
        return out

    def contract(self, n, x):
        return (self.i0, self.i1, self.i2, self.i3)[n](x)


def _deglex(order):
    return cmp_to_key(lambda u, v: deglex_compare(order, u, v))


def ref_try_enumerate(res, bound):
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
    return sorted(seen.values(), key=_deglex(p.gen_order)), closed


def ref_symbolic_matrices(res):
    """The symbolic export built from the Word-keyed d1, d2 and d3 of each
    basis element at the identity, one block per differential."""
    p = res.presentation
    order = p.gen_order
    _, gens, rules, cells = _basis_labels(res)

    def collect(name, melt, labels, source):
        per = {label: {} for label in labels}
        for (w, basis), coef in melt.items():
            if basis not in per:
                raise FuelExhausted(
                    f"{name} of {source} needs {basis}, above the pump bound {res.pump_bound}")
            per[basis][w] = coef
        return [format_ring(per[label], order) for label in labels]

    one = identity_word(p.objects[0])
    d1 = [[format_ring(res.d1({(one, g): 1}), order) for g in gens]]
    d2_cols = [collect("d2", res.d2({(one, r): 1}), gens, r) for r in rules]
    d3_cols = [collect("d3", res.d3({(one, c): 1}), rules, c) for c in cells]

    def transpose(cols, rows):
        return [[col[i] for col in cols] for i in range(rows)]

    return {
        "d1": d1,
        "d2": transpose(d2_cols, len(gens)) if d2_cols else [[] for _ in gens],
        "d3": transpose(d3_cols, len(rules)) if d3_cols else [[] for _ in rules],
        "row_labels": {"d1": [""], "d2": gens, "d3": rules},
        "col_labels": {"d1": gens, "d2": rules, "d3": cells},
    }


def ref_sample_elements(res, samples, seed=0):
    elements, closed = ref_try_enumerate(res, samples)
    if closed:
        return elements
    p = res.presentation
    rng = random.Random(seed)
    gens = [g.name for g in p.generators]
    found = {w.letters: w for w in elements[: max(1, samples // 4)]}
    attempts = 0
    while len(found) < samples and attempts < samples * 200:
        attempts += 1
        letters = tuple(rng.choice(gens) for _ in range(rng.randint(1, 12)))
        v = res.nf(p.word_from_letters(letters))
        found.setdefault(v.letters, v)
    return sorted(found.values(), key=_deglex(p.gen_order))


def ref_verify_identities(res, samples=16, seed=0):
    """The report as computed before d2 of a basis element was shared
    between the d1.d2 and the i2.d2 checks."""
    p = res.presentation
    elements = ref_sample_elements(res, samples, seed)
    rules = p.all_rule_instances(res.pump_bound)
    failures = []
    report = {
        "samples": len(elements),
        "rules_checked": len(rules),
        "cells_checked": len(res.coherent.cells),
    }
    report["eps_i0"] = res.epsilon(res.i0(1)) == 1 and res.epsilon(res.i0(0)) == 0
    if not report["eps_i0"]:
        failures.append("eps_i0: augmentation does not split")
    ok = dict.fromkeys(("d1d2", "d2d3", "h1", "h2", "h3"), True)
    for u in elements:
        one = {u: 1}
        lhs = res.d1(res.i1(one))
        add_into(lhs, res.i0(res.epsilon(one)))
        if lhs != one:
            ok["h1"] = False
            failures.append(f"d1i1_i0eps fails at {u}")
        for g in p.generators:
            basis = {(u, g.name): 1}
            got = res.d2(res.i2(basis))
            add_into(got, res.i1(res.d1(basis)))
            if got != basis:
                ok["h2"] = False
                failures.append(f"d2i2_i1d1 fails at {u}[{g.name}]")
        for rule in rules:
            basis = {(u, rule.name): 1}
            if res.d1(res.d2(basis)):
                ok["d1d2"] = False
                failures.append(f"d1d2 nonzero at {u}[{rule.name}]")
            got = res.d3(res.i3(basis))
            add_into(got, res.i2(res.d2(basis)))
            if got != basis:
                ok["h3"] = False
                failures.append(f"d3i3_i2d2 fails at {u}[{rule.name}]")
        for cell in res.coherent.cells:
            if res.d2(res.d3({(u, cell.name): 1})):
                ok["d2d3"] = False
                failures.append(f"d2d3 nonzero at {u}[{cell.name}]")
    report.update(d1d2=ok["d1d2"], d2d3=ok["d2d3"], d1i1_i0eps=ok["h1"],
                  d2i2_i1d1=ok["h2"], d3i3_i2d2=ok["h3"])
    report["passed"] = not failures
    report["failures"] = failures
    return report


# ---------------------------------------------------------------------------
# the presentations


def _completed(text):
    return metivier_squier_reduce(knuth_bendix(parse_polygraph(text)).final).final


@cache
def coherent(name):
    if name == "sq":
        cert = parse_certificate(SQ_CERT_TEXT)
        return squier_completion(parse_polygraph(SQ_TEXT), 8, cert=cert, ack_sampled=True)
    texts = {"mu": MU_TEXT, "xyx_done": XYX_DONE_TEXT, "family": FAMILY_TEXT,
             "sigma": SIGMA_TEXT, "conf0": CONF0_TEXT}
    if name in texts:
        return squier_completion(parse_polygraph(texts[name]))
    done = {"a3": COXETER_A3_TEXT, "b3": COXETER_B3_TEXT, "a4": A4_TEXT}[name]
    return squier_completion(_completed(done))


NAMES = ("mu", "xyx_done", "family", "sq", "sigma", "conf0", "a3", "b3", "a4")


def random_word(rng, p, longest=10):
    return p.word_from_letters(
        rng.choice([g.name for g in p.generators]) for _ in range(rng.randint(0, longest))
    )


def random_coef(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def seeded_inputs(name, count=12):
    """Random words (not normalized), and ring and module elements of every
    degree keyed by the normal forms of such words; some module elements
    repeat a key's basis under two words with the same normal form."""
    cp = coherent(name)
    p = cp.base
    rng = random.Random(name)
    ref = RefResolution(cp)
    words = [random_word(rng, p) for _ in range(count)]
    gens = [g.name for g in p.generators]
    rules = [r.name for r in p.all_rule_instances(cp.pump_bound)]
    if name == "sq":  # keep the σ routes of the pumped instances short
        rules = [r for r in rules if not r.startswith("alpha[") or int(r[6:-1]) <= 3]
    cells = [c.name for c in cp.cells]

    def element(labels, size):
        out = {}
        for _ in range(size):
            key = (ref.nf(random_word(rng, p)), rng.choice(labels))
            out[key] = out.get(key, 0) + random_coef(rng)
        return {k: c for k, c in out.items() if c}

    rings = [{ref.nf(w): random_coef(rng) for w in words[k:k + 3]} for k in range(0, count, 3)]
    module = {
        deg: [element(labels, rng.randint(1, 4)) for _ in range(count // 2)]
        for deg, labels in ((1, gens), (2, rules), (3, cells))
    }
    return cp, words, rings, module


def paths(p, words):
    """Leftmost and rightmost normalization paths, their zigzag, and the
    zigzag against its own inverse (whose steps cancel)."""
    out = []
    for w in words:
        _, left = normalize(p, w, "leftmost")
        _, right = normalize(p, w, "rightmost")
        loop = left.then(right.inverse())
        out += [left, right, loop, loop.then(loop.inverse())]
    return out


# ---------------------------------------------------------------------------
# the comparisons


@pytest.mark.parametrize("name", NAMES)
def test_ring_arithmetic_matches_reference(name):
    cp, words, rings, module = seeded_inputs(name)
    p = cp.base
    res, ref = FreeResolution(cp), RefResolution(cp)
    for u in words:
        assert res.nf(u) == ref.nf(u)
        assert res.fox_bracket(u) == ref.fox_bracket(u)
        for v in words[:4]:
            assert res.mult(u, v) == ref.mult(u, v)
            assert res.mult(ref.nf(u), ref.nf(v)) == ref.mult(u, v)
    for relt in rings:
        assert res.epsilon(relt) == ref.epsilon(relt)
        assert res.i1(relt) == ref.i1(relt)
        assert res.contract(1, relt) == ref.contract(1, relt)
    for n in (0, 1, -2):
        assert res.i0(n) == ref.i0(n)
    for melt in module[1]:
        assert res.d1(melt) == ref.d1(melt)
        assert res.i2(melt) == ref.i2(melt)
    for melt in module[2]:
        assert res.d2(melt) == ref.d2(melt)
        for u in words[:3]:
            assert res._act(ref.nf(u), melt) == ref._act(ref.nf(u), melt)
    for melt in module[2][:3]:
        assert res.i3(melt) == ref.i3(melt)
    for melt in module[3]:
        assert res.d3(melt) == ref.d3(melt)
        assert res._act(words[0], melt) == ref._act(words[0], melt)
    for path in paths(p, words[:4]):
        assert res.bracket_2cell(path) == ref.bracket_2cell(path)
    for w in words[:3]:
        _, left = normalize(p, w, "leftmost")
        _, right = normalize(p, w, "rightmost")
        expr = fill_sphere(cp, left, right)
        assert res.bracket_3cell(expr) == ref.bracket_3cell(expr)


@pytest.mark.parametrize("name", NAMES)
def test_enumeration_and_exports_match_reference(name):
    cp = coherent(name)
    res, ref = FreeResolution(cp), RefResolution(cp)
    for bound in (1, 2, 5, 24, 200):
        assert try_enumerate(res, bound) == ref_try_enumerate(ref, bound)
    if name == "sq":
        return  # its 3-cells reach alpha[9], outside the degree-2 basis at pump bound 8
    assert symbolic_matrices(res) == ref_symbolic_matrices(ref)
    elements, closed = ref_try_enumerate(ref, 60)
    if closed:
        assert integer_matrices(res, elements) == reference_matrices(ref, elements)


def outcome(check, res, samples):
    """The report, or the type and text of the error that stopped it."""
    try:
        return check(res, samples=samples)
    except FuelExhausted as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, samples", [
    *((n, 16) for n in NAMES),
    ("b3", 64),
    ("a4", 64),
])
def test_verify_identities_matches_reference(name, samples):
    """Over SQ at pump bound 8 some sphere needs alpha[9]: both stop there."""
    cp = coherent(name)
    got = outcome(verify_identities, FreeResolution(cp), samples)
    assert got == outcome(ref_verify_identities, RefResolution(cp), samples)
    assert got["passed"] if name != "sq" else got[0] is FuelExhausted
