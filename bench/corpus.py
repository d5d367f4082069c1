"""Inputs and oracles of the benchmark, in plain Python.

Nothing here imports ``polygraph``: the presentations are text, words are
tuples of generator names, and every oracle (reference normal forms,
invariants, permutation images, sparse matrix products) is computed by code
that does not depend on the library under test.
"""

from __future__ import annotations

import itertools
import math
import re

# ---------------------------------------------------------------------------
# presentation texts

B3_TEXT = """\
monoid
generators: s t a
order: a < s < t
rules:
alpha: t a => a s
beta: s t => a
gamma: s a s => a a
delta: s a a => a a t
"""

XYX_TEXT = """\
monoid
generators: x y
order: x < y
rules:
alpha: x y x => y y
"""

# Squier's pumped presentation: the family a t^n b => 1 plus four fixed rules
SQ_TEXT = """\
monoid
generators: a b t x y
order: a < b < t < x < y
rules:
beta: x a => a t x
gamma: x t => t x
delta: x b => b x
eps: x y => 1
pumped:
alpha[n]: a ( t )^n b => ( t )^( 0 )
"""

SQ_CERT_TEXT = """\
a: star n ; der 3^n
b: star n ; der 2^n
t: star n ; der 2^n
x: star n + 1 ; der 0
y: star n ; der 2^n
"""

# Knuth-Bendix on this adds a c^n b => a c^n for every n: it never completes
LP_TEXT = """\
monoid
generators: a b c d d'
order: a < b < c < d < d'
rules:
alpha0: a b => a
beta: d a => a c
gamma: d' a => a c
"""

# rules of the texts above as letter tuples, for the reference rewriter
B3_RULES = (
    (("t", "a"), ("a", "s")),
    (("s", "t"), ("a",)),
    (("s", "a", "s"), ("a", "a")),
    (("s", "a", "a"), ("a", "a", "t")),
)
SQ_RULES = (
    (("x", "a"), ("a", "t", "x")),
    (("x", "t"), ("t", "x")),
    (("x", "b"), ("b", "x")),
    (("x", "y"), ()),
)


# ---------------------------------------------------------------------------
# Coxeter presentations

# Coxeter matrices as {(i, j): m_ij} for i < j on generators 0..rank-1;
# missing pairs commute (m = 2).
COXETER = {
    "A3": (3, {(0, 1): 3, (1, 2): 3}),
    "B3": (3, {(0, 1): 4, (1, 2): 3}),
    "A4": (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}),
    "H3": (3, {(0, 1): 5, (1, 2): 3}),
    "B4": (4, {(0, 1): 4, (1, 2): 3, (2, 3): 3}),
}
GROUP_ORDER = {"A3": 24, "B3": 48, "A4": 120, "H3": 120, "B4": 384}


def _alternating(a, b, m):
    return tuple(a if k % 2 == 0 else b for k in range(m))


def coxeter_relations(name):
    """(lhs, rhs) letter pairs: s s => 1 and the braid relations, each
    oriented so that the lhs is deglex-greater (s1 < s2 < ...)."""
    rank, special = COXETER[name]
    gens = [f"s{i + 1}" for i in range(rank)]
    rels = [((g, g), ()) for g in gens]
    for i, j in itertools.combinations(range(rank), 2):
        m = special.get((i, j), 2)
        rels.append((_alternating(gens[j], gens[i], m), _alternating(gens[i], gens[j], m)))
    return gens, rels


def coxeter_text(name):
    gens, rels = coxeter_relations(name)
    lines = ["monoid", "generators: " + " ".join(gens), "order: " + " < ".join(gens), "rules:"]
    for k, (lhs, rhs) in enumerate(rels):
        lines.append(f"r{k}: {' '.join(lhs)} => {' '.join(rhs) or '1'}")
    return "\n".join(lines) + "\n"


def type_a_permutation(word, rank):
    """The permutation of 0..rank that the word acts by, s_i swapping i-1, i."""
    perm = list(range(rank + 1))
    for letter in word:
        i = int(letter[1:])
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def inversions(perm):
    return sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])


# ---------------------------------------------------------------------------
# multiplication tables


def symmetric_group_table(n):
    """The multiplication table of S_n in the text format of
    ``parse_multiplication_table``; elements p0..p(n!-1), p0 the unit."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    names = [f"p{k}" for k in range(len(perms))]
    entries = []
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n))
            entries.append(f"{names[index[p]]}*{names[index[q]]}={names[index[pq]]}")
    return (
        "elements: " + " ".join(names) + "\nunit: p0\ntable:\n"
        + "\n".join(" ; ".join(entries[k : k + 8]) for k in range(0, len(entries), 8))
        + "\n"
    )


# ---------------------------------------------------------------------------
# reference rewriting and invariants


def reference_normal_form(rules, word, pumped_ab=False, rightmost=False):
    """Rewrite to a normal form on letter tuples; (normal form, steps,
    letters scanned), the last being the sum of the word lengths met.

    ``pumped_ab`` adds Squier's family a t^n b => 1.  Each step takes the
    redex of least start (leftmost) or of greatest end, then greatest start
    (rightmost).  For a convergent system the normal form does not depend on
    the strategy, so this is an oracle for any strategy of the library; the
    step and scan counts measure how much work a word asks for.
    """
    letters = {x for lhs, rhs in rules for x in lhs + rhs} | set(word)
    if pumped_ab:
        letters |= {"a", "b", "t"}
    code = {x: chr(0x100 + k) for k, x in enumerate(sorted(letters))}
    back = {c: x for x, c in code.items()}
    enc = [("".join(code[x] for x in lhs), "".join(code[x] for x in rhs)) for lhs, rhs in rules]
    family = re.compile(code["a"] + code["t"] + "*" + code["b"]) if pumped_ab else None
    w = "".join(code[x] for x in word)
    steps = scanned = 0
    while True:
        best = None  # (sort key, start, length, rhs)
        for lhs, rhs in enc:
            i = w.rfind(lhs) if rightmost else w.find(lhs)
            if i >= 0:
                key = (-(i + len(lhs)), -i) if rightmost else (i,)
                if best is None or key < best[0]:
                    best = (key, i, len(lhs), rhs)
        if family is not None:
            matches = list(family.finditer(w)) if rightmost else [family.search(w)]
            m = matches[-1] if matches else None
            if m:
                key = (-m.end(), -m.start()) if rightmost else (m.start(),)
                if best is None or key < best[0]:
                    best = (key, m.start(), m.end() - m.start(), "")
        if best is None:
            return tuple(back[c] for c in w), steps, scanned
        _, i, n, rhs = best
        w = w[:i] + rhs + w[i + n :]
        steps += 1
        scanned += len(w)


def b3_degree(word):
    """Degree on B3+ with a of weight 2: every rule preserves it."""
    return sum(2 if x == "a" else 1 for x in word)


def sq_invariant(word):
    """(#x - #y, #a - #b): every rule of Squier's example preserves both."""
    return (word.count("x") - word.count("y"), word.count("a") - word.count("b"))


# ---------------------------------------------------------------------------
# seeded words and equal / unequal pairs


def truncated_geometric(count, lo, hi, mean_excess):
    """A fixed multiset of ``count`` lengths in [lo, hi]: the quantiles at
    (k + 1/2)/count of lo + Exp(mean_excess) conditioned on staying below
    hi.  Every seed gets the same length mix, so the seed changes which
    words are drawn, not how long they are; most are short, a few long."""
    mass = 1.0 - math.exp(-(hi - lo) / mean_excess)
    return [lo + int(-mean_excess * math.log(1.0 - (k + 0.5) / count * mass))
            for k in range(count)]


def random_word(rng, gens, length):
    return tuple(rng.choice(gens) for _ in range(length))


# Median costs of uniform random words as c * length**e, fitted on 100-300
# reference normalizations per length over lengths 8-256 (16-128 for "sq").
# The cost of a strategy is the number of letters scanned (the library
# rescans the whole word at every step); "sphere" is the product of the
# leftmost and rightmost step counts, which tracks the cost of filling the
# sphere between the two paths (log-log correlation 0.90-0.96 on B3+ and A4).
TYPICAL_COST = {
    ("b3", "leftmost"): (0.059, 2.8915),
    ("b3", "rightmost"): (0.0818, 3.0297),
    ("b3", "sphere"): (0.0072, 3.8647),
    ("a4", "leftmost"): (0.4039, 2.1138),
    ("a4", "rightmost"): (0.3712, 2.1583),
    ("a4", "sphere"): (0.0598, 2.9181),
    ("sq", "leftmost"): (0.0681, 2.7205),
}


def typical(rng, draw, cost, model, length, tries=8, tolerance=0.15):
    """A seeded draw whose cost is typical for its length.

    Calls ``draw(rng)`` up to ``tries`` times and keeps the first candidate
    whose ``cost`` lies within ``tolerance`` of the median cost of random
    words of that length (TYPICAL_COST[model]), else the closest one.  Cost
    grows with length as the length mix prescribes, but one pathological
    word cannot decide a run: without this, a single Squier word of length
    127 took 0.6 s under one seed and 15 s under another.
    """
    c, e = TYPICAL_COST[model]
    target = max(1.0, c * length ** e)
    best = None
    for _ in range(tries):
        candidate = draw(rng)
        miss = abs(math.log(max(1, cost(candidate)) / target))
        if best is None or miss < best[0]:
            best = (miss, candidate)
        if miss <= math.log1p(tolerance):
            break
    return best[1]


def apply_backward(rng, word, rules, moves, pumped_ab=False):
    """Apply ``moves`` seeded backward rule applications (rhs -> lhs).

    The result is equal to ``word`` in the presented monoid by construction.
    An empty rhs may be expanded anywhere; with ``pumped_ab`` the family
    a t^n b => 1 is expanded for n <= 3.  A move is skipped when no rhs
    occurs in the word (a B3+ word without ``a``): the pair stays equal.
    """
    word = tuple(word)
    for _ in range(moves):
        options = []
        for lhs, rhs in rules:
            k = len(rhs)
            if k == 0:
                options.append((lhs, rhs))
                continue
            if any(word[i : i + k] == rhs for i in range(len(word) - k + 1)):
                options.append((lhs, rhs))
        if pumped_ab:
            options.append((None, ()))
        if not options:
            continue
        lhs, rhs = options[rng.randrange(len(options))]
        if lhs is None:
            lhs = ("a",) + ("t",) * rng.randint(0, 3) + ("b",)
        k = len(rhs)
        spots = [i for i in range(len(word) - k + 1) if word[i : i + k] == rhs]
        i = spots[rng.randrange(len(spots))]
        word = word[:i] + lhs + word[i + k :]
    return word


# ---------------------------------------------------------------------------
# sparse integer matrices read back from exported files


def read_int_matrix(path):
    """Sparse rows {row: {col: value}} and the column count of an integer
    matrix file written by ``write_matrices`` ('#' header lines)."""
    rows = {}
    ncols = 0
    r = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            values = line.split()
            ncols = len(values)
            nz = {c: int(v) for c, v in enumerate(values) if v != "0"}
            if nz:
                rows[r] = nz
            r += 1
    return rows, r, ncols


def sparse_product_is_zero(a, b):
    """Is the product of sparse row matrices a (rows x k) and b (k x cols)
    zero?"""
    for row in a.values():
        acc = {}
        for k, v in row.items():
            for c, w in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + v * w
        if any(acc.values()):
            return False
    return True
