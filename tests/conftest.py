"""Shared fixtures: the worked example presentations and the recursive
rewriting paths used by the pumped-family tests.

The path helpers (gamma_path/f_path/g_path/pi_alpha) build, over the
five-generator presentation with the pumped rule family alpha[n], the
composite paths that witness how each alpha[n+1] follows from alpha[n] and
the four fixed rules — the data behind the homotopy-basis transfer tests.
"""

import itertools

import pytest

from polygraph import (
    RewriteStep,
    ZigZag,
    knuth_bendix,
    metivier_squier_reduce,
    parse_certificate,
    parse_polygraph,
)

# --------------------------------------------------------------------------
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

XYX_DONE_TEXT = """\
monoid
generators: x y
order: x < y
rules:
alpha: x y x => y y
kb1: y y y x => x y y y
"""

MU_TEXT = """\
monoid
generators: a
order: a
rules:
mu: a a => a
"""

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

# the same monoid from its finite (non-convergent) presentation: only the
# n = 0 instance of the family is kept
STQ_TEXT = """\
monoid
generators: a b t x y
order: a < b < t < x < y
rules:
alpha0: a b => 1
beta: x a => a t x
gamma: x t => t x
delta: x b => b x
eps: x y => 1
"""

SQ_CERT_TEXT = """\
a: star n ; der 3^n
b: star n ; der 2^n
t: star n ; der 2^n
x: star n + 1 ; der 0
y: star n ; der 2^n
"""

# the derivation values displayed alongside the proof, with the t entry
# taken literally; fails the strict inequality on the x t => t x rule
SQ_BAD_CERT_TEXT = """\
a: star n ; der 3^n
b: star n ; der 2^n
t: star n ; der 0
x: star n + 1 ; der 0
y: star n ; der 2^n
"""

LP_TEXT = """\
monoid
generators: a b c d d'
order: a < b < c < d < d'
rules:
alpha0: a b => a
beta: d a => a c
gamma: d' a => a c
"""

# the explicit n <= 5 slice of the rule family a t^(n+1) => c t^n
FAMILY_TEXT = """\
monoid
generators: a c t
order: a < c < t
rules:
alpha0: a t => c
alpha1: a t t => c t
alpha2: a t t t => c t t
alpha3: a t t t t => c t t t
alpha4: a t t t t t => c t t t t
alpha5: a t t t t t t => c t t t t t
"""

# the Coxeter presentation of the symmetric group S5
A4_TEXT = """\
monoid
generators: s1 s2 s3 s4
order: s1 < s2 < s3 < s4
rules:
r1: s1 s1 => 1
r2: s2 s2 => 1
r3: s3 s3 => 1
r4: s4 s4 => 1
r5: s2 s1 s2 => s1 s2 s1
r6: s3 s1 => s1 s3
r7: s4 s1 => s1 s4
r8: s3 s2 s3 => s2 s3 s2
r9: s4 s2 => s2 s4
r10: s4 s3 s4 => s3 s4 s3
"""

# the Coxeter presentations of S4 (A3, 24 elements) and of the hyperoctahedral
# group of order 48 (B3); neither is confluent as written
COXETER_A3_TEXT = """\
monoid
generators: s1 s2 s3
order: s1 < s2 < s3
rules:
r1: s1 s1 => 1
r2: s2 s2 => 1
r3: s3 s3 => 1
r4: s2 s1 s2 => s1 s2 s1
r5: s3 s1 => s1 s3
r6: s3 s2 s3 => s2 s3 s2
"""

COXETER_B3_TEXT = """\
monoid
generators: s1 s2 s3
order: s1 < s2 < s3
rules:
r1: s1 s1 => 1
r2: s2 s2 => 1
r3: s3 s3 => 1
r4: s2 s1 s2 s1 => s1 s2 s1 s2
r5: s3 s1 => s1 s3
r6: s3 s2 s3 => s2 s3 s2
"""

# the trivial monoid: no critical branching, so Squier completion adds no 3-cell
A_ONE_TEXT = """\
monoid
generators: a
order: a
rules:
alpha: a => 1
"""

# a rule named like the first 3-cell of squier_completion
CONF0_TEXT = """\
monoid
generators: a
order: a
rules:
conf0: a a => a
"""

# two commuting idempotents, with generator names outside ASCII
SIGMA_TEXT = """\
monoid
generators: σ τ
order: σ < τ
rules:
i: σ σ => σ
j: τ τ => τ
k: τ σ => σ τ
"""

CATEGORY_TEXT = """\
category
objects: X Y
generators: f: X -> Y ; g: Y -> X
rules:
rho: f g f => f
"""

Z2_TABLE = """\
elements: e a
unit: e
table:
e*e=e ; e*a=a ; a*e=a ; a*a=e
"""

TRIVIAL_TABLE = """\
elements: e
unit: e
table:
e*e=e
"""

NONASSOC_TABLE = """\
elements: e a b
unit: e
table:
e*e=e ; e*a=a ; e*b=b ; a*e=a ; b*e=b
a*a=a ; a*b=e ; b*a=a ; b*b=b
"""

# the transformation monoid of two points, x*y = "x, then y": the identity,
# the swap and the two constant maps; not a group
T2_TABLE = """\
elements: e s c0 c1
unit: e
table:
e*e=e ; e*s=s ; e*c0=c0 ; e*c1=c1
s*e=s ; s*s=e ; s*c0=c0 ; s*c1=c1
c0*e=c0 ; c0*s=c1 ; c0*c0=c0 ; c0*c1=c1
c1*e=c1 ; c1*s=c0 ; c1*c0=c0 ; c1*c1=c1
"""


def symmetric_group_table(n):
    """The multiplication table of S_n, elements p0..p(n!-1) in the
    lexicographic order of the permutations, p0 the unit."""
    perms = sorted(itertools.permutations(range(n)))
    name = {perm: f"p{k}" for k, perm in enumerate(perms)}
    entries = [
        f"{name[x]}*{name[y]}={name[tuple(x[i] for i in y)]}" for x in perms for y in perms
    ]
    return ("elements: " + " ".join(name.values()) + "\nunit: p0\ntable:\n"
            + "".join(" ; ".join(entries[k : k + 8]) + "\n" for k in range(0, len(entries), 8)))


S3_TABLE = symmetric_group_table(3)


# --------------------------------------------------------------------------
# parsed fixtures


@pytest.fixture(scope="session")
def b3():
    return parse_polygraph(B3_TEXT)


@pytest.fixture(scope="session")
def xyx():
    return parse_polygraph(XYX_TEXT)


@pytest.fixture(scope="session")
def xyx_done():
    return parse_polygraph(XYX_DONE_TEXT)


@pytest.fixture(scope="session")
def mu():
    return parse_polygraph(MU_TEXT)


@pytest.fixture(scope="session")
def sq():
    return parse_polygraph(SQ_TEXT)


@pytest.fixture(scope="session")
def stq():
    return parse_polygraph(STQ_TEXT)


@pytest.fixture(scope="session")
def sq_cert():
    return parse_certificate(SQ_CERT_TEXT)


@pytest.fixture(scope="session")
def lp():
    return parse_polygraph(LP_TEXT)


@pytest.fixture(scope="session")
def family():
    return parse_polygraph(FAMILY_TEXT)


@pytest.fixture(scope="session")
def a4_done():
    """A4 completed by knuth_bendix and reduced, as the benchmark builds it."""
    return metivier_squier_reduce(knuth_bendix(parse_polygraph(A4_TEXT)).final).final


@pytest.fixture(scope="session")
def a3_done():
    """Coxeter A3 completed by knuth_bendix and reduced."""
    return metivier_squier_reduce(knuth_bendix(parse_polygraph(COXETER_A3_TEXT)).final).final


# --------------------------------------------------------------------------
# the integer export, read back


def read_int_matrices(out_dir):
    """d1, d2 and d3 as ``write_matrices`` wrote them to out_dir: one list
    of ints per row, read past the three header lines."""
    mats = {}
    for name in ("d1", "d2", "d3"):
        lines = (out_dir / f"{name}.txt").read_text(encoding="utf-8").splitlines()[3:]
        mats[name] = [[int(v) for v in line.split()] for line in lines]
    return mats


# --------------------------------------------------------------------------
# recursive paths over the pumped presentation (and its finite variant)


def ts(k):
    return " ".join(["t"] * k) if k else "1"


def rstep(left, rule, right, forward=True):
    """The step left . rule . right of a rule (inverted unless forward),
    built from those parts: its source word is left . lhs . right, or
    left . rhs . right for an inverted step."""
    inner = rule.lhs if forward else rule.rhs
    return RewriteStep(left.concat(inner, right), len(left), rule, forward)


def gamma_path(p, n):
    """x t^n => t^n x by sliding x to the right one letter at a time."""
    if n == 0:
        return ZigZag(p.word("x"))
    return ZigZag.of(rstep(p.word("1"), p.lookup_rule("gamma"), p.word(ts(n - 1)))).then(
        gamma_path(p, n - 1).whisker(p.word("t"), p.word("1"))
    )


def f_path(p, n):
    """x a t^n b => a t^(n+1) b x: push x through a, then the t block, then b."""
    first = rstep(p.word("1"), p.lookup_rule("beta"), p.word((ts(n) + " b") if n else "b"))
    return (
        ZigZag.of(first)
        .then(gamma_path(p, n).whisker(p.word("a t"), p.word("b")))
        .then(ZigZag.of(rstep(p.word("a " + ts(n + 1)), p.lookup_rule("delta"), p.word("1"))))
    )


def g_path(p, n):
    """x a t^n b y => a t^(n+1) b: f_path with y on the right, then cancel xy."""
    return f_path(p, n).whisker(p.word("1"), p.word("y")).then(
        ZigZag.of(rstep(p.word("a " + ts(n + 1) + " b"), p.lookup_rule("eps"), p.word("1")))
    )


def pi_alpha(p, n, a0name="alpha[0]"):
    """a t^n b => 1 using only alpha at n = 0 — the projection of the n-th
    family instance through the recursive confluence diagrams."""
    if n == 0:
        return ZigZag.of(rstep(p.word("1"), p.lookup_rule(a0name), p.word("1")))
    return (
        g_path(p, n - 1)
        .inverse()
        .then(pi_alpha(p, n - 1, a0name).whisker(p.word("x"), p.word("y")))
        .then(ZigZag.of(rstep(p.word("1"), p.lookup_rule("eps"), p.word("1"))))
    )


def cell_family_index(cell):
    """The family index n of a generating cell whose source2 begins with a
    pumped instance alpha[n]."""
    name = cell.source2.steps[0].rule.name
    return int(name[name.index("[") + 1 : -1])
