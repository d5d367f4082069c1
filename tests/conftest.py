"""Shared fixtures: the worked example presentations and the recursive
rewriting paths used by the pumped-family tests.

The path helpers (gamma_path/f_path/g_path/pi_alpha) build, over the
five-generator presentation with the pumped rule family alpha[n], the
composite paths that witness how each alpha[n+1] follows from alpha[n] and
the four fixed rules — the data behind the homotopy-basis transfer tests.
"""

import pytest

from polygraph import (
    RewriteStep,
    ZigZag,
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


# --------------------------------------------------------------------------
# recursive paths over the pumped presentation (and its finite variant)


def ts(k):
    return " ".join(["t"] * k) if k else "1"


def rstep(p, left, rule, right):
    return RewriteStep(p.word(left), p.lookup_rule(rule), p.word(right), True)


def gamma_path(p, n):
    """x t^n => t^n x by sliding x to the right one letter at a time."""
    if n == 0:
        return ZigZag(p.word("x"))
    return ZigZag.of(rstep(p, "1", "gamma", ts(n - 1))).then(
        gamma_path(p, n - 1).whisker(p.word("t"), p.word("1"))
    )


def f_path(p, n):
    """x a t^n b => a t^(n+1) b x: push x through a, then the t block, then b."""
    first = rstep(p, "1", "beta", (ts(n) + " b") if n else "b")
    return (
        ZigZag.of(first)
        .then(gamma_path(p, n).whisker(p.word("a t"), p.word("b")))
        .then(ZigZag.of(rstep(p, "a " + ts(n + 1), "delta", "1")))
    )


def g_path(p, n):
    """x a t^n b y => a t^(n+1) b: f_path with y on the right, then cancel xy."""
    return f_path(p, n).whisker(p.word("1"), p.word("y")).then(
        ZigZag.of(rstep(p, "a " + ts(n + 1) + " b", "eps", "1"))
    )


def pi_alpha(p, n, a0name="alpha[0]"):
    """a t^n b => 1 using only alpha at n = 0 — the projection of the n-th
    family instance through the recursive confluence diagrams."""
    if n == 0:
        return ZigZag.of(rstep(p, "1", a0name, "1"))
    return (
        g_path(p, n - 1)
        .inverse()
        .then(pi_alpha(p, n - 1, a0name).whisker(p.word("x"), p.word("y")))
        .then(ZigZag.of(rstep(p, "1", "eps", "1")))
    )


def cell_family_index(cell):
    """The family index n of a generating cell whose source2 begins with a
    pumped instance alpha[n]."""
    name = cell.source2.steps[0].rule.name
    return int(name[name.index("[") + 1 : -1])
