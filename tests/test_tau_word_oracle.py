"""``coherence.tau_word`` against its recursive definition.

τ_{v·w} is τ_v on FG(v) with the still-unfixed tail FG(w) after it, then v
acting on τ_w.  The recursion below is that definition as the library
once computed it, one level per letter; the library builds the same path
in one loop.  Paths, and the errors of incomplete or ill-fitting data, must
be equal on seeded words; a word far longer than the recursion limit must
return.
"""

import itertools
import random
import sys

import pytest

from polygraph import (
    CompositionError,
    PresentationError,
    RewriteStep,
    ZigZag,
    identity_word,
    parse_polygraph,
)
from polygraph.coherence import TwoFunctor, parse_transfer_maps, tau_word

from conftest import CATEGORY_TEXT
from test_coherence import IDENTITY_MAP


def ref_tau_word(F, G, tau_gen, w):
    """tau_word as it was: one level of recursion per letter."""
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
    return first.then(ref_tau_word(F, G, tau_gen, rest).whisker(head, identity_word(w.target)))


def ref_functor_word(F, w):
    """TwoFunctor.word as it was: one concat per letter."""
    out = identity_word(w.source)
    for letter in w.letters:
        try:
            out = out.concat(F.gen_map[letter])
        except KeyError:
            raise PresentationError(f"functor has no image for generator {letter!r}") from None
    return out


# z is a redundant generator: y y => z, so x y x = y y = z
XYZ_TEXT = """\
monoid
generators: x y z
order: x < y < z
rules:
alpha: x y x => y y
zeta: y y => z
"""


@pytest.fixture(scope="module")
def xyz():
    return parse_polygraph(XYZ_TEXT)


def maps(p, z_image):
    """(F, G, tau) with F the identity and G sending z to z_image; τ_z
    goes from z_image to z, through an inverse step when z_image is y y."""
    words = {g: p.word(g) for g in "xyz"}
    F = TwoFunctor(p, p, words, {})
    G = TwoFunctor(p, p, {**words, "z": p.word(z_image)}, {})
    alpha, zeta = p.lookup_rule("alpha"), p.lookup_rule("zeta")
    to_z = ZigZag.of(RewriteStep(p.word("x y x"), 0, alpha), RewriteStep(p.word("y y"), 0, zeta))
    if z_image == "y y":
        to_z = ZigZag.of(RewriteStep(p.word("x y x"), 0, alpha)).inverse().then(to_z)
    tau = {"x": ZigZag(words["x"]), "y": ZigZag(words["y"]), "z": to_z}
    return F, G, tau


def seeded_words(p, seed, count, longest):
    rng = random.Random(seed)
    return [p.word_from_letters(tuple(rng.choice("xyz") for _ in range(rng.randint(0, longest))))
            for _ in range(count)]


def outcome(fn, *args):
    try:
        path = fn(*args)
    except (PresentationError, CompositionError) as exc:
        return ("raised", type(exc), str(exc))
    return ("returned", path, path.target)


@pytest.mark.parametrize("z_image", ["x y x", "y y"])
def test_tau_word_is_its_recursive_definition(xyz, z_image):
    F, G, tau = maps(xyz, z_image)
    steps = 0
    for w in seeded_words(xyz, f"tau/{z_image}", 60, 9):
        got = outcome(tau_word, F, G, tau, w)
        assert got == outcome(ref_tau_word, F, G, tau, w)
        assert got[2] == w and got[1].source == F.word(G.word(w))
        steps += len(got[1].steps)
    assert steps > 60


def test_functor_word_is_one_concat_per_letter(xyz):
    _, G, _ = maps(xyz, "y y")
    for w in seeded_words(xyz, "functor", 40, 12):
        got, want = G.word(w), ref_functor_word(G, w)
        assert (got.letters, got.nodes) == (want.letters, want.nodes)
    partial = TwoFunctor(xyz, xyz, {"x": xyz.word("x")}, {})
    w = xyz.word("x y z")
    with pytest.raises(PresentationError, match="no image for generator 'y'"):
        partial.word(w)
    with pytest.raises(PresentationError, match="no image for generator 'y'"):
        ref_functor_word(partial, w)


def test_tau_word_fails_where_its_recursive_definition_does(xyz):
    """A missing τ component or generator image, and a τ component that
    stops short of its letter (τ_z ending at y y): the same error, with
    the same message, as the recursion raises."""
    F, G, tau = maps(xyz, "x y x")
    no_y = {"x": tau["x"], "z": tau["z"]}
    partial_g = TwoFunctor(xyz, xyz, {"x": xyz.word("x"), "z": xyz.word("x y x")}, {})
    short = {**tau, "z": ZigZag.of(RewriteStep(xyz.word("x y x"), 0, xyz.lookup_rule("alpha")))}
    raised = set()
    for w in seeded_words(xyz, "tau/errors", 40, 7):
        for f, g, components in ((F, G, no_y), (F, partial_g, tau), (F, G, short)):
            want = outcome(ref_tau_word, f, g, components, w)
            assert outcome(tau_word, f, g, components, w) == want
            raised.add(want[1] if want[0] == "raised" else None)
    assert raised == {PresentationError, CompositionError, None}


def test_tau_word_refuses_category_data_whose_objects_do_not_meet():
    """On a category a junction can fail on objects alone: a τ component
    that ends at the wrong object, or a generator image that does, in the
    first tail or only in a later one (the tail of a later letter starts at
    that letter's target).  The same error as the recursion raises, on the
    words next to the junction."""
    c = parse_polygraph(CATEGORY_TEXT)  # f: X -> Y ; g: Y -> X
    ident = TwoFunctor(c, c, {"f": c.word("f"), "g": c.word("g")}, {})
    tau = {"f": ZigZag(c.word("f")), "g": ZigZag(c.word("g"))}
    tau_f_at_x = {**tau, "f": ZigZag(identity_word("X"))}
    g_to_y = TwoFunctor(c, c, {"f": c.word("f"), "g": c.word("g f")}, {})
    # G(g) starts at X: the first tail of g f g, 1_X then f g, meets; the
    # tail of the second letter starts at Y
    g_at_x = TwoFunctor(c, c, {"f": identity_word("X"), "g": c.word("f g")}, {})
    # F(f) is 1_Y: it meets after F(g) = g f in the first tail of f g f,
    # and not at the start of the tail of the second letter, at X
    f_at_y = TwoFunctor(c, c, {"f": identity_word("Y"), "g": c.word("g f")}, {})
    for F, G, components, w, message in (
            (ident, ident, tau_f_at_x, "f g", "cannot compose 1 (ends at X) with g (starts at Y)"),
            (ident, g_to_y, tau, "f g f", "cannot compose g f (ends at Y) with f (starts at X)"),
            (ident, g_at_x, tau, "g f g", "cannot compose 1 (ends at Y) with f g (starts at X)"),
            (f_at_y, ident, tau, "f g f", "cannot compose 1 (ends at X) with 1 (starts at Y)")):
        want = outcome(ref_tau_word, F, G, components, c.word(w))
        assert want == ("raised", CompositionError, message)
        assert outcome(tau_word, F, G, components, c.word(w)) == want


def category_words(c, longest):
    """The words of c of 1 to ``longest`` letters, shortest first."""
    out = []
    for n in range(1, longest + 1):
        for letters in itertools.product([g.name for g in c.generators], repeat=n):
            try:
                out.append(c.word_from_letters(letters))
            except PresentationError:  # f f and g g do not compose
                pass
    return out


def test_tau_word_raises_what_its_recursive_definition_raises_on_every_empty_component():
    """The identity 2-functor on the category, τ_f and τ_g each the empty
    path on a word of up to 2 letters (the identity at the letter's source
    among them), and every word of up to 3 letters: 150 cases.  The
    recursion whiskers τ_{v_1} by FG(v_2 ⋯ v_n) before it recurses, so a
    τ component that ends at the wrong object fails at the leftmost such
    letter; tau_word raises the same error, with the same message."""
    c = parse_polygraph(CATEGORY_TEXT)  # f: X -> Y ; g: Y -> X
    F = TwoFunctor(c, c, {"f": c.word("f"), "g": c.word("g")}, {})
    short = category_words(c, 2)
    components = {x: [identity_word(c.generator_map[x].source), *short] for x in ("f", "g")}
    cases, kinds = 0, set()
    for tau_f in components["f"]:
        for tau_g in components["g"]:
            tau = {"f": ZigZag(tau_f), "g": ZigZag(tau_g)}
            for w in category_words(c, 3):
                want = outcome(ref_tau_word, F, F, tau, w)
                assert outcome(tau_word, F, F, tau, w) == want, (tau_f, tau_g, w)
                cases += 1
                kinds.add(want[:2] if want[0] == "raised" else want[0])
    assert cases == 150
    assert kinds == {"returned", ("raised", CompositionError)}


@pytest.fixture
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(before)


def test_a_long_word_returns_under_the_default_recursion_limit(
        xyz, xyx_done, default_recursion_limit):
    F, G, tau = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    rng = random.Random(1500)
    w = xyx_done.word_from_letters(tuple(rng.choice("xy") for _ in range(1500)))
    path = tau_word(F, G, tau, w)
    assert path.source == path.target == w and path.steps == ()
    # and with a step for every letter z: each τ_z whiskered into place
    F, G, tau = maps(xyz, "y y")
    w = xyz.word_from_letters(tuple(rng.choice("xyz") for _ in range(1500)))
    path = tau_word(F, G, tau, w)
    assert path.target == w and len(path.steps) == 3 * w.letters.count("z")
    assert ZigZag(path.source, path.steps).target == w  # the steps chain


def test_a_5000_letter_word_is_checked_junction_by_junction(xyz, xyx_done):
    """5,000 letters: the identity map gives the identity path; with steps
    for each z the path chains from FG(w) to w; and a τ_z that stops short
    of z fails at the last z, with the error the recursive definition
    raises on the word from that z on (the words that meet at a junction
    hold nothing of the letters before it)."""
    F, G, tau = parse_transfer_maps(xyx_done, xyx_done, IDENTITY_MAP)
    rng = random.Random(5000)
    w = xyx_done.word_from_letters(tuple(rng.choice("xy") for _ in range(5000)))
    path = tau_word(F, G, tau, w)
    assert path.source == path.target == w and path.steps == ()
    # ten z's: every step of the path holds a whole word of 5,000 letters
    letters = [rng.choice("xy") for _ in range(5000)]
    for i in rng.sample(range(5000), 10):
        letters[i] = "z"
    w = xyz.word_from_letters(tuple(letters))
    F, G, tau = maps(xyz, "y y")
    path = tau_word(F, G, tau, w)
    assert path.source == F.word(G.word(w)) and path.target == w
    assert len(path.steps) == 3 * w.letters.count("z")
    assert ZigZag(path.source, path.steps).target == w  # the steps chain
    F, G, tau = maps(xyz, "x y x")
    short = {**tau, "z": ZigZag.of(RewriteStep(xyz.word("x y x"), 0, xyz.lookup_rule("alpha")))}
    last = len(w) - 1 - w.letters[::-1].index("z")
    want = outcome(ref_tau_word, F, G, short, w.slice(last, len(w)))
    assert want[0] == "raised"
    assert outcome(tau_word, F, G, short, w) == want
