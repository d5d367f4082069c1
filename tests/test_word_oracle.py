"""``Word``, a string of codebook characters, against the tuple-pair word it
replaced.

``RefWord`` below is that word: the letters and the object at every cut, as
two tuples.  Words drawn by hypothesis (with a fixed seed) must agree with it
on construction and the ``letters``/``nodes`` round trip, ``slice``,
``concat`` (with the same ``CompositionError`` texts), ``occurrences`` and
``str``; ``hash`` must agree with ``==``, and empty words on different
objects must differ.  On the category of ``CATEGORY_TEXT``, the junction
checks (composing words, the input side of a step, a rule whose sides are
not parallel) must refuse with the texts the tuple-pair words give.  Threads
adding letters at once must still give each its own character.
"""

import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import CATEGORY_TEXT
from polygraph import CompositionError, Rule, RewriteStep, Word, parse_polygraph


@dataclass(frozen=True)
class RefWord:
    """The word as it was: ``nodes`` records the object at every cut."""

    letters: tuple
    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) != len(self.letters) + 1:
            raise CompositionError(
                f"word {self.letters!r} has {len(self.nodes)} nodes, "
                f"expected {len(self.letters) + 1}"
            )

    @property
    def source(self):
        return self.nodes[0]

    @property
    def target(self):
        return self.nodes[-1]

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(self.letters) if self.letters else "1"

    def slice(self, i, j):
        if not (0 <= i <= j <= len(self.letters)):
            raise IndexError(f"slice [{i}:{j}] out of range for {self}")
        return RefWord(self.letters[i:j], self.nodes[i : j + 1])

    def concat(self, *others):
        letters, nodes = self.letters, self.nodes
        for other in others:
            if other.source != nodes[-1]:
                raise CompositionError(
                    f"cannot compose {RefWord(letters, nodes)} (ends at {nodes[-1]}) "
                    f"with {other} (starts at {other.source})"
                )
            letters = letters + other.letters
            nodes = nodes + other.nodes[1:]
        return RefWord(letters, nodes)

    def occurrences(self, factor):
        k = len(factor)
        return [i for i in range(len(self) - k + 1)
                if self.letters[i : i + k] == factor.letters and self.nodes[i] == factor.source]


def pair(letters, nodes):
    return Word(letters, nodes), RefWord(letters, nodes)


def same(word, ref):
    return (word.letters, word.nodes) == (ref.letters, ref.nodes)


def outcome(fn, *args):
    """What fn returns, or the type and text of what it raises."""
    try:
        return "returned", fn(*args)
    except (CompositionError, IndexError) as exc:
        return "raised", type(exc), str(exc)


def agree(got, want):
    """Outcomes that return words compare as words, others as given."""
    if got[0] == want[0] == "returned":
        return same(got[1], want[1])
    return got == want


OBJECTS = st.sampled_from(("*", "X", "Y"))
NAMES = st.sampled_from(("a", "b", "c", "d'", "s1"))


@st.composite
def any_words(draw, max_size=8):
    """Letters and nodes drawn independently: every pair a word can hold."""
    letters = tuple(draw(st.lists(NAMES, max_size=max_size)))
    nodes = tuple(draw(st.lists(OBJECTS, min_size=len(letters) + 1,
                                max_size=len(letters) + 1)))
    return letters, nodes


# each name with one type, as in a presentation
TYPED = {"f": ("X", "Y"), "g": ("Y", "X"), "h": ("X", "X"), "k": ("Y", "Y")}


@st.composite
def typed_words(draw, max_size=12):
    """Composable walks along TYPED, from a drawn object."""
    obj = draw(st.sampled_from(("X", "Y")))
    letters, nodes = [], [obj]
    for _ in range(draw(st.integers(0, max_size))):
        name = draw(st.sampled_from(sorted(n for n, (s, _) in TYPED.items() if s == obj)))
        obj = TYPED[name][1]
        letters.append(name)
        nodes.append(obj)
    return tuple(letters), tuple(nodes)


CHECKED = settings(max_examples=150, deadline=None, database=None)


@seed(22)
@CHECKED
@given(any_words())
def test_construction_round_trips_letters_and_nodes(drawn):
    w, ref = pair(*drawn)
    assert same(w, ref)
    assert (w.source, w.target, len(w), w.is_identity) == (
        ref.source, ref.target, len(ref), not ref.letters)
    assert str(w) == str(ref)
    assert Word(w.letters, w.nodes) == w


@seed(22)
@CHECKED
@given(st.lists(NAMES, max_size=4), st.lists(OBJECTS, max_size=6))
def test_construction_refuses_what_the_tuple_pair_refused(letters, nodes):
    letters, nodes = tuple(letters), tuple(nodes)
    assert agree(outcome(Word, letters, nodes), outcome(RefWord, letters, nodes))


@seed(22)
@CHECKED
@given(any_words(), st.integers(-2, 10), st.integers(-2, 10))
def test_slice_agrees(drawn, i, j):
    w, ref = pair(*drawn)
    assert agree(outcome(w.slice, i, j), outcome(ref.slice, i, j))


@seed(22)
@CHECKED
@given(st.lists(any_words(max_size=4), min_size=1, max_size=4))
def test_concat_agrees_and_names_the_word_built_so_far(drawn):
    words = [pair(*d) for d in drawn]
    got = outcome(words[0][0].concat, *[w for w, _ in words[1:]])
    want = outcome(words[0][1].concat, *[r for _, r in words[1:]])
    assert agree(got, want)


@seed(22)
@CHECKED
@given(typed_words(), typed_words(max_size=3))
def test_occurrences_agree(drawn, factor):
    w, ref = pair(*drawn)
    f, ref_f = pair(*factor)
    assert w.occurrences(f) == ref.occurrences(ref_f)
    for i, j in ((0, len(w)), (len(w) // 3, len(w) // 2)):
        sub, ref_sub = w.slice(i, j), ref.slice(i, j)
        assert w.occurrences(sub) == ref.occurrences(ref_sub)


@seed(22)
@CHECKED
@given(any_words(max_size=3), any_words(max_size=3))
def test_hash_agrees_with_equality(first, second):
    (u, ref_u), (v, ref_v) = pair(*first), pair(*second)
    assert (u == v) == (ref_u == ref_v)
    assert (u != v) == (ref_u != ref_v)
    if u == v:
        assert hash(u) == hash(v)
    assert Word(*first) == u and hash(Word(*first)) == hash(u)


def test_empty_words_on_different_objects_differ():
    x, y = Word((), ("X",)), Word((), ("Y",))
    assert x != y and x == Word((), ("X",))
    assert len({x, y, Word((), ("X",))}) == 2
    assert x.concat() == x and y.slice(0, 0) == y


# ---------------------------------------------------------------------------
# the junction checks of CATEGORY_TEXT


@pytest.fixture(scope="module")
def cat():
    return parse_polygraph(CATEGORY_TEXT)


def category_words(cat, length):
    """Every word of the category up to length, both objects' identities
    included."""
    out = [cat.word("1", at=x) for x in cat.objects]
    frontier = list(out)
    for _ in range(length):
        frontier = [w.concat(cat.word(g.name)) for w in frontier for g in cat.generators
                    if g.source == w.target]
        out += frontier
    return out


def ref(w):
    return RefWord(w.letters, w.nodes)


def test_category_composition_refuses_with_the_tuple_pair_texts(cat):
    words = category_words(cat, 3)
    refused = 0
    for u in words:
        for v in words:
            got, want = outcome(u.concat, v), outcome(ref(u).concat, ref(v))
            assert agree(got, want)
            refused += got[0] == "raised"
    assert refused > 0


def ref_step_problem(w, position, inner):
    """The tuple-pair check of a step's input side, or None."""
    a, b = position, position + len(inner.letters)
    if a >= 0 and w.letters[a:b] == inner.letters and w.nodes[a : b + 1] == inner.nodes:
        return None
    return "does not occur"


def test_category_steps_check_their_input_side_as_the_tuple_pair_did(cat):
    rho = cat.lookup_rule("rho")  # f g f => f, both X -> Y
    # the same letters, the junction objects inside the redex moved
    moved = [Word(w.letters, tuple("X" if x == "Y" else "Y" for x in w.nodes))
             for w in category_words(cat, 5)]
    taken = 0
    for w in category_words(cat, 5) + moved:
        for forward in (True, False):
            inner = rho.lhs if forward else rho.rhs
            for position in range(-1, len(w) + 2):
                want = ref_step_problem(ref(w), position, ref(inner))
                got = outcome(RewriteStep, w, position, rho, forward)
                assert (got[0] == "raised") == (want is not None)
                if want is None:
                    taken += 1
                else:
                    assert "does not occur at" in got[2]
    assert taken > 0


def test_a_rule_whose_sides_are_not_parallel_is_refused_by_concat(cat):
    # f g f : X -> Y against f g : X -> X; the message is the one the
    # whole words give when joined
    bad = Rule("bad", cat.word("f g f"), cat.word("f g"))
    for w in category_words(cat, 6):
        for position in w.occurrences(bad.lhs):
            step = RewriteStep(w, position, bad)
            left, right = ref(w).slice(0, position), ref(w).slice(position + 3, len(w))
            want = outcome(left.concat, ref(bad.rhs), right)
            assert want[0] == "raised"
            assert outcome(lambda: step.target_word) == want



def test_threads_adding_letters_at_once_give_each_triple_its_own_character():
    got = [None] * 8
    start = threading.Barrier(len(got))

    def add(k):
        start.wait(timeout=60)
        got[k] = {n: Word((n,), ("*", "*")).text for n in (f"thread{k}_{i}" for i in range(300))}

    threads = [threading.Thread(target=add, args=(k,)) for k in range(len(got))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    texts = [c for added in got for c in added.values()]
    assert len(set(texts)) == len(texts) == 8 * 300
    assert all(Word._of(c, "*").letters == (n,) for added in got for n, c in added.items())
