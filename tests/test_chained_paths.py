"""Paths the library composes from checked paths are chained at their
junctions, not walked again.

Every path that ``normalize``, ``then``, ``inverse``, ``whisker`` and
``reduced`` return must equal the same steps rebuilt by the public
``ZigZag(source, steps)`` with its full check, and reach the same target.
``reduced`` compares the fields of adjacent steps; the definition it
replaced, which builds each step's inverse, is kept here as its reference.
"""

import random

import pytest

from polygraph import (
    CompositionError,
    FuelExhausted,
    ZigZag,
    find_redexes,
    normalize,
    parse_polygraph,
)

from conftest import B3_TEXT, CATEGORY_TEXT, SQ_TEXT

SQ_PUMP_BOUND = 8


def b3_word(rng, p):
    return p.word_from_letters(
        rng.choice([g.name for g in p.generators]) for _ in range(rng.randint(4, 14))
    )


def sq_word(rng, p):
    """Letters of Squier's example around an instance a t^n b of the pumped
    family, n up to the pump bound."""
    names = [g.name for g in p.generators]
    n = rng.randint(0, SQ_PUMP_BOUND)
    letters = [rng.choice(names) for _ in range(rng.randint(0, 4))]
    letters += ["a"] + ["t"] * n + ["b"]
    letters += [rng.choice(names) for _ in range(rng.randint(0, 4))]
    return p.word_from_letters(letters)


def category_word(rng, p):
    """A composable walk f g f g ... or g f g f ... of the category."""
    first, second, start = ("f", "g", "X") if rng.random() < 0.5 else ("g", "f", "Y")
    letters = [first if i % 2 == 0 else second for i in range(rng.randint(3, 10))]
    return p.word_from_letters(letters, at=start)


def context(rng, p, obj, end):
    """A short word ending (end="target") or starting at obj."""
    letters = []
    for _ in range(rng.randint(0, 3)):
        if end == "target":
            gens = [g for g in p.generators if g.target == obj]
            g = rng.choice(gens)
            letters.insert(0, g.name)
            obj = g.source
        else:
            gens = [g for g in p.generators if g.source == obj]
            g = rng.choice(gens)
            letters.append(g.name)
            obj = g.target
    return p.word_from_letters(letters, at=obj)


CASES = [
    ("b3", B3_TEXT, b3_word),
    ("sq", SQ_TEXT, sq_word),
    ("category", CATEGORY_TEXT, category_word),
]


def assert_checked(path):
    """path equals its steps rebuilt with the full check, target included."""
    again = ZigZag(path.source, path.steps)
    assert path == again
    assert path.target == again.target


def ref_reduced(path):
    """The free-groupoid reduction as it was first written: a step cancels
    the one before it when it equals that step's inverse."""
    stack = []
    for step in path.steps:
        if stack and stack[-1] == step.inverse():
            stack.pop()
        else:
            stack.append(step)
    return ZigZag(path.source, tuple(stack))


@pytest.mark.parametrize("name, text, draw", CASES, ids=[c[0] for c in CASES])
def test_composed_paths_equal_their_checked_rebuild(name, text, draw):
    p = parse_polygraph(text)
    rng = random.Random(name)
    partial = 0
    for _ in range(20):
        w = draw(rng, p)
        paths = {}
        for strategy in ("leftmost", "rightmost"):
            nf, path = normalize(p, w, strategy)
            assert_checked(path)
            assert path.target == nf
            paths[strategy] = path
            try:
                normalize(p, w, strategy, fuel=2)
            except FuelExhausted as exc:
                partial += 1
                assert_checked(exc.trace)
                assert exc.trace.steps == path.steps[:2]
        f, g = paths["leftmost"], paths["rightmost"]
        zigzag = f.then(g.inverse())
        for composed in (zigzag, f.then(g.inverse(), f), f.inverse(), zigzag.inverse(),
                         zigzag.reduced(), f.then(f.inverse()).reduced()):
            assert_checked(composed)
        assert f.then(f.inverse()).reduced() == ZigZag(w)
        u = context(rng, p, w.source, "target")
        v = context(rng, p, w.target, "source")
        for path in (f, zigzag):
            whiskered = path.whisker(u, v)
            assert_checked(whiskered)
            assert whiskered.source == u.concat(path.source, v)
        if f.steps and f.source != f.target:
            with pytest.raises(CompositionError) as exc:
                f.then(f)
            assert str(exc.value) == (
                f"cannot chain path ending at {f.target} with one starting at {f.source}"
            )
    assert partial >= 5


def with_cancelling_pairs(p, path, rng, count):
    """The path with cancelling pairs inserted at seeded junctions: a
    redex of the running word then its inverse, or the inverse of the
    step before the junction then that step.  Returns the path and the
    directions of the pairs inserted."""
    steps = list(path.steps)
    orders = set()
    for _ in range(count):
        k = rng.randint(0, len(steps))
        word = steps[k].source_word if k < len(steps) else path.target
        choices = []
        redexes = find_redexes(p, word, SQ_PUMP_BOUND)
        if redexes:
            t = rng.choice(redexes)
            choices.append((t, t.inverse()))
        if k:
            s = steps[k - 1]
            choices.append((s.inverse(), s))
        if choices:
            pair = rng.choice(choices)
            steps[k:k] = pair
            orders.add((pair[0].forward, pair[1].forward))
    return ZigZag(path.source, tuple(steps)), orders


@pytest.mark.parametrize("name, text, draw", CASES, ids=[c[0] for c in CASES])
def test_reduced_matches_the_inverse_building_reference(name, text, draw):
    p = parse_polygraph(text)
    rng = random.Random(name + "/reduced")
    cancelled = 0
    orders = set()
    for _ in range(20):
        w = draw(rng, p)
        _, f = normalize(p, w, "leftmost")
        _, g = normalize(p, w, "rightmost")
        for base in (f, f.then(g.inverse())):
            path, inserted = with_cancelling_pairs(p, base, rng, rng.randint(1, 4))
            orders |= inserted
            got, want = path.reduced(), ref_reduced(path)
            assert got == want
            assert got.target == want.target == path.target
            assert_checked(got)
            cancelled += len(got) < len(path)
    assert cancelled >= 20
    # a step then its inverse, and an inverse then its step
    assert orders == {(True, False), (False, True)}
