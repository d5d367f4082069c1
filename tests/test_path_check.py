"""The composability check of ZigZag against the word-building check.

A step is given by its parts (left context, rule, right context, forward).
The oracle builds each step's source and target words from the parts; the
library builds a RewriteStep from the same parts and checks the ZigZag.
Seeded valid paths must reach the same target; seeded mutations of them
must be refused with the oracle's exact message, or, where a mutation
happens to stay valid, be accepted with the oracle's target.
"""

import random

import pytest

from polygraph import (
    CompositionError,
    Rule,
    Word,
    ZigZag,
    identity_word,
    normalize,
    parse_multiplication_table,
    parse_polygraph,
)
from polygraph.coherence import standard_coherent_presentation

from conftest import B3_TEXT, CATEGORY_TEXT, SQ_TEXT, Z2_TABLE, TRIVIAL_TABLE, rstep


def oracle_target(source, parts):
    word = source
    for i, (left, rule, right, forward) in enumerate(parts):
        inner, outer = (rule.lhs, rule.rhs) if forward else (rule.rhs, rule.lhs)
        step_source = left.concat(inner, right)
        if step_source != word:
            name = rule.name if forward else rule.name + "-"
            raise CompositionError(
                f"step {i} ({left}*{name}*{right}) rewrites {step_source}, "
                f"but the running word is {word}"
            )
        word = left.concat(outer, right)
    return word


def outcome(check, source, parts):
    try:
        return "ok", check(source, parts)
    except CompositionError as exc:
        return "refused", str(exc)


def library_target(source, parts):
    return ZigZag(source, tuple(rstep(*step) for step in parts)).target


def parts_of(path):
    return tuple((s.left, s.rule, s.right, s.forward) for s in path.steps)


# ---------------------------------------------------------------------------
# valid paths


def random_word(rng, p, length):
    return p.word_from_letters(rng.choice([g.name for g in p.generators]) for _ in range(length))


def category_word(rng, length):
    letters = ("f", "g") if rng.random() < 0.5 else ("g", "f")
    start = "X" if letters[0] == "f" else "Y"
    return [letters[i % 2] for i in range(length)], start


def rewriting_paths(p, rng, count, lengths, word=random_word):
    """Normalization paths, their inverses and zigzags through the normal
    form, of seeded words."""
    out = []
    for _ in range(count):
        w = word(rng, p, rng.choice(lengths))
        _, left = normalize(p, w, "leftmost")
        _, right = normalize(p, w, "rightmost")
        out += [left, right.inverse(), left.then(right.inverse())]
    return out


def unit_paths(table, p, rng, count, length):
    """Paths of the standard coherent presentation: insert or remove the
    unit with the identity-lhs rule `i`, multiply two adjacent letters, or
    split one letter into a product."""
    rules = {r.name: r for r in p.rules}
    unit = "g_" + table.unit
    out = []
    for _ in range(count):
        w = random_word(rng, p, length)
        source, steps = w, []
        for _ in range(rng.randint(1, 6)):
            n = len(w)
            moves = [rstep(w.slice(0, k), rules["i"], w.slice(k, n)) for k in range(n + 1)]
            for k in range(n):
                a = w.letters[k][2:]
                if k + 1 < n:
                    b = w.letters[k + 1][2:]
                    moves.append(rstep(w.slice(0, k), rules[f"m_{a}_{b}"], w.slice(k + 2, n)))
                if w.letters[k] == unit:
                    moves.append(rstep(w.slice(0, k), rules["i"], w.slice(k + 1, n), False))
                for (u, v), z in table.product.items():
                    if z == a:
                        moves.append(rstep(
                            w.slice(0, k), rules[f"m_{u}_{v}"], w.slice(k + 1, n), False))
            step = rng.choice(moves)
            steps.append(step)
            w = step.target_word
        out.append(ZigZag(source, tuple(steps)))
    return out


# ---------------------------------------------------------------------------
# mutations of the parts of one step


def shift(parts, rng):
    """Slide the redex one letter left or right in the same source word,
    or drop the first letter of the left context."""
    left, rule, right, forward = parts
    inner = rule.lhs if forward else rule.rhs
    w = left.concat(inner, right)
    pos, k = len(left), len(inner)
    moves = []
    for d in (-1, 1):
        if 0 <= pos + d and pos + d + k <= len(w):
            moves.append((w.slice(0, pos + d), rule, w.slice(pos + d + k, len(w)), forward))
    if left.letters:
        moves.append((left.slice(1, len(left)), rule, right, forward))
    return rng.choice(moves) if moves else None


def other_rule(parts, rng, rules):
    left, rule, right, forward = parts
    choices = [r for r in rules if r != rule]
    return left, rng.choice(choices), right, forward


def flip(parts, rng):
    left, rule, right, forward = parts
    return left, rule, right, not forward


def other_object(parts, rng, objects):
    """Keep the letters of a context but move its objects: an empty context
    on the other object, or every node of a non-empty one renamed."""
    def moved(word):
        if not word.letters:
            return identity_word(next(o for o in objects if o != word.source))
        swap = {objects[0]: objects[1], objects[1]: objects[0]}
        return Word(word.letters, tuple(swap[n] for n in word.nodes))

    left, rule, right, forward = parts
    if rng.choice(("left", "right")) == "left":
        return moved(left), rule, right, forward
    return left, rule, moved(right), forward


def check_mutations(paths, mutations, rng, rounds=3):
    """Every valid path agrees with the oracle; every mutation of one of
    its steps gets the oracle's outcome.  Returns refusals per mutation."""
    refused = {name: 0 for name in mutations}
    for path in paths:
        parts = parts_of(path)
        assert outcome(library_target, path.source, parts) == (
            "ok", oracle_target(path.source, parts))
        assert oracle_target(path.source, parts) == path.target
        if not parts:
            continue
        for name, mutate in mutations.items():
            for _ in range(rounds):
                i = rng.randrange(len(parts))
                step = mutate(parts[i], rng)
                if step is None:
                    continue
                steps = parts[:i] + (step,) + parts[i + 1:]
                want = outcome(oracle_target, path.source, steps)
                assert outcome(library_target, path.source, steps) == want, (name, str(path))
                refused[name] += want[0] == "refused"
    return refused


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("text", [B3_TEXT, SQ_TEXT], ids=["b3", "sq"])
def test_mutated_rewriting_paths_fail_like_the_oracle(text):
    p = parse_polygraph(text)
    rng = random.Random(7)
    rules = p.rules + tuple(fam.instance(n) for fam in p.pumped for n in range(3))
    paths = rewriting_paths(p, rng, 12, range(3, 14))
    refused = check_mutations(paths, {
        "shift": shift,
        "rule": lambda s, r: other_rule(s, r, rules),
        "flip": flip,
    }, rng)
    assert all(n > 10 for n in refused.values()), refused


def test_context_objects_are_checked_in_a_category():
    p = parse_polygraph(CATEGORY_TEXT)
    rng = random.Random(11)

    def word(rng, p, length):
        letters, start = category_word(rng, length)
        return p.word_from_letters(letters, at=start)

    paths = rewriting_paths(p, rng, 12, range(0, 9), word)
    refused = check_mutations(paths, {
        "shift": shift,
        "flip": flip,
        "object": lambda s, r: other_object(s, r, p.objects),
    }, rng)
    assert all(n > 5 for n in refused.values()), refused
    # the letters of the running word agree, its objects do not: all of
    # them, or only one inside the redex
    fgf = p.word("f g f")
    _, path = normalize(p, fgf)
    for nodes in (("Y", "X", "Y", "X"), ("X", "X", "X", "Y")):
        moved = Word(fgf.letters, nodes)
        want = outcome(oracle_target, moved, parts_of(path))
        assert want[0] == "refused"
        assert outcome(library_target, moved, parts_of(path)) == want


def test_a_rule_that_is_not_parallel_fails_like_the_oracle():
    p = parse_polygraph(CATEGORY_TEXT)
    fgf = p.word("f g f")
    # f g f : X -> Y rewritten to g : Y -> X; the source matches, the
    # target does not compose
    bad = Rule("bad", fgf, p.word("g"))
    step = (identity_word("X"), bad, identity_word("Y"), True)
    want = outcome(oracle_target, fgf, (step,))
    assert want == ("refused", "cannot compose 1 (ends at X) with g (starts at Y)")
    assert outcome(library_target, fgf, (step,)) == want


@pytest.mark.parametrize("text", [Z2_TABLE, TRIVIAL_TABLE], ids=["z2", "trivial"])
def test_identity_lhs_steps_fail_like_the_oracle(text):
    table = parse_multiplication_table(text)
    p = standard_coherent_presentation(table)
    rng = random.Random(5)
    paths = unit_paths(table, p, rng, 30, 3)
    refused = check_mutations(paths, {
        "shift": shift,
        "rule": lambda s, r: other_rule(s, r, p.rules),
        "flip": flip,
    }, rng)
    assert all(n > 5 for n in refused.values()), refused


def test_empty_path_target_is_its_source(b3):
    w = b3.word("s t a")
    assert ZigZag(w).target is w
    assert ZigZag(identity_word()).target == identity_word()
