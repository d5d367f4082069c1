"""The matcher behind ``normalize`` against the naive redex search.

The oracle picks each step from ``find_redexes``, which enumerates every
rule instance at every position and sorts them: normal forms, step lists
and partial paths on exhausted fuel must be identical for both strategies.
"""

import random

import pytest

from polygraph import (
    FuelExhausted,
    find_redexes,
    knuth_bendix,
    metivier_squier_reduce,
    normalize,
    parse_polygraph,
)

from conftest import B3_TEXT, CATEGORY_TEXT, FAMILY_TEXT, LP_TEXT, SQ_TEXT

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

# a family with no fixed letters: every run of t is a redex
EMPTY_FAMILY_TEXT = """\
monoid
generators: a t
rules:
aa: a a => a
pumped:
fam[n]: ( t )^n => ( t )^( 0 )
"""

# suffixes and prefixes that begin or end with the pump letter, a suffix
# of pump letters only, fixed parts longer than any plain lhs, and plain
# rules that share an lhs or overlap the families
PUMP_EDGES_TEXT = """\
monoid
generators: a b c t
rules:
tb: t b => b
ct: c t t => c
tb2: t b => t
pumped:
tail[n]: a ( t )^n t b => b ( t )^( n )
head[n]: b t ( t )^n c => ( t )^( 1 )
runs[n]: c ( t )^n t t => a ( t )^( 0 )
wide[n]: c ( t )^n a b a b a b => c ( t )^( 0 )
"""

# a word where one rewrite completes an instance of wide that starts more
# than the longest plain lhs before the rewrite
CRAFTED = {"pump-edges": ["c a b a b a a t b"]}

PRESENTATIONS = {
    "b3": B3_TEXT,
    "sq": SQ_TEXT,
    "a4": None,  # completed and reduced from A4_TEXT
    "lp": LP_TEXT,
    "family": FAMILY_TEXT,
    "category": CATEGORY_TEXT,
    "empty-family": EMPTY_FAMILY_TEXT,
    "pump-edges": PUMP_EDGES_TEXT,
}


@pytest.fixture(scope="module")
def presentations():
    out = {}
    for name, text in PRESENTATIONS.items():
        if name == "a4":
            raw = parse_polygraph(A4_TEXT)
            out[name] = metivier_squier_reduce(knuth_bendix(raw).final).final
        else:
            out[name] = parse_polygraph(text)
    return out


# ---------------------------------------------------------------------------
# the oracle: the naive strategies that normalize used to call


def leftmost_step(p, w, pump_bound):
    """The leftmost-innermost redex: least position, first-declared rule."""
    redexes = find_redexes(p, w, pump_bound)
    return redexes[0] if redexes else None


def rightmost_step(p, w, pump_bound):
    """The rightmost redex: greatest end position, tie broken by greatest
    start position, then by declaration order."""
    redexes = find_redexes(p, w, pump_bound)
    if not redexes:
        return None
    best = max((s.span[1], s.span[0]) for s in redexes)
    tied = [s for s in redexes if (s.span[1], s.span[0]) == best]
    return min(tied, key=lambda s: p.rule_key(s.rule))


_STRATEGIES = {"leftmost": leftmost_step, "rightmost": rightmost_step}


def oracle_normalize(p, w, strategy, fuel):
    """(normal form, steps, exhausted): at most `fuel` steps, each picked
    from every instance that fits the running word."""
    pick = _STRATEGIES[strategy]
    steps = []
    current = w
    while (step := pick(p, current, len(current))) is not None:
        if len(steps) == fuel:
            return current, steps, True
        steps.append(step)
        current = step.target_word
    return current, steps, False


# ---------------------------------------------------------------------------
# seeded words


def random_word(p, rng, length):
    """A composable word glued from letters and left-hand sides (pumped
    instances up to n = 6), cut to length, so that redexes overlap."""
    pieces = [p.word_from_letters([g.name]) for g in p.generators]
    pieces += [r.lhs for r in p.all_rule_instances(6) if not r.lhs.is_identity]
    letters = []
    node = p.objects[0]
    while len(letters) < length:
        piece = rng.choice([u for u in pieces if u.source == node])
        letters += piece.letters
        node = piece.target
    return p.word_from_letters(letters[:length], at=p.objects[0])


def cases(p, seed, count, longest):
    rng = random.Random(seed)
    return [random_word(p, rng, rng.randint(0, longest)) for _ in range(count)]


def crafted(p, name):
    return [p.word(text) for text in CRAFTED.get(name, ())]


FUEL = 150


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_normalize_matches_the_naive_search(presentations, name, strategy):
    p = presentations[name]
    for w in cases(p, f"{name}/{strategy}", 40, 24) + crafted(p, name):
        nf, steps, exhausted = oracle_normalize(p, w, strategy, FUEL)
        if exhausted:
            with pytest.raises(FuelExhausted) as info:
                normalize(p, w, strategy, FUEL)
            assert info.value.trace.steps == tuple(steps), f"{name}: '{w}'"
            continue
        got_nf, path = normalize(p, w, strategy, FUEL)
        assert path.steps == tuple(steps), f"{name}: '{w}'"
        assert got_nf == nf


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_partial_paths_match_at_small_fuel(presentations, name):
    p = presentations[name]
    rng = random.Random(name)
    for w in cases(p, name, 12, 16):
        strategy = rng.choice(["leftmost", "rightmost"])
        fuel = rng.randint(0, 4)
        _, steps, exhausted = oracle_normalize(p, w, strategy, fuel)
        if not exhausted:
            assert normalize(p, w, strategy, fuel)[1].steps == tuple(steps)
            continue
        with pytest.raises(FuelExhausted) as info:
            normalize(p, w, strategy, fuel)
        assert info.value.trace.steps == tuple(steps)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_is_normal_matches_the_naive_search(presentations, name):
    p = presentations[name]
    for w in cases(p, f"normal/{name}", 60, 6):
        assert p.matcher.is_normal(w) == (not find_redexes(p, w, len(w))), f"{name}: '{w}'"


def test_pumped_instances_are_not_bounded(sq):
    """normalize uses the instance that fits, however long the run."""
    w = sq.word("x a " + "t " * 40 + "b y")
    nf, path = normalize(sq, w)
    assert str(nf) == "1"
    assert "alpha[41]" in [s.rule.name for s in path.steps]
