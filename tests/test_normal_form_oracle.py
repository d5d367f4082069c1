"""``normal_form`` against ``normalize``, the path-building reference.

``normal_form(p, w, strategy, fuel)`` takes the steps ``normalize`` takes on
the encoded word and decodes the result once.  It must give the same word,
letters and objects both, charge the same units, and run out at the same
unit with the same message and partial path.  ``word_eq`` and
``decide_confluence`` now read normal forms through it; the definitions
they replaced, which normalize with paths, are kept here as references and
must stop at the same unit with the same message and trace.
"""

import functools
import random
from dataclasses import replace

import pytest

import conftest as texts
from polygraph import (
    Budget,
    CompositionError,
    FuelExhausted,
    NotCertified,
    Rule,
    Word,
    decide_confluence,
    enumerate_critical_branchings,
    knuth_bendix,
    metivier_squier_reduce,
    normal_form,
    normalize,
    parse_certificate,
    parse_polygraph,
    termination_evidence,
    word_eq,
)
from polygraph import rewrite
from polygraph.rewrite import DEFAULT_PUMP_BOUND

STRATEGIES = ("leftmost", "rightmost")
SQ_RUN = 16  # the longest run of pump letters in a drawn SQ word

TEXTS = {
    "b3": texts.B3_TEXT,
    "xyx": texts.XYX_TEXT,
    "xyx_done": texts.XYX_DONE_TEXT,
    "mu": texts.MU_TEXT,
    "sq": texts.SQ_TEXT,
    "stq": texts.STQ_TEXT,
    "lp": texts.LP_TEXT,
    "family": texts.FAMILY_TEXT,
    "a4": texts.A4_TEXT,
    "coxeter_a3": texts.COXETER_A3_TEXT,
    "coxeter_b3": texts.COXETER_B3_TEXT,
    "a_one": texts.A_ONE_TEXT,
    "conf0": texts.CONF0_TEXT,
    "sigma": texts.SIGMA_TEXT,
    "category": texts.CATEGORY_TEXT,
    "category_ordered": texts.CATEGORY_TEXT + "order: f < g\n",
}


@functools.cache
def presentation(name):
    if name == "a4_done":
        return metivier_squier_reduce(knuth_bendix(parse_polygraph(texts.A4_TEXT)).final).final
    return parse_polygraph(TEXTS[name])


NAMES = list(TEXTS) + ["a4_done"]


def random_word(rng, p, length):
    """A composable walk along the generators from a random object; on
    Squier's example, sometimes an instance a t^n b with n up to SQ_RUN
    inside it."""
    obj = rng.choice(p.objects)
    letters = []
    for _ in range(length):
        out = [g.name for g in p.generators if g.source == obj]
        if not out:
            break
        name = rng.choice(out)
        letters.append(name)
        obj = p.generator_map[name].target
    if p.pumped and rng.random() < 0.7:
        at = rng.randint(0, len(letters))
        letters[at:at] = ["a"] + ["t"] * rng.randint(0, SQ_RUN) + ["b"]
    if not letters:
        return p.word_from_letters((), at=obj)
    return p.word_from_letters(letters)


def words(name, p, count=24):
    rng = random.Random(f"normal form/{name}")
    out = [random_word(rng, p, rng.randint(0, 30)) for _ in range(count)]
    out += [p.word_from_letters((), at=obj) for obj in p.objects]
    if name == "category":
        out += [p.word_from_letters(["f", "g"] * k + ["f"]) for k in range(4)]
        out += [p.word_from_letters(["g", "f"] * k) for k in range(1, 4)]
    if name == "sq":
        out += [p.word("x " * k + "a " + "t " * n + "b y") for k, n in ((0, 16), (3, 9), (2, 0))]
    return out


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type, message and trace of what it raises."""
    try:
        return ("returned", fn(*args, **kwargs))
    except (FuelExhausted, NotCertified, CompositionError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "trace", None))


def assert_same_word(got, want):
    assert got.letters == want.letters
    assert got.nodes == want.nodes


# ---------------------------------------------------------------------------
# normal forms


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_normal_form_is_the_target_of_the_path(name, strategy):
    p = presentation(name)
    for w in words(name, p):
        want, _ = normalize(p, w, strategy)
        assert_same_word(normal_form(p, w, strategy), want)


def test_sq_words_use_long_runs_of_pump_letters():
    p = presentation("sq")
    runs = [max(map(len, "".join("t" if x == "t" else " " for x in w.letters).split()),
                default=0) for w in words("sq", p)]
    assert max(runs) >= SQ_RUN


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_letter_no_rule_mentions_falls_back_to_normalize(strategy):
    p = presentation("b3")
    for letters in (("t", "a", "z", "t", "a"), ("z",), ("s", "t", "z", "s", "a", "s")):
        w = Word(letters, ("*",) * (len(letters) + 1))
        want, _ = normalize(p, w, strategy)
        got = normal_form(p, w, strategy)
        assert_same_word(got, want)
        assert "z" in got.letters


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_words_and_rules_the_encoding_cannot_type_fall_back(strategy):
    # a word whose objects are not those of its letters: normalize refuses
    # its first step, and so does normal_form
    b3 = presentation("b3")
    w = Word(("s", "t", "s"), ("*", "Q", "*", "*"))
    want = outcome(normalize, b3, w, strategy)
    assert want[0] == "raised" and want[1] is CompositionError
    assert outcome(normal_form, b3, w, strategy)[:3] == want[:3]
    # a rule whose sides are not parallel
    cat = presentation("category")
    f, fg = cat.word("f"), cat.word("f g")
    bad = replace(cat, rules=(Rule("rho", cat.word("f g f"), fg),))
    for w in (cat.word("f g f"), cat.word("g f g f g"), f):
        want = outcome(normalize, bad, w, strategy)
        got = outcome(normal_form, bad, w, strategy)
        assert got[:3] == (want[:3] if want[0] == "raised" else ("returned", want[1][0]))
    # a rule that uses a letter no generator declares
    z = Word(("z",), ("*", "*"))
    loose = replace(b3, rules=b3.rules + (Rule("zeta", z, b3.word("s a")),))
    for letters in (("t", "z"), ("z", "s", "t", "a"), ("s", "t", "s")):
        w = Word(letters, ("*",) * (len(letters) + 1))
        assert_same_word(normal_form(loose, w, strategy), normalize(loose, w, strategy)[0])


@pytest.mark.parametrize("name", ["b3", "sq", "a4_done", "category", "lp"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_one_budget_is_charged_alike(name, strategy):
    p = presentation(name)
    mine, ref = Budget(10**6), Budget(10**6)
    for w in words(name, p):
        got = normal_form(p, w, strategy, mine)
        want, _ = normalize(p, w, strategy, ref)
        assert_same_word(got, want)
        assert mine.left == ref.left
    assert ref.fuel - ref.left >= 30


@pytest.mark.parametrize("name", ["b3", "sq", "a4_done", "category", "xyx"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_exhaustion_at_every_fuel_below_the_total(name, strategy):
    p = presentation(name)
    exhausted = 0
    for w in words(name, p, count=8):
        _, path = normalize(p, w, strategy)
        for fuel in range(len(path.steps)):
            want = outcome(normalize, p, w, strategy, fuel)
            assert want[0] == "raised"
            budget = Budget(fuel)
            assert outcome(normal_form, p, w, strategy, budget) == want
            assert budget.left == 0
            exhausted += 1
    assert exhausted >= 10


@pytest.fixture
def normalize_calls(monkeypatch):
    """The arguments of every call to ``normalize`` made through the module."""
    calls = []

    def counting(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(rewrite, "normalize", counting)
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_partial_path_is_built_when_the_trace_is_read(normalize_calls, strategy):
    p = presentation("b3")
    w = p.word("s t s t s t a s t s a a")
    _, path = normalize(p, w, strategy)
    fuel = len(path.steps) // 2
    assert fuel >= 2
    want = outcome(normalize, p, w, strategy, fuel)
    with pytest.raises(FuelExhausted) as info:
        normal_form(p, w, strategy, fuel)
    assert str(info.value) == want[2]
    assert normalize_calls == []
    assert info.value.trace == want[3]
    assert info.value.trace.steps == path.steps[:fuel]
    assert len(normalize_calls) == 1
    info.value.trace
    assert len(normalize_calls) == 1


def test_a_dropped_partial_path_is_never_built(normalize_calls):
    # a rule that rewrites its left-hand side to itself: the confluence
    # check spends its fuel on the first leg and reports its branchings
    p = parse_polygraph("monoid\ngenerators: a\nrules:\nr0: a a a => a a a\n")
    with pytest.raises(FuelExhausted, match="the budget of 1000 is spent") as info:
        decide_confluence(p, fuel=1000, assume_terminating=True)
    assert info.value.trace == {"branchings": [], "truncated": False}
    assert normalize_calls == []


# ---------------------------------------------------------------------------
# word_eq and decide_confluence against their path-building definitions


def ref_decide_confluence(p, fuel, pump_bound=DEFAULT_PUMP_BOUND):
    """decide_confluence(p, fuel=fuel, assume_terminating=True) as it was:
    both legs of every branching normalized with their paths."""
    budget = Budget.of(fuel)
    branchings = enumerate_critical_branchings(p, pump_bound)
    entries = []
    confluent = True
    for b in branchings:
        try:
            nf1, _ = normalize(p, b.step1.target_word, "leftmost", budget)
            nf2, _ = normalize(p, b.step2.target_word, "leftmost", budget)
        except FuelExhausted as exc:
            raise FuelExhausted(f"resolving branching {b.describe()}: {exc}",
                                {"branchings": entries, "truncated": bool(p.pumped)}) from None
        entry = {
            "source": str(b.source_word),
            "rules": [f"{b.step1.rule.name}@{b.step1.position}",
                      f"{b.step2.rule.name}@{b.step2.position}"],
            "status": "Confluent" if nf1 == nf2 else "NotConfluent",
        }
        if b.family:
            entry["family"] = f"{b.family[0]} ~ {b.family[1]} @ offset {b.family[2]}"
        if nf1 == nf2:
            entry["join"] = str(nf1)
        else:
            entry["nf1"], entry["nf2"] = str(nf1), str(nf2)
            confluent = False
        entries.append(entry)
    return confluent, {
        "confluent": confluent,
        "count": len(branchings),
        "families": len({b.family for b in branchings if b.family}),
        "truncated": bool(p.pumped),
        "pump_bound": pump_bound,
        "branchings": entries,
    }


def ref_word_eq(p, u, v, fuel, cert=None, ack_sampled=False):
    """word_eq as it was: the certification gate, then both normal forms
    with their paths, all on one budget."""
    if u.source != v.source or u.target != v.target:
        raise CompositionError(f"'{u}' and '{v}' are not parallel")
    budget = Budget.of(fuel)
    termination_evidence(p, cert, ack_sampled)
    confluent, report = ref_decide_confluence(p, budget)
    if not confluent:
        bad = next(e for e in report["branchings"] if e["status"] == "NotConfluent")
        raise NotCertified(
            f"not confluent: branching on '{bad['source']}' has distinct normal forms "
            f"'{bad['nf1']}' and '{bad['nf2']}'"
        )
    nf_u, _ = normalize(p, u, "leftmost", budget)
    nf_v, _ = normalize(p, v, "leftmost", budget)
    return nf_u == nf_v


# (presentation, certificate or None); xyx is not confluent
CERTIFIED = [("b3", None), ("sq", texts.SQ_CERT_TEXT), ("a4_done", None),
             ("category_ordered", None), ("xyx", None)]
# what word_eq answers on the drawn pairs, when not both True and False:
# the category has few elements, and xyx is refused
EQ_ANSWERS = {"category_ordered": {True}, "xyx": {NotCertified}}


def parallel_pairs(name, p, count):
    """Pairs of parallel words: a word with its normal form (equal), and
    with a word drawn with the same endpoints when one turns up."""
    rng = random.Random(f"word_eq/{name}")
    pairs = []
    while len(pairs) < count:
        u = random_word(rng, p, rng.randint(2, 12))
        pairs.append((u, normalize(p, u)[0]))
        for _ in range(20):
            v = random_word(rng, p, rng.randint(2, 12))
            if (v.source, v.target) == (u.source, u.target):
                pairs.append((u, v))
                break
    return pairs[:count]


def spent(fn, *args):
    budget = Budget(10**6)
    fn(*args, budget)
    return budget.fuel - budget.left


@pytest.mark.parametrize("name, cert_text", CERTIFIED, ids=[c[0] for c in CERTIFIED])
def test_word_eq_stops_where_its_path_building_definition_does(name, cert_text):
    p = presentation(name)
    cert = parse_certificate(cert_text) if cert_text else None
    kwargs = {"cert": cert, "ack_sampled": True} if cert else {}
    # below the units of the confluence check, word_eq stops inside it,
    # whatever the words: those fuels are tried on the first pair only
    gate = spent(ref_decide_confluence, p)
    answers = set()
    for i, (u, v) in enumerate(parallel_pairs(name, p, 3)):
        want = outcome(ref_word_eq, p, u, v, Budget(10**6), **kwargs)
        assert outcome(word_eq, p, u, v, Budget(10**6), **kwargs) == want
        answers.add(want[1])
        if want[0] != "returned":
            continue
        total = spent(lambda *a: ref_word_eq(*a, **kwargs), p, u, v)
        assert total >= gate
        for fuel in range(0 if i == 0 else gate, total):
            want = outcome(ref_word_eq, p, u, v, fuel, **kwargs)
            assert want[0] == "raised" and want[1] is FuelExhausted
            assert outcome(word_eq, p, u, v, fuel, **kwargs) == want
    assert answers == EQ_ANSWERS.get(name, {True, False})


@pytest.mark.parametrize("name", [c[0] for c in CERTIFIED])
def test_decide_confluence_stops_where_its_path_building_definition_does(name):
    p = presentation(name)
    want = outcome(ref_decide_confluence, p, 10**6)
    assert outcome(decide_confluence, p, fuel=10**6, assume_terminating=True) == want
    partial = 0
    for fuel in range(spent(ref_decide_confluence, p)):
        want = outcome(ref_decide_confluence, p, fuel)
        assert want[0] == "raised" and want[1] is FuelExhausted
        assert outcome(decide_confluence, p, fuel=fuel, assume_terminating=True) == want
        partial += bool(want[3]["branchings"])
    # the category has one critical branching, and xyx's legs are normal
    assert partial >= (0 if name in ("category_ordered", "xyx") else 5)
