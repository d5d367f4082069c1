"""Critical branchings and completion against the enumeration they replaced.

The reference enumerator tries every ordered pair of rule instances at every
offset, canonicalizes each pair through make_local_branching and drops
repeats by a signature of the source word and the two (rule, position)
pairs.  The reference completion enumerates the whole system again after
each added rule and keeps the branchings that involve it.  The library
builds each critical branching once, and completion enumerates only the new
rule's overlaps; branchings, traces and final systems must be identical.
"""

import random
from collections import deque
from dataclasses import replace

import pytest

from conftest import (
    A4_TEXT,
    A_ONE_TEXT,
    B3_TEXT,
    CATEGORY_TEXT,
    CONF0_TEXT,
    COXETER_A3_TEXT,
    COXETER_B3_TEXT,
    FAMILY_TEXT,
    LP_TEXT,
    MU_TEXT,
    SIGMA_TEXT,
    SQ_TEXT,
    STQ_TEXT,
    XYX_DONE_TEXT,
    XYX_TEXT,
    rstep,
)
from polygraph import (
    DEFAULT_FUEL,
    Budget,
    CriticalBranching,
    FuelExhausted,
    PresentationError,
    Rule,
    check_deglex_termination,
    completion,
    enumerate_critical_branchings,
    knuth_bendix,
    make_local_branching,
    normalize,
    orient,
    parse_polygraph,
    serialize_polygraph,
)
from polygraph.branchings import OVERLAPPING, _family_name
from polygraph.completion import DEFAULT_MAX_RULES, CompletionResult

TEXTS = {
    "b3": B3_TEXT,
    "xyx": XYX_TEXT,
    "xyx_done": XYX_DONE_TEXT,
    "mu": MU_TEXT,
    "sq": SQ_TEXT,
    "stq": STQ_TEXT,
    "lp": LP_TEXT,
    "family": FAMILY_TEXT,
    "a4": A4_TEXT,
    "coxeter_a3": COXETER_A3_TEXT,
    "coxeter_b3": COXETER_B3_TEXT,
    "a_one": A_ONE_TEXT,
    "conf0": CONF0_TEXT,
    "sigma": SIGMA_TEXT,
    "category": CATEGORY_TEXT,
}

# ---------------------------------------------------------------------------
# the reference: every ordered pair, canonicalized, deduplicated by signature


def ref_enumerate_critical_branchings(p, pump_bound):
    instances = p.all_rule_instances(pump_bound)
    found = {}
    for r1 in instances:
        len1 = len(r1.lhs)
        if len1 == 0:
            continue
        for r2 in instances:
            len2 = len(r2.lhs)
            if len2 == 0:
                continue
            for k in range(0, len1):
                if r1 == r2 and k == 0:
                    continue
                if k + len2 <= len1:
                    if r1.lhs.letters[k : k + len2] != r2.lhs.letters:
                        continue
                    source = r1.lhs
                else:
                    if r1.lhs.letters[k:] != r2.lhs.letters[: len1 - k]:
                        continue
                    source = r1.lhs.concat(r2.lhs.slice(len1 - k, len2))
                step1 = rstep(source.slice(0, 0), r1, source.slice(len1, len(source)))
                step2 = rstep(source.slice(0, k), r2, source.slice(k + len2, len(source)))
                b = make_local_branching(p, step1, step2)
                if b.kind != OVERLAPPING:
                    continue
                sig = (
                    source.letters,
                    tuple(sorted([(p.rule_key(step1.rule), 0), (p.rule_key(step2.rule), k)])),
                )
                if sig in found:
                    continue
                family = None
                if step1.rule.origin or step2.rule.origin:
                    family = (_family_name(b.step1.rule), _family_name(b.step2.rule), b.offset)
                found[sig] = CriticalBranching(b.source_word, b.step1, b.step2, b.kind, family)
    return sorted(
        found.values(),
        key=lambda c: (p.rule_key(c.step1.rule), p.rule_key(c.step2.rule), c.offset),
    )


def ref_knuth_bendix(p, max_rules=DEFAULT_MAX_RULES, fuel=DEFAULT_FUEL):
    """knuth_bendix re-enumerating the whole system after each added rule."""
    if p.pumped:
        raise PresentationError("completion over pumped rule families is unsupported")
    order = p.gen_order
    ok, report = check_deglex_termination(p, order)
    if not ok:
        bad = [e["rule"] for e in report if not e["ok"]]
        raise PresentationError(
            f"rules do not decrease under the given deglex order: {', '.join(bad)}"
        )

    budget = Budget.of(fuel)
    queue = deque(ref_enumerate_critical_branchings(p, 0))
    added = []
    trace = []
    counter = 1

    def fresh_name():
        nonlocal counter
        while f"kb{counter}" in p.rule_index:
            counter += 1
        name = f"kb{counter}"
        counter += 1
        return name

    while queue:
        b = queue.popleft()
        try:
            nf1, _ = normalize(p, b.step1.target_word, "leftmost", budget)
            nf2, _ = normalize(p, b.step2.target_word, "leftmost", budget)
        except FuelExhausted:
            trace.append({"action": "stopped: fuel exhausted", "source": str(b.source_word)})
            return CompletionResult(p, tuple(added), tuple(trace), "FuelExhausted")
        entry = {
            "source": str(b.source_word),
            "rules": [b.step1.rule.name, b.step2.rule.name],
            "nf1": str(nf1),
            "nf2": str(nf2),
        }
        if nf1 == nf2:
            entry["action"] = "joined"
            trace.append(entry)
            continue
        lhs, rhs = orient(order, nf1, nf2)
        if len(p.rules) >= max_rules:
            entry["action"] = f"stopped: rule cap {max_rules} reached before orienting"
            trace.append(entry)
            return CompletionResult(p, tuple(added), tuple(trace), "FuelExhausted")
        rule = Rule(fresh_name(), lhs, rhs)
        entry["action"] = f"added {rule}"
        trace.append(entry)
        added.append(rule)
        p = replace(p, rules=p.rules + (rule,))
        for c in ref_enumerate_critical_branchings(p, 0):
            if c.step1.rule == rule or c.step2.rule == rule:
                queue.append(c)

    return CompletionResult(p, tuple(added), tuple(trace), "Completed")


# ---------------------------------------------------------------------------
# comparison


def assert_same_branchings(p, pump_bound):
    got = enumerate_critical_branchings(p, pump_bound)
    want = ref_enumerate_critical_branchings(p, pump_bound)
    view = lambda bs: [(c.describe(), c.step1, c.step2, c.family, c.kind) for c in bs]
    assert view(got) == view(want)
    assert got == want


def completion_outcome(kb, p, **kw):
    try:
        r = kb(p, **kw)
    except PresentationError as exc:
        return ("error", str(exc))
    return (serialize_polygraph(r.final), r.added_rules, r.trace, r.status)


def random_presentation(rng):
    """Rules over a b c whose left-hand sides repeat, extend one another
    and overlap themselves, so every shape of critical branching occurs."""
    lhss = []
    for _ in range(rng.randint(2, 7)):
        shape = rng.choice(["fresh", "identical", "prefix", "self"])
        if shape == "identical" and lhss:
            lhs = rng.choice(lhss)
        elif shape == "prefix" and lhss:
            base = rng.choice(lhss)
            lhs = base[: rng.randint(1, len(base))] if rng.random() < 0.5 else (
                base + [rng.choice("abc") for _ in range(rng.randint(1, 2))])
        elif shape == "self":
            unit = [rng.choice("ab") for _ in range(rng.randint(1, 2))]
            lhs = unit * rng.randint(2, 3) + unit[: rng.randint(0, len(unit))]
        else:
            lhs = [rng.choice("abc") for _ in range(rng.randint(1, 4))]
        lhss.append(lhs)
    rules = "\n".join(
        f"r{i}: {' '.join(lhs)} => {' '.join(lhs[: rng.randint(0, len(lhs) - 1)]) or '1'}"
        for i, lhs in enumerate(lhss)
    )
    return parse_polygraph(f"monoid\ngenerators: a b c\norder: a < b < c\nrules:\n{rules}\n")


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_enumeration_matches_the_reference(name):
    p = parse_polygraph(TEXTS[name])
    for pump_bound in range(9):
        assert_same_branchings(p, pump_bound)


def branching_shape(c):
    if c.step1.rule is c.step2.rule:
        return "self"
    if c.offset == 0:
        return "identical" if len(c.step1.rule.lhs) == len(c.step2.rule.lhs) else "prefix"
    return "inclusion" if c.step2.span[1] <= c.step1.span[1] else "overlap"


def test_enumeration_matches_the_reference_on_random_overlaps():
    rng = random.Random(6)
    shapes = set()
    for _ in range(200):
        p = random_presentation(rng)
        assert_same_branchings(p, 0)
        shapes.update(branching_shape(c) for c in enumerate_critical_branchings(p, 0))
    assert shapes == {"self", "identical", "prefix", "inclusion", "overlap"}


@pytest.mark.parametrize("name", sorted(set(TEXTS) - {"lp"}))
def test_knuth_bendix_matches_the_reference(name):
    p = parse_polygraph(TEXTS[name])
    assert completion_outcome(knuth_bendix, p) == completion_outcome(ref_knuth_bendix, p)


@pytest.mark.parametrize("cap", [24, 48])
def test_knuth_bendix_matches_the_reference_on_lp(cap):
    p = parse_polygraph(LP_TEXT)
    got = completion_outcome(knuth_bendix, p, max_rules=cap)
    assert got == completion_outcome(ref_knuth_bendix, p, max_rules=cap)
    assert got[3] == "FuelExhausted" and len(got[1]) == cap - len(p.rules)


def test_knuth_bendix_matches_the_reference_on_random_overlaps():
    rng = random.Random(7)
    completed = 0
    for _ in range(40):
        p = random_presentation(rng)
        got = completion_outcome(knuth_bendix, p, max_rules=24, fuel=20_000)
        assert got == completion_outcome(ref_knuth_bendix, p, max_rules=24, fuel=20_000)
        completed += got[3] == "Completed" and bool(got[1])
    assert completed


def test_knuth_bendix_enumerates_once(monkeypatch, xyx):
    calls = []
    enumerate_all = completion.enumerate_critical_branchings

    def counted(*args):
        calls.append(args)
        return enumerate_all(*args)

    monkeypatch.setattr(completion, "enumerate_critical_branchings", counted)
    result = knuth_bendix(xyx)
    assert result.added_rules and len(calls) == 1
