"""Knuth–Bendix completion under a total deglex order, and the
Métivier–Squier reduction of convergent presentations to reduced ones.

Completion repeatedly resolves critical branchings: both legs are normalized
with the leftmost strategy, and when the normal forms differ the pair is
oriented by deglex into a new rule.  Under a total deglex order on parallel
words, distinct normal forms always orient, so completion never fails — it
either finishes or runs forever, which the rule cap and fuel turn into an
honest FuelExhausted result carrying the partial system.

No inter-reduction happens inline; chain metivier_squier_reduce afterwards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .presentation import (
    DEFAULT_FUEL,
    Budget,
    FuelExhausted,
    Polygraph,
    PresentationError,
    RewriteStep,
    Rule,
    ZigZag,
)
from .rewrite import (
    DEFAULT_PUMP_BOUND,
    check_deglex_termination,
    find_redexes,
    normal_form,
    normalize,
    orient,
    termination_evidence,
)
from .branchings import (
    _critical_branchings,
    _legs,
    decide_confluence,
    enumerate_critical_branchings,
)

DEFAULT_MAX_RULES = 256


@dataclass(frozen=True)
class CompletionResult:
    final: Polygraph
    added_rules: tuple[Rule, ...]
    trace: tuple[dict, ...]
    status: str  # "Completed" | "FuelExhausted"


def knuth_bendix(p, max_rules=DEFAULT_MAX_RULES, fuel=DEFAULT_FUEL):
    """Complete p into a convergent system under its deglex order.

    The branching queue is FIFO: the initial critical branchings in their
    enumeration order, then, after each added rule, the new branchings that
    involve it.  All normalizations draw on one budget (`fuel`, an int or a
    shared Budget).  ``max_rules`` caps the *total* number of rules.  The trace
    records one entry per processed branching: the joint normal form pair
    and either "joined" or the added rule.
    """
    if p.pumped:
        raise PresentationError("completion over pumped rule families is unsupported")
    ok, report = check_deglex_termination(p)
    if not ok:
        bad = [e["rule"] for e in report if not e["ok"]]
        raise PresentationError(
            f"rules do not decrease under the given deglex order: {', '.join(bad)}"
        )

    budget = Budget.of(fuel)
    queue = deque(enumerate_critical_branchings(p, 0))
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
            nf1, nf2 = _legs(p, b, budget, normal_form)
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
        oriented = orient(p.gen_order, nf1, nf2)
        assert oriented is not None, "distinct parallel words must orient under total deglex"
        lhs, rhs = oriented
        if len(p.rules) >= max_rules:
            entry["action"] = f"stopped: rule cap {max_rules} reached before orienting"
            trace.append(entry)
            return CompletionResult(p, tuple(added), tuple(trace), "FuelExhausted")
        rule = Rule(fresh_name(), lhs, rhs)
        entry["action"] = f"added {rule}"
        trace.append(entry)
        added.append(rule)
        p = replace(p, rules=p.rules + (rule,))
        pairs = [(rule, r) for r in p.rules] + [(r, rule) for r in p.rules[:-1]]
        queue.extend(_critical_branchings(p, pairs))

    return CompletionResult(p, tuple(added), tuple(trace), "Completed")


# ---------------------------------------------------------------------------
# reduced presentations


def is_reduced(p, pump_bound=DEFAULT_PUMP_BOUND):
    """Is every lhs irreducible by the *other* rules and every rhs
    irreducible by all rules?  Returns (ok, violations)."""
    violations = []
    instances = p.all_rule_instances(pump_bound)
    for rule in instances:
        for step in find_redexes(p, rule.lhs):
            if step.rule == rule:
                continue
            violations.append(
                f"rule {rule.name}: lhs {rule.lhs} reducible by {step.rule.name} "
                f"at {step.position}"
            )
            break
        for step in find_redexes(p, rule.rhs):
            violations.append(
                f"rule {rule.name}: rhs {rule.rhs} reducible by {step.rule.name} "
                f"at {step.position}"
            )
            break
    return not violations, violations


@dataclass(frozen=True)
class ReductionResult:
    final: Polygraph
    trace: tuple[dict, ...]


def metivier_squier_reduce(p, fuel=DEFAULT_FUEL, cert=None, ack_sampled=False):
    """Reduce a convergent presentation to a Tietze-equivalent reduced one.

    Three passes: (1) replace every rhs by its normal form — sound because
    matching depends only on the left-hand sides, which this pass never
    touches; (2) drop duplicates of rules with an identical boundary,
    keeping the first declared; (3) drop every rule whose lhs properly
    contains the lhs of another surviving rule.  Containment is transitive,
    so survival in pass 3 does not depend on processing order.

    Each removal/replacement is recorded in the trace together with a
    rewriting witness (checked here) showing the discarded boundary is still
    derivable — the soundness content of the corresponding Tietze moves.
    The confluence check and every normalization draw on one budget; the
    witness of a rule pass 3 removes is the leftmost normalization of its
    lhs, one unit per step, the first step included.
    """
    if p.pumped:
        raise PresentationError("reduction over pumped rule families is unsupported")
    termination_evidence(p, cert, ack_sampled, 0)
    budget = Budget.of(fuel)
    confluent, _ = decide_confluence(p, fuel=budget, pump_bound=0, assume_terminating=True)
    if not confluent:
        raise PresentationError("reduction requires a confluent input system")

    trace = []

    # pass 1: normalize right-hand sides in one sweep: normal forms depend
    # only on the left-hand sides, so no later change makes a normalized rhs
    # reducible again (the final is_reduced check confirms it).  The
    # polygraph, and so its redex scan, is rebuilt only when a rhs changes.
    rules = list(p.rules)
    current = p
    for i, rule in enumerate(rules):
        nf, path = normalize(current, rule.rhs, "leftmost", budget)
        if not path.steps:
            continue
        witness = ZigZag.of(RewriteStep(rule.lhs, 0, rule), *path.steps)
        trace.append({
            "pass": 1, "rule": rule.name,
            "old": str(rule.rhs), "new": str(nf),
            "witness": str(witness),
        })
        rules[i] = Rule(rule.name, rule.lhs, nf, origin=rule.origin)
        current = replace(p, rules=tuple(rules))
    p = current

    # pass 2: duplicate boundaries — keep the first declared
    seen = {}
    kept = []
    for rule in p.rules:
        key = (rule.lhs.text, rule.rhs.text)
        if key in seen:
            keeper = seen[key]
            witness = ZigZag.of(RewriteStep(keeper.lhs, 0, keeper))
            trace.append({
                "pass": 2, "removed": rule.name, "kept": keeper.name,
                "witness": str(witness),
            })
        else:
            seen[key] = rule
            kept.append(rule)
    p = replace(p, rules=tuple(kept))

    # pass 3: left-hand sides containing another surviving lhs
    def properly_contains(big, small):
        return len(small) < len(big) and big.occurrences(small)

    survivors = [
        r for r in p.rules
        if not any(properly_contains(r.lhs, other.lhs) for other in p.rules if other != r)
    ]
    final = replace(p, rules=tuple(survivors))
    for rule in p.rules:
        if rule in survivors:
            continue
        _, witness = normalize(final, rule.lhs, "leftmost", budget)
        inner = witness.steps[0]
        if witness.target != rule.rhs:
            raise AssertionError(
                f"pass 3 witness for {rule.name} ends at {witness.target}, "
                f"expected {rule.rhs}; input was not convergent"
            )
        trace.append({
            "pass": 3, "removed": rule.name,
            "contains": inner.rule.name, "witness": str(witness),
        })

    ok, violations = is_reduced(final, 0)
    assert ok, f"reduction left violations: {violations}"
    return ReductionResult(final, tuple(trace))

