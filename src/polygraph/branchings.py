"""Local and critical branchings, their classification and resolution, and
the decision procedure for confluence of terminating systems.

A local branching is an unordered pair of rewriting steps out of one word.
Aspherical pairs (literally the same step) and Peiffer pairs (disjoint,
possibly adjacent, redex spans) always resolve; the interesting geometry is
concentrated in the overlapping pairs, and among those only the *critical*
ones — where the word is exactly the union of the two redex spans — matter:
every other overlap is a whiskered copy of a critical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .presentation import (
    DEFAULT_FUEL,
    Budget,
    CompositionError,
    FuelExhausted,
    RewriteStep,
    Word,
    ZigZag,
)
from .rewrite import DEFAULT_PUMP_BOUND, normal_form, normalize, termination_evidence

ASPHERICAL = "aspherical"
PEIFFER = "peiffer"
OVERLAPPING = "overlapping"


@dataclass(frozen=True)
class LocalBranching:
    """An unordered pair of rewriting steps on one source word.

    Construct through make_local_branching, which canonicalizes the order of
    the two steps so that (f, g) and (g, f) coincide.
    """

    source_word: Word
    step1: RewriteStep
    step2: RewriteStep
    kind: str

    @property
    def offset(self):
        return self.step2.position - self.step1.position

    def describe(self):
        return (
            f"({self.step1.rule.name} @ {self.step1.position}, "
            f"{self.step2.rule.name} @ {self.step2.position}) on '{self.source_word}'"
        )


def classify_local_branching(step1, step2):
    """Aspherical: the same rule applied at the same position.  Peiffer:
    disjoint (or merely adjacent) redex spans.  Overlapping: the rest."""
    if step1.source_word != step2.source_word:
        raise CompositionError(
            f"branching steps rewrite different words: "
            f"{step1.source_word} vs {step2.source_word}"
        )
    if step1.rule == step2.rule and step1.position == step2.position:
        return ASPHERICAL
    (i1, j1), (i2, j2) = step1.span, step2.span
    if j1 <= i2 or j2 <= i1:
        return PEIFFER
    return OVERLAPPING


def make_local_branching(p, step1, step2):
    kind = classify_local_branching(step1, step2)
    key = lambda s: (s.position, p.rule_key(s.rule))
    if key(step2) < key(step1):
        step1, step2 = step2, step1
    return LocalBranching(step1.source_word, step1, step2, kind)


@dataclass(frozen=True)
class CriticalBranching(LocalBranching):
    """An overlapping branching whose source word is exactly the union of
    the two redex spans (the minimal representative of its whisker class).

    ``family`` groups instances that arise from a pumped rule family: all
    branchings sharing (rule-or-stem names, offset) belong to one family and
    are reported once, with their instances enumerated up to the pump bound.
    """

    family: tuple | None = None

    def entry(self):
        """The branching as a JSON report entry: its source and its two steps."""
        return {"source": str(self.source_word),
                "rules": [f"{s.rule.name}@{s.position}" for s in (self.step1, self.step2)]}


def _family_name(rule):
    return f"{rule.origin[0]}[n]" if rule.origin else rule.name


def _critical_branchings(p, pairs):
    """The critical branchings of ordered rule pairs (r1, r2), r1 at
    position 0 and r2 at offset k; sorted by declaration order of the two
    rules, then offset.

    Two shapes exist.  Inclusion: r2's lhs occurs inside r1's at k
    (identical lhs of distinct rules being the degenerate case, counted
    once, from the rule declared first).  Proper overlap: a suffix of r1's
    lhs is a prefix of r2's, with k >= 1.  Self-overlaps (same rule against
    itself at k > 0) count; the same rule at k = 0 is aspherical, not
    critical.  So each unordered branching comes from one ordered pair, and
    a caller passing both orders of a pair gets it once.  At k = 0 the steps
    are ordered by declaration.
    """
    out = []
    for r1, r2 in pairs:
        w1, w2 = r1.lhs.text, r2.lhs.text
        len1, len2 = len(w1), len(w2)
        if len2 == 0:
            continue  # an empty lhs never matches
        swap = p.rule_key(r2) < p.rule_key(r1)
        for k in range(len1):
            if k + len2 <= len1:
                if w1[k : k + len2] != w2:
                    continue
                if k == 0 and (r1 is r2 or (len1 == len2 and swap)):
                    continue
                source = r1.lhs
            else:
                if k == 0 or w1[k:] != w2[: len1 - k]:
                    continue
                source = r1.lhs.concat(r2.lhs.slice(len1 - k, len2))
            step1 = RewriteStep(source, 0, r1)
            step2 = RewriteStep(source, k, r2)
            if k == 0 and swap:
                step1, step2 = step2, step1
            family = None
            if r1.origin or r2.origin:
                family = (_family_name(step1.rule), _family_name(step2.rule), k)
            out.append(CriticalBranching(source, step1, step2, OVERLAPPING, family))
    return sorted(
        out, key=lambda c: (p.rule_key(c.step1.rule), p.rule_key(c.step2.rule), c.offset)
    )


def enumerate_critical_branchings(p, pump_bound=DEFAULT_PUMP_BOUND):
    """All critical branchings, pumped instances enumerated for n <= pump_bound,
    in the order of _critical_branchings."""
    instances = p.all_rule_instances(pump_bound)
    return _critical_branchings(p, product(instances, repeat=2))


# ---------------------------------------------------------------------------
# resolution


@dataclass(frozen=True)
class Resolution:
    """A confluence diagram: step_i followed by path_i ends at join_word."""

    branching: CriticalBranching
    f_prime: ZigZag
    g_prime: ZigZag
    join_word: Word
    status = "Confluent"


@dataclass(frozen=True)
class NotConfluent:
    branching: CriticalBranching
    nf1: Word
    nf2: Word
    f_prime: ZigZag
    g_prime: ZigZag
    status = "NotConfluent"


def resolve_branching(p, b, fuel=DEFAULT_FUEL):
    """Normalize both legs of a branching leftmost and compare the normal
    forms.

    Both legs draw on one budget (`fuel`, an int or a shared Budget);
    FuelExhausted names the branching when it runs out.
    """
    (nf1, f_prime), (nf2, g_prime) = _legs(p, b, Budget.of(fuel), normalize)
    if nf1 == nf2:
        return Resolution(b, f_prime, g_prime, nf1)
    return NotConfluent(b, nf1, nf2, f_prime, g_prime)


def _legs(p, b, budget, rewrite):
    """``rewrite`` (``normalize`` or ``normal_form``) applied leftmost to the
    targets of both steps of b, on one budget; FuelExhausted names b."""
    try:
        return (rewrite(p, b.step1.target_word, "leftmost", budget),
                rewrite(p, b.step2.target_word, "leftmost", budget))
    except FuelExhausted as exc:
        raise FuelExhausted(f"resolving branching {b.describe()}: {exc}") from None


def decide_confluence(p, cert=None, ack_sampled=False, fuel=DEFAULT_FUEL,
                      pump_bound=DEFAULT_PUMP_BOUND, assume_terminating=False):
    """Decide confluence of a terminating system via its critical branchings.

    Local confluence of all critical branchings is equivalent to confluence
    for terminating systems, so termination evidence is demanded up front
    (a deglex-decreasing order, or an interpretation certificate passed with
    explicit acknowledgment of its sampled nature); assume_terminating skips
    that gate for callers that have already established it.

    Returns (confluent, report).  Raises FuelExhausted, with the partial
    report in .trace, when the one budget for all branchings runs out — an
    honest "cannot answer", distinct from a negative answer.
    """
    if not assume_terminating:
        termination_evidence(p, cert, ack_sampled, pump_bound)

    budget = Budget.of(fuel)
    branchings = enumerate_critical_branchings(p, pump_bound)
    entries = []
    confluent = True
    for b in branchings:
        try:
            nf1, nf2 = _legs(p, b, budget, normal_form)
        except FuelExhausted as exc:
            partial = {"branchings": entries, "truncated": bool(p.pumped)}
            raise FuelExhausted(str(exc), partial) from None
        entry = b.entry()
        entry["status"] = "Confluent" if nf1 == nf2 else "NotConfluent"
        if b.family:
            entry["family"] = f"{b.family[0]} ~ {b.family[1]} @ offset {b.family[2]}"
        if nf1 == nf2:
            entry["join"] = str(nf1)
        else:
            entry["nf1"], entry["nf2"] = str(nf1), str(nf2)
            confluent = False
        entries.append(entry)
    report = {
        "confluent": confluent,
        "count": len(branchings),
        "families": len({b.family for b in branchings if b.family}),
        "truncated": bool(p.pumped),
        "pump_bound": pump_bound,
        "branchings": entries,
    }
    return confluent, report

