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

from .presentation import (
    DEFAULT_FUEL,
    Budget,
    CompositionError,
    FuelExhausted,
    RewriteStep,
    TwoCellPath,
    Word,
)
from .rewrite import DEFAULT_PUMP_BOUND, normalize

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
class CriticalBranching:
    """An overlapping branching whose source word is exactly the union of
    the two redex spans (the minimal representative of its whisker class).

    ``family`` groups instances that arise from a pumped rule family: all
    branchings sharing (rule-or-stem names, offset) belong to one family and
    are reported once, with their instances enumerated up to the pump bound.
    """

    branching: LocalBranching
    minimal: bool = True
    family: tuple | None = None

    @property
    def source_word(self):
        return self.branching.source_word

    @property
    def step1(self):
        return self.branching.step1

    @property
    def step2(self):
        return self.branching.step2

    @property
    def offset(self):
        return self.branching.offset

    def describe(self):
        return (
            f"({self.step1.rule.name} @ {self.step1.position}, "
            f"{self.step2.rule.name} @ {self.step2.position}) on '{self.source_word}'"
        )


def _family_name(rule):
    return f"{rule.origin[0]}[n]" if rule.origin else rule.name


def enumerate_critical_branchings(p, pump_bound=DEFAULT_PUMP_BOUND):
    """All critical branchings, pumped instances enumerated for n <= pump_bound.

    Two shapes exist.  Proper overlap: a suffix of one lhs is a prefix of the
    other, the source being the amalgam.  Inclusion: one lhs occurs inside
    the other (identical lhs of distinct rules being the degenerate case).
    Self-overlaps (same rule against itself at offset > 0) count; the same
    rule at offset 0 is aspherical, not critical.

    Deduplicated as unordered pairs; sorted by declaration order of the two
    rules, then offset.
    """
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
                    continue  # aspherical
                if k + len2 <= len1:
                    # inclusion: r2's lhs sits inside r1's
                    if r1.lhs.letters[k : k + len2] != r2.lhs.letters:
                        continue
                    source = r1.lhs
                else:
                    # proper overlap: suffix of r1 meets prefix of r2
                    if r1.lhs.letters[k:] != r2.lhs.letters[: len1 - k]:
                        continue
                    source = r1.lhs.concat(r2.lhs.slice(len1 - k, len2))
                step1 = RewriteStep(source.slice(0, 0), r1, source.slice(len1, len(source)))
                step2 = RewriteStep(source.slice(0, k), r2, source.slice(k + len2, len(source)))
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
                found[sig] = CriticalBranching(b, family=family)
    return sorted(
        found.values(),
        key=lambda c: (p.rule_key(c.step1.rule), p.rule_key(c.step2.rule), c.offset),
    )


# ---------------------------------------------------------------------------
# resolution


@dataclass(frozen=True)
class Resolution:
    """A confluence diagram: step_i followed by path_i ends at join_word."""

    branching: CriticalBranching
    f_prime: TwoCellPath
    g_prime: TwoCellPath
    join_word: Word
    status = "Confluent"


@dataclass(frozen=True)
class NotConfluent:
    branching: CriticalBranching
    nf1: Word
    nf2: Word
    f_prime: TwoCellPath
    g_prime: TwoCellPath
    status = "NotConfluent"


def resolve_branching(p, b, strategy="leftmost", fuel=DEFAULT_FUEL):
    """Normalize both legs of a branching and compare the normal forms.

    Both legs draw on one budget (`fuel`, an int or a shared Budget);
    FuelExhausted names the branching when it runs out.
    """
    budget = Budget.of(fuel)
    try:
        nf1, f_prime = normalize(p, b.step1.target_word, strategy, budget)
        nf2, g_prime = normalize(p, b.step2.target_word, strategy, budget)
    except FuelExhausted as exc:
        raise FuelExhausted(f"resolving branching {b.describe()}: {exc}") from None
    if nf1 == nf2:
        return Resolution(b, f_prime, g_prime, nf1)
    return NotConfluent(b, nf1, nf2, f_prime, g_prime)


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
        _require_termination(p, cert, ack_sampled, pump_bound)

    budget = Budget.of(fuel)
    branchings = enumerate_critical_branchings(p, pump_bound)
    entries = []
    confluent = True
    for b in branchings:
        try:
            res = resolve_branching(p, b, "leftmost", budget)
        except FuelExhausted as exc:
            exc.trace = {"branchings": entries, "truncated": bool(p.pumped)}
            raise
        entry = {
            "source": str(b.source_word),
            "rules": [
                f"{b.step1.rule.name}@{b.step1.position}",
                f"{b.step2.rule.name}@{b.step2.position}",
            ],
            "status": res.status,
        }
        if b.family:
            entry["family"] = f"{b.family[0]} ~ {b.family[1]} @ offset {b.family[2]}"
        if res.status == "Confluent":
            entry["join"] = str(res.join_word)
        else:
            entry["nf1"], entry["nf2"] = str(res.nf1), str(res.nf2)
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


def _require_termination(p, cert, ack_sampled, pump_bound):
    from .rewrite import termination_evidence  # late import; rewrite calls us back

    termination_evidence(p, cert, ack_sampled, pump_bound)
