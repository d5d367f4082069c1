"""The rewriting engine: redex search, strategies, normalization, the deglex
order, termination checks, and the word problem for certified-convergent
presentations.

Pumped rule families are instantiated lazily.  ``find_redexes`` enumerates
instances up to the word's length: a pumped left-hand side longer than the
inspected word can never match, so its redex list is exact.
``normalize`` and ``normal_form`` enumerate none: their matcher reads the
run of pump letters at a match, so their normal forms are exact on the
infinite systems, not approximate.

Every normalization path, the sphere filler's σ included, and every normal
form comes from one walk (``_walk``), the only loop that turns the matcher's
rewrites into charged steps; ``normal_form`` runs it without recording the
steps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .presentation import (
    DEFAULT_FUEL,
    Budget,
    CompositionError,
    FuelExhausted,
    NotCertified,
    PresentationError,
    RewriteStep,
    Word,
    ZigZag,
    _split_affine,
)

__all__ = [
    "DEFAULT_FUEL",
    "DEFAULT_PUMP_BOUND",
    "RewriteStep",
    "ZigZag",
    "find_redexes",
    "normalize",
    "normal_form",
    "deglex_compare",
    "orient",
    "check_deglex_termination",
    "InterpretationCert",
    "parse_certificate",
    "check_interpretation_certificate",
    "termination_evidence",
    "certify_convergent",
    "word_eq",
]

DEFAULT_PUMP_BOUND = 8

LESS, EQUAL, GREATER = -1, 0, 1


# ---------------------------------------------------------------------------
# redexes and steps


def find_redexes(p, w):
    """Every way a rule matches inside w, as forward rewriting steps.

    Sorted by position, then by rule declaration order (pumped families come
    after the plain rules, instances ordered by n).  Rules with an identity
    lhs never match.  The list is exact: pumped instances are enumerated for
    n <= len(w), since longer instances cannot match.
    """
    out = []
    for rule in p.all_rule_instances(len(w)):
        if rule.lhs.is_identity:
            continue
        for pos in w.occurrences(rule.lhs):
            out.append(RewriteStep(w, pos, rule))
    out.sort(key=lambda s: (s.position, p.rule_key(s.rule)))
    return out


class _Scan:
    """The redex search in one reading direction of word texts, built once
    per presentation and strategy (``_scan``).

    A word is a string (``Word.text``), so ``re`` finds the next redex: the
    ``leftmost`` scan reads the text forward, the ``rightmost`` scan reads it
    reversed, where the least start is the greatest end in the word.

    A dict maps each plain left-hand side to its first rule in ``rule_key``
    order, and one pattern matches every left-hand side, pumped ones too.
    ``search`` takes the redex that starts first in this direction; among
    those, the forward scan takes the first rule, the reversed scan the
    shortest left-hand side (the greatest start in the word), then the first
    rule.  The pattern lists the plain left-hand sides in that order, so at
    the first start ``re`` takes the best of them.  Pumped instances are
    never enumerated: the run of pump letters at the match fixes the least n.
    """

    def __init__(self, p, reverse):
        self.reverse = reverse
        self.plain = {}  # lhs -> (order, rule, rhs), the least order per lhs
        for decl, rule in enumerate(p.rules):
            if not rule.lhs.is_identity:
                lhs, rank = self.read(rule.lhs), (p.rule_key(rule), decl)
                order = (len(lhs), rank) if reverse else rank
                if lhs not in self.plain or order < self.plain[lhs][0]:
                    self.plain[lhs] = (order, rule, self.read(rule.rhs))
        self.families = []
        for decl, fam in enumerate(p.pumped, start=len(p.rules)):
            head, tail = self.read(fam.lhs_prefix), self.read(fam.lhs_suffix)
            if reverse:
                head, tail = tail, head
            key = p.rule_key(fam.instance(0))[0]
            self.families.append(_Pumped(fam, head, fam._power(1).text, tail, key, decl))
        best = sorted(self.plain, key=lambda lhs: self.plain[lhs][0])
        alternatives = [re.escape(lhs) for lhs in best] + [fam.regex for fam in self.families]
        self.pattern = re.compile("|".join(alternatives)) if alternatives else None
        # A redex that is new after a rewrite at x reaches past x, so it
        # starts less than the longest fixed part (reach + 1) before x,
        # unless its run of pump letters reaches back beyond that; then it
        # starts at most the longest head (back) before the run.
        fixed = [len(lhs) for lhs in self.plain] + [f.fixed for f in self.families]
        self.reach = max(fixed + [1]) - 1
        self.pumps = "".join(f.pump for f in self.families)
        self.back = max((len(f.head) for f in self.families), default=0)

    def read(self, w):
        """The text of w in this direction."""
        return w.text[::-1] if self.reverse else w.text

    def word(self, text, source):
        """The word of a text in this direction, starting at source."""
        return Word._of(text[::-1] if self.reverse else text, source)

    def search(self, text, lo):
        """The redex to take in text at or after lo, as (position in text,
        rule, rhs text in this direction), or None."""
        found = self.pattern.search(text, lo) if self.pattern else None
        if found is None:
            return None
        x = found.start()
        # (order, rule, rhs) of the best plain redex at x, or (order,
        # family, n) until an instance is taken
        best = self.plain.get(found.group())
        if not self.families:
            return x, best[1], best[2]
        for fam in self.families:
            n = fam.least_n(text, x)
            if n is not None:
                rank = ((fam.key, n), fam.decl)
                order = (fam.fixed + n, rank) if self.reverse else rank
                if best is None or order < best[0]:
                    best = (order, fam, n)
        _, chosen, rhs = best
        if isinstance(chosen, _Pumped):
            rule = chosen.family.instance(rhs)
            return x, rule, self.read(rule.rhs)
        return x, chosen, rhs

    def rescan(self, text, x):
        """Where to search again after a rewrite at x, given that no redex
        started before x: no redex of the new text starts before it."""
        lo = max(x - self.reach, 0)
        if self.pumps:
            lo = max(len(text[:lo].rstrip(self.pumps)) - self.back, 0)
        return lo

    def rewrites(self, text):
        """The rewrites this strategy takes on a text in this direction,
        one at a time, as (position of the redex in the word read forward,
        rule, text after the rewrite).  The next redex is searched only when
        the caller asks for it, after the search resumed where a new redex
        can start; stopping early (on fuel) stops the search."""
        lo = 0
        while (hit := self.search(text, lo)) is not None:
            x, rule, rhs = hit
            k = len(rule.lhs.text)
            after = text[:x] + rhs + text[x + k:]
            yield (len(text) - x - k if self.reverse else x), rule, after
            text = after
            lo = self.rescan(text, x)


class _Pumped:
    """A pumped family read in one direction: head . pump^n . tail."""

    def __init__(self, family, head, pump, tail, key, decl):
        self.family = family
        self.head, self.pump, self.tail = head, pump, tail
        self.key, self.decl = key, decl  # its rule_key stem and declaration index
        self.fixed = len(head) + len(tail)
        self.least = 0 if self.fixed else 1  # an empty lhs never matches
        self.run = re.compile(re.escape(pump) + "*")
        self.tail_pumps = len(tail) - len(tail.lstrip(pump))
        self.regex = (re.escape(head) + re.escape(pump) + ("*" if self.fixed else "+")
                      + re.escape(tail))

    def least_n(self, text, x):
        """The least n with an instance at x in text, or None."""
        if not text.startswith(self.head, x):
            return None
        start = x + len(self.head)
        pumps = self.run.match(text, start).end() - start
        if self.tail_pumps == len(self.tail):  # the tail is pump letters only
            return self.least if self.least + len(self.tail) <= pumps else None
        n = pumps - self.tail_pumps  # the run stops inside the tail
        return n if n >= 0 and text.startswith(self.tail, start + n) else None


def _scan(p, strategy):
    scans = p._scans
    if strategy not in scans:
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        scans[strategy] = _Scan(p, reverse=strategy == "rightmost")
    return scans[strategy]


def _walk(p, w, strategy, fuel, known=(), record=True):
    """The steps strategy takes from w, one unit of fuel each, as (steps,
    the word they reach).  Each step checks its input side, and reaches the
    text the scan spliced.  The walk stops at a normal form, or at the
    first word it reaches that is in ``known``.  When the fuel runs out,
    FuelExhausted carries the partial path paid for in .trace, under
    ``normalize``'s message.

    Unrecorded, the walk takes the same rewrites on the text alone and
    returns no steps; a partial path is then built when .trace is first
    read, by replaying the paid steps with ``normalize``.
    """
    scan = _scan(p, strategy)
    budget = Budget.of(fuel)
    before = budget.left
    steps = []
    current = w
    text = scan.read(w)
    try:
        for i, rule, after in scan.rewrites(text):
            budget.charge()
            if not rule.parallel:  # target_word refuses the step
                RewriteStep(scan.word(text, w.source), i, rule).target_word
            text = after
            if record:
                steps.append(RewriteStep(current, i, rule))
                current = scan.word(text, w.source)
                if current in known:
                    break
    except FuelExhausted as exc:
        message = f"normalizing '{w}': {exc}"
        if record:
            raise FuelExhausted(message, ZigZag._chained(w, tuple(steps), current)) from None
        size, spent = budget.fuel, before - budget.left

        def partial_path():
            replay = Budget(size)
            replay.left = spent
            try:
                normalize(p, w, strategy, replay)
            except FuelExhausted as again:  # at the step this walk ran out on
                return again.trace

        raise FuelExhausted(message, partial_path) from None
    return tuple(steps), (current if record else scan.word(text, w.source))


def normalize(p, w, strategy="leftmost", fuel=DEFAULT_FUEL):
    """Rewrite w to a normal form, returning (normal form, rewriting path).

    Deterministic given the strategy.  ``leftmost`` takes the redex of least
    start, then the first rule in ``rule_key`` order; ``rightmost`` takes
    the greatest end, then the greatest start, then the first rule.  Every
    pumped instance is considered, so normal forms are exact on pumped
    systems.  After a rewrite the search resumes only where a new redex can
    start.  Every step costs one unit of `fuel` (an int or a shared
    Budget); when it runs out, FuelExhausted carries the partial path in
    .trace — the signal for suspected non-termination.  A caller that
    needs only the normal form calls ``normal_form``, which takes the same
    steps without building them.
    """
    steps, nf = _walk(p, w, strategy, fuel)
    return nf, ZigZag._chained(w, steps, nf)


def normal_form(p, w, strategy="leftmost", fuel=DEFAULT_FUEL):
    """The normal form ``normalize(p, w, strategy, fuel)`` returns, without
    its path.

    The same steps are taken on the word's text, one string splice each,
    and charged one unit each.  When the fuel runs out, FuelExhausted has
    the message of ``normalize``; its partial path is built when ``.trace``
    is first read, by replaying the steps taken with ``normalize``.
    """
    return _walk(p, w, strategy, fuel, record=False)[1]


# ---------------------------------------------------------------------------
# the deglex order


def deglex_compare(order, u, v):
    """Degree-wise lexicographic comparison: length first, then letterwise.

    A strict total order on parallel words whenever `order` is a total order
    on the generators.
    """
    key = _deglex_key(order)
    a, b = key(u), key(v)
    return EQUAL if a == b else LESS if a < b else GREATER


def _deglex_key(order):
    """The deglex order as a sort key: length, then the letters' ranks."""
    rank = _rank(order)
    return lambda w: (len(w), [rank[x] for x in w.letters])


def _rank(order):
    if order is None:
        raise PresentationError("no generator order declared (add an order: clause)")
    if isinstance(order, dict):
        return order
    return {name: i for i, name in enumerate(order)}


def orient(order, u, v):
    """Orient a pair of parallel words into a decreasing rule.

    Returns (lhs, rhs) with lhs > rhs under deglex, or None when u = v (the
    unorientable case — deglex is total on parallel words, so distinct words
    always orient).
    """
    c = deglex_compare(order, u, v)
    if c == EQUAL:
        return None
    return (u, v) if c == GREATER else (v, u)


def check_deglex_termination(p, order=None):
    """Does every rule strictly decrease the deglex order?

    Plain rules are compared directly.  For a pumped family
    prefix·g^n·suffix => prefix'·g^(pn+q)·suffix' the length difference is
    affine in n, so length arithmetic settles all but finitely many
    instances.  Length-tied instances (p = 1) compare letterwise, and that
    comparison no longer depends on n once n reaches the longer prefix plus
    the longer suffix; so checking n up to there decides the family.

    Returns (ok, report) where report has one entry per rule/family.
    """
    order = order if order is not None else p.gen_order
    rank = _rank(order)  # raises if absent
    report = []
    ok = True

    for r in p.rules:
        good = deglex_compare(rank, r.lhs, r.rhs) == GREATER
        report.append(
            {"rule": r.name, "ok": good,
             "detail": "lhs > rhs" if good else f"{r.lhs} is not deglex-greater than {r.rhs}"}
        )
        ok = ok and good

    for fam in p.pumped:
        lhs_fixed = len(fam.lhs_prefix) + len(fam.lhs_suffix)
        rhs_fixed = len(fam.rhs_prefix) + len(fam.rhs_suffix) + fam.rhs_q
        diff = lhs_fixed - rhs_fixed
        if fam.rhs_p == 1 and diff:
            # the length difference is constant in n
            good = diff > 0
            detail = (f"every instance shortens by {diff}" if good
                      else f"every instance grows by {-diff}")
        else:
            if fam.rhs_p == 1:
                stable = (max(len(fam.lhs_prefix), len(fam.rhs_prefix))
                          + max(len(fam.lhs_suffix), len(fam.rhs_suffix)))
                checked = range(stable + 1)
                holds = "length-tied; letterwise decrease verified (stable in n)"
            else:
                # rhs length is constant; lhs grows, so only small n can fail
                checked = range(max(-diff, 0) + 2)
                holds = "decreases for all n (length wins beyond checked range)"
            bad = [n for n, inst in zip(checked, map(fam.instance, checked))
                   if deglex_compare(rank, inst.lhs, inst.rhs) != GREATER]
            good = not bad
            detail = holds if good else f"instance n={bad[0]} does not decrease"
        report.append({"rule": f"{fam.name}[n]", "ok": good, "detail": detail})
        ok = ok and good

    return ok, report


# ---------------------------------------------------------------------------
# interpretation certificates (termination beyond deglex)
#
# A certificate interprets each generator g by a monotone affine map
# g_*: n -> a*n + b on the naturals and a "derivation count"
# der(g): n -> sum of c * beta^n with beta in {1,2,3}.  Words compose by
#     (uv)_*(n) = v_*(u_*(n)),    der(uv)(n) = der(u)(n) + der(v)(u_*(n)),
# and the certificate claims u_*(n) >= v_*(n) and der(u)(n) > der(v)(n) for every
# rule u => v.  Checking samples n <= sample_bound falsifies bad certificates
# but proves nothing — the report says PASS(sampled), never "proved".


@dataclass(frozen=True)
class InterpretationCert:
    star: dict  # generator -> (a, b) meaning n -> a*n + b, a >= 0
    der: dict  # generator -> tuple of (coef, base) terms, base in {1, 2, 3}

    def interpret(self, w, n, table):
        """(w_*(n), der(w)(n)): the star maps composed along w, and the
        derivation counts summed along them.  ``table`` keeps
        (letter, n) -> (der(letter)(n), letter_*(n)) between calls."""
        total = 0
        for letter in w.letters:
            step = table.get((letter, n))
            if step is None:
                a, b = self.star[letter]
                step = table[letter, n] = (
                    sum(c * base**n for c, base in self.der[letter]), a * n + b)
            der, n = step
            total += der
        return n, total

    def missing(self, p):
        """The generators of p the certificate gives no star map or no
        derivation count."""
        return [g.name for g in p.generators if g.name not in self.star or g.name not in self.der]


def _parse_der(text, line):
    text = text.replace(" ", "")
    terms = []
    for part in text.split("+"):
        m = re.fullmatch(r"(?:(\d+)\*?)?([123])\^n", part)
        if m:
            terms.append((int(m.group(1)) if m.group(1) else 1, int(m.group(2))))
        elif re.fullmatch(r"\d+", part):
            if int(part):
                terms.append((int(part), 1))
        else:
            raise PresentationError(f"cannot parse derivation expression {part!r}", line)
    return tuple(terms)


def parse_certificate(text):
    """Parse a certificate file: one `gen: star EXPR ; der EXPR` entry per
    line, '#' comments.  Star expressions are affine with natural
    coefficients, so every star map is monotone (`n`, `n+1`, `2*n+3`, `0`);
    derivation expressions are sums of `c*B^n` terms with B in 1,2,3, plus
    integer constants (`3^n`, `2*3^n + 1`, `0`)."""
    star, der = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(\S+?)\s*:\s*star\s+([^;]+);\s*der\s+(.+)", line)
        if not m:
            raise PresentationError(f"cannot parse certificate entry {line!r}", lineno)
        name, star_txt, der_txt = m.group(1), m.group(2).strip(), m.group(3).strip()
        if name in star:
            raise PresentationError(f"duplicate certificate entry for {name!r}", lineno)
        star[name] = _split_affine(star_txt, lineno)
        der[name] = _parse_der(der_txt, lineno)
    return InterpretationCert(star, der)


def check_interpretation_certificate(p, cert, sample_bound=16):
    """Falsification check of a termination certificate by sampling.

    Every rule (pumped instances included, pump index up to sample_bound) is
    tested at n = 0..sample_bound for the weak star inequality and the
    strict derivation inequality.  Returns a report dict; status is
    "PASS(sampled)" or "FAIL" with the first witness.  A negative
    sample_bound is a ValueError: it would check nothing and pass.
    """
    if sample_bound < 0:
        raise ValueError(f"sample_bound must be at least 0, got {sample_bound}")
    missing = cert.missing(p)
    if missing:
        raise PresentationError(f"certificate does not cover generators: {', '.join(missing)}")
    failures = []
    rules = p.all_rule_instances(sample_bound)
    table = {}  # for this call only: see InterpretationCert.interpret
    checked = 0
    for rule in rules:
        for n in range(sample_bound + 1):
            checked += 1
            su, du = cert.interpret(rule.lhs, n, table)
            sv, dv = cert.interpret(rule.rhs, n, table)
            if not (su >= sv and du > dv):
                failures.append(
                    {"rule": rule.name, "n": n,
                     "star": (su, sv), "der": (du, dv),
                     "detail": f"need star {su} >= {sv} and der {du} > {dv}"}
                )
                break  # first witness per rule is enough
    return {
        "status": "FAIL" if failures else "PASS(sampled)",
        "passed": not failures,
        "sample_bound": sample_bound,
        "rules_checked": len(rules),
        "samples": checked,
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# the word problem


def termination_evidence(p, cert=None, ack_sampled=False, pump_bound=DEFAULT_PUMP_BOUND):
    """Demand termination evidence; return a description of it.

    Accepted: a declared generator order passing the deglex check, or an
    interpretation certificate passing its sampled check *with the caller
    explicitly acknowledging* that sampling is falsification, not proof.
    Raises NotCertified otherwise.
    """
    if p.gen_order is not None and check_deglex_termination(p)[0]:
        return "deglex"
    if cert is not None:
        result = check_interpretation_certificate(p, cert, sample_bound=max(16, pump_bound))
        if not result["passed"]:
            first = result["failures"][0]
            raise NotCertified(
                f"interpretation certificate fails: {first['detail']} "
                f"(rule {first['rule']}, n={first['n']})"
            )
        if not ack_sampled:
            raise NotCertified(
                "certificate passed sampled checks only; pass ack_sampled=True "
                "(CLI: supplying --cert acknowledges this) to proceed"
            )
        return "interpretation (sampled)"
    raise NotCertified(
        "no termination evidence: declare a generator order passing the deglex "
        "check or supply an interpretation certificate"
    )


def certify_convergent(p, fuel=DEFAULT_FUEL, pump_bound=DEFAULT_PUMP_BOUND,
                       cert=None, ack_sampled=False):
    """Establish the evidence needed before trusting normal forms:
    termination (see termination_evidence) plus confluence of every critical
    branching.  Raises NotCertified when the evidence is missing or
    negative; returns a report otherwise.
    """
    from .branchings import decide_confluence  # cycle: branchings builds on rewrite

    termination = termination_evidence(p, cert, ack_sampled, pump_bound)
    confluent, conf_report = decide_confluence(p, fuel=fuel, pump_bound=pump_bound,
                                               assume_terminating=True)
    if not confluent:
        bad = next(e for e in conf_report["branchings"] if e["status"] == "NotConfluent")
        raise NotCertified(
            f"not confluent: branching on '{bad['source']}' has distinct normal forms "
            f"'{bad['nf1']}' and '{bad['nf2']}'"
        )
    return {"termination": termination, "confluence": conf_report}


def word_eq(p, u, v, fuel=DEFAULT_FUEL, pump_bound=DEFAULT_PUMP_BOUND,
            cert=None, ack_sampled=False):
    """Decide u = v in the presented monoid/category via normal forms.

    Sound only for convergent systems, so the certification gate runs first
    (see certify_convergent); NotCertified is raised rather than returning a
    possibly-wrong answer.  The gate runs once per presentation object and
    set of gate parameters (see ``_certified_normal_forms``); every call
    charges its fuel all the same.
    """
    if u.source != v.source or u.target != v.target:
        raise CompositionError(f"'{u}' and '{v}' are not parallel")
    nf_u, nf_v = _certified_normal_forms(p, (u, v), fuel, pump_bound, cert, ack_sampled)
    return nf_u == nf_v


def _certified_normal_forms(p, words, fuel=DEFAULT_FUEL, pump_bound=DEFAULT_PUMP_BOUND,
                           cert=None, ack_sampled=False):
    """The leftmost normal forms of words, after the certification gate of
    ``certify_convergent``; the gate and every normal form draw on one
    budget.

    Convergence is a property of the presentation, so the gate runs once
    per presentation object, pump bound, certificate content and
    acknowledgement, and ``p._certified`` records the fuel units it
    charged.  A later call with the same parameters charges those units
    where the gate would have, when the budget has them; otherwise the gate
    runs again, so it raises its own FuelExhausted.  A failed gate
    (NotCertified, FuelExhausted) is never recorded.
    """
    budget = Budget.of(fuel)
    key = (pump_bound, bool(ack_sampled),
           None if cert is None else (frozenset(cert.star.items()),
                                      frozenset(cert.der.items())))
    units = p._certified.get(key)
    if units is not None and budget.left >= units:
        budget.left -= units
    else:
        before = budget.left
        certify_convergent(p, fuel=budget, pump_bound=pump_bound, cert=cert,
                           ack_sampled=ack_sampled)
        p._certified[key] = before - budget.left
    return [normal_form(p, w, "leftmost", budget) for w in words]
