"""The rewriting engine: redex search, strategies, normalization, the deglex
order, termination checks, and the word problem for certified-convergent
presentations.

Pumped rule families are instantiated lazily.  ``find_redexes`` enumerates
instances up to a bound; a pumped left-hand side longer than the inspected
word can never match, so a bound of the word length is exact.
``normalize`` enumerates none: its matcher reads the run of pump letters
at a match, so its normal forms are exact on the infinite systems, not
approximate.
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
    TwoCellPath,
    ZigZag,
    _split_affine,
)

__all__ = [
    "DEFAULT_FUEL",
    "DEFAULT_PUMP_BOUND",
    "RewriteStep",
    "TwoCellPath",
    "ZigZag",
    "find_redexes",
    "normalize",
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


def find_redexes(p, w, pump_bound=DEFAULT_PUMP_BOUND):
    """Every way a rule matches inside w, as forward rewriting steps.

    Sorted by position, then by rule declaration order (pumped families come
    after the plain rules, instances ordered by n).  Rules with an identity
    lhs never match.  Pumped instances are enumerated for n <= pump_bound,
    further capped by len(w) since longer instances cannot match.
    """
    instances = list(p.rules)
    for fam in p.pumped:
        top = min(pump_bound, len(w))
        instances.extend(fam.instance(n) for n in range(top + 1))
    out = []
    for rule in instances:
        if rule.lhs.is_identity:
            continue
        for pos in w.occurrences(rule.lhs):
            out.append(
                RewriteStep(w.slice(0, pos), rule, w.slice(pos + len(rule.lhs), len(w)))
            )
    out.sort(key=lambda s: (s.position, p.rule_key(s.rule)))
    return out


class Matcher:
    """The redex search of one presentation, built once per presentation
    (``Polygraph.matcher``).

    Each letter is encoded as one character, so a word is a string and
    ``re`` finds the next redex.  ``scans`` holds one search per strategy:
    ``leftmost`` reads the word forward, ``rightmost`` reads it reversed,
    where the least start is the greatest end in the word.
    """

    def __init__(self, p):
        letters = [g.name for g in p.generators]
        for rule in p.rules:  # a malformed presentation may use undeclared letters
            letters += rule.lhs.letters + rule.rhs.letters
        for fam in p.pumped:
            letters.append(fam.pump)
            for w in (fam.lhs_prefix, fam.lhs_suffix, fam.rhs_prefix, fam.rhs_suffix):
                letters += w.letters
        self.code = {}
        for letter in letters:
            self.code.setdefault(letter, chr(0x100 + len(self.code)))
        self.scans = {"leftmost": _Scan(self, p, reverse=False),
                      "rightmost": _Scan(self, p, reverse=True)}

    def encode(self, w):
        """w as a string, one character per letter ("\\0" for a letter no
        rule mentions)."""
        return "".join([self.code.get(letter, "\0") for letter in w.letters])

    def is_normal(self, w):
        """Is no rule instance a subword of w?"""
        return self.scans["leftmost"].search(self.encode(w), 0) is None


class _Scan:
    """The redex search in one reading direction of encoded words.

    A dict maps each plain left-hand side to its first rule in ``rule_key``
    order, and one pattern matches every left-hand side, pumped ones too.
    ``search`` takes the redex that starts first in this direction; among
    those, the forward scan takes the first rule, the reversed scan the
    shortest left-hand side (the greatest start in the word), then the first
    rule.  Pumped instances are never enumerated: the run of pump letters at
    the match fixes the least n.
    """

    def __init__(self, matcher, p, reverse):
        self.matcher = matcher
        self.reverse = reverse
        self.plain = {}  # lhs -> (rank, rule, rhs), the least rank per lhs
        for decl, rule in enumerate(p.rules):
            if not rule.lhs.is_identity:
                lhs, rank = self.encode(rule.lhs), (p.rule_key(rule), decl)
                if lhs not in self.plain or rank < self.plain[lhs][0]:
                    self.plain[lhs] = (rank, rule, self.encode(rule.rhs))
        self.lengths = sorted({len(lhs) for lhs in self.plain})
        self.families = []
        for decl, fam in enumerate(p.pumped, start=len(p.rules)):
            head, tail = self.encode(fam.lhs_prefix), self.encode(fam.lhs_suffix)
            if reverse:
                head, tail = tail, head
            key = p.rule_key(fam.instance(0))[0]
            self.families.append(_Pumped(fam, head, matcher.code[fam.pump], tail, key, decl))
        alternatives = [re.escape(lhs) for lhs in self.plain]
        alternatives += [fam.regex for fam in self.families]
        self.pattern = re.compile("|".join(alternatives)) if alternatives else None
        # A redex that is new after a rewrite at x reaches past x, so it
        # starts less than the longest fixed part (reach + 1) before x,
        # unless its run of pump letters reaches back beyond that; then it
        # starts at most the longest head (back) before the run.
        fixed = [len(lhs) for lhs in self.plain] + [f.fixed for f in self.families]
        self.reach = max(fixed + [1]) - 1
        self.pumps = "".join(sorted({matcher.code[fam.pump] for fam in p.pumped}))
        self.back = max((len(f.head) for f in self.families), default=0)

    def encode(self, w):
        text = self.matcher.encode(w)
        return text[::-1] if self.reverse else text

    def search(self, text, lo):
        """The redex to take in text at or after lo, as (position in text,
        rule, encoded rhs in this direction), or None."""
        found = self.pattern.search(text, lo) if self.pattern else None
        if found is None:
            return None
        x = found.start()
        best = None  # (order, rule, rhs), or (order, family, n) until an instance is taken
        for length in self.lengths:
            hit = self.plain.get(text[x:x + length]) if x + length <= len(text) else None
            if hit is not None:
                rank, rule, rhs = hit
                order = (length, rank) if self.reverse else rank
                if best is None or order < best[0]:
                    best = (order, rule, rhs)
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
            return x, rule, self.encode(rule.rhs)
        return x, chosen, rhs

    def rescan(self, text, x):
        """Where to search again after a rewrite at x, given that no redex
        started before x: no redex of the new text starts before it."""
        lo = max(x - self.reach, 0)
        if self.pumps:
            lo = max(len(text[:lo].rstrip(self.pumps)) - self.back, 0)
        return lo


class _Pumped:
    """A pumped family read in one direction: head . pump^n . tail."""

    def __init__(self, family, head, pump, tail, key, decl):
        self.family = family
        self.head, self.tail = head, tail
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


def normalize(p, w, strategy="leftmost", fuel=DEFAULT_FUEL):
    """Rewrite w to a normal form, returning (normal form, rewriting path).

    Deterministic given the strategy.  ``leftmost`` takes the redex of least
    start, then the first rule in ``rule_key`` order; ``rightmost`` takes
    the greatest end, then the greatest start, then the first rule.  Every
    pumped instance is considered, so normal forms are exact on pumped
    systems.  After a rewrite the search resumes only where a new redex can
    start.  Every step costs one unit of `fuel` (an int or a shared
    Budget); when it runs out, FuelExhausted carries the partial path in
    .trace — the signal for suspected non-termination.
    """
    try:
        scan = p.matcher.scans[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}") from None
    budget = Budget.of(fuel)
    steps = []
    current = w
    text = scan.encode(w)
    lo = 0
    try:
        while (hit := scan.search(text, lo)) is not None:
            x, rule, rhs = hit
            budget.charge()
            k = len(rule.lhs)
            i = len(text) - x - k if scan.reverse else x
            step = RewriteStep(current.slice(0, i), rule, current.slice(i + k, len(current)))
            steps.append(step)
            current = step.target_word
            text = text[:x] + rhs + text[x + k:]
            lo = scan.rescan(text, x)
    except FuelExhausted as exc:
        raise FuelExhausted(f"normalizing '{w}': {exc}", TwoCellPath(w, tuple(steps))) from None
    return current, TwoCellPath(w, tuple(steps))


# ---------------------------------------------------------------------------
# the deglex order


def deglex_compare(order, u, v):
    """Degree-wise lexicographic comparison: length first, then letterwise.

    A strict total order on parallel words whenever `order` is a total order
    on the generators.
    """
    rank = _rank(order)
    if len(u) != len(v):
        return LESS if len(u) < len(v) else GREATER
    for a, b in zip(u.letters, v.letters):
        if a != b:
            return LESS if rank[a] < rank[b] else GREATER
    return EQUAL


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


def check_deglex_termination(p, order=None, pump_bound=DEFAULT_PUMP_BOUND):
    """Does every rule strictly decrease the deglex order?

    Plain rules are compared directly.  For a pumped family
    prefix·g^n·suffix => prefix'·g^(pn+q)·suffix' the length difference is
    affine in n, so length arithmetic settles all but finitely many
    instances; the letterwise comparison of length-tied instances stabilizes
    once n exceeds the fixed parts, so checking small n decides the family.

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
        if fam.rhs_p == 1:
            diff = lhs_fixed - rhs_fixed  # constant in n
            if diff > 0:
                good, detail = True, f"every instance shortens by {diff}"
            elif diff < 0:
                good, detail = False, f"every instance grows by {-diff}"
            else:
                checked = range(max(pump_bound, 3) + 1)
                bad = [n for n in checked
                       if deglex_compare(rank, fam.instance(n).lhs, fam.instance(n).rhs)
                       != GREATER]
                good = not bad
                detail = ("length-tied; letterwise decrease verified (stable in n)"
                          if good else f"instance n={bad[0]} does not decrease")
        else:
            # rhs length is constant; lhs grows, so only small n can fail
            tail = max(rhs_fixed - lhs_fixed, 0) + 1
            checked = range(max(tail, pump_bound, 3) + 1)
            bad = [n for n in checked
                   if deglex_compare(rank, fam.instance(n).lhs, fam.instance(n).rhs)
                   != GREATER]
            good = not bad
            detail = ("decreases for all n (length wins beyond checked range)"
                      if good else f"instance n={bad[0]} does not decrease")
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

    def star_word(self, w, n):
        for letter in w.letters:
            a, b = self.star[letter]
            n = a * n + b
        return n

    def der_word(self, w, n):
        total = 0
        for letter in w.letters:
            total += sum(c * base**n for c, base in self.der[letter])
            a, b = self.star[letter]
            n = a * n + b
        return total

    def covers(self, p):
        return all(g.name in self.star and g.name in self.der for g in p.generators)


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
    line, '#' comments.  Star expressions are affine (`n`, `n+1`, `2*n+3`,
    `0`); derivation expressions are sums of `c*B^n` terms with B in 1,2,3,
    plus integer constants (`3^n`, `2*3^n + 1`, `0`)."""
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
        a, b = _split_affine(star_txt, lineno)
        if a < 0:
            raise PresentationError(f"star map for {name!r} is not monotone", lineno)
        star[name] = (a, b)
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
    missing = [g.name for g in p.generators if g.name not in cert.star or g.name not in cert.der]
    if missing:
        raise PresentationError(f"certificate does not cover generators: {', '.join(missing)}")
    failures = []
    rules = list(p.rules) + [
        fam.instance(k) for fam in p.pumped for k in range(sample_bound + 1)
    ]
    checked = 0
    for rule in rules:
        for n in range(sample_bound + 1):
            checked += 1
            su, sv = cert.star_word(rule.lhs, n), cert.star_word(rule.rhs, n)
            du, dv = cert.der_word(rule.lhs, n), cert.der_word(rule.rhs, n)
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
    if p.gen_order is not None and check_deglex_termination(p, pump_bound=pump_bound)[0]:
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
    possibly-wrong answer.
    """
    if u.source != v.source or u.target != v.target:
        raise CompositionError(f"'{u}' and '{v}' are not parallel")
    budget = Budget.of(fuel)
    certify_convergent(p, fuel=budget, pump_bound=pump_bound, cert=cert,
                       ack_sampled=ack_sampled)
    nf_u, _ = normalize(p, u, "leftmost", budget)
    nf_v, _ = normalize(p, v, "leftmost", budget)
    return nf_u == nf_v
