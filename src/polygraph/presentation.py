"""Data model for presentations of monoids and categories by generators,
rewriting rules, and (optionally) cells between parallel rewrites.

A presentation here is a *polygraph*: a set of 0-cells (objects), typed
generators between them (1-cells), rules rewriting words to parallel words
(2-cells), and optional 3-cells connecting parallel rewriting paths.  Monoid
presentations are the single-object case; one data model serves both.

Everything is an immutable value.  Transformations return new polygraphs.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property

MONOID_OBJECT = "*"

DEFAULT_FUEL = 10**6


class PresentationError(ValueError):
    """A presentation file or polygraph component is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CompositionError(ValueError):
    """Cells that were supposed to compose do not."""


class FuelExhausted(RuntimeError):
    """The fuel ran out (suspected non-termination), or a sphere needs a
    pumped rule instance above the pump bound; the message names the phase.

    ``trace`` holds the partial path of an exhausted ``normalize`` or
    ``normal_form``, the partial report of an exhausted
    ``decide_confluence``, and None otherwise.  A trace given as a
    zero-argument callable is called when ``trace`` is first read.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self._trace = trace

    @property
    def trace(self):
        if callable(self._trace):
            self._trace = self._trace()
        return self._trace


class Budget:
    """The fuel of one top-level call, shared by everything that call runs.

    ``normalize`` and ``normal_form`` charge one unit per rewriting step
    and the sphere filler one per step whose 3-cell S it builds, one per
    Peiffer run and one per σ step it walks; what it meets again in the
    call costs nothing.  Every
    ``fuel=`` parameter takes an int, which starts a fresh budget for that
    call, or a Budget, which the call charges in place and hands on to
    everything it runs.
    """

    def __init__(self, fuel=DEFAULT_FUEL):
        self.fuel = fuel
        self.left = fuel

    @classmethod
    def of(cls, fuel):
        """``fuel`` itself if it is a Budget, else a fresh budget of that size."""
        return fuel if isinstance(fuel, Budget) else cls(fuel)

    def charge(self):
        """Spend one unit; FuelExhausted when none is left."""
        if self.left <= 0:
            raise FuelExhausted(f"the budget of {self.fuel} is spent")
        self.left -= 1


class NotCertified(RuntimeError):
    """An operation requiring certified termination/convergence lacked it."""


# ---------------------------------------------------------------------------
# generators and words


@dataclass(frozen=True)
class Generator:
    name: str
    source: str = MONOID_OBJECT
    target: str = MONOID_OBJECT


# The codebook: every generator triple (name, source, target) met so far,
# each with its own character, given in the order the triples are first met,
# the first 256 below U+0100.  Nothing may depend on which character a
# triple gets: words are compared, never ordered, by their text.
_CODES = {}  # (name, source, target) -> character
_NAMES = {}  # character -> name
_TARGETS = {}  # character -> target
_SPELLING = {}  # code point -> name and a space, for str.translate
_ADDING = threading.Lock()  # so that two threads cannot give two triples one character


def _code(name, source, target):
    """The character of a generator triple, new if the triple is new."""
    c = _CODES.get((name, source, target))
    if c is None:
        with _ADDING:
            c = _CODES.get((name, source, target))
            if c is None:
                n = len(_CODES)
                c = chr(n if n < 0xD800 else n + 0x800)  # no surrogates
                _NAMES[c], _TARGETS[c], _SPELLING[ord(c)] = name, target, name + " "
                _CODES[name, source, target] = c  # last: whoever finds c finds its name
    return c


class Word:
    """A composable sequence of generators.

    A word is its ``text``, one character per letter, and its ``source``
    object.  The codebook gives each generator triple (name, source, target)
    its own character, so the object at every cut follows from the text,
    and slicing, concatenation, search, equality and hashing are ``str``
    operations.  The empty word is the identity on ``source``.

    ``Word(letters, nodes)`` takes the letters and the object at every cut
    (``len(nodes) == len(letters) + 1``), which ``letters`` and ``nodes``
    give back.  A word is a value: nothing assigns to it once it is built.
    """

    __slots__ = ("text", "source")

    def __init__(self, letters, nodes):
        if len(nodes) != len(letters) + 1:
            raise CompositionError(
                f"word {letters!r} has {len(nodes)} nodes, expected {len(letters) + 1}"
            )
        self.text = "".join([_code(x, nodes[i], nodes[i + 1]) for i, x in enumerate(letters)])
        self.source = nodes[0]

    @classmethod
    def _of(cls, text, source):
        """The word of a text from the codebook that starts at source."""
        w = object.__new__(cls)
        w.text = text
        w.source = source
        return w

    @property
    def letters(self):
        return tuple([_NAMES[c] for c in self.text])

    @property
    def nodes(self):
        return (self.source, *[_TARGETS[c] for c in self.text])

    @property
    def target(self):
        return _TARGETS[self.text[-1]] if self.text else self.source

    def node(self, i):
        """The object at cut i."""
        return _TARGETS[self.text[i - 1]] if i else self.source

    def __len__(self):
        return len(self.text)

    def __eq__(self, other):
        if other.__class__ is not Word:
            return NotImplemented
        return self.text == other.text and self.source == other.source

    def __hash__(self):
        return hash(self.text)  # a str caches its hash

    def __repr__(self):
        return f"Word(letters={self.letters!r}, nodes={self.nodes!r})"

    def __str__(self):
        return self.text.translate(_SPELLING)[:-1] if self.text else "1"

    @property
    def is_identity(self):
        return not self.text

    def slice(self, i, j):
        """The subword from position i to j (a valid word on its own)."""
        if not (0 <= i <= j <= len(self.text)):
            raise IndexError(f"slice [{i}:{j}] out of range for {self}")
        return Word._of(self.text[i:j], self.node(i))

    def concat(self, *others):
        text, target = self.text, self.target
        for other in others:
            if other.source != target:
                raise CompositionError(
                    f"cannot compose {Word._of(text, self.source)} (ends at {target}) "
                    f"with {other} (starts at {other.source})"
                )
            text += other.text
            target = other.target
        return Word._of(text, self.source)

    def occurrences(self, factor):
        """All positions where ``factor`` occurs as a subword, letters and
        objects both."""
        text, f = self.text, factor.text
        if not f:
            return [i for i in range(len(text) + 1) if self.node(i) == factor.source]
        out = []
        i = text.find(f)
        while i >= 0:
            out.append(i)
            i = text.find(f, i + 1)
        return out


def identity_word(obj=MONOID_OBJECT):
    return Word._of("", obj)


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class Rule:
    """A rewriting rule lhs => rhs between parallel words.

    ``origin`` is set on instances of a pumped family: ``(stem, n)``.
    An empty lhs is representable (the standard coherent presentation needs
    a rule 1 => unit-generator) but is rejected by the parser and flagged by
    ``validate``; the rewriting engine never matches it.
    """

    name: str
    lhs: Word
    rhs: Word
    origin: tuple[str, int] | None = None

    @cached_property
    def parallel(self):
        return self.lhs.source == self.rhs.source and self.lhs.target == self.rhs.target

    def __str__(self):
        return f"{self.name}: {self.lhs} => {self.rhs}"


@dataclass(frozen=True)
class PumpedRule:
    """A one-letter affine rule family:

        lhs_prefix . pump^n . lhs_suffix  =>  rhs_prefix . pump^(p*n+q) . rhs_suffix

    for every n >= 0, with p in {0, 1} and q >= 0.  The pump letter must be
    an endo-generator (same source and target) so that its powers compose.
    """

    name: str
    lhs_prefix: Word
    lhs_suffix: Word
    rhs_prefix: Word
    rhs_suffix: Word
    pump: str
    pump_object: str = MONOID_OBJECT
    rhs_p: int = 1
    rhs_q: int = 0

    def _power(self, n):
        if n < 0:  # the constructor refuses it
            return Word((self.pump,) * n, (self.pump_object,) * (n + 1))
        return Word._of(_code(self.pump, self.pump_object, self.pump_object) * n,
                        self.pump_object)

    def instance(self, n):
        lhs = self.lhs_prefix.concat(self._power(n), self.lhs_suffix)
        rhs = self.rhs_prefix.concat(self._power(self.rhs_p * n + self.rhs_q), self.rhs_suffix)
        return Rule(f"{self.name}[{n}]", lhs, rhs, origin=(self.name, n))

    def __str__(self):
        if self.rhs_p == 1:
            exponent = "n" if self.rhs_q == 0 else f"n+{self.rhs_q}"
        else:
            exponent = str(self.rhs_q)
        return (
            f"{self.name}[n]: {self.lhs_prefix} ( {self.pump} )^n {self.lhs_suffix}"
            f" => {self.rhs_prefix} ( {self.pump} )^( {exponent} ) {self.rhs_suffix}"
        )


# ---------------------------------------------------------------------------
# rewriting steps and zigzags (needed by 3-cells, so they live here;
# the rewrite module re-exports them alongside the operations)


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One rule application inside a context: the word left . lhs . right,
    recorded as that source word and the position of the lhs in it.

    ``forward=False`` is the formal inverse (rewriting right-to-left, so
    the rhs sits at ``position``); such steps only appear inside zigzags.
    The input side must occur at ``position``, letters and junction objects
    both, so every step is a redex occurrence.  The contexts ``left`` and
    ``right`` are built when asked for.
    """

    source_word: Word
    position: int
    rule: Rule
    forward: bool = True

    def __post_init__(self):
        inner = self.rule.lhs if self.forward else self.rule.rhs
        a, w = self.position, self.source_word
        if not (a >= 0 and (w.text.startswith(inner.text, a) if inner.text
                            else a <= len(w) and w.node(a) == inner.source)):
            side = "lhs" if self.forward else "rhs"
            raise CompositionError(
                f"rule {self.rule.name}: its {side} {inner} does not occur at {a} in {w}"
            )

    @property
    def left(self):
        return self.source_word.slice(0, self.position)

    @property
    def right(self):
        return self.source_word.slice(self.span[1], len(self.source_word))

    @property
    def span(self):
        """Where the input side sits in the source word: the lhs, or the rhs
        of a backward step."""
        inner = self.rule.lhs if self.forward else self.rule.rhs
        return (self.position, self.position + len(inner))

    @property
    def target_word(self):
        rule = self.rule
        inner, outer = (rule.lhs, rule.rhs) if self.forward else (rule.rhs, rule.lhs)
        if not rule.parallel:
            self.left.concat(outer, self.right)  # raises: the input side occurs here
        text, a = self.source_word.text, self.position
        return Word._of(text[:a] + outer.text + text[a + len(inner.text):],
                        self.source_word.source)

    def inverse(self):
        return RewriteStep(self.target_word, self.position, self.rule, not self.forward)

    def whisker(self, left, right):
        return RewriteStep(
            left.concat(self.source_word, right), len(left) + self.position, self.rule, self.forward
        )

    def __str__(self):
        name = self.rule.name if self.forward else self.rule.name + "-"
        return f"{self.left}*{name}*{self.right}"


@dataclass(frozen=True)
class ZigZag:
    """A composable sequence of (possibly inverted) rewriting steps.

    With all steps forward this is a positive rewriting path; in general it
    is a 2-cell of the free (2,1)-category. Composability is checked on construction: each step
    must rewrite the word the steps before it reached.  A path the library
    builds from paths it has checked (``then``, ``inverse``, ``whisker``,
    ``reduced``, the path ``normalize`` returns) is chained at its
    junctions and not walked again.
    """

    source: Word
    steps: tuple[RewriteStep, ...] = ()
    target: Word = field(init=False, compare=False)

    def __post_init__(self):
        word = self.source
        for i, step in enumerate(self.steps):
            if step.source_word != word:
                raise CompositionError(
                    f"step {i} ({step}) rewrites {step.source_word}, "
                    f"but the running word is {word}"
                )
            word = step.target_word
        object.__setattr__(self, "target", word)

    @classmethod
    def _chained(cls, source, steps, target):
        """The path of steps already known to chain from source to target,
        built without walking them again."""
        path = object.__new__(cls)
        object.__setattr__(path, "source", source)
        object.__setattr__(path, "steps", steps)
        object.__setattr__(path, "target", target)
        return path

    @classmethod
    def of(cls, *steps):
        return cls(steps[0].source_word, tuple(steps))

    def __len__(self):
        return len(self.steps)

    def then(self, *others):
        steps = self.steps
        tail = self.target
        for other in others:
            if other.source != tail:
                raise CompositionError(
                    f"cannot chain path ending at {tail} with one starting at {other.source}"
                )
            steps = steps + other.steps
            tail = other.target
        return ZigZag._chained(self.source, steps, tail)

    def inverse(self):
        return ZigZag._chained(
            self.target, tuple(s.inverse() for s in reversed(self.steps)), self.source
        )

    def whisker(self, left, right):
        return ZigZag._chained(
            left.concat(self.source, right),
            tuple(s.whisker(left, right) for s in self.steps),
            left.concat(self.target, right),
        )

    def reduced(self):
        """Cancel adjacent step/inverse pairs (both orders) to a normal form.

        This is the free-groupoid reduction on the step sequence; it does NOT
        apply exchange relations.  Used to decide composability of vertical
        composites of 3-cell expressions.  The steps chain, so a step
        cancels the one before it exactly when both apply the same rule at
        the same position in opposite directions.
        """
        stack = []
        for step in self.steps:
            if stack and (
                (top := stack[-1]).position == step.position
                and top.forward != step.forward
                and top.rule == step.rule
            ):
                stack.pop()
            else:
                stack.append(step)
        return ZigZag._chained(self.source, tuple(stack), self.target)

    def __str__(self):
        if not self.steps:
            return f"id({self.source})"
        return " . ".join(str(s) for s in self.steps)


@dataclass(frozen=True)
class ThreeCell:
    """A generating 3-cell: a named pair of parallel 2-cells.

    Cells attached to a presentation normally have positive sides; cells
    emitted by basis transfer may have genuine zigzag sides.  The structural
    invariant is parallelism only.
    """

    name: str
    source2: ZigZag
    target2: ZigZag

    @property
    def parallel(self):
        return (
            self.source2.source == self.target2.source
            and self.source2.target == self.target2.target
        )

    def __str__(self):
        return f"{self.name}: {self.source2} === {self.target2}"


# ---------------------------------------------------------------------------
# the polygraph


@dataclass(frozen=True)
class Polygraph:
    objects: tuple[str, ...] = (MONOID_OBJECT,)
    generators: tuple[Generator, ...] = ()
    rules: tuple[Rule, ...] = ()
    pumped: tuple[PumpedRule, ...] = ()
    three_cells: tuple[ThreeCell, ...] = ()
    gen_order: tuple[str, ...] | None = None
    is_monoid: bool = True

    @cached_property
    def generator_map(self):
        return {g.name: g for g in self.generators}

    @cached_property
    def rule_index(self):
        return {r.name: i for i, r in enumerate(self.rules)}

    @cached_property
    def pumped_index(self):
        return {r.name: i for i, r in enumerate(self.pumped)}

    @cached_property
    def _scans(self):
        """The redex searches of ``normalize`` and ``normal_form`` on this
        presentation: strategy -> its scan, built when the strategy is first
        used (see ``rewrite._scan``).  Like ``_certified``, a ``replace``
        copy starts empty."""
        return {}

    @cached_property
    def _certified(self):
        """The verdicts of the convergence gate of ``word_eq`` on this
        presentation: its parameters -> the fuel units it charged (see
        ``rewrite._certified_normal_forms``).  The presentation is a frozen
        value, so a verdict cannot go stale; a ``replace`` copy starts
        empty."""
        return {}

    def rule_key(self, rule):
        """Total declaration order on rule instances.

        Plain rules come in declaration order; pumped families follow, each
        family's instances ordered by n.
        """
        if rule.origin is not None:
            stem, n = rule.origin
            return (len(self.rules) + self.pumped_index[stem], n)
        return (self.rule_index[rule.name], -1)

    def lookup_rule(self, name):
        """Resolve a rule name, including pumped instances like ``alpha[2]``."""
        if name in self.rule_index:
            return self.rules[self.rule_index[name]]
        m = re.fullmatch(r"(.+)\[(\d+)\]", name)
        if m and m.group(1) in self.pumped_index:
            return self.pumped[self.pumped_index[m.group(1)]].instance(int(m.group(2)))
        raise PresentationError(f"unknown rule {name!r}")

    def word_from_letters(self, letters, at=None):
        letters = tuple(letters)
        if not letters:
            if at is None:
                if len(self.objects) == 1:
                    at = self.objects[0]
                else:
                    raise PresentationError(
                        "identity word is ambiguous: several objects, none specified"
                    )
            return identity_word(at)
        text = ""
        for name in letters:
            gen = self.generator_map.get(name)
            if gen is None:
                raise PresentationError(f"unknown generator {name!r} in word")
            if text and _TARGETS[text[-1]] != gen.source:
                raise PresentationError(f"word {' '.join(letters)} is not composable at {name!r}")
            text += _code(gen.name, gen.source, gen.target)
        return Word._of(text, self.generator_map[letters[0]].source)

    def word(self, text, at=None):
        """Parse a word from whitespace-separated generator names; "1" is the
        identity."""
        tokens = text.split()
        if tokens == ["1"]:
            tokens = []
        return self.word_from_letters(tokens, at=at)

    def all_rule_instances(self, pump_bound):
        """Plain rules plus pumped instances for n <= pump_bound, in
        declaration order."""
        out = list(self.rules)
        for fam in self.pumped:
            out.extend(fam.instance(n) for n in range(pump_bound + 1))
        return out

    def __str__(self):
        return serialize_polygraph(self)


# ---------------------------------------------------------------------------
# validation


def validate(p):
    """Structural diagnostics; empty list iff every invariant holds.

    Diagnostics name the violated invariant and the offending cell; nothing
    is thrown.
    """
    return [message for _, message in _diagnostics(p)]


def word_problem(p, w):
    """Why ``w`` is not a word of ``p``, or None when it is."""
    # a letter that fits the nodes on both sides composes with its neighbours
    nodes = w.nodes
    for i, name in enumerate(w.letters):
        g = p.generator_map.get(name)
        if g is None:
            return f"unknown generator {name!r}"
        if nodes[i] != g.source or nodes[i + 1] != g.target:
            return f"word {w} has inconsistent endpoints at {name!r}"
    if w.is_identity and w.source not in p.objects:
        return f"identity word at unknown object {w.source!r}"
    return None


def rule_use_problems(p, path):
    """The tail of a diagnostic for each step of ``path`` whose rule ``p``
    does not declare as given: unknown, or declared differently."""
    for s in path.steps:
        try:
            known = p.lookup_rule(s.rule.name)
        except PresentationError:
            yield f"uses unknown rule {s.rule.name!r}"
            continue
        if known != s.rule:
            yield f"uses a rule named {s.rule.name!r} that differs from the declared one"


def _diagnostics(p):
    """``validate``'s diagnostics, each with its owner: the declaration at
    fault as (file section, index), such as ``("rules", 2)`` for the third
    rule, or ``("order", 0)`` for the order clause."""
    if len(set(p.objects)) != len(p.objects):
        yield ("objects", 0), "duplicate object names"
    seen = set()
    for i, g in enumerate(p.generators):
        if g.name in seen:
            yield ("generators", i), f"generator {g.name}: duplicate name"
        seen.add(g.name)
        if g.source not in p.objects or g.target not in p.objects:
            yield ("generators", i), (f"generator {g.name}: {g.source} -> {g.target} "
                                      "uses undeclared objects")

    names = set()
    for i, r in enumerate(p.rules):
        owner = ("rules", i)
        if r.name in names:
            yield owner, f"rule {r.name}: duplicate name"
        names.add(r.name)
        for w in (r.lhs, r.rhs):
            if problem := word_problem(p, w):
                yield owner, f"rule {r.name}: {problem}"
        if not r.parallel:
            yield owner, (f"rule {r.name}: sides not parallel ({r.lhs.source}->{r.lhs.target} "
                          f"vs {r.rhs.source}->{r.rhs.target})")
        if r.lhs.is_identity:
            yield owner, f"rule {r.name}: lhs is an identity"
    for i, fam in enumerate(p.pumped):
        owner = ("pumped", i)
        if fam.name in names:
            yield owner, f"pumped rule {fam.name}: duplicate name"
        names.add(fam.name)
        gen = p.generator_map.get(fam.pump)
        if gen is None:
            yield owner, f"pumped rule {fam.name}: unknown pump letter {fam.pump!r}"
        elif gen.source != gen.target:
            yield owner, (f"pumped rule {fam.name}: pump letter {fam.pump!r} "
                          "is not an endo-generator")
        if fam.rhs_p not in (0, 1):
            yield owner, f"affine exponent must have n-coefficient 0 or 1, got {fam.rhs_p}"
        else:  # a negative q leaves instance 0 without a word
            for n in (0, 1, 2):
                try:
                    inst = fam.instance(n)
                except CompositionError as exc:
                    yield owner, f"pumped rule {fam.name}: instance {n} invalid: {exc}"
                    break
                for w in (inst.lhs, inst.rhs):
                    if problem := word_problem(p, w):
                        yield owner, f"pumped rule {inst.name}: {problem}"
                if not inst.parallel:
                    yield owner, f"pumped rule {fam.name}: instance {n} sides not parallel"

    cell_names = set()
    for i, c in enumerate(p.three_cells):
        owner = ("threecells", i)
        if c.name in cell_names:
            yield owner, f"3-cell {c.name}: duplicate name"
        cell_names.add(c.name)
        if problem := word_problem(p, c.source2.source):
            yield owner, f"3-cell {c.name}: {problem}"
        for side, zz in (("source", c.source2), ("target", c.target2)):
            for problem in rule_use_problems(p, zz):
                yield owner, f"3-cell {c.name}: {side} {problem}"
        if not c.parallel:
            yield owner, f"3-cell {c.name}: boundary not parallel"

    if p.gen_order is not None:
        declared = [g.name for g in p.generators]
        if sorted(p.gen_order) != sorted(declared) or len(set(p.gen_order)) != len(p.gen_order):
            yield ("order", 0), "order clause does not cover every generator exactly once"


# ---------------------------------------------------------------------------
# parsing

_NAME = r"[^\s:;#=<>()*.\[\]]+"
_SECTIONS = ("objects", "generators", "order", "rules", "pumped", "threecells")


def _logical_entries(text):
    """Split into (line_number, entry) pairs on newlines and ';', dropping
    comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for part in line.split(";"):
            part = part.strip()
            if part:
                out.append((lineno, part))
    return out


def _sections(entries, names):
    """Group (line_number, entry) pairs into {section: [(line_number, entry)]}.

    An entry `name: rest` or a bare `name`, for a name in `names`, opens that
    section, and `rest` is its first entry; any other entry belongs to the
    section opened last.  A section opened again continues its list.
    """
    sections = {}
    current = None
    for line, entry in entries:
        before, _, after = entry.partition(":")
        key = before.strip()
        # rules, 3-cells and typed generators also contain ':', so only the
        # section names open a section
        if key in names:
            current = sections.setdefault(key, [])
            if after.strip():
                current.append((line, after.strip()))
        elif current is None:
            raise PresentationError(f"unexpected entry before any section: {entry!r}", line)
        else:
            current.append((line, entry))
    return sections


def _split_affine(text, line):
    """Parse an affine expression in n (`n`, `n+1`, `2*n+3`, `2n`, `0`) into
    (p, q) meaning p*n + q."""
    text = text.replace(" ", "")
    m = re.fullmatch(r"(?:(\d+)\*?)?n(?:\+(\d+))?", text)
    if m:
        return (int(m.group(1)) if m.group(1) else 1, int(m.group(2)) if m.group(2) else 0)
    if re.fullmatch(r"\d+", text):
        return 0, int(text)
    raise PresentationError(f"cannot parse affine expression {text!r}", line)


def parse_polygraph(text):
    """Parse a presentation file.  See the README for the grammar.

    Raises PresentationError with a line number on syntax errors, unknown
    generators, non-composable words, and the first problem ``validate``
    finds, at the line that declared its cell.  That check runs after the
    generators, after the rules and families, and at the end, so that a
    rule's problem comes before a 3-cell that cannot use the rule.
    """
    entries = _logical_entries(text)
    if not entries:
        raise PresentationError("empty presentation")
    line, header = entries[0]
    if header not in ("monoid", "category"):
        raise PresentationError(f"expected 'monoid' or 'category', got {header!r}", line)
    is_monoid = header == "monoid"
    sections = _sections(entries[1:], _SECTIONS)
    lines = {}  # owner, as _diagnostics names it -> the line that declared it

    def check(p):
        for owner, message in _diagnostics(p):
            raise PresentationError(message, lines[owner])
        return p

    if is_monoid:
        if "objects" in sections:
            raise PresentationError("monoid presentations do not take an objects section")
        objects = (MONOID_OBJECT,)
    else:
        decl = sections.get("objects", [])
        names = [tok for _, e in decl for tok in e.split()]
        if not names:
            raise PresentationError("category presentations need an objects: section")
        objects = tuple(names)
        lines["objects", 0] = decl[0][0]

    generators = []
    for line, entry in sections.get("generators", []):
        tokens = entry.replace(":", " : ").replace("->", " -> ").split()
        i = 0
        while i < len(tokens):
            name = tokens[i]
            if not re.fullmatch(_NAME, name):
                raise PresentationError(f"bad generator name {name!r}", line)
            lines["generators", len(generators)] = line
            if i + 1 < len(tokens) and tokens[i + 1] == ":":
                if i + 4 >= len(tokens) or tokens[i + 3] != "->":
                    raise PresentationError(f"bad typed generator declaration near {name!r}", line)
                generators.append(Generator(name, tokens[i + 2], tokens[i + 4]))
                i += 5
            else:
                if not is_monoid:
                    raise PresentationError(
                        f"generator {name} in a category presentation needs a type", line
                    )
                generators.append(Generator(name))
                i += 1

    skeleton = check(Polygraph(objects=objects, generators=tuple(generators), is_monoid=is_monoid))

    gen_order = None
    order_entries = sections.get("order", [])
    if order_entries:
        joined = " ".join(e for _, e in order_entries)
        names = [n.strip() for n in joined.replace(" ", "").split("<")]
        line = order_entries[0][0]
        if any(not n for n in names):
            raise PresentationError("malformed order clause", line)
        for n in names:
            if n not in skeleton.generator_map:
                raise PresentationError(f"order clause names unknown generator {n!r}", line)
        gen_order = tuple(names)
        lines["order", 0] = line

    rules = []
    for line, entry in sections.get("rules", []):
        m = re.fullmatch(rf"({_NAME})\s*:\s*(.*?)\s*=>\s*(.*)", entry)
        if not m:
            raise PresentationError(f"cannot parse rule entry {entry!r}", line)
        name, lhs_txt, rhs_txt = m.groups()
        lhs = _at_line(line, skeleton.word, lhs_txt)
        lines["rules", len(rules)] = line
        rules.append(Rule(name, lhs, _at_line(line, skeleton.word, rhs_txt, at=lhs.source)))

    pumped = []
    for line, entry in sections.get("pumped", []):
        m = re.fullmatch(
            rf"({_NAME})\s*\[\s*n\s*\]\s*:\s*(.*?)\(\s*({_NAME})\s*\)\s*\^\s*n\s*(.*?)"
            rf"=>\s*(.*?)\(\s*({_NAME})\s*\)\s*\^\s*\(\s*([^)]*?)\s*\)\s*(.*)",
            entry,
        )
        if not m:
            raise PresentationError(f"cannot parse pumped rule entry {entry!r}", line)
        name, lp, g1, ls, rp, g2, affine, rs = (s.strip() for s in m.groups())
        if g1 != g2:
            raise PresentationError(
                f"pumped rule {name}: pump letters differ ({g1!r} vs {g2!r})", line
            )
        gen = skeleton.generator_map.get(g1)
        if gen is None:
            raise PresentationError(f"pumped rule {name}: unknown pump letter {g1!r}", line)
        p_, q_ = _split_affine(affine, line)
        lhs_prefix = _at_line(line, skeleton.word, lp, at=gen.source)
        lhs_suffix = _at_line(line, skeleton.word, ls, at=gen.target)
        rhs_prefix = _at_line(line, skeleton.word, rp, at=gen.source)
        rhs_suffix = _at_line(line, skeleton.word, rs, at=gen.target)
        lines["pumped", len(pumped)] = line
        pumped.append(PumpedRule(
            name, lhs_prefix, lhs_suffix, rhs_prefix, rhs_suffix,
            pump=g1, pump_object=gen.source, rhs_p=p_, rhs_q=q_,
        ))

    partial = check(replace(skeleton, rules=tuple(rules), pumped=tuple(pumped)))

    cells = []
    for line, entry in sections.get("threecells", []):
        if "===" not in entry:
            raise PresentationError(f"3-cell entry lacks '===': {entry!r}", line)
        head, rhs_txt = entry.split("===", 1)
        m = re.fullmatch(rf"\s*({_NAME})\s*:\s*(.*?)\s*", head)
        if not m:
            raise PresentationError(f"cannot parse 3-cell entry {entry!r}", line)
        name, lhs_txt = m.group(1), m.group(2)
        src = parse_path(partial, lhs_txt, line=line)
        tgt = parse_path(partial, rhs_txt.strip(), line=line)
        lines["threecells", len(cells)] = line
        cells.append(ThreeCell(name, src, tgt))

    return check(replace(partial, three_cells=tuple(cells), gen_order=gen_order))


def _at_line(line, read, *args, **kwargs):
    """read(*args, **kwargs), its PresentationError naming line."""
    try:
        return read(*args, **kwargs)
    except PresentationError as exc:
        raise PresentationError(str(exc), line) from None


def parse_path(p, text, line=None):
    """Parse a rewriting path / zigzag.

    Syntax: steps ``leftword * rulename * rightword`` joined by ``.``;
    a trailing ``-`` on the rule name inverts the step; the empty path is
    written ``id(word)``.  Every PresentationError names ``line``, if given.
    """
    text = text.strip()
    try:
        m = re.fullmatch(r"id\(\s*(.*?)\s*\)", text)
        if m:
            return ZigZag(p.word(m.group(1)))
        pieces = []
        for chunk in text.split("."):
            chunk = chunk.strip()
            parts = [s.strip() for s in chunk.split("*")]
            if len(parts) != 3:
                raise PresentationError(f"cannot parse path step {chunk!r}")
            left_txt, rule_name, right_txt = parts
            forward = True
            if rule_name.endswith("-"):
                forward = False
                rule_name = rule_name[:-1]
            rule = p.lookup_rule(rule_name)
            inner = rule.lhs if forward else rule.rhs
            left = p.word(left_txt, at=inner.source)
            right = p.word(right_txt, at=inner.target)
            pieces.append((left, inner, right, rule, forward))
        # in path order, so that the first step that fails is reported:
        # by not composing, or by not rewriting the running word
        steps = []
        for left, inner, right, rule, forward in pieces:
            step = RewriteStep(left.concat(inner, right), len(left), rule, forward)
            steps.append(step)
            if len(steps) > 1 and step.source_word != steps[-2].target_word:
                break
        return ZigZag(steps[0].source_word, tuple(steps))
    except PresentationError as exc:
        raise PresentationError(str(exc), line) from None
    except CompositionError as exc:
        raise PresentationError(f"path does not compose: {exc}", line) from None


# ---------------------------------------------------------------------------
# serialization


def serialize_polygraph(p):
    lines = ["monoid" if p.is_monoid else "category"]
    if not p.is_monoid:
        lines.append("objects: " + " ".join(p.objects))
    if p.is_monoid:
        gens = " ".join(g.name for g in p.generators)
    else:
        gens = " ".join(f"{g.name}: {g.source} -> {g.target}" for g in p.generators)
    lines.append("generators: " + gens if gens else "generators:")
    if p.gen_order is not None:
        lines.append("order: " + " < ".join(p.gen_order))
    lines.append("rules:")
    for r in p.rules:
        lines.append(f"  {r}")
    if p.pumped:
        lines.append("pumped:")
        for fam in p.pumped:
            lines.append(f"  {fam}")
    if p.three_cells:
        lines.append("threecells:")
        for c in p.three_cells:
            lines.append(f"  {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tietze transformations


@dataclass(frozen=True)
class AddGenerator:
    """Adjoin a generator x and a defining rule word => x."""

    gen_name: str
    word: Word
    rule_name: str


@dataclass(frozen=True)
class RemoveGenerator:
    """Remove a generator x along its defining rule u => x, substituting
    u for x everywhere else."""

    gen_name: str
    rule_name: str


@dataclass(frozen=True)
class AddRule:
    rule_name: str
    lhs: Word
    rhs: Word
    witness: ZigZag  # a derivation lhs -> rhs in the current polygraph


@dataclass(frozen=True)
class RemoveRule:
    rule_name: str
    witness: ZigZag  # a derivation lhs -> rhs avoiding the removed rule


TietzeMove = AddGenerator | RemoveGenerator | AddRule | RemoveRule


def _substitute(p_new, word, gen_name, image):
    letters = []
    for l in word.letters:
        letters.extend(image.letters if l == gen_name else (l,))
    return p_new.word_from_letters(letters, at=word.source)


def _check_witness(p, witness, lhs, rhs, forbidden=None):
    if witness.source != lhs or witness.target != rhs:
        raise PresentationError(
            f"witness goes {witness.source} -> {witness.target}, expected {lhs} -> {rhs}"
        )
    if any(s.rule.name == forbidden for s in witness.steps):
        raise PresentationError(f"witness uses removed rule {forbidden!r}")
    for problem in rule_use_problems(p, witness):
        raise PresentationError(f"witness {problem}")


def _removable(p, name):
    """The rule a Remove move names; an instance of a pumped family is
    refused, since a move removes no instance without its family."""
    rule = p.lookup_rule(name)
    if rule.origin is not None:
        raise PresentationError(
            f"rule {rule.name} is an instance of the pumped family {rule.origin[0]!r}, "
            f"which a move cannot remove one instance of"
        )
    return rule


def tietze_apply(p, move):
    """Apply one elementary transformation, returning the new polygraph.

    Every move preserves the presented category; the witnesses are checked
    here so that soundness is not taken on faith.  The result is then judged
    by ``validate``: the move is refused, naming the first, exactly when its
    result has a diagnostic that ``p`` has not.  So a valid presentation
    stays valid, and a diagnostic ``p`` has already (such as the identity-lhs
    rule of a standard coherent presentation) blocks no move.
    """
    if isinstance(move, AddGenerator):
        gen = Generator(move.gen_name, move.word.source, move.word.target)
        rhs = Word((gen.name,), (gen.source, gen.target))
        rule = Rule(move.rule_name, move.word, rhs)
        order = p.gen_order + (gen.name,) if p.gen_order is not None else None
        moved = replace(p, generators=p.generators + (gen,), rules=p.rules + (rule,),
                        gen_order=order)
    elif isinstance(move, RemoveGenerator):
        rule = _removable(p, move.rule_name)
        x = move.gen_name
        if rule.rhs.letters != (x,):
            raise PresentationError(
                f"rule {rule.name} does not define generator {x!r} (rhs is {rule.rhs})"
            )
        if x in rule.lhs.letters:
            raise PresentationError(f"defining word for {x!r} mentions it")
        # a 3-cell or pump letter that mentions x is left as it is, for
        # validate to name
        gens = tuple(g for g in p.generators if g.name != x)
        order = tuple(n for n in p.gen_order if n != x) if p.gen_order is not None else None
        p_new = replace(p, generators=gens, gen_order=order, rules=(), pumped=())

        def sub(word):
            return _substitute(p_new, word, x, rule.lhs)

        rules = tuple(Rule(r.name, sub(r.lhs), sub(r.rhs), origin=r.origin)
                      for r in p.rules if r.name != rule.name)
        pumped = tuple(replace(fam, lhs_prefix=sub(fam.lhs_prefix), lhs_suffix=sub(fam.lhs_suffix),
                               rhs_prefix=sub(fam.rhs_prefix), rhs_suffix=sub(fam.rhs_suffix))
                       for fam in p.pumped)
        moved = replace(p_new, rules=rules, pumped=pumped)
    elif isinstance(move, AddRule):
        _check_witness(p, move.witness, move.lhs, move.rhs)
        moved = replace(p, rules=p.rules + (Rule(move.rule_name, move.lhs, move.rhs),))
    elif isinstance(move, RemoveRule):
        rule = _removable(p, move.rule_name)
        _check_witness(p, move.witness, rule.lhs, rule.rhs, forbidden=rule.name)
        moved = replace(p, rules=tuple(r for r in p.rules if r.name != rule.name))
    else:
        raise TypeError(f"not a Tietze move: {move!r}")

    before = set(validate(p))
    for message in validate(moved):
        if message not in before:
            raise PresentationError(message)
    return moved
