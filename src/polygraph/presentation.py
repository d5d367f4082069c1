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

    ``trace`` holds the partial path of an exhausted ``normalize``, the
    partial report of an exhausted ``decide_confluence``, and None otherwise.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class Budget:
    """The fuel of one top-level call, shared by everything that call runs.

    ``normalize`` charges one unit per rewriting step and the sphere filler
    one per node.  Every ``fuel=`` parameter takes an int, which starts a
    fresh budget for that call, or a Budget, which the call charges in
    place and hands on to everything it runs.
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


@dataclass(frozen=True)
class Word:
    """A composable sequence of generators.

    ``nodes`` records the object at every cut point, so ``len(nodes) ==
    len(letters) + 1``; this makes subwords and concatenation cheap without
    consulting the polygraph.  The empty word is the identity on
    ``nodes[0]``.
    """

    letters: tuple[str, ...]
    nodes: tuple[str, ...]

    def __post_init__(self):
        if len(self.nodes) != len(self.letters) + 1:
            raise CompositionError(
                f"word {self.letters!r} has {len(self.nodes)} nodes, "
                f"expected {len(self.letters) + 1}"
            )

    @property
    def source(self):
        return self.nodes[0]

    @property
    def target(self):
        return self.nodes[-1]

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(self.letters) if self.letters else "1"

    @property
    def is_identity(self):
        return not self.letters

    def slice(self, i, j):
        """The subword from position i to j (a valid word on its own)."""
        if not (0 <= i <= j <= len(self.letters)):
            raise IndexError(f"slice [{i}:{j}] out of range for {self}")
        return Word(self.letters[i:j], self.nodes[i : j + 1])

    def concat(self, *others):
        letters = self.letters
        nodes = self.nodes
        for other in others:
            if other.source != nodes[-1]:
                raise CompositionError(
                    f"cannot compose {self} (ends at {nodes[-1]}) "
                    f"with {other} (starts at {other.source})"
                )
            letters = letters + other.letters
            nodes = nodes + other.nodes[1:]
        return Word(letters, nodes)

    def occurrences(self, factor):
        """All positions where ``factor`` occurs as a subword."""
        if len(factor) > len(self):
            return []
        k = len(factor)
        return [
            i
            for i in range(len(self) - k + 1)
            if self.letters[i : i + k] == factor.letters
            and self.nodes[i] == factor.source
        ]


def identity_word(obj=MONOID_OBJECT):
    return Word((), (obj,))


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

    @property
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
        return Word((self.pump,) * n, (self.pump_object,) * (n + 1))

    def instance(self, n):
        lhs = self.lhs_prefix.concat(self._power(n), self.lhs_suffix)
        rhs = self.rhs_prefix.concat(self._power(self.rhs_p * n + self.rhs_q), self.rhs_suffix)
        return Rule(f"{self.name}[{n}]", lhs, rhs, origin=(self.name, n))

    def affine_text(self):
        if self.rhs_p == 1:
            return "n" if self.rhs_q == 0 else f"n+{self.rhs_q}"
        return str(self.rhs_q)

    def __str__(self):
        return (
            f"{self.name}[n]: {self.lhs_prefix} ( {self.pump} )^n {self.lhs_suffix}"
            f" => {self.rhs_prefix} ( {self.pump} )^( {self.affine_text()} ) {self.rhs_suffix}"
        )


# ---------------------------------------------------------------------------
# rewriting steps and zigzags (needed by 3-cells, so they live here;
# the rewrite module re-exports them alongside the operations)


@dataclass(frozen=True)
class RewriteStep:
    """One rule application inside a context: left . lhs . right.

    ``forward=False`` is the formal inverse (rewriting right-to-left); such
    steps only appear inside zigzags.
    """

    left: Word
    rule: Rule
    right: Word
    forward: bool = True

    @property
    def position(self):
        return len(self.left)

    @property
    def span(self):
        return (self.position, self.position + len(self.rule.lhs))

    @property
    def source_word(self):
        inner = self.rule.lhs if self.forward else self.rule.rhs
        return self.left.concat(inner, self.right)

    @property
    def target_word(self):
        inner = self.rule.rhs if self.forward else self.rule.lhs
        return self.left.concat(inner, self.right)

    def inverse(self):
        return replace(self, forward=not self.forward)

    def whisker(self, left, right):
        return replace(self, left=left.concat(self.left), right=self.right.concat(right))

    def __str__(self):
        name = self.rule.name if self.forward else self.rule.name + "-"
        return f"{self.left}*{name}*{self.right}"


@dataclass(frozen=True)
class ZigZag:
    """A composable sequence of (possibly inverted) rewriting steps.

    With all steps forward this is a positive rewriting path (exported under
    the alias TwoCellPath); in general it is a 2-cell of the free
    (2,1)-category. Composability is checked on construction.
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
    def of(cls, *steps):
        return cls(steps[0].source_word, tuple(steps))

    @property
    def positive(self):
        return all(s.forward for s in self.steps)

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
        return ZigZag(self.source, steps)

    def inverse(self):
        return ZigZag(self.target, tuple(s.inverse() for s in reversed(self.steps)))

    def whisker(self, left, right):
        return ZigZag(
            left.concat(self.source, right),
            tuple(s.whisker(left, right) for s in self.steps),
        )

    def reduced(self):
        """Cancel adjacent step/inverse pairs (both orders) to a normal form.

        This is the free-groupoid reduction on the step sequence; it does NOT
        apply exchange relations.  Used to decide composability of vertical
        composites of 3-cell expressions.
        """
        stack = []
        for step in self.steps:
            if stack and stack[-1] == step.inverse():
                stack.pop()
            else:
                stack.append(step)
        return ZigZag(self.source, tuple(stack))

    def __str__(self):
        if not self.steps:
            return f"id({self.source})"
        return " . ".join(str(s) for s in self.steps)


# A positive zigzag; kept as an alias because the two views share all code.
TwoCellPath = ZigZag


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
    def matcher(self):
        """The redex search behind ``normalize`` (see ``rewrite.Matcher``)."""
        from .rewrite import Matcher  # rewrite builds on this module

        return Matcher(self)

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
        nodes = []
        for name in letters:
            gen = self.generator_map.get(name)
            if gen is None:
                raise PresentationError(f"unknown generator {name!r} in word")
            if nodes and nodes[-1] != gen.source:
                raise PresentationError(
                    f"word {' '.join(letters)} is not composable at {name!r}"
                )
            if not nodes:
                nodes.append(gen.source)
            nodes.append(gen.target)
        return Word(letters, tuple(nodes))

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
    out = []
    if len(set(p.objects)) != len(p.objects):
        out.append("duplicate object names")
    seen = set()
    for g in p.generators:
        if g.name in seen:
            out.append(f"generator {g.name}: duplicate name")
        seen.add(g.name)
        if g.source not in p.objects or g.target not in p.objects:
            out.append(f"generator {g.name}: endpoint not a declared object")

    def check_word(w, owner):
        node = None
        for i, name in enumerate(w.letters):
            g = p.generator_map.get(name)
            if g is None:
                out.append(f"{owner}: unknown generator {name!r}")
                return
            if w.nodes[i] != g.source or w.nodes[i + 1] != g.target:
                out.append(f"{owner}: word {w} has inconsistent endpoints at {name!r}")
                return
            if node is not None and node != g.source:
                out.append(f"{owner}: word {w} is not composable at {name!r}")
                return
            node = g.target
        if w.is_identity and w.source not in p.objects:
            out.append(f"{owner}: identity word at unknown object {w.source!r}")

    names = set()
    for r in p.rules:
        if r.name in names:
            out.append(f"rule {r.name}: duplicate name")
        names.add(r.name)
        check_word(r.lhs, f"rule {r.name}")
        check_word(r.rhs, f"rule {r.name}")
        if not r.parallel:
            out.append(f"rule {r.name}: sides not parallel")
        if r.lhs.is_identity:
            out.append(f"rule {r.name}: lhs is an identity")
    for fam in p.pumped:
        if fam.name in names:
            out.append(f"pumped rule {fam.name}: duplicate name")
        names.add(fam.name)
        gen = p.generator_map.get(fam.pump)
        if gen is None:
            out.append(f"pumped rule {fam.name}: unknown pump letter {fam.pump!r}")
        elif gen.source != gen.target:
            out.append(f"pumped rule {fam.name}: pump letter {fam.pump!r} is not an endo-generator")
        if fam.rhs_p not in (0, 1) or fam.rhs_q < 0:
            out.append(f"pumped rule {fam.name}: affine exponent must be n+q, q, with q >= 0")
        else:
            for n in (0, 1, 2):
                try:
                    inst = fam.instance(n)
                except CompositionError as exc:
                    out.append(f"pumped rule {fam.name}: instance {n} invalid: {exc}")
                    break
                check_word(inst.lhs, f"pumped rule {fam.name}[{n}]")
                check_word(inst.rhs, f"pumped rule {fam.name}[{n}]")
                if not inst.parallel:
                    out.append(f"pumped rule {fam.name}: instance {n} sides not parallel")

    cell_names = set()
    for c in p.three_cells:
        if c.name in cell_names:
            out.append(f"3-cell {c.name}: duplicate name")
        cell_names.add(c.name)
        for side, zz in (("source", c.source2), ("target", c.target2)):
            for s in zz.steps:
                try:
                    known = p.lookup_rule(s.rule.name)
                except PresentationError:
                    out.append(f"3-cell {c.name}: {side} uses unknown rule {s.rule.name!r}")
                    continue
                if known != s.rule:
                    out.append(f"3-cell {c.name}: {side} uses a rule named {s.rule.name!r} "
                               "that differs from the declared one")
        if not c.parallel:
            out.append(f"3-cell {c.name}: boundary not parallel")

    if p.gen_order is not None:
        declared = [g.name for g in p.generators]
        if sorted(p.gen_order) != sorted(declared) or len(set(p.gen_order)) != len(p.gen_order):
            out.append("order clause does not cover every generator exactly once")
    return out


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
    generators, non-composable words, and non-parallel or identity-lhs rules.
    """
    entries = _logical_entries(text)
    if not entries:
        raise PresentationError("empty presentation")
    line, header = entries[0]
    if header not in ("monoid", "category"):
        raise PresentationError(f"expected 'monoid' or 'category', got {header!r}", line)
    is_monoid = header == "monoid"

    sections = {}
    current = None
    for line, entry in entries[1:]:
        before, colon, after = entry.partition(":")
        key = before.strip()
        # rule entries also contain ':', so only the section keywords open a
        # section; everything else is content of the current one
        if key in _SECTIONS and (colon or not after):
            current = key
            sections.setdefault(current, [])
            rest = after.strip()
            if rest:
                sections[current].append((line, rest))
        else:
            if current is None:
                raise PresentationError(f"unexpected entry before any section: {entry!r}", line)
            sections[current].append((line, entry))

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

    generators = []
    for line, entry in sections.get("generators", []):
        tokens = entry.replace(":", " : ").replace("->", " -> ").split()
        i = 0
        while i < len(tokens):
            name = tokens[i]
            if not re.fullmatch(_NAME, name):
                raise PresentationError(f"bad generator name {name!r}", line)
            if i + 1 < len(tokens) and tokens[i + 1] == ":":
                if i + 4 >= len(tokens) or tokens[i + 3] != "->":
                    raise PresentationError(f"bad typed generator declaration near {name!r}", line)
                src, tgt = tokens[i + 2], tokens[i + 4]
                if src not in objects or tgt not in objects:
                    raise PresentationError(
                        f"generator {name}: {src} -> {tgt} uses undeclared objects", line
                    )
                generators.append(Generator(name, src, tgt))
                i += 5
            else:
                if not is_monoid:
                    raise PresentationError(
                        f"generator {name} in a category presentation needs a type", line
                    )
                generators.append(Generator(name))
                i += 1

    skeleton = Polygraph(objects=objects, generators=tuple(generators), is_monoid=is_monoid)

    def parse_word(txt, line, at=None):
        try:
            return skeleton.word(txt, at=at)
        except PresentationError as exc:
            raise PresentationError(str(exc), line) from None

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

    rules = []
    for line, entry in sections.get("rules", []):
        m = re.fullmatch(rf"({_NAME})\s*:\s*(.*?)\s*=>\s*(.*)", entry)
        if not m:
            raise PresentationError(f"cannot parse rule entry {entry!r}", line)
        name, lhs_txt, rhs_txt = m.groups()
        lhs = parse_word(lhs_txt, line)
        if lhs.is_identity:
            raise PresentationError(f"rule {name}: lhs is an identity (rejected)", line)
        rhs = parse_word(rhs_txt, line, at=lhs.source)
        rule = Rule(name, lhs, rhs)
        if not rule.parallel:
            raise PresentationError(
                f"rule {name}: sides not parallel "
                f"({lhs.source}->{lhs.target} vs {rhs.source}->{rhs.target})",
                line,
            )
        rules.append(rule)

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
        if gen.source != gen.target:
            raise PresentationError(
                f"pumped rule {name}: pump letter {g1!r} is not an endo-generator", line
            )
        p_, q_ = _split_affine(affine, line)
        if p_ not in (0, 1):
            raise PresentationError(
                f"affine exponent must have n-coefficient 0 or 1, got {p_}", line
            )
        lhs_prefix = parse_word(lp, line, at=gen.source)
        lhs_suffix = parse_word(ls, line, at=gen.target)
        rhs_prefix = parse_word(rp, line, at=gen.source)
        rhs_suffix = parse_word(rs, line, at=gen.target)
        fam = PumpedRule(
            name, lhs_prefix, lhs_suffix, rhs_prefix, rhs_suffix,
            pump=g1, pump_object=gen.source, rhs_p=p_, rhs_q=q_,
        )
        for n in (0, 1):
            inst = fam.instance(n)  # raises CompositionError if ill-typed
            if not inst.parallel:
                raise PresentationError(f"pumped rule {name}: instance {n} not parallel", line)
        pumped.append(fam)

    partial = Polygraph(
        objects=objects,
        generators=tuple(generators),
        rules=tuple(rules),
        pumped=tuple(pumped),
        gen_order=gen_order,
        is_monoid=is_monoid,
    )

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
        cell = ThreeCell(name, src, tgt)
        if not cell.parallel:
            raise PresentationError(f"3-cell {name}: boundary not parallel", line)
        cells.append(cell)

    result = replace(partial, three_cells=tuple(cells))
    problems = validate(result)
    if problems:
        raise PresentationError("; ".join(problems))
    return result


def parse_path(p, text, line=None):
    """Parse a rewriting path / zigzag.

    Syntax: steps ``leftword * rulename * rightword`` joined by ``.``;
    a trailing ``-`` on the rule name inverts the step; the empty path is
    written ``id(word)``.
    """
    text = text.strip()
    m = re.fullmatch(r"id\(\s*(.*?)\s*\)", text)
    if m:
        w = p.word(m.group(1)) if m.group(1) else p.word("1")
        return ZigZag(w)
    steps = []
    for chunk in text.split("."):
        chunk = chunk.strip()
        parts = [s.strip() for s in chunk.split("*")]
        if len(parts) != 3:
            raise PresentationError(f"cannot parse path step {chunk!r}", line)
        left_txt, rule_name, right_txt = parts
        forward = True
        if rule_name.endswith("-"):
            forward = False
            rule_name = rule_name[:-1]
        rule = p.lookup_rule(rule_name)
        inner = rule.lhs if forward else rule.rhs
        left = p.word(left_txt, at=inner.source)
        right = p.word(right_txt, at=inner.target)
        steps.append(RewriteStep(left, rule, right, forward=forward))
    try:
        return ZigZag.of(*steps)
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
    for s in witness.steps:
        if forbidden is not None and s.rule.name == forbidden:
            raise PresentationError(f"witness uses removed rule {forbidden!r}")
        if p.lookup_rule(s.rule.name) != s.rule:
            raise PresentationError(f"witness step uses foreign rule {s.rule.name!r}")


def tietze_apply(p, move):
    """Apply one elementary transformation, returning the new polygraph.

    Every move preserves the presented category; the witnesses are checked
    here so that soundness is not taken on faith.
    """
    if isinstance(move, AddGenerator):
        if move.gen_name in p.generator_map:
            raise PresentationError(f"generator {move.gen_name!r} already exists")
        for name in move.word.letters:
            if name not in p.generator_map:
                raise PresentationError(f"defining word uses unknown generator {name!r}")
        gen = Generator(move.gen_name, move.word.source, move.word.target)
        rhs = Word((gen.name,), (gen.source, gen.target))
        rule = Rule(move.rule_name, move.word, rhs)
        order = p.gen_order + (gen.name,) if p.gen_order is not None else None
        return replace(
            p,
            generators=p.generators + (gen,),
            rules=p.rules + (rule,),
            gen_order=order,
        )

    if isinstance(move, RemoveGenerator):
        rule = p.lookup_rule(move.rule_name)
        x = move.gen_name
        if rule.rhs.letters != (x,):
            raise PresentationError(
                f"rule {rule.name} does not define generator {x!r} (rhs is {rule.rhs})"
            )
        if x in rule.lhs.letters:
            raise PresentationError(f"defining word for {x!r} mentions it")
        for c in p.three_cells:
            mentioned = any(
                x in z.source.letters
                or any(
                    x in s.left.letters
                    or x in s.right.letters
                    or x in s.rule.lhs.letters
                    or x in s.rule.rhs.letters
                    for s in z.steps
                )
                for z in (c.source2, c.target2)
            )
            if mentioned:
                raise PresentationError(f"cannot remove {x!r}: 3-cell {c.name} references it")
        for fam in p.pumped:
            if fam.pump == x:
                raise PresentationError(f"cannot remove pump letter {x!r}")
        gens = tuple(g for g in p.generators if g.name != x)
        order = tuple(n for n in p.gen_order if n != x) if p.gen_order is not None else None
        p_new = replace(p, generators=gens, gen_order=order, rules=(), pumped=())
        rules = []
        for r in p.rules:
            if r.name == rule.name:
                continue
            rules.append(
                Rule(r.name, _substitute(p_new, r.lhs, x, rule.lhs),
                     _substitute(p_new, r.rhs, x, rule.lhs), origin=r.origin)
            )
        pumped = []
        for fam in p.pumped:
            pumped.append(
                replace(
                    fam,
                    lhs_prefix=_substitute(p_new, fam.lhs_prefix, x, rule.lhs),
                    lhs_suffix=_substitute(p_new, fam.lhs_suffix, x, rule.lhs),
                    rhs_prefix=_substitute(p_new, fam.rhs_prefix, x, rule.lhs),
                    rhs_suffix=_substitute(p_new, fam.rhs_suffix, x, rule.lhs),
                )
            )
        return replace(p_new, rules=tuple(rules), pumped=tuple(pumped))

    if isinstance(move, AddRule):
        _check_witness(p, move.witness, move.lhs, move.rhs)
        if move.rule_name in p.rule_index or move.rule_name in p.pumped_index:
            raise PresentationError(f"rule {move.rule_name!r} already exists")
        return replace(p, rules=p.rules + (Rule(move.rule_name, move.lhs, move.rhs),))

    if isinstance(move, RemoveRule):
        rule = p.lookup_rule(move.rule_name)
        _check_witness(p, move.witness, rule.lhs, rule.rhs, forbidden=rule.name)
        return replace(p, rules=tuple(r for r in p.rules if r.name != rule.name))

    raise TypeError(f"not a Tietze move: {move!r}")
