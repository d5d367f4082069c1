"""The sphere filler against the recursion it replaced.

The reference below rebuilds the rest of both paths as a new ZigZag at
every node (and so re-checks every remaining step); the library walks the
checked paths by index and fills each distinct sub-sphere once per
``fill_sphere`` call.  On seeded positive and σ spheres both must return
equal expressions.  The charges are compared with the reference run with
one memo per ``fill_sphere`` call, keyed by the suffix ZigZags and shared
by the spheres of every σ step: both must charge the budget in the same
order, and run out of a short budget at the same point with the same
message.  The library never charges more than the reference without a
memo.  The library also builds each σ path once per call, where the
reference normalizes every time: each path it shares must be the leftmost
normalization path, and charged, and cut short, as ``normalize`` would.
"""

import functools
import random
import sys

import pytest

import polygraph.coherence as coherence
from polygraph import (
    Budget,
    CompositionError,
    FuelExhausted,
    ZigZag,
    fill_positive,
    fill_sphere,
    normalize,
    squier_completion,
)
from polygraph.coherence import (
    Comp1,
    Comp2,
    Id2,
    Inv,
    fill_local_branching,
    sigma_path,
)

SQ_PUMP_BOUND = 8

# ---------------------------------------------------------------------------
# the reference: the filler with a suffix ZigZag per node


def ref_fill_positive(cp, p_path, q_path, budget, memo=None):
    """The filler; with a memo (a dict for one top-level call), each pair
    of suffix paths is filled once and met again for free."""
    if memo is None:
        return ref_fill_node(cp, p_path, q_path, budget, None)
    key = (p_path, q_path)
    if key not in memo:
        memo[key] = ref_fill_node(cp, p_path, q_path, budget, memo)
    return memo[key]


def ref_fill_node(cp, p_path, q_path, budget, memo):
    if p_path.source != q_path.source or p_path.target != q_path.target:
        raise CompositionError(
            f"paths are not parallel: {p_path.source}->{p_path.target} "
            f"vs {q_path.source}->{q_path.target}"
        )
    budget.charge()

    if not p_path.steps and not q_path.steps:
        return Id2(ZigZag(p_path.source))
    assert p_path.steps and q_path.steps
    a, b = p_path.steps[0], q_path.steps[0]
    p_rest = ZigZag(a.target_word, p_path.steps[1:])
    q_rest = ZigZag(b.target_word, q_path.steps[1:])
    if a == b:
        inner = ref_fill_positive(cp, p_rest, q_rest, budget, memo)
        return Comp1(ZigZag.of(a), inner, ZigZag(p_path.target))

    f1, g1, cell_expr = fill_local_branching(cp, a, b)
    _, h = normalize(cp.base, f1.target, "leftmost", budget)
    assert h.target == p_path.target
    top = Comp1(ZigZag.of(a), ref_fill_positive(cp, p_rest, f1.then(h), budget, memo),
                ZigZag(p_path.target))
    middle = Comp1(ZigZag(p_path.source), cell_expr, h)
    bottom = Comp1(ZigZag.of(b), ref_fill_positive(cp, g1.then(h), q_rest, budget, memo),
                   ZigZag(p_path.target))
    return Comp2(Comp2(top, middle), bottom)


def ref_sigma_step(cp, step, sig_u, sig_m, budget, memo):
    if step.forward:
        return ref_fill_positive(cp, ZigZag.of(step).then(sig_m), sig_u, budget, memo)
    fwd = step.inverse()
    inner = ref_fill_positive(cp, ZigZag.of(fwd).then(sig_u), sig_m, budget, memo)
    return Inv(Comp1(ZigZag.of(step), inner, ZigZag(sig_u.target)))


def ref_sigma_zigzag(cp, f, budget, memo):
    if not f.steps:
        return Id2(ZigZag(f.source))
    return ref_sigma_suffix(cp, f, sigma_path(cp, f.target, budget), budget, memo)[0]


def ref_sigma_suffix(cp, f, sig_v, budget, memo):
    """The expression for the zigzag f, which ends where the whole one
    does, and σ(f.source); each word is normalized once, after the words
    that follow it."""
    u = f.source
    if not f.steps:
        return Id2(ZigZag(u)), sig_v
    step = f.steps[0]
    rest = ZigZag(step.target_word, f.steps[1:])
    inner, sig_m = ref_sigma_suffix(cp, rest, sig_v, budget, memo)
    sig_u = sigma_path(cp, u, budget)
    top = Comp1(ZigZag.of(step), inner, ZigZag(f.target))
    bottom = Comp1(ZigZag(u), ref_sigma_step(cp, step, sig_u, sig_m, budget, memo),
                   sig_v.inverse())
    return Comp2(top, bottom), sig_u


def ref_fill_sphere(cp, f, g, budget, memoized=False):
    """The reference fill_sphere; ``memoized`` gives the call one memo,
    which every sphere it fills shares, as the library does."""
    memo = {} if memoized else None
    try:
        if f.positive and g.positive and cp.base.matcher.is_normal(f.target):
            return ref_fill_positive(cp, f, g, budget, memo)
        return Comp2(ref_sigma_zigzag(cp, f, budget, memo),
                     Inv(ref_sigma_zigzag(cp, g, budget, memo)))
    except FuelExhausted as exc:
        raise FuelExhausted(f"filling a sphere from '{f.source}': {exc}") from None


ref_fill_sphere_memoized = functools.partial(ref_fill_sphere, memoized=True)


# ---------------------------------------------------------------------------
# spheres


class Recording(Budget):
    """A budget that logs who spent each unit: a step of a normalization
    path (``normalize``, or the filler's shared σ paths) or a node."""

    def __init__(self, fuel):
        super().__init__(fuel)
        self.log = []

    def charge(self):
        caller = sys._getframe(1).f_code.co_name
        super().charge()
        self.log.append("step" if caller in ("normalize", "_sigma") else "node")


def spent(budget):
    return budget.fuel - budget.left


def run(fill, cp, f, g, fuel):
    budget = Recording(fuel)
    try:
        result = ("filled", fill(cp, f, g, budget))
    except FuelExhausted as exc:
        result = ("exhausted", str(exc))
    return result, budget.log


def random_word(rng, p, length):
    return p.word_from_letters(rng.choice([g.name for g in p.generators]) for _ in range(length))


def positive_spheres(p, rng, count, lengths):
    """The leftmost against the rightmost path of seeded words; words whose
    two paths agree are drawn again (a few times) since they only peel."""
    out = []
    for _ in range(count):
        for _ in range(50):
            w = random_word(rng, p, rng.choice(lengths))
            _, f = normalize(p, w, "leftmost")
            _, g = normalize(p, w, "rightmost")
            if f.steps != g.steps:
                break
        out.append((f, g))
    return out


def sigma_spheres(p, rng, count, lengths):
    """A partial leftmost path against a zigzag through the normal form,
    drawn the way the benchmark draws them."""
    out = []
    while len(out) < count:
        w = random_word(rng, p, rng.choice(lengths))
        _, left = normalize(p, w, "leftmost")
        if len(left.steps) < 2:
            continue
        _, right = normalize(p, w, "rightmost")
        k = rng.randint(1, len(left.steps) - 1)
        f = ZigZag(w, left.steps[:k])
        _, back = normalize(p, f.target, "rightmost")
        out.append((f, right.then(back.inverse())))
    return out


@pytest.fixture(scope="module")
def cases(b3, a4_done, xyx_done, sq, sq_cert):
    specs = [
        ("b3", squier_completion(b3), range(6, 13), 5),
        ("a4", squier_completion(a4_done), range(6, 13), 5),
        ("xyx-done", squier_completion(xyx_done), range(6, 11), 4),
        ("sq", squier_completion(sq, pump_bound=SQ_PUMP_BOUND, cert=sq_cert,
                                 ack_sampled=True), range(6, 11), 4),
    ]
    out = []
    for seed, (name, cp, lengths, sigmas) in enumerate(specs):
        rng = random.Random(seed)
        for kind, spheres in (
            ("positive", positive_spheres(cp.base, rng, 10, lengths)),
            ("sigma", sigma_spheres(cp.base, rng, sigmas, range(5, 9))),
        ):
            out.extend((f"{name}/{kind}/{i}", cp, f, g) for i, (f, g) in enumerate(spheres))
    return out


def test_fill_sphere_matches_the_suffix_zigzag_recursion(cases):
    nontrivial = 0
    shared = 0
    for label, cp, f, g in cases:
        got, got_log = run(fill_sphere, cp, f, g, 10**6)
        want, tree_log = run(ref_fill_sphere, cp, f, g, 10**6)
        memo_want, want_log = run(ref_fill_sphere_memoized, cp, f, g, 10**6)
        assert got[0] == want[0] == memo_want[0] == "filled", label
        assert got[1] == want[1] == memo_want[1], label
        assert got_log == want_log, label
        assert len(got_log) <= len(tree_log), label
        spent = len(want_log)
        nontrivial += "step" in want_log
        shared += spent < len(tree_log)
        # one unit short, and about half the budget: the same point, the
        # same message
        for fuel in (spent - 1, spent // 2):
            short, short_log = run(fill_sphere, cp, f, g, fuel)
            ref_short, ref_short_log = run(ref_fill_sphere_memoized, cp, f, g, fuel)
            assert short[0] == "exhausted", (label, fuel)
            assert short == ref_short, (label, fuel)
            assert short_log == ref_short_log == want_log[:fuel], (label, fuel)
    # the spheres are not all peeled off step by step, and some meet a
    # sub-sphere twice
    assert nontrivial >= len(cases) // 2
    assert shared > 0


def test_fill_sphere_fills_a_deep_sphere_at_under_0_6_of_the_tree_charge(b3):
    """On a B3+ sphere of 20 against 84 steps, the memo saves more than
    40% of the units the tree-shaped recursion charges, and the expression
    keeps its value."""
    cp = squier_completion(b3)
    rng = random.Random(7)
    for _ in range(2):
        w = random_word(rng, b3, rng.randint(24, 40))
    _, f = normalize(b3, w, "leftmost")
    _, g = normalize(b3, w, "rightmost")
    assert (len(w), len(f), len(g)) == (25, 20, 84)
    budget, ref_budget = Budget(), Budget()
    got = fill_sphere(cp, f, g, budget)
    want = ref_fill_sphere(cp, f, g, ref_budget)
    assert got == want
    assert spent(budget) < 0.6 * spent(ref_budget)


def test_fill_sphere_rejects_a_non_sphere_like_the_reference(b3):
    cp = squier_completion(b3)
    w = b3.word("s t s a s t")
    _, f = normalize(b3, w, "leftmost")
    _, g = normalize(b3, b3.word("s t s a s"), "leftmost")
    with pytest.raises(CompositionError, match="not a 2-sphere"):
        fill_sphere(cp, f, g)
    # a positive pair that is not parallel, given straight to the filler
    with pytest.raises(CompositionError) as got:
        fill_positive(cp, f, g)
    with pytest.raises(CompositionError) as want:
        ref_fill_positive(cp, f, g, Budget())
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the σ paths the filler shares within one call


def sigma_calls(monkeypatch):
    """Wrap the filler's σ path builder; each call appends (word, path, units
    spent before it, whether the call's memo held the word)."""
    calls = []
    inner = coherence._sigma

    def recorded(cp, w, budget, memo):
        before, known = spent(budget), w in memo
        path = inner(cp, w, budget, memo)
        calls.append((w, path, before, known))
        return path

    monkeypatch.setattr(coherence, "_sigma", recorded)
    return calls


def test_every_shared_sigma_path_is_the_leftmost_normalization(cases, monkeypatch):
    calls = sigma_calls(monkeypatch)
    reused = 0
    for label, cp, f, g in cases:
        calls.clear()
        fill_sphere(cp, f, g)
        for w, path, _, known in calls:
            nf, want = normalize(cp.base, w, "leftmost")
            assert path.source == w, label
            assert path.steps == want.steps, (label, str(w))
            assert path.target == nf, (label, str(w))
            reused += known
    assert reused > 0


def reused_cut(cp, f, g, monkeypatch):
    """A budget that runs out inside a σ path the memo held: the units
    before the first such call of length at least 2, plus one less than its
    length; None when no call reuses such a path."""
    calls = sigma_calls(monkeypatch)
    fill_sphere(cp, f, g)
    monkeypatch.undo()
    for _, path, before, known in calls:
        if known and len(path) >= 2:
            return before + len(path) - 1
    return None


def test_a_budget_spent_inside_a_reused_sigma_path_runs_out_as_the_reference(
        cases, monkeypatch):
    cut = {"positive": 0, "sigma": 0}
    for label, cp, f, g in cases:
        fuel = reused_cut(cp, f, g, monkeypatch)
        if fuel is None:
            continue
        cut[label.split("/")[1]] += 1
        got, got_log = run(fill_sphere, cp, f, g, fuel)
        want, want_log = run(ref_fill_sphere_memoized, cp, f, g, fuel)
        assert got[0] == "exhausted", label
        assert got == want, label
        assert got_log == want_log, label
        if not (f.positive and g.positive and cp.base.matcher.is_normal(f.target)):
            continue
        # fill_positive keeps normalize's partial path in .trace
        with pytest.raises(FuelExhausted) as exc:
            fill_positive(cp, f, g, fuel)
        with pytest.raises(FuelExhausted) as ref_exc:
            ref_fill_positive(cp, f, g, Budget(fuel), {})
        assert str(exc.value) == str(ref_exc.value), label
        assert str(exc.value).startswith("normalizing '"), label
        got_path, want_path = exc.value.trace, ref_exc.value.trace
        assert got_path.source == want_path.source, label
        assert got_path.steps == want_path.steps and got_path.steps, label
        assert got_path.target == want_path.target, label
    assert cut["positive"] > 0 and cut["sigma"] > 0


def deep_sphere(b3):
    """The B3+ sphere of 53 against 131 steps."""
    rng = random.Random(7)
    w = random_word(rng, b3, rng.randint(24, 40))
    _, f = normalize(b3, w, "leftmost")
    _, g = normalize(b3, w, "rightmost")
    assert (len(w), len(f), len(g)) == (34, 53, 131)
    return f, g


def test_the_deep_sphere_charges_what_the_unshared_paths_charged_in_each_call(b3):
    """Sharing σ paths charges every step of every path as before (50,065
    units, as with one normalization per path), and nothing survives one
    call: a second fill of the sphere charges the same."""
    cp = squier_completion(b3)
    f, g = deep_sphere(b3)
    first, second = Budget(), Budget()
    expr = fill_sphere(cp, f, g, first)
    assert spent(first) == 50_065
    assert fill_sphere(cp, f, g, second) == expr
    assert spent(second) == 50_065
