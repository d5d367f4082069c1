"""The sphere filler against the recursion it replaced.

The reference below is the two-path recursion of the coherence theorem:
it peels equal first steps, resolves differing ones through
fill_local_branching and a leftmost confluence path, and rebuilds the rest
of both paths as a new ZigZag at every node.  The library instead builds
one 3-cell S per rewriting step (a step followed by σ of its target, to σ
of its source) and straightens both sides of every sphere through it, so
the two fillers build different expressions for one sphere.  On seeded
positive and σ spheres they must agree on what the filler is for: the
sphere as the exact boundary, the same d3 of the cell content (bracket₂ of
one side minus the other's, whatever the filler), and only declared cells;
and the library must spend no more fuel.  Its σ paths are shared within a
call: each must be the leftmost normalization path, walked once, and cut
short as ``normalize`` would cut it.
"""

import functools
import random
import sys

import pytest

import polygraph.coherence as coherence
from polygraph import (
    Budget,
    CompositionError,
    FreeResolution,
    FuelExhausted,
    ZigZag,
    boundary3,
    fill_positive,
    fill_sphere,
    find_redexes,
    generating_cells,
    normalize,
    squier_completion,
)
from polygraph.coherence import (
    Comp1,
    Comp2,
    Exchange,
    Id2,
    Inv,
    _nodes,
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
        if all(s.forward for s in f.steps + g.steps) and not find_redexes(cp.base, f.target):
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
    path (``normalize``, or a walk of the filler's shared σ paths) or a
    node (a sub-sphere of the reference, an S of the library)."""

    def __init__(self, fuel):
        super().__init__(fuel)
        self.log = []

    def charge(self):
        caller = sys._getframe(1).f_code.co_name
        super().charge()
        self.log.append("step" if caller in ("normalize", "_sigma", "_walk") else "node")


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


def d3_of(cp, expr):
    """d3 of the cell content of a filler, in cp's free resolution."""
    res = FreeResolution(cp)
    return res.d3(res.bracket_3cell(expr))


def test_fill_sphere_matches_the_suffix_zigzag_recursion(cases):
    total = memo_total = 0
    walked = 0
    for label, cp, f, g in cases:
        got, got_log = run(fill_sphere, cp, f, g, 10**6)
        want, tree_log = run(ref_fill_sphere, cp, f, g, 10**6)
        memo_want, want_log = run(ref_fill_sphere_memoized, cp, f, g, 10**6)
        assert got[0] == want[0] == memo_want[0] == "filled", label
        expr = got[1]
        assert boundary3(expr) == (f, g), label
        assert d3_of(cp, expr) == d3_of(cp, want[1]), label
        assert generating_cells(expr) <= {c.name for c in cp.cells}, label
        assert len(got_log) <= len(tree_log), label
        spent = len(got_log)
        total += spent
        memo_total += len(want_log)
        walked += "step" in got_log
        # one unit short, and about half the budget: the sphere is named,
        # and the units are charged in the order of the full run
        for fuel in (spent - 1, spent // 2):
            short, short_log = run(fill_sphere, cp, f, g, fuel)
            assert short[0] == "exhausted", (label, fuel)
            assert short[1].startswith(f"filling a sphere from '{f.source}': "), (label, fuel)
            assert short_log == got_log[:fuel], (label, fuel)
    # the spheres walk σ paths, and over all of them the library spends no
    # more than the reference with a memo per call
    assert walked >= len(cases) // 2
    assert total <= memo_total


def test_fill_sphere_fills_a_deep_sphere_at_under_0_6_of_the_tree_charge(b3):
    """On a B3+ sphere of 20 against 84 steps, the filler spends less than
    60% of the units the tree-shaped recursion charges, and its cell
    content has the reference's d3."""
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
    assert boundary3(got) == (f, g)
    assert d3_of(cp, got) == d3_of(cp, want)
    assert spent(budget) < 0.6 * spent(ref_budget)


def test_a_step_carries_past_the_sigma_steps_far_enough_before_it(cases):
    """A step Peiffer to the first step b of σ is carried along σ past the
    steps that start at least the longest left-hand side before it (a run,
    past two steps or more on B3+ and A4); a step nearer b takes the
    general S, whose exchange is of the step and b alone.  Squier's pumped
    example has no longest left-hand side, and no step of it carries."""
    seen = set()
    for label, cp, f, g in cases:
        name = label.split("/")[0]
        reach = max(len(r.lhs) for r in cp.base.rules)
        for node, _ in _nodes(fill_sphere(cp, f, g)):
            if isinstance(node, Exchange):
                carried = not cp.base.pumped and node.step1.position - node.step2.position >= reach
                assert carried or not node.rest, label
                seen.add((name, carried, len(node.rest) > 0))
    assert {("b3", True, True), ("b3", False, False), ("a4", True, True)} <= seen
    assert {kind for kind in seen if kind[0] == "sq"} == {("sq", False, False)}


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


def test_a_budget_spent_inside_a_sigma_walk_runs_out_as_normalize(cases, monkeypatch):
    """Each σ step is charged once per call, when it is walked: the units
    the σ walks spend are the words on the σ paths that are not normal.  A
    budget that runs out inside a walk stops it as ``normalize`` would
    stop it: its message names the word, and the partial path is the start
    of that word's leftmost normalization path."""
    calls = sigma_calls(monkeypatch)
    cut = {"positive": 0, "sigma": 0}
    for label, cp, f, g in cases:
        calls.clear()
        _, log = run(fill_sphere, cp, f, g, 10**6)
        # a walk takes the steps of its path up to the first word met before
        seen, fuel = set(), None
        for _, path, before, _ in calls:
            walked = 0
            for step in path.steps:
                if step.source_word in seen:
                    break
                seen.add(step.source_word)
                walked += 1
            if fuel is None and walked >= 2:
                fuel = before + walked - 1
        assert log.count("step") == len(seen), label
        if fuel is None:
            continue
        cut[label.split("/")[1]] += 1
        with pytest.raises(FuelExhausted) as exc:
            fill_positive(cp, f, g, fuel)
        partial = exc.value.trace
        assert str(exc.value) == f"normalizing '{partial.source}': the budget of {fuel} is spent"
        _, want = normalize(cp.base, partial.source, "leftmost")
        assert partial.steps and partial.steps == want.steps[:len(partial.steps)], label
        assert partial.target == (want.steps[len(partial.steps)].source_word
                                  if len(partial.steps) < len(want.steps) else want.target)
        with pytest.raises(FuelExhausted) as named:
            fill_sphere(cp, f, g, fuel)
        assert str(named.value) == f"filling a sphere from '{f.source}': {exc.value}", label
    assert cut["positive"] > 0 and cut["sigma"] > 0


def deep_sphere(b3):
    """The B3+ sphere of 53 against 131 steps."""
    rng = random.Random(7)
    w = random_word(rng, b3, rng.randint(24, 40))
    _, f = normalize(b3, w, "leftmost")
    _, g = normalize(b3, w, "rightmost")
    assert (len(w), len(f), len(g)) == (34, 53, 131)
    return f, g


def test_the_deep_sphere_charges_each_step_cell_and_sigma_step_once_per_call(b3):
    """The filler of the 53 vs 131 sphere spends 2,257 units, one per S,
    per Peiffer run and per σ step walked (3,614 when every Peiffer pair
    built an S of its own), where the two-path recursion spent 50,065
    (every use of a shared σ path charged again), and has at most its
    12,888 distinct nodes; nothing survives one call: a second fill of the
    sphere charges the same."""
    cp = squier_completion(b3)
    f, g = deep_sphere(b3)
    first, second = Budget(), Budget()
    expr = fill_sphere(cp, f, g, first)
    assert boundary3(expr) == (f, g)
    assert len(_nodes(expr)) <= 12_888
    assert spent(first) == 2_257
    fill_sphere(cp, f, g, second)
    assert spent(second) == spent(first)


def frames_below():
    """The number of Python frames below the caller's, the caller's own
    included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_the_deep_sphere_fills_80_frames_above_the_caller(b3):
    """The filler recurses nowhere: with the recursion limit 80 frames
    above this test's depth, the 53 vs 131 sphere still fills."""
    cp = squier_completion(b3)
    f, g = deep_sphere(b3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames_below() + 80)
    try:
        expr = fill_sphere(cp, f, g)
    finally:
        sys.setrecursionlimit(limit)
    assert boundary3(expr) == (f, g)


def test_the_self_sphere_of_a_3736_step_path_fills(b3):
    """The leftmost path of a 330-letter B3+ word against itself: 3,736
    equal steps on each side, far deeper than the recursion limit."""
    cp = squier_completion(b3)
    w = random_word(random.Random(1), b3, 330)
    _, f = normalize(b3, w, "leftmost")
    assert len(f) == 3_736
    expr = fill_sphere(cp, f, f)
    assert boundary3(expr) == (f, f)
