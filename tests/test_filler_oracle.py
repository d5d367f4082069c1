"""The sphere filler against the recursion it replaced.

The reference below rebuilds the rest of both paths as a new ZigZag at
every node (and so re-checks every remaining step); the library walks the
checked paths by index.  On seeded positive and σ spheres both must return
equal expressions, charge the budget in the same order, and run out of a
short budget at the same point with the same message.
"""

import random
import sys

import pytest

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


def ref_fill_positive(cp, p_path, q_path, budget):
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
        inner = ref_fill_positive(cp, p_rest, q_rest, budget)
        return Comp1(ZigZag.of(a), inner, ZigZag(p_path.target))

    f1, g1, cell_expr = fill_local_branching(cp, a, b)
    _, h = normalize(cp.base, f1.target, "leftmost", budget)
    assert h.target == p_path.target
    top = Comp1(ZigZag.of(a), ref_fill_positive(cp, p_rest, f1.then(h), budget),
                ZigZag(p_path.target))
    middle = Comp1(ZigZag(p_path.source), cell_expr, h)
    bottom = Comp1(ZigZag.of(b), ref_fill_positive(cp, g1.then(h), q_rest, budget),
                   ZigZag(p_path.target))
    return Comp2(Comp2(top, middle), bottom)


def ref_sigma_step(cp, step, budget):
    sig_u = sigma_path(cp, step.source_word, budget)
    sig_m = sigma_path(cp, step.target_word, budget)
    if step.forward:
        return ref_fill_positive(cp, ZigZag.of(step).then(sig_m), sig_u, budget)
    fwd = step.inverse()
    inner = ref_fill_positive(cp, ZigZag.of(fwd).then(sig_u), sig_m, budget)
    return Inv(Comp1(ZigZag.of(step), inner, ZigZag(sig_u.target)))


def ref_sigma_zigzag(cp, f, budget):
    if not f.steps:
        return Id2(ZigZag(f.source))
    return ref_sigma_suffix(cp, f, sigma_path(cp, f.target, budget).inverse(), budget)


def ref_sigma_suffix(cp, f, sig_v_back, budget):
    u = f.source
    if not f.steps:
        return Id2(ZigZag(u))
    step = f.steps[0]
    rest = ZigZag(step.target_word, f.steps[1:])
    v = f.target
    top = Comp1(ZigZag.of(step), ref_sigma_suffix(cp, rest, sig_v_back, budget), ZigZag(v))
    bottom = Comp1(ZigZag(u), ref_sigma_step(cp, step, budget), sig_v_back)
    return Comp2(top, bottom)


def ref_fill_sphere(cp, f, g, budget):
    try:
        if f.positive and g.positive and cp.base.matcher.is_normal(f.target):
            return ref_fill_positive(cp, f, g, budget)
        return Comp2(ref_sigma_zigzag(cp, f, budget), Inv(ref_sigma_zigzag(cp, g, budget)))
    except FuelExhausted as exc:
        raise FuelExhausted(f"filling a sphere from '{f.source}': {exc}") from None


# ---------------------------------------------------------------------------
# spheres


class Recording(Budget):
    """A budget that logs who spent each unit: a normalize step or a node."""

    def __init__(self, fuel):
        super().__init__(fuel)
        self.log = []

    def charge(self):
        caller = sys._getframe(1).f_code.co_name
        super().charge()
        self.log.append("step" if caller == "normalize" else "node")


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
    for label, cp, f, g in cases:
        got, got_log = run(fill_sphere, cp, f, g, 10**6)
        want, want_log = run(ref_fill_sphere, cp, f, g, 10**6)
        assert got[0] == want[0] == "filled", label
        assert got[1] == want[1], label
        assert got_log == want_log, label
        spent = len(want_log)
        nontrivial += "step" in want_log
        # one unit short, and about half the budget: the same point, the
        # same message
        for fuel in (spent - 1, spent // 2):
            short, short_log = run(fill_sphere, cp, f, g, fuel)
            ref_short, ref_short_log = run(ref_fill_sphere, cp, f, g, fuel)
            assert short[0] == "exhausted", (label, fuel)
            assert short == ref_short, (label, fuel)
            assert short_log == ref_short_log == want_log[:fuel], (label, fuel)
    # the spheres are not all peeled off step by step
    assert nontrivial >= len(cases) // 2


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
