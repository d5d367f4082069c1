"""The sign-off suite: one test per stated requirement, checked exactly.

Every comparison here is exact — integer arithmetic, frozen words, frozen
rule lists — and each test asserts the stated wall-clock budget.  Run with
`pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per criterion;
the printed summaries (visible with -s) restate what was checked.

The fixtures come from conftest: the positive braid monoid on three strands
(b3), the one-rule system x y x => y y (xyx) and its completion (xyx_done),
the idempotent monoid (mu), the pumped infinite system with its interpretation
certificate (sq/sq_cert) and its finite non-convergent presentation of the
same monoid (stq), the completion-cap example (lp), and the explicit slice of
the rule family a t^(n+1) => c t^n (family).
"""

import random
import time
from dataclasses import replace

import pytest

from polygraph import (
    FreeResolution,
    TwoFunctor,
    ZigZag,
    boundary3,
    check_interpretation_certificate,
    decide_confluence,
    enumerate_critical_branchings,
    fill_sphere,
    find_redexes,
    generating_cells,
    knuth_bendix,
    normalize,
    resolve_branching,
    squier_completion,
    transfer_homotopy_basis,
    try_enumerate,
    validate,
    verify_identities,
    word_eq,
    write_matrices,
)
from polygraph.homology import _acc, add_into

from conftest import f_path, pi_alpha, read_int_matrices, rstep

DEFAULT_FUEL = 10_000


class stopwatch:
    """Assert on exit that the block ran within the stated budget."""

    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.limit, (
                f"budget exceeded: {elapsed:.2f}s >= {self.limit}s"
            )


def done(k, what):
    print(f"criterion {k}: PASS — {what}")


# --------------------------------------------------------------------------


def test_criterion_1_braid_monoid(b3):
    with stopwatch(1.0):
        confluent, report = decide_confluence(b3, None, False, DEFAULT_FUEL, 8)
        assert confluent and report["count"] == 4
        joins = {e["source"]: e["join"] for e in report["branchings"]}
        assert all(e["status"] == "Confluent" for e in report["branchings"])
        assert joins == {
            "s t a": "a a",
            "s a s t": "a a t",
            "s a s a s": "a a a s",
            "s a s a a": "a a a a",
        }
        assert word_eq(b3, b3.word("s t s"), b3.word("t s t"))
    done(1, "4 confluent branchings; s t s = t s t")


def test_criterion_2_completion(xyx):
    with stopwatch(1.0):
        confluent, report = decide_confluence(xyx, None, False, DEFAULT_FUEL, 8)
        assert not confluent and report["count"] == 1
        [b] = report["branchings"]
        assert b["status"] == "NotConfluent"
        assert (b["nf1"], b["nf2"]) == ("y y y x", "x y y y")

        result = knuth_bendix(xyx)
        assert result.status == "Completed"
        [added] = result.added_rules
        assert str(added.lhs) == "y y y x" and str(added.rhs) == "x y y y"

        cp = squier_completion(result.final, 8)
        assert len(cp.cells) == 2
    done(2, "one non-confluent branching; completion adds y y y x => x y y y; "
            "2 three-cells")


def test_criterion_3_idempotent_monoid(mu, tmp_path):
    with stopwatch(1.0):
        confluent, report = decide_confluence(mu, None, False, DEFAULT_FUEL, 8)
        assert confluent and report["count"] == 1

        res = FreeResolution(squier_completion(mu, 8))
        elements, closed = try_enumerate(res, 10)
        assert closed and [str(e) for e in elements] == ["1", "a"]

        one, a = mu.word("1"), mu.word("a")
        [cell] = res.coherent.cells
        assert res.d3({(one, cell.name): 1}) == {(a, "mu"): 1, (one, "mu"): -1}

        write_matrices(res, tmp_path, bound=10)
        mats = read_int_matrices(tmp_path)

        def matmul(x, y):
            return [
                [sum(x[i][k] * y[k][j] for k in range(len(y)))
                 for j in range(len(y[0]))]
                for i in range(len(x))
            ]

        zero = [[0, 0], [0, 0]]
        assert matmul(mats["d1"], mats["d2"]) == zero
        assert matmul(mats["d2"], mats["d3"]) == zero
    done(3, "2 elements; d3[cell] = a[mu] - [mu]; d1*d2 = d2*d3 = 0 over Z")


def test_criterion_4_identities(mu, b3, xyx_done):
    with stopwatch(10.0):
        rep = verify_identities(FreeResolution(squier_completion(mu, 8)))
        assert rep["passed"] and rep["samples"] == 2  # exhaustive: 2 elements

        for p in (b3, xyx_done):
            rep = verify_identities(
                FreeResolution(squier_completion(p, 8)), samples=50
            )
            assert rep["passed"] and rep["samples"] == 50
    done(4, "all identity families hold: exhaustively on the idempotent "
            "monoid, on 50 sampled normal forms elsewhere")


def test_criterion_5_family_differentials(family):
    with stopwatch(1.0):
        res = FreeResolution(squier_completion(family, 8))
        one = family.word("1")
        images = [res.d2({(one, f"alpha{n}"): 1}) for n in range(6)]
        for n in range(5):
            diff = add_into(dict(images[n + 1]), images[n], -1)
            assert diff == {}, f"d2[alpha{n + 1}] - d2[alpha{n}] = {diff}"
            # the difference is (at^(n+1) - ct^n)[t], zero exactly because the
            # two coefficient words share a normal form
            lhs = family.word("a " + " ".join(["t"] * (n + 1)))
            rhs = family.word("c " + " ".join(["t"] * n) if n else "c")
            assert res.nf(lhs) == res.nf(rhs)
    done(5, "d2[alpha(n+1)] - d2[alpha(n)] vanishes after normal-form "
            "identification, n <= 5")


def test_criterion_6_pumped_certificate(sq, sq_cert):
    with stopwatch(5.0):
        rep = check_interpretation_certificate(sq, sq_cert, sample_bound=16)
        assert rep["status"] == "PASS(sampled)" and rep["passed"]

        confluent, report = decide_confluence(sq, sq_cert, True, DEFAULT_FUEL, 4)
        assert confluent and report["count"] == 5

        branchings = enumerate_critical_branchings(sq, 4)
        for n, b in enumerate(sorted(branchings, key=lambda b: len(b.source_word))):
            if n > 3:
                break
            assert b.step1.rule.name == "beta" and b.step1.position == 0
            assert str(b.step1.right) == ("t " * n + "b").strip()
            assert b.step2.rule.name == f"alpha[{n}]" and b.step2.position == 1
            r = resolve_branching(sq, b)
            assert r.status == "Confluent" and str(r.join_word) == "x"
            names = [s.rule.name for s in r.f_prime.steps]
            assert names == ["gamma"] * n + ["delta", f"alpha[{n + 1}]"]
            for k, s in enumerate(r.f_prime.steps[:n]):
                assert str(s.left) == ("a " + "t " * (k + 1)).strip()
                assert str(s.right) == ("t " * (n - 1 - k) + "b").strip()
            delta_step = r.f_prime.steps[n]
            assert str(delta_step.left) == ("a " + "t " * (n + 1)).strip()
            assert not r.g_prime.steps

        assert word_eq(sq, sq.word("y x"), sq.word("1"),
                       cert=sq_cert, ack_sampled=True) is False
    done(6, "certificate PASSes sampled; branchings at n <= 3 join on x "
            "through the expected gamma/delta/alpha[n+1] side; y x != 1")


def test_criterion_7_completion_cap(lp):
    with stopwatch(5.0):
        result = knuth_bendix(lp, max_rules=6)
        assert result.status == "FuelExhausted"
        added = [(str(r.lhs), str(r.rhs)) for r in result.added_rules]
        assert added[:3] == [
            ("a c b", "a c"),
            ("a c c b", "a c c"),
            ("a c c c b", "a c c c"),
        ]
    done(7, "rule cap reached; first added rules are a c^n b => a c^n "
            "for n = 1, 2, 3")


# --------------------------------------------------------------------------
# criterion 8: randomized suites, seeded


def random_word(p, rng, max_len):
    gens = [g.name for g in p.generators]
    letters = [rng.choice(gens) for _ in range(rng.randint(0, max_len))]
    return p.word(" ".join(letters) if letters else "1")


def random_path(p, w, rng):
    """A rewriting path from w to its normal form taking random redexes."""
    steps = []
    current = w
    while True:
        redexes = find_redexes(p, current)
        if not redexes:
            return ZigZag(w, tuple(steps))
        step = rng.choice(redexes)
        steps.append(step)
        current = step.target_word


def test_criterion_8_randomized_suites(b3, mu, xyx_done):
    rng = random.Random(0)
    with stopwatch(30.0):
        # (a) strategy independence: 200 words per convergent example
        for p in (b3, mu, xyx_done):
            for _ in range(200):
                w = random_word(p, rng, 12)
                left, _ = normalize(p, w, "leftmost")
                right, _ = normalize(p, w, "rightmost")
                assert left == right, f"strategies disagree on {w}"

        # (b) sphere filling inverts boundary3 on 100 random parallel pairs
        cp = squier_completion(xyx_done, 8)
        res = FreeResolution(cp)
        pairs = []
        for _ in range(100):
            w = random_word(xyx_done, rng, 10)
            f = random_path(xyx_done, w, rng)
            g = random_path(xyx_done, w, rng)
            pairs.append((f, g))
            expr = fill_sphere(cp, f, g)
            src, tgt = boundary3(expr)
            assert src.reduced() == f.reduced() and tgt.reduced() == g.reduced()

        # (c) chain rules on 100 composites
        for f, g in pairs:
            lhs = res.d2(res.bracket_2cell(f))
            rhs = add_into(dict(res.fox_bracket(f.source)),
                           res.fox_bracket(f.target), -1)
            assert lhs == rhs
            expr = fill_sphere(cp, f, g)
            s2, t2 = boundary3(expr)
            lhs3 = res.d3(res.bracket_3cell(expr))
            rhs3 = add_into(dict(res.bracket_2cell(s2)),
                            res.bracket_2cell(t2), -1)
            assert lhs3 == rhs3

        # (d) a sign flip in a differential must be caught, with a witness
        class FlippedD1(FreeResolution):
            def d1(self, melt):
                out = {}
                for (u, gen), coef in melt.items():
                    x = self.presentation.word_from_letters((gen,))
                    _acc(out, self.nf(u.concat(x)), coef)
                    _acc(out, u, coef)  # wrong sign
                return out

        rep = verify_identities(FlippedD1(cp))
        assert not rep["passed"] and not rep["d1d2"]
        assert any("d1d2" in f for f in rep["failures"])

        class FlippedD3(FreeResolution):
            def d3(self, melt):
                out = {}
                for (u, cell_name), coef in melt.items():
                    cell = self.coherent.cell_by_name[cell_name]
                    delta = self.bracket_2cell(cell.source2)
                    add_into(delta, self.bracket_2cell(cell.target2), 1)  # wrong sign
                    for (w, rule), c in delta.items():
                        _acc(out, (self.nf(u.concat(w)), rule), coef * c)
                return out

        rep = verify_identities(FlippedD3(squier_completion(mu, 8)))
        assert not rep["passed"] and not rep["d2d3"]
        assert any("d2d3" in f for f in rep["failures"])
    done(8, "200 words/example agree across strategies; 100 sphere fills "
            "invert boundary3; 100 chain-rule composites; sign flips caught")


# --------------------------------------------------------------------------
# criterion 9: the infinite-case statements are meta-theorems; the checkable
# substitute is criteria 6-7 (above) plus the boundary data of the spheres
# relating consecutive family members, and their transfer to the finite
# presentation of the same monoid.


def test_criterion_9_family_spheres_and_transfer(sq, stq, sq_cert):
    cp = squier_completion(sq, 6, cert=sq_cert, ack_sampled=True)
    assert [c.name for c in cp.cells] == [f"conf{k}" for k in range(7)]
    res = FreeResolution(cp)
    w1, wx = sq.word("1"), sq.word("x")

    for n in range(4):
        # the sphere tying alpha[n] to alpha[n+1] via the crossing rules
        side1 = f_path(sq, n).then(pi_alpha(sq, n + 1).whisker(w1, wx))
        side2 = pi_alpha(sq, n).whisker(wx, w1)
        assert side1.source == side2.source and side1.target == side2.target
        expr = fill_sphere(cp, side1, side2)
        src, tgt = boundary3(expr)
        assert src.reduced() == side1.reduced()
        assert tgt.reduced() == side2.reduced()
        # the filler only consumes cells indexed k <= n+1
        assert generating_cells(expr) <= {f"conf{k}" for k in range(n + 2)}
        # and its signed cell content cancels outright: every generating cell
        # enters once positively and once negatively under an identity left
        # context, so the linearization is the zero module element
        assert res.bracket_3cell(expr) == {}

    # transfer the basis to the finite presentation of the same monoid
    def own_step(p, name):
        return ZigZag.of(rstep(p.word("1"), p.lookup_rule(name), p.word("1")))

    fixed = ("beta", "gamma", "delta", "eps")
    F_rules = {name: own_step(stq, name) for name in fixed}
    for k in range(8):
        F_rules[f"alpha[{k}]"] = pi_alpha(stq, k, a0name="alpha0")
    F = TwoFunctor(sq, stq, {g: stq.word(g) for g in sq.generator_map}, F_rules)

    G_rules = {name: own_step(sq, name) for name in fixed}
    G_rules["alpha0"] = ZigZag.of(
        rstep(sq.word("1"), sq.pumped[0].instance(0), sq.word("1"))
    )
    G = TwoFunctor(stq, sq, {g: sq.word(g) for g in stq.generator_map}, G_rules)

    tau = {g: ZigZag(stq.word(g)) for g in stq.generator_map}
    cells = transfer_homotopy_basis(stq, F, G, tau, cp.cells[:4])
    assert [c.name for c in cells] == [
        "F_conf0", "F_conf1", "F_conf2", "F_conf3",
        "tau_alpha0", "tau_beta", "tau_gamma", "tau_delta", "tau_eps",
    ]
    assert all(c.parallel for c in cells)
    # the emitted cells pass the presentation validator when attached
    assert validate(replace(stq, three_cells=tuple(cells))) == []
    done(9, "spheres for n <= 3 fill with cells of index <= n+1 and zero "
            "signed content; transferred basis validates on the finite "
            "presentation")
