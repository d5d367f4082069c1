"""The one fuel budget: an int starts a fresh Budget for a top-level call, a
Budget passed in is charged in place by everything the call runs, and every
exhaustion names its phase."""

import sys

import pytest

import polygraph
from polygraph import (
    Budget,
    FuelExhausted,
    decide_confluence,
    enumerate_critical_branchings,
    fill_sphere,
    knuth_bendix,
    normalize,
    resolve_branching,
    squier_completion,
    word_eq,
)
from polygraph import coherence


def spent(budget):
    return budget.fuel - budget.left


def test_budget_charges_until_spent():
    budget = Budget(2)
    budget.charge()
    budget.charge()
    assert budget.left == 0
    with pytest.raises(FuelExhausted, match="budget of 2"):
        budget.charge()
    assert Budget.of(budget) is budget
    assert Budget.of(5).left == 5


def test_a_callable_trace_is_called_once_on_the_first_read():
    calls = []
    exc = FuelExhausted("spent", lambda: calls.append("built") or "partial path")
    assert calls == []
    assert exc.trace == "partial path"
    assert exc.trace == "partial path"
    assert calls == ["built"]
    assert FuelExhausted("spent").trace is None


def test_normalize_charges_one_unit_per_step(b3):
    w = b3.word("s t s t s t")
    budget = Budget()
    _, path = normalize(b3, w, fuel=budget)
    assert spent(budget) == len(path.steps) > 1
    # an int is a fresh budget: the shared one is left alone
    normalize(b3, w, fuel=len(path.steps))
    assert spent(budget) == len(path.steps)
    with pytest.raises(FuelExhausted, match="normalizing 's t s t s t'") as exc:
        normalize(b3, w, fuel=Budget(len(path.steps) - 1))
    assert len(exc.value.trace.steps) == len(path.steps) - 1


@pytest.fixture(scope="module")
def cp_b3(b3):
    return squier_completion(b3)


class NodeCounting(Budget):
    """A budget that also counts the units filler nodes charge: one per
    3-cell S of a step actually built and one per Peiffer run, none for a
    step met again."""

    def __init__(self):
        super().__init__()
        self.nodes = 0

    def charge(self):
        super().charge()
        if sys._getframe(1).f_code is coherence._Filler.step.__code__:
            self.nodes += 1


def test_fill_sphere_charges_nested_normalizations(b3, cp_b3):
    w = b3.word("s t s a s t")
    _, f = normalize(b3, w, "leftmost")
    _, g = normalize(b3, w, "rightmost")
    # every filled node, not only the top-level call
    budget = NodeCounting()
    fill_sphere(cp_b3, f, g, budget)
    nodes = budget.nodes
    assert nodes > 0
    # filler nodes alone do not cover it: the confluence paths cost too
    assert spent(budget) > nodes
    with pytest.raises(FuelExhausted, match="filling a sphere from 's t s a s t'") as exc:
        fill_sphere(cp_b3, f, g, Budget(nodes))
    assert exc.value.trace is None
    fill_sphere(cp_b3, f, g, Budget(spent(budget)))


def test_resolve_branching_raises_instead_of_unknown(b3):
    assert not hasattr(polygraph, "Unknown")
    for b in enumerate_critical_branchings(b3):
        budget = Budget()
        res = resolve_branching(b3, b, fuel=budget)
        assert res.status == "Confluent"
        legs = len(res.f_prime.steps) + len(res.g_prime.steps)
        # both legs draw on the one budget
        assert spent(budget) == legs
        if legs:
            with pytest.raises(FuelExhausted, match=r"resolving branching \(") as exc:
                resolve_branching(b3, b, fuel=legs - 1)
            assert "normalizing" in str(exc.value)


def test_decide_confluence_attaches_partial_report(b3):
    budget = Budget()
    decide_confluence(b3, fuel=budget)
    total = spent(budget)
    resolved = set()
    for fuel in range(total):
        with pytest.raises(FuelExhausted, match="resolving branching") as exc:
            decide_confluence(b3, fuel=fuel)
        report = exc.value.trace
        assert report["truncated"] is False
        assert all(e["status"] == "Confluent" for e in report["branchings"])
        resolved.add(len(report["branchings"]))
    assert max(resolved) > 0  # some runs stop part-way through
    assert decide_confluence(b3, fuel=total)[0]


def test_squier_completion_budget_runs_out_with_fuel_exhausted(b3):
    budget = Budget()
    cp = squier_completion(b3, fuel=budget)
    total = spent(budget)
    assert total > 0
    for fuel in range(total):
        with pytest.raises(FuelExhausted, match="resolving branching"):
            squier_completion(b3, fuel=Budget(fuel))
    assert squier_completion(b3, fuel=total).cells == cp.cells


def test_word_eq_draws_from_the_one_budget(b3):
    u, v = b3.word("s t s"), b3.word("t s t")
    check = Budget()
    decide_confluence(b3, fuel=check)
    budget = Budget()
    assert word_eq(b3, u, v, fuel=budget)
    steps = len(normalize(b3, u)[1].steps) + len(normalize(b3, v)[1].steps)
    assert spent(budget) == spent(check) + steps
    with pytest.raises(FuelExhausted, match="normalizing 't s t'"):
        word_eq(b3, u, v, fuel=spent(budget) - 1)


def test_knuth_bendix_draws_from_the_one_budget(xyx):
    budget = Budget()
    assert knuth_bendix(xyx, fuel=budget).status == "Completed"
    total = spent(budget)
    assert total > 0
    assert knuth_bendix(xyx, fuel=Budget(total)).status == "Completed"
    result = knuth_bendix(xyx, fuel=Budget(total - 1))
    assert result.status == "FuelExhausted"
    assert result.trace[-1]["action"] == "stopped: fuel exhausted"
