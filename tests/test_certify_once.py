"""The convergence gate of ``word_eq`` runs once per presentation object and
set of gate parameters.

``_certified_normal_forms`` records the fuel units the gate charged on the
presentation; a later call with the same parameters charges those units
instead of running the gate.  The oracle for every hit is a miss: the same
call on a fresh ``replace`` copy, whose memo is empty, so it runs the gate
in full.  Both must return the same answer, or raise the same exception
with the same message and trace, and leave the same fuel.
"""

from dataclasses import replace

import pytest

from conftest import SQ_CERT_TEXT, XYX_TEXT
from polygraph import (
    Budget,
    FuelExhausted,
    NotCertified,
    certify_convergent,
    parse_certificate,
    parse_polygraph,
    termination_evidence,
    word_eq,
)
from polygraph import branchings, rewrite
from polygraph.rewrite import DEFAULT_PUMP_BOUND, InterpretationCert

# fixture -> two words equal in its monoid
CASES = {
    "b3": ("s t s", "t s t"),
    "a4_done": ("s2 s1 s2 s3", "s1 s2 s1 s3"),
    "sq": ("x a t b", "a t b x"),
}


def cert_for(name):
    """The certificate each case is called with: SQ's own, and for the
    deglex-terminating presentations a certificate the gate never needs."""
    if name == "sq":
        return parse_certificate(SQ_CERT_TEXT)
    gens = {"b3": "s t a", "a4_done": "s1 s2 s3 s4"}[name].split()
    return InterpretationCert({g: (1, 0) for g in gens}, {g: ((1, 2),) for g in gens})


def other_cert(cert):
    """A certificate of other content that passes where cert passes: the
    derivation count of one generator grows faster."""
    last = sorted(cert.der)[-1]
    return InterpretationCert(dict(cert.star), {**cert.der, last: ((1, 3),)})


@pytest.fixture(params=list(CASES))
def case(request):
    """(fresh copy of the presentation, u, v, keyword arguments of the gate)."""
    name = request.param
    p = replace(request.getfixturevalue(name))
    u, v = (p.word(text) for text in CASES[name])
    return p, u, v, {"cert": cert_for(name), "ack_sampled": True}


@pytest.fixture
def gate_runs(monkeypatch):
    """The pump bound of each run of the gate's confluence check."""
    calls = []
    original = branchings.decide_confluence

    def counted(*args, **kwargs):
        calls.append(kwargs.get("pump_bound"))
        return original(*args, **kwargs)

    monkeypatch.setattr(branchings, "decide_confluence", counted)
    return calls


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type, message and trace of what it raises."""
    try:
        return ("returned", fn(*args, **kwargs))
    except (FuelExhausted, NotCertified) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "trace", None))


def gate_units(p, kwargs, pump_bound=DEFAULT_PUMP_BOUND):
    budget = Budget()
    certify_convergent(p, fuel=budget, pump_bound=pump_bound, **kwargs)
    return budget.fuel - budget.left


# ---------------------------------------------------------------------------
# when the gate runs


def test_repeated_word_eq_runs_the_gate_once(case, gate_runs):
    p, u, v, kwargs = case
    answers = {word_eq(p, u, v, **kwargs) for _ in range(5)}
    answers.add(word_eq(p, v, u, **kwargs))
    assert answers == {True}
    assert len(gate_runs) == 1
    assert list(p._certified.values()) == [gate_units(p, kwargs)]


def test_a_replace_copy_runs_the_gate_again(case, gate_runs):
    p, u, v, kwargs = case
    word_eq(p, u, v, **kwargs)
    copy = replace(p)
    assert copy == p and copy._certified == {}
    word_eq(copy, u, v, **kwargs)
    word_eq(copy, u, v, **kwargs)
    assert len(gate_runs) == 2


def test_another_pump_bound_runs_the_gate_again(case, gate_runs):
    p, u, v, kwargs = case
    for bound in (8, 4, 8, 4, 5):
        word_eq(p, u, v, pump_bound=bound, **kwargs)
    assert gate_runs == [8, 4, 5]


def test_a_cert_of_other_content_runs_the_gate_again(case, gate_runs):
    p, u, v, kwargs = case
    cert = kwargs["cert"]
    word_eq(p, u, v, **kwargs)
    # equal content in another object is the same certificate
    same = InterpretationCert(dict(cert.star), dict(cert.der))
    word_eq(p, u, v, cert=same, ack_sampled=True)
    assert len(gate_runs) == 1
    word_eq(p, u, v, cert=other_cert(cert), ack_sampled=True)
    word_eq(p, u, v, cert=other_cert(cert), ack_sampled=True)
    assert len(gate_runs) == 2


def test_acknowledging_the_cert_runs_the_gate_again(case, gate_runs):
    p, u, v, kwargs = case
    try:
        termination_evidence(p)
        needs_ack = False
    except NotCertified:  # SQ terminates by its certificate alone
        needs_ack = True
    for _ in range(2):
        if needs_ack:
            with pytest.raises(NotCertified, match="sampled checks only"):
                word_eq(p, u, v, cert=kwargs["cert"], ack_sampled=False)
        else:
            assert word_eq(p, u, v, cert=kwargs["cert"], ack_sampled=False)
    before = len(gate_runs)
    assert before == (0 if needs_ack else 1)
    word_eq(p, u, v, **kwargs)
    word_eq(p, u, v, **kwargs)
    assert len(gate_runs) == before + 1


def test_certify_convergent_called_directly_runs_in_full(case, gate_runs):
    p, u, v, kwargs = case
    word_eq(p, u, v, **kwargs)
    reports = [certify_convergent(p, **kwargs) for _ in range(2)]
    assert reports[0] == reports[1]
    assert len(gate_runs) == 3


# ---------------------------------------------------------------------------
# the fuel a hit charges


def test_a_hit_charges_what_a_miss_charges(case):
    p, u, v, kwargs = case
    units = gate_units(p, kwargs)
    assert units > 0
    word_eq(p, u, v, **kwargs)  # every call on p below is a hit, when its budget allows
    for fuel in range(units + 3):
        hit, miss = Budget(fuel), Budget(fuel)
        got = outcome(word_eq, p, u, v, hit, **kwargs)
        want = outcome(word_eq, replace(p), u, v, miss, **kwargs)
        assert got == want
        assert hit.left == miss.left
        assert outcome(word_eq, p, u, v, fuel, **kwargs) == want
        if fuel < units:  # the gate's own exhaustion, with its partial report
            assert want[:2] == ("raised", FuelExhausted)
            assert want[2].startswith("resolving branching")
            assert isinstance(want[3], dict)
    # and past the gate, a budget that covers the normal forms
    budget = Budget()
    assert word_eq(p, u, v, budget, **kwargs)
    need = budget.fuel - budget.left
    for fuel in (need - 1, need):
        hit, miss = Budget(fuel), Budget(fuel)
        assert (outcome(word_eq, p, u, v, hit, **kwargs)
                == outcome(word_eq, replace(p), u, v, miss, **kwargs))
        assert hit.left == miss.left
    assert outcome(word_eq, p, u, v, need - 1, **kwargs)[2].startswith("normalizing")


def test_a_shared_budget_is_charged_the_same_by_hits_and_misses(case):
    p, u, v, kwargs = case
    budget = Budget()
    word_eq(replace(p), u, v, budget, **kwargs)
    once = budget.fuel - budget.left
    for size in range(2 * once - 3, 2 * once + 2):
        hit, miss = Budget(size), Budget(size)
        copy = replace(p)
        got = [outcome(word_eq, copy, u, v, hit, **kwargs) for _ in range(2)]
        want = [outcome(word_eq, replace(p), u, v, miss, **kwargs) for _ in range(2)]
        assert got == want
        assert hit.left == miss.left
        assert got[0][0] == "returned"
        assert got[1][0] == ("returned" if size >= 2 * once else "raised")


# ---------------------------------------------------------------------------
# a failed gate is never recorded


@pytest.fixture
def certify_calls(monkeypatch):
    calls = []
    original = rewrite.certify_convergent

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rewrite, "certify_convergent", counted)
    return calls


def test_a_non_confluent_system_is_refused_on_every_call(gate_runs, certify_calls):
    p = parse_polygraph(XYX_TEXT)
    u, v = p.word("x y x"), p.word("y y")
    refusals = {outcome(word_eq, p, u, v) for _ in range(3)}
    assert len(refusals) == 1
    (kind, exc_type, message, _), = refusals
    assert (kind, exc_type) == ("raised", NotCertified)
    assert message.startswith("not confluent")
    assert len(gate_runs) == len(certify_calls) == 3
    assert p._certified == {}


def test_an_unacknowledged_cert_is_refused_on_every_call(sq, certify_calls):
    p = replace(sq)
    cert = parse_certificate(SQ_CERT_TEXT)
    u, v = p.word("x y"), p.word("1")
    refusals = {outcome(word_eq, p, u, v, cert=cert) for _ in range(3)}
    assert len(refusals) == 1
    (kind, exc_type, message, _), = refusals
    assert (kind, exc_type) == ("raised", NotCertified)
    assert "sampled checks only" in message
    assert len(certify_calls) == 3
    assert p._certified == {}
    assert word_eq(p, u, v, cert=cert, ack_sampled=True)


def test_an_exhausted_gate_is_not_recorded(case, gate_runs):
    p, u, v, kwargs = case
    units = gate_units(p, kwargs)
    gate_runs.clear()
    for _ in range(2):
        with pytest.raises(FuelExhausted, match="resolving branching"):
            word_eq(p, u, v, units - 1, **kwargs)
    assert p._certified == {}
    assert len(gate_runs) == 2
