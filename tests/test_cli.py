"""End-to-end tests of the command-line interface.

Everything goes through run(), which returns (exit code, report); the report
carries both the human lines and the sections that --json serializes, so one
call checks the code, the words on the screen, and the machine schema.  A few
tests call main() to pin down the printed bytes, in particular that two runs
with the same argv and files produce identical JSON.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from polygraph import parse_polygraph, serialize_polygraph, squier_completion
from polygraph.cli import build_parser, format_report, main, run

from conftest import (
    B3_TEXT,
    LP_TEXT,
    MU_TEXT,
    NONASSOC_TABLE,
    SQ_CERT_TEXT,
    SQ_BAD_CERT_TEXT,
    SQ_TEXT,
    XYX_DONE_TEXT,
    XYX_TEXT,
    Z2_TABLE,
)

SRC = Path(__file__).resolve().parent.parent / "src"

UNREDUCED_TEXT = """\
monoid
generators: x y
order: x < y
rules:
alpha: x y x => y y
kb1: y y y x => x y y y
dup: x y x => y y
long: x y x y => y y y
"""

IDENTITY_MAP = """\
fgen:
x => x ; y => y
frule:
alpha => 1 * alpha * 1
kb1 => 1 * kb1 * 1
ggen:
x => x ; y => y
grule:
alpha => 1 * alpha * 1
kb1 => 1 * kb1 * 1
tau:
x => id(x) ; y => id(y)
"""


@pytest.fixture
def files(tmp_path):
    """Write the named texts into the tmp dir, return {stem: path string}."""

    def write(**texts):
        out = {}
        for stem, text in texts.items():
            path = tmp_path / (stem + ".txt")
            path.write_text(text)
            out[stem] = str(path)
        return out

    return write


# --------------------------------------------------------------------------
# check / nf / eq


def test_check_reports_counts(files):
    f = files(b3=B3_TEXT)
    code, report = run(["check", f["b3"]])
    assert code == 0
    assert report.status == "OK"
    assert report.human == (
        "OK: monoid presentation: 3 generators, 4 rules, "
        "0 pumped families, 0 three-cells",
    )
    assert report.sections["order"] == "a < s < t"


def test_check_rejects_bad_file_with_line_number(files):
    f = files(bad="monoid\ngenerators: x\nrules:\nr: x y => x\n")
    code, report = run(["check", f["bad"]])
    assert code == 2
    assert report.status == "FAIL"
    assert "line 4" in report.sections["error"]


def test_check_missing_file_is_usage_error():
    code, report = run(["check", "/nonexistent/nowhere.pg"])
    assert code == 2
    assert "error" in report.sections


def test_nf_prints_normal_form_and_path(files):
    f = files(b3=B3_TEXT)
    code, report = run(["nf", f["b3"], "s t s"])
    assert code == 0
    assert report.human == ("normal form: a s", "path (1 step): 1*beta*s")
    assert report.sections["steps"] == 1

    code, report = run(["nf", f["b3"], "s t s", "--strategy", "rightmost"])
    assert code == 0
    assert report.sections["normal_form"] == "a s"


def test_nf_fuel_exhaustion_is_partial(files):
    f = files(b3=B3_TEXT)
    code, report = run(["nf", f["b3"], "s t s t s t", "--fuel", "1"])
    assert code == 3
    assert report.status == "PARTIAL"
    assert report.human[0].startswith("fuel exhausted:")


def test_nf_fuel_exhaustion_json_carries_partial_path(files, capsys):
    f = files(b3=B3_TEXT)
    assert main(["nf", f["b3"], "s t s t s t", "--fuel", "1", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "PARTIAL"
    assert doc["trace"] == "1*beta*s t s t"
    assert "normalizing 's t s t s t'" in doc["error"]


def test_eq_equal_and_not_equal(files):
    f = files(b3=B3_TEXT)
    code, report = run(["eq", f["b3"], "s t s", "t s t"])
    assert code == 0
    assert report.human == ("EQUAL (normal form: a s)",)

    code, report = run(["eq", f["b3"], "s t s", "t s s"])
    assert code == 1
    assert report.status == "FAIL"
    # the witness: both distinct normal forms are in the message
    assert report.sections["nf1"] != report.sections["nf2"]
    assert "distinct normal forms" in report.human[0]


def test_eq_demands_termination_evidence(files):
    f = files(sq=SQ_TEXT, cert=SQ_CERT_TEXT)
    code, report = run(["eq", f["sq"], "y x", "1"])
    assert code == 2
    assert "termination evidence" in report.sections["error"]

    code, report = run(["eq", f["sq"], "y x", "1", "--cert", f["cert"]])
    assert code == 1
    assert report.human == ("NOT EQUAL: y x and 1 are distinct normal forms",)


def test_eq_refuses_a_failing_certificate(files):
    f = files(sq=SQ_TEXT, bad=SQ_BAD_CERT_TEXT)
    code, report = run(["eq", f["sq"], "y x", "1", "--cert", f["bad"]])
    assert code == 2
    assert report.sections == {"error": "interpretation certificate fails: "
                                        "need star 1 >= 1 and der 0 > 0 (rule gamma, n=0)"}


def test_eq_refuses_nonconfluent_system(files):
    f = files(xyx=XYX_TEXT)
    code, report = run(["eq", f["xyx"], "x y x", "y y"])
    assert code == 2
    assert "not confluent" in report.sections["error"]


# --------------------------------------------------------------------------
# cp


def test_cp_all_confluent(files):
    f = files(b3=B3_TEXT)
    code, report = run(["cp", f["b3"]])
    assert code == 0
    assert report.human[0] == "4 critical branchings, all Confluent"
    assert report.human[1] == "  s t a: beta@0, alpha@1 -> Confluent (join: a a)"
    assert report.sections["count"] == 4
    assert all(b["status"] == "Confluent" for b in report.sections["branchings"])


def test_cp_not_confluent_reports_witness(files):
    f = files(xyx=XYX_TEXT)
    code, report = run(["cp", f["xyx"]])
    assert code == 1
    assert report.human == (
        "1 critical branching, 1 NotConfluent",
        "  x y x y x: alpha@0, alpha@2 -> NotConfluent: y y y x vs x y y y",
    )
    [b] = report.sections["branchings"]
    assert (b["nf1"], b["nf2"]) == ("y y y x", "x y y y")


def test_cp_without_evidence_lists_but_does_not_resolve(files):
    f = files(sq=SQ_TEXT)
    code, report = run(["cp", f["sq"], "--pump-bound", "4"])
    assert code == 0
    assert not report.sections["resolved"]
    assert "--resolve" in report.human[0]
    assert report.sections["count"] == 5
    assert all("status" not in b for b in report.sections["branchings"])


def test_cp_resolve_flag_forces_resolution(files):
    f = files(sq=SQ_TEXT)
    code, report = run(["cp", f["sq"], "--resolve", "--pump-bound", "4"])
    assert code == 0
    assert report.sections["resolved"]
    assert report.sections["evidence"] == "assumed (--resolve)"
    assert report.human[0] == "5 critical branchings, all Confluent"


def test_cp_with_certificate_annotates_family(files):
    f = files(sq=SQ_TEXT, cert=SQ_CERT_TEXT)
    code, report = run(["cp", f["sq"], "--cert", f["cert"], "--pump-bound", "4"])
    assert code == 0
    assert report.sections["evidence"] == "interpretation (sampled)"
    assert report.sections["truncated"]
    for b in report.sections["branchings"]:
        assert b["status"] == "Confluent"
        assert b["join"] == "x"
        assert b["family"] == "beta ~ alpha[n] @ offset 1"


# --------------------------------------------------------------------------
# complete / reduce / cohere


def test_complete_adds_the_missing_rule(files):
    f = files(xyx=XYX_TEXT)
    code, report = run(["complete", f["xyx"]])
    assert code == 0
    assert report.human == ("added 1 rule: kb1: y y y x => x y y y",)
    assert report.sections["status"] == "Completed"


def test_complete_on_convergent_input_is_identity(files):
    f = files(b3=B3_TEXT)
    code, report = run(["complete", f["b3"]])
    assert code == 0
    assert report.sections["added"] == []
    assert report.sections["rules_total"] == 4


def test_complete_rule_cap_is_partial(files):
    f = files(lp=LP_TEXT)
    code, report = run(["complete", f["lp"], "--max-rules", "6"])
    assert code == 3
    assert report.status == "PARTIAL"
    assert report.human == (
        "added 3 rules:",
        "  kb1: a c b => a c",
        "  kb2: a c c b => a c c",
        "  kb3: a c c c b => a c c c",
        "stopped: rule cap 6 reached before orienting",
    )


def test_reduce_removes_duplicate_and_nested(files):
    f = files(un=UNREDUCED_TEXT)
    code, report = run(["reduce", f["un"]])
    assert code == 0
    assert report.human[0] == "2 reduction moves:"
    assert report.human[1] == "  pass 2: removed duplicate dup (kept alpha)"
    assert report.human[2] == "  pass 3: removed long (lhs contains alpha)"
    assert report.sections["rules"] == 2
    assert "kb1: y y y x => x y y y" in report.sections["final"]


def test_reduce_normalizes_a_right_hand_side(files):
    f = files(a="monoid\ngenerators: a\norder: a\nrules:\nr: a a a => a a\ns: a a => a\n")
    code, report = run(["reduce", f["a"]])
    assert code == 0
    assert report.human[:3] == (
        "2 reduction moves:",
        "  pass 1: r rhs a a -> a",
        "  pass 3: removed r (lhs contains s)",
    )
    assert report.sections["rules"] == 1


def test_reduce_reduced_input_is_noop(files):
    f = files(b3=B3_TEXT)
    code, report = run(["reduce", f["b3"]])
    assert code == 0
    assert report.human[0] == "0 reduction moves:"
    assert report.sections["rules"] == 4


def test_cohere_emits_one_cell_per_branching(files):
    f = files(mu=MU_TEXT)
    code, report = run(["cohere", f["mu"]])
    assert code == 0
    assert report.human == (
        "1 three-cell (pump bound 8):",
        "  conf0: a*mu*1 . 1*mu*1 === 1*mu*a . 1*mu*1",
    )


def test_cohere_refuses_nonconfluent(files):
    f = files(xyx=XYX_TEXT)
    code, report = run(["cohere", f["xyx"]])
    assert code == 2
    assert "not confluent" in report.sections["error"]


# --------------------------------------------------------------------------
# fill / std / transfer


def test_fill_parallel_pair(files):
    f = files(done=XYX_DONE_TEXT)
    code, report = run(
        ["fill", f["done"], "x y*alpha*1", "1*alpha*y x . 1*kb1*1"]
    )
    assert code == 0
    assert report.sections["cells_used"] == ["conf0"]
    assert report.human[0] == "filled sphere with cells: conf0"


def test_fill_rejects_non_parallel_pair(files):
    f = files(done=XYX_DONE_TEXT)
    code, report = run(["fill", f["done"], "x y*alpha*1", "id(y y)"])
    assert code == 2
    assert "not a 2-sphere" in report.sections["error"]


def test_fill_checks_the_boundary_before_it_prints(files, monkeypatch):
    """A filler whose boundary is not the sphere is refused (exit 2),
    never printed with exit 0."""
    import polygraph.cli as cli
    from polygraph.coherence import Id2

    f = files(done=XYX_DONE_TEXT)
    monkeypatch.setattr(cli, "fill_sphere", lambda cp, f, g: Id2(f))
    code, report = run(["fill", f["done"], "x y*alpha*1", "1*alpha*y x . 1*kb1*1"])
    assert code == 2
    assert report.sections["error"] == (
        "the filler's boundary is not the sphere: it goes [x y*alpha*1] => [x y*alpha*1]")
    assert "expression" not in report.sections


def test_fill_prints_a_shared_node_once_as_a_binding(files):
    """The σ route of a zigzag and its inverse meets the same S twice: the
    node is bound once, and the text reads it by its number."""
    f = files(b3=B3_TEXT)
    loop = "1*beta*1 . 1*beta-*1"
    code, report = run(["fill", f["b3"], loop + " . " + loop, "id(s t)", "--json"])
    assert code == 0
    assert report.sections["expression"] == (
        "let #1 = id2(1*beta*1) in ([1*beta*1] . ([1*beta-*1] . [1*beta*1] . "
        "([1*beta-*1] . id2(id(s t)) ; inv([1*beta-*1] . #1) . [1*beta-*1]) ; "
        "inv([1*beta-*1] . #1) . [1*beta-*1]) ; inv(id2(id(s t))))"
    )


def test_std_builds_standard_presentation(files):
    f = files(z2=Z2_TABLE)
    code, report = run(["std", f["z2"]])
    assert code == 0
    assert report.human[0] == "standard coherent presentation of a 2-element monoid:"
    assert report.human[1] == "  generators: 2  rules: 5  three-cells: 12"
    assert report.sections["three_cells"] == 12


def test_std_bad_table_exits_one_with_witnesses(files):
    f = files(bad=NONASSOC_TABLE)
    code, report = run(["std", f["bad"]])
    assert code == 1
    assert report.human[0] == "table is not a monoid:"
    assert "associativity fails at (a, a, b): e vs a" in report.human[1]


@pytest.mark.parametrize("table, problem", [
    ("elements: e a a; unit: e; table: e*e=e ; e*a=a ; a*e=a ; a*a=e\n",
     "duplicate elements"),
    ("elements: e a; unit: u; table: e*e=e ; e*a=a ; a*e=a ; a*a=e\n",
     "unit 'u' not among the elements"),
    ("elements: e a; unit: e; table: e*e=e ; e*a=a ; a*e=a ; a*a=b\n",
     "product a*a = 'b' not an element"),
    ("elements: e a; unit: e; table: e*e=e ; e*a=e ; a*e=e ; a*a=e\n",
     "unit law fails at a"),
])
def test_std_names_each_problem_of_a_table(files, table, problem):
    f = files(table=table)
    code, report = run(["std", f["table"]])
    assert code == 1
    assert report.human == ("table is not a monoid:", f"  {problem}")
    assert report.sections["problems"] == [problem]


def test_std_refuses_two_products_for_one_pair(files):
    f = files(twice="elements: e a; unit: e; table: e*e=e ; e*a=a ; a*e=a ; a*a=e ; a*a=a\n")
    code, report = run(["std", f["twice"]])
    assert code == 2
    assert report.sections["error"] == "line 1: a second product for a*a: 'a*a=a'"


def test_transfer_identity_functor(files):
    f = files(done=XYX_DONE_TEXT, map=IDENTITY_MAP)
    code, report = run(["transfer", f["done"], f["done"], f["map"]])
    assert code == 0
    assert report.human[0] == "transferred homotopy basis: 4 cells"
    names = [c["name"] for c in report.sections["cells"]]
    assert names == ["F_conf0", "F_conf1", "tau_alpha", "tau_kb1"]
    assert report.human[-1] == "validation: OK"


def test_transfer_of_a_rule_longer_than_the_recursion_limit(files):
    """τ on a 1,200-letter left-hand side: a path, not a RecursionError."""
    long = " ".join(["x"] + ["y"] * 1199)
    f = files(p=f"monoid\ngenerators: x y\norder: x < y\nrules:\nlong: {long} => y\n",
              map="fgen:\nx => x ; y => y\nfrule:\nlong => 1 * long * 1\n"
                  "ggen:\nx => x ; y => y\ngrule:\nlong => 1 * long * 1\n"
                  "tau:\nx => id(x) ; y => id(y)\n")
    code, report = run(["transfer", f["p"], f["p"], f["map"]])
    assert code == 0
    assert report.human[0] == "transferred homotopy basis: 1 cell"
    assert report.human[-1] == "validation: OK"


def test_transfer_reads_the_files_own_three_cells(files):
    """A source presentation that declares its 3-cells transfers them as
    Squier completion's cells of the same presentation would transfer."""
    p = parse_polygraph(XYX_DONE_TEXT)
    with_cells = replace(p, three_cells=squier_completion(p).cells)
    f = files(done=XYX_DONE_TEXT, cells=serialize_polygraph(with_cells), map=IDENTITY_MAP)
    assert "threecells:" in Path(f["cells"]).read_text()
    code, report = run(["transfer", f["cells"], f["done"], f["map"]])
    want_code, want = run(["transfer", f["done"], f["done"], f["map"]])
    assert code == want_code == 0
    assert report.sections == want.sections
    assert report.human == want.human


def test_transfer_bad_map_is_usage_error(files):
    f = files(done=XYX_DONE_TEXT, map="fgen:\nx => y y\n")
    code, report = run(["transfer", f["done"], f["done"], f["map"]])
    assert code == 2


def test_transfer_refuses_a_tau_component_with_the_wrong_source(files):
    f = files(done=XYX_DONE_TEXT, map=IDENTITY_MAP.replace("x => id(x)", "x => 1 * alpha * 1"))
    code, report = run(["transfer", f["done"], f["done"], f["map"]])
    assert code == 2
    assert report.sections == {
        "error": "tau component for 'x' goes x y x -> y y, expected x -> x"}


# --------------------------------------------------------------------------
# homology / cert


def test_homology_identities_all_hold(files):
    f = files(mu=MU_TEXT)
    code, report = run(["homology", f["mu"]])
    assert code == 0
    assert report.human[0] == "resolution over 1 three-cell (pump bound 8)"
    assert report.human[-1] == "all identities hold"
    assert set(report.sections["identities"].values()) == {"ok"}


def test_homology_runs_on_a_certificate_without_an_order_clause(files):
    """Termination by an interpretation certificate, with no order: clause:
    the resolution sorts its sample deglex on the generators in the order
    they are declared, and every identity holds."""
    f = files(p="monoid\ngenerators: a b\nrules:\nmu: a a => a\nnu: b b => b\n",
              cert="a: star n ; der 1\nb: star n ; der 1\n")
    code, report = run(["homology", f["p"], "--cert", f["cert"], "--json"])
    assert code == 0, report.sections
    assert set(report.sections["identities"].values()) == {"ok"}
    assert report.sections["samples"] == 16


def test_homology_with_a_cell_turned_round_exits_one_with_witnesses(files):
    # Squier's basis of xyx with conf1 declared from its target to its source
    conf0, conf1 = squier_completion(parse_polygraph(XYX_DONE_TEXT)).cells
    f = files(turned=XYX_DONE_TEXT + f"threecells:\n{conf0}\n"
              f"conf1: {conf1.target2} === {conf1.source2}\n")
    code, report = run(["homology", f["turned"]])
    assert code == 1
    assert report.status == "FAIL"
    identities = report.sections["identities"]
    assert [name for name, verdict in identities.items() if verdict == "FAIL"] == ["d3i3_i2d2"]
    failures = report.sections["failures"]
    assert len(failures) > 5 and all(w.startswith("d3i3_i2d2 fails at ") for w in failures)
    assert report.human[-6] == "  d3i3_i2d2: FAIL"
    assert report.human[-5:] == tuple(f"  witness: {w}" for w in failures[:5])


def test_homology_export_finite(files, tmp_path):
    f = files(mu=MU_TEXT)
    out = tmp_path / "mats"
    code, report = run(["homology", f["mu"], "--export", str(out)])
    assert code == 0
    assert (out / "elements.txt").read_text() == "1\na\n"
    assert (out / "d3.txt").exists()
    assert report.sections["export"]["finite"]


def test_homology_export_infinite_monoid_is_partial(files, tmp_path):
    f = files(done=XYX_DONE_TEXT)
    out = tmp_path / "mats"
    code, report = run(
        ["homology", f["done"], "--export", str(out), "--bound", "40"]
    )
    assert code == 3
    assert not report.sections["export"]["finite"]
    assert (out / "d2_symbolic.txt").exists()
    assert not (out / "d1.txt").exists()


def test_homology_pump_bound_too_small_is_partial(files):
    f = files(sq=SQ_TEXT, cert=SQ_CERT_TEXT)
    code, report = run(["homology", f["sq"], "--cert", f["cert"],
                        "--pump-bound", "2", "--samples", "4"])
    assert code == 3
    assert report.status == "PARTIAL"
    assert "above the pump bound 2" in report.sections["error"]


def test_homology_stale_declared_cells_is_usage_error(files):
    # B3's Squier basis without conf0, the cell of the branching on s t a
    stale = B3_TEXT + """\
threecells:
conf1: s a*beta*1 . 1*delta*1 === 1*gamma*t
conf2: s a*gamma*1 . 1*delta*a . a a*alpha*1 === 1*gamma*a s
conf3: s a*delta*1 . 1*delta*a t . a a*alpha*t . a a a*beta*1 === 1*gamma*a a
"""
    f = files(stale=stale)
    code, report = run(["homology", f["stale"]])
    assert code == 2
    assert "stale coherent presentation" in report.sections["error"]


def test_cert_pass_and_fail(files):
    f = files(sq=SQ_TEXT, good=SQ_CERT_TEXT, bad=SQ_BAD_CERT_TEXT)
    code, report = run(["cert", f["sq"], f["good"]])
    assert code == 0
    assert report.human == (
        "PASS (sampled): 21 rules, 357 instances checked (sample bound 16)",
    )

    code, report = run(["cert", f["sq"], f["bad"]])
    assert code == 1
    assert report.human[0] == (
        "FAIL: rule gamma at n=0: need star 1 >= 1 and der 0 > 0"
    )
    assert report.sections["failures"]


# --------------------------------------------------------------------------
# report formatting, JSON mode, usage errors


def test_usage_errors_exit_two(files, capsys):
    code, _ = run(["frobnicate"])
    assert code == 2
    capsys.readouterr()  # argparse wrote to stderr; swallow it

    f = files(b3=B3_TEXT)
    code, _ = run(["nf", f["b3"]])  # missing WORD
    assert code == 2
    capsys.readouterr()


def test_one_parser_serves_every_run(files, capsys):
    # a usage error, then a run with a non-default option, then one with
    # the defaults: each parses as it would in a fresh process
    assert build_parser() is build_parser()
    f = files(b3=B3_TEXT)
    code, report = run(["nf", f["b3"], "s t s", "--strategy", "sideways"])
    assert code == 2
    assert report.sections == {"error": "usage"}
    capsys.readouterr()
    code, report = run(["nf", f["b3"], "s t s t s t", "--fuel", "1"])
    assert code == 3
    code, report = run(["nf", f["b3"], "s t s t s t"])
    assert code == 0
    assert report.sections["strategy"] == "leftmost"
    assert report.sections["steps"] == 3


@pytest.mark.parametrize("argv", [
    ["nf", "{b3}", "s t", "--fuel", "-3"],
    ["cp", "{b3}", "--pump-bound", "-1"],
    ["complete", "{b3}", "--max-rules", "-1"],
    ["homology", "{b3}", "--bound", "-1"],
    ["homology", "{b3}", "--samples", "-2"],
    ["cert", "{sq}", "{cert}", "--sample-bound", "-1"],
])
def test_negative_bounds_are_usage_errors(files, capsys, argv):
    f = files(b3=B3_TEXT, sq=SQ_TEXT, cert=SQ_CERT_TEXT)
    code, report = run([arg.format(**f) for arg in argv])
    assert code == 2
    assert report.sections == {"error": "usage"}
    assert "must be at least 0" in capsys.readouterr().err


def test_an_option_the_subcommand_does_not_read_is_a_usage_error(files, capsys):
    f = files(b3=B3_TEXT)
    code, report = run(["nf", f["b3"], "s t", "--seed", "1"])
    assert code == 2
    assert report.sections == {"error": "usage"}
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_each_subcommand_takes_only_the_options_it_reads():
    positionals = {"check": 1, "nf": 2, "eq": 3, "cp": 1, "complete": 1, "reduce": 1,
                   "cohere": 1, "fill": 3, "std": 1, "transfer": 3, "homology": 1, "cert": 2}
    takers = {"--json": set(positionals),
              "--pump-bound": {"eq", "cp", "cohere", "fill", "transfer", "homology"},
              "--seed": {"homology"}}
    for option, commands in takers.items():
        value = [] if option == "--json" else ["1"]
        accepted = {command for command, n in positionals.items()
                    if not build_parser().parse_known_args(
                        [command, *["x"] * n, option, *value])[1]}
        assert accepted == commands, option


def test_a_fuel_that_is_not_an_integer_is_a_usage_error(files, capsys):
    f = files(b3=B3_TEXT)
    code, report = run(["nf", f["b3"], "s t", "--fuel", "lots"])
    assert code == 2
    assert report.sections == {"error": "usage"}
    assert "argument --fuel: not an integer: 'lots'" in capsys.readouterr().err


def test_json_mode_is_deterministic(files, capsys):
    f = files(b3=B3_TEXT)
    argv = ["cp", f["b3"], "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second

    doc = json.loads(first)
    assert doc["command"] == "cp"
    assert doc["status"] == "OK"
    assert doc["count"] == 4
    # canonical serialization: keys sorted, two-space indent
    assert first == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_mode_carries_witness_on_failure(files, capsys):
    f = files(xyx=XYX_TEXT)
    assert main(["cp", f["xyx"], "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "FAIL"
    assert doc["branchings"][0]["nf1"] == "y y y x"


def test_human_output_is_the_report_lines(files, capsys):
    f = files(b3=B3_TEXT)
    assert main(["nf", f["b3"], "s t s"]) == 0
    assert capsys.readouterr().out == "normal form: a s\npath (1 step): 1*beta*s\n"


def test_format_report_json_includes_status(files):
    f = files(mu=MU_TEXT)
    _, report = run(["homology", f["mu"], "--json"])
    doc = json.loads(format_report(report, machine=True))
    assert doc["identities"] == {
        "eps_i0": "ok",
        "d1d2": "ok",
        "d2d3": "ok",
        "d1i1_i0eps": "ok",
        "d2i2_i1d1": "ok",
        "d3i3_i2d2": "ok",
    }


def test_seed_changes_sampled_elements(files):
    f = files(done=XYX_DONE_TEXT)
    _, r0 = run(["homology", f["done"], "--seed", "0"])
    _, r1 = run(["homology", f["done"], "--seed", "1"])
    assert r0.sections["samples"] == r1.sections["samples"] == 16
    assert set(r0.sections["identities"].values()) == {"ok"}
    assert set(r1.sections["identities"].values()) == {"ok"}


# --------------------------------------------------------------------------
# undecodable input and a closed stdout


@pytest.mark.parametrize("argv", [
    ["check", "{bad}"],  # a presentation
    ["cert", "{sq}", "{bad}"],  # a certificate
    ["std", "{bad}"],  # a multiplication table
    ["transfer", "{done}", "{done}", "{bad}"],  # a map file
])
def test_a_file_that_is_not_utf8_is_an_input_error(files, tmp_path, capsys, argv):
    """Each kind of file a command reads: a byte that is not UTF-8 exits 2,
    and the error names the file and the byte's offset."""
    f = files(sq=SQ_TEXT, done=XYX_DONE_TEXT)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"monoid\n# caf\xe9\n")
    assert main([arg.format(bad=bad, **f) for arg in argv] + ["--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == f"{bad}: not UTF-8: byte 0xe9 at offset 12"


@pytest.mark.parametrize("argv, text", [
    (["check", "{file}"], B3_TEXT),  # a presentation
    (["cert", "{sq}", "{file}"], SQ_CERT_TEXT),  # a certificate
    (["std", "{file}"], Z2_TABLE),  # a multiplication table
    (["transfer", "{done}", "{done}", "{file}"], IDENTITY_MAP),  # a map file
], ids=["presentation", "certificate", "table", "map"])
def test_a_leading_byte_order_mark_is_ignored(files, tmp_path, capsys, argv, text):
    """Each kind of file a command reads: with a UTF-8 byte-order mark in
    front it gives the output it gives without one, and a byte that is not
    UTF-8 after the mark is still named at its offset in the file."""
    f = files(sq=SQ_TEXT, done=XYX_DONE_TEXT)
    path = tmp_path / "file.txt"
    argv = [arg.format(file=path, **f) for arg in argv] + ["--json"]
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + text.encode("utf-8"))
        outputs.append((main(argv), capsys.readouterr().out))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]
    head = b"\xef\xbb\xbf" + text.encode("utf-8") + b"# caf"
    path.write_bytes(head + b"\xe9\n")
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == f"{path}: not UTF-8: byte 0xe9 at offset {len(head)}"


def test_main_keeps_its_exit_code_when_stdout_is_closed(files, monkeypatch):
    f = files(b3=B3_TEXT)
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = open(write_end, "w", encoding="utf-8")
    try:
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", out)
            code = main(["check", f["b3"], "--json"])
    finally:
        out.close()
    assert code == 0


def test_a_closed_stdout_is_no_traceback(files):
    """The reader closes the pipe before the command writes: the command
    still exits with its own code, and writes nothing to stderr."""
    f = files(b3=B3_TEXT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "polygraph.cli", "check", f["b3"], "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
