"""Command-line front end: subcommands, report formatting, exit codes.

Every subcommand builds a Report (command echo, status, data sections) and a
list of human-readable lines; ``--json`` switches the output to the machine
rendering, which is deterministic — dict keys sorted, content drawn from the
library's own report dicts, so the same argv over the same files (and the
same ``--seed`` where sampling is involved) produces byte-identical text.

Exit codes:
    0   OK
    1   mathematical negative (not confluent, words unequal, failed
        identities or certificate, bad multiplication table) — always with a
        concrete witness in the output
    2   usage or parse error, including missing termination evidence
    3   fuel, rule cap, pump bound, or enumeration bound exhausted (partial output)

Words on the command line are quoted whitespace-separated generator names,
with "1" for the identity, mirroring the file grammar.  Options follow the
subcommand, and each subcommand takes only the options it reads: ``--json``
every one, ``--pump-bound`` those that instantiate pumped rules (``eq``,
``cp``, ``cohere``, ``fill``, ``transfer`` and ``homology``), and ``--seed``
``homology``, for its sampled elements.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace

from .presentation import (
    DEFAULT_FUEL,
    CompositionError,
    FuelExhausted,
    NotCertified,
    PresentationError,
    parse_path,
    parse_polygraph,
    serialize_polygraph,
    validate,
)
from .rewrite import (
    DEFAULT_PUMP_BOUND,
    _certified_normal_forms,
    check_interpretation_certificate,
    normalize,
    parse_certificate,
    termination_evidence,
)
from .branchings import decide_confluence, enumerate_critical_branchings
from .completion import DEFAULT_MAX_RULES, knuth_bendix, metivier_squier_reduce
from .coherence import (
    CoherentPresentation,
    boundary3,
    fill_sphere,
    generating_cells,
    parse_multiplication_table,
    parse_transfer_maps,
    squier_completion,
    standard_coherent_presentation,
    transfer_homotopy_basis,
    validate_table,
)
from .homology import IDENTITIES, FreeResolution, verify_identities, write_matrices


@dataclass
class Report:
    command: str
    status: str  # OK | FAIL | PARTIAL
    sections: dict
    human: tuple


def format_report(report, machine):
    """Render a report: line-oriented text, or schema-stable JSON."""
    if machine:
        doc = {"command": report.command, "status": report.status}
        doc.update(report.sections)
        return json.dumps(doc, sort_keys=True, indent=2)
    return "\n".join(report.human)


_STATUS = {0: "OK", 1: "FAIL", 2: "FAIL", 3: "PARTIAL"}


# ---------------------------------------------------------------------------
# shared helpers


def _read(path):
    """The text of a file, which must be UTF-8, less a leading byte-order
    mark; a byte that is not is an input error naming the file and its offset."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise PresentationError(
                f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                f"at offset {exc.start}") from None


def _load(path):
    return parse_polygraph(_read(path))


def _load_cert(path):
    return None if path is None else parse_certificate(_read(path))


def _coherent_from(p, args, cert=None):
    """The file's own 3-cells when it declares any (the user is asserting a
    homotopy basis), otherwise Squier completion."""
    if p.three_cells:
        base = replace(p, three_cells=())
        return CoherentPresentation(base, p.three_cells, args.pump_bound)
    return squier_completion(p, args.pump_bound, cert=cert, ack_sampled=cert is not None)


def _plural(n, noun):
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


# ---------------------------------------------------------------------------
# subcommand handlers — each returns (exit code, sections dict, human lines)


def _cmd_check(args):
    p = _load(args.file)
    sections = {
        "kind": "monoid" if p.is_monoid else "category",
        "generators": len(p.generators),
        "rules": len(p.rules),
        "pumped": len(p.pumped),
        "three_cells": len(p.three_cells),
        "order": " < ".join(p.gen_order) if p.gen_order else None,
    }
    line = (
        f"OK: {sections['kind']} presentation: {sections['generators']} generators, "
        f"{sections['rules']} rules, {sections['pumped']} pumped families, "
        f"{sections['three_cells']} three-cells"
    )
    return 0, sections, [line]


def _cmd_nf(args):
    p = _load(args.file)
    w = p.word(args.word)
    nf, path = normalize(p, w, args.strategy, args.fuel)
    sections = {
        "word": str(w),
        "normal_form": str(nf),
        "steps": len(path.steps),
        "path": str(path),
        "strategy": args.strategy,
    }
    lines = [
        f"normal form: {nf}",
        f"path ({_plural(len(path.steps), 'step')}): {path}",
    ]
    return 0, sections, lines


def _cmd_eq(args):
    p = _load(args.file)
    cert = _load_cert(args.cert)
    u, v = p.word(args.word1), p.word(args.word2)
    nf1, nf2 = _certified_normal_forms(p, (u, v), pump_bound=args.pump_bound, cert=cert,
                                       ack_sampled=cert is not None)
    equal = nf1 == nf2
    sections = {"word1": str(u), "word2": str(v), "equal": equal,
                "nf1": str(nf1), "nf2": str(nf2)}
    if equal:
        return 0, sections, [f"EQUAL (normal form: {nf1})"]
    return 1, sections, [f"NOT EQUAL: {nf1} and {nf2} are distinct normal forms"]


def _branching_lines(entries):
    lines = []
    for e in entries:
        head = f"  {e['source']}: {', '.join(e['rules'])}"
        if e.get("family"):
            head += f" [{e['family']}]"
        if "status" not in e:
            lines.append(head)
        elif e["status"] == "Confluent":
            lines.append(f"{head} -> Confluent (join: {e['join']})")
        else:
            lines.append(f"{head} -> NotConfluent: {e['nf1']} vs {e['nf2']}")
    return lines


def _cmd_cp(args):
    p = _load(args.file)
    cert = _load_cert(args.cert)
    evidence = None
    note = None
    try:
        evidence = termination_evidence(p, cert, cert is not None, args.pump_bound)
    except NotCertified as exc:
        note = str(exc)

    if evidence is None and not args.resolve:
        entries = [b.entry() for b in enumerate_critical_branchings(p, args.pump_bound)]
        lines = [f"{_plural(len(entries), 'critical branching')} "
                 f"(not resolved: no termination evidence; pass --resolve to force)"]
        lines += _branching_lines(entries)
        sections = {"count": len(entries), "branchings": entries,
                    "resolved": False, "note": note,
                    "truncated": bool(p.pumped)}
        return 0, sections, lines

    confluent, report = decide_confluence(p, pump_bound=args.pump_bound,
                                          assume_terminating=True)
    report = dict(report)
    report["resolved"] = True
    report["evidence"] = evidence if evidence is not None else "assumed (--resolve)"
    entries = report["branchings"]
    if confluent:
        summary = f"{_plural(report['count'], 'critical branching')}, all Confluent"
    else:
        bad = sum(1 for e in entries if e["status"] == "NotConfluent")
        summary = f"{_plural(report['count'], 'critical branching')}, {bad} NotConfluent"
    lines = [summary] + _branching_lines(entries)
    return (0 if confluent else 1), report, lines


def _cmd_complete(args):
    p = _load(args.file)
    result = knuth_bendix(p, max_rules=args.max_rules)
    added = [str(r) for r in result.added_rules]
    sections = {
        "status": result.status,
        "added": added,
        "rules_total": len(result.final.rules),
        "trace": list(result.trace),
    }
    if len(added) == 1:
        lines = [f"added 1 rule: {added[0]}"]
    else:
        lines = [f"added {len(added)} rules:"] + [f"  {r}" for r in added]
    if result.status == "FuelExhausted":
        lines.append(result.trace[-1]["action"])
        return 3, sections, lines
    return 0, sections, lines


def _cmd_reduce(args):
    p = _load(args.file)
    cert = _load_cert(args.cert)
    result = metivier_squier_reduce(p, cert=cert, ack_sampled=cert is not None)
    final_text = serialize_polygraph(result.final)
    sections = {
        "moves": len(result.trace),
        "trace": list(result.trace),
        "rules": len(result.final.rules),
        "final": final_text,
    }
    lines = [f"{_plural(len(result.trace), 'reduction move')}:"]
    for e in result.trace:
        if e["pass"] == 1:
            lines.append(f"  pass 1: {e['rule']} rhs {e['old']} -> {e['new']}")
        elif e["pass"] == 2:
            lines.append(f"  pass 2: removed duplicate {e['removed']} (kept {e['kept']})")
        else:
            lines.append(f"  pass 3: removed {e['removed']} (lhs contains {e['contains']})")
    lines += ["reduced presentation:", final_text.rstrip("\n")]
    return 0, sections, lines


def _cmd_cohere(args):
    p = _load(args.file)
    cert = _load_cert(args.cert)
    cp = squier_completion(p, args.pump_bound, cert=cert,
                           ack_sampled=cert is not None)
    cells = [str(c) for c in cp.cells]
    sections = {"cells": len(cells), "three_cells": cells,
                "truncated": bool(p.pumped), "pump_bound": args.pump_bound}
    lines = [f"{_plural(len(cells), 'three-cell')} (pump bound {args.pump_bound}):"]
    lines += [f"  {c}" for c in cells]
    return 0, sections, lines


def _cmd_fill(args):
    p = _load(args.file)
    cp = _coherent_from(p, args)
    f = parse_path(cp.base, args.zigzag1)
    g = parse_path(cp.base, args.zigzag2)
    expr = fill_sphere(cp, f, g)
    source, target = boundary3(expr)
    if (source, target) != (f, g):
        raise CompositionError(
            f"the filler's boundary is not the sphere: it goes [{source}] => [{target}]")
    used = sorted(generating_cells(expr))
    sections = {
        "source": str(f),
        "target": str(g),
        "cells_used": used,
        "expression": str(expr),
    }
    lines = [
        f"filled sphere with cells: {', '.join(used) if used else '(none)'}",
        f"source ({_plural(len(f.steps), 'step')}): {f}",
        f"target ({_plural(len(g.steps), 'step')}): {g}",
        f"expression: {sections['expression']}",
    ]
    return 0, sections, lines


def _cmd_std(args):
    table = parse_multiplication_table(_read(args.tablefile))
    problems = validate_table(table)
    if problems:
        sections = {"elements": len(table.elements), "problems": problems}
        lines = ["table is not a monoid:"] + [f"  {m}" for m in problems]
        return 1, sections, lines
    std = standard_coherent_presentation(table)
    sections = {
        "elements": len(table.elements),
        "generators": len(std.generators),
        "rules": len(std.rules),
        "three_cells": len(std.three_cells),
        "presentation": serialize_polygraph(std),
    }
    lines = [
        f"standard coherent presentation of a {len(table.elements)}-element monoid:",
        f"  generators: {sections['generators']}  rules: {sections['rules']}  "
        f"three-cells: {sections['three_cells']}",
        sections["presentation"].rstrip("\n"),
    ]
    return 0, sections, lines


def _cmd_transfer(args):
    sigma = _load(args.sigma)
    xi = _load(args.xi)
    F, G, tau = parse_transfer_maps(sigma, xi, _read(args.mapfile))
    cp = _coherent_from(sigma, args)
    cells = transfer_homotopy_basis(xi, F, G, tau, cp.cells, pump_bound=args.pump_bound)
    problems = validate(replace(xi, three_cells=tuple(cells)))
    sections = {
        "count": len(cells),
        "cells": [
            {"name": c.name,
             "source_steps": len(c.source2.steps),
             "target_steps": len(c.target2.steps)}
            for c in cells
        ],
        "problems": problems,
    }
    lines = [f"transferred homotopy basis: {_plural(len(cells), 'cell')}"]
    lines += [f"  {c.name} ({len(c.source2.steps)} => "
              f"{_plural(len(c.target2.steps), 'step')})"
              for c in cells]
    if problems:
        lines += ["validation: FAIL"] + [f"  {m}" for m in problems]
        return 1, sections, lines
    lines.append("validation: OK")
    return 0, sections, lines


def _cmd_homology(args):
    p = _load(args.file)
    cert = _load_cert(args.cert)
    cp = _coherent_from(p, args, cert=cert)
    res = FreeResolution(cp)
    rep = verify_identities(res, samples=args.samples, seed=args.seed)
    identities = {name: ("ok" if rep[name] else "FAIL") for name in IDENTITIES}
    sections = {
        "cells": len(cp.cells),
        "samples": rep["samples"],
        "identities": identities,
        "failures": rep["failures"],
    }
    lines = [
        f"resolution over {_plural(len(cp.cells), 'three-cell')} "
        f"(pump bound {args.pump_bound})",
        f"identities ({rep['samples']} sampled elements, seed {args.seed}):",
    ]
    lines += [f"  {name}: {identities[name]}" for name in IDENTITIES]
    code = 0
    if not rep["passed"]:
        lines += [f"  witness: {w}" for w in rep["failures"][:5]]
        code = 1
    else:
        lines.append("all identities hold")

    if args.export is not None:
        export = write_matrices(res, args.export, bound=args.bound)
        sections["export"] = export
        if export["finite"]:
            lines.append(
                f"exported to {export['out_dir']}: {export['elements']} elements, "
                f"symbolic and integer matrices"
            )
        else:
            lines.append(
                f"exported symbolic matrices to {export['out_dir']}; "
                f"integer matrices skipped: {export['error']}"
            )
            if code == 0:
                code = 3
    return code, sections, lines


def _cmd_cert(args):
    p = _load(args.file)
    cert = _load_cert(args.certfile)
    rep = check_interpretation_certificate(p, cert, sample_bound=args.sample_bound)
    sections = dict(rep)
    if rep["passed"]:
        lines = [
            f"PASS (sampled): {rep['rules_checked']} rules, "
            f"{rep['samples']} instances checked (sample bound {rep['sample_bound']})"
        ]
        return 0, sections, lines
    first = rep["failures"][0]
    lines = [f"FAIL: rule {first['rule']} at n={first['n']}: {first['detail']}"]
    lines += [f"  also: rule {w['rule']} at n={w['n']}: {w['detail']}"
              for w in rep["failures"][1:5]]
    return 1, sections, lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _count(text):
    """An argparse type for bounds and sizes: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, so every ``run`` shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output (deterministic JSON)")
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--pump-bound", type=_count, default=DEFAULT_PUMP_BOUND,
                         metavar="N", help="instantiate pumped rules up to index N")

    parser = argparse.ArgumentParser(
        prog="polygraph",
        description="rewriting, coherence, and homology of monoid/category presentations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", parents=[common],
                       help="parse and validate a presentation file")
    s.add_argument("file")
    s.set_defaults(handler=_cmd_check)

    s = sub.add_parser("nf", parents=[common], help="normal form of a word")
    s.add_argument("file")
    s.add_argument("word")
    s.add_argument("--strategy", choices=("leftmost", "rightmost"),
                   default="leftmost")
    s.add_argument("--fuel", type=_count, default=DEFAULT_FUEL, metavar="N")
    s.set_defaults(handler=_cmd_nf)

    s = sub.add_parser("eq", parents=[bounded],
                       help="decide equality of two words (convergent systems)")
    s.add_argument("file")
    s.add_argument("word1")
    s.add_argument("word2")
    s.add_argument("--cert", default=None, metavar="CERTFILE",
                   help="interpretation certificate as termination evidence "
                        "(supplying it acknowledges its sampled nature)")
    s.set_defaults(handler=_cmd_eq)

    s = sub.add_parser("cp", parents=[bounded],
                       help="critical branchings, resolved when termination evidence exists")
    s.add_argument("file")
    s.add_argument("--resolve", action="store_true",
                   help="resolve branchings even without termination evidence")
    s.add_argument("--cert", default=None, metavar="CERTFILE")
    s.set_defaults(handler=_cmd_cp)

    s = sub.add_parser("complete", parents=[common],
                       help="Knuth-Bendix completion under the declared deglex order")
    s.add_argument("file")
    s.add_argument("--max-rules", type=_count, default=DEFAULT_MAX_RULES, metavar="N")
    s.set_defaults(handler=_cmd_complete)

    s = sub.add_parser("reduce", parents=[common],
                       help="reduce a convergent presentation (normalized rhs, no nested lhs)")
    s.add_argument("file")
    s.add_argument("--cert", default=None, metavar="CERTFILE")
    s.set_defaults(handler=_cmd_reduce)

    s = sub.add_parser("cohere", parents=[bounded],
                       help="Squier completion: one 3-cell per critical branching")
    s.add_argument("file")
    s.add_argument("--cert", default=None, metavar="CERTFILE")
    s.set_defaults(handler=_cmd_cohere)

    s = sub.add_parser("fill", parents=[bounded],
                       help="fill a 2-sphere (two parallel zigzags) with generating 3-cells")
    s.add_argument("file")
    s.add_argument("zigzag1")
    s.add_argument("zigzag2")
    s.set_defaults(handler=_cmd_fill)

    s = sub.add_parser("std", parents=[common],
                       help="standard coherent presentation of a finite monoid")
    s.add_argument("tablefile")
    s.set_defaults(handler=_cmd_std)

    s = sub.add_parser("transfer", parents=[bounded],
                       help="transport a homotopy basis along a 2-functor")
    s.add_argument("sigma")
    s.add_argument("xi")
    s.add_argument("mapfile")
    s.set_defaults(handler=_cmd_transfer)

    s = sub.add_parser("homology", parents=[bounded],
                       help="build the length-3 resolution and verify its identities")
    s.add_argument("file")
    s.add_argument("--seed", type=int, default=0, metavar="N",
                   help="seed for sampled checks")
    s.add_argument("--export", default=None, metavar="DIR")
    s.add_argument("--bound", type=_count, default=2000, metavar="N",
                   help="element-enumeration bound for integer matrices")
    s.add_argument("--samples", type=_count, default=16, metavar="N")
    s.add_argument("--cert", default=None, metavar="CERTFILE")
    s.set_defaults(handler=_cmd_homology)

    s = sub.add_parser("cert", parents=[common],
                       help="check an interpretation termination certificate (sampled)")
    s.add_argument("file")
    s.add_argument("certfile")
    s.add_argument("--sample-bound", type=_count, default=16, metavar="N")
    s.set_defaults(handler=_cmd_cert)

    return parser


def run(argv):
    """Dispatch argv; returns (exit code, Report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        command = argv[0] if argv else ""
        return code, Report(command, _STATUS.get(code, "FAIL"),
                            {"error": "usage"}, ())

    try:
        code, sections, lines = args.handler(args)
    except (PresentationError, CompositionError, NotCertified, OSError) as exc:
        code, sections, lines = 2, {"error": str(exc)}, [f"error: {exc}"]
    except FuelExhausted as exc:
        sections = {"error": str(exc)}
        if exc.trace is not None:  # a partial report, or a partial path as text
            sections["trace"] = exc.trace if isinstance(exc.trace, dict) else str(exc.trace)
        code, lines = 3, [f"fuel exhausted: {exc}"]
    return code, Report(args.command if hasattr(args, "command") else "",
                        _STATUS[code], sections, tuple(lines))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    code, report = run(argv)
    text = format_report(report, "--json" in argv)
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone; what is left in the buffer goes to devnull,
            # so the flush at exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
