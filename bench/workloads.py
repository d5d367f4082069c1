"""The three workloads: seeded job lists over the public API, each job with
an oracle that does not depend on the code under test.

A workload function takes the imported ``polygraph`` package, the seed and
an output directory, and returns the job list.  Everything it does (generating
words, parsing presentations and tables, completing the A4 input, computing
the sphere boundaries, writing the files CLI jobs read) is set-up; a job's
``run`` is the timed user request and its ``check`` runs untimed after it.

A check returns (verdict, detail, digest line).  The verdict is "ok",
"failed" (no answer: an error exit code outside the expected ones) or
"wrong" (an answer the oracle refutes).  The digest line records the
deterministic output, so refactors can show byte-identical results.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    # untimed check of what the last pass left on disk, run once after measuring
    final: Callable[[], tuple] | None = None


def _letters(w):
    return tuple(w.letters)


def _text(letters):
    return " ".join(letters) if letters else "1"


def _cli_code(out, expected):
    """Verdict on a cli.run exit code against the 0-3 contract and the
    expected codes.  Error exits where an answer was due are failures; an
    answer of the wrong kind (0 for 1 or the reverse) is a wrong answer."""
    code, report = out
    if code not in (0, 1, 2, 3):
        return FAILED, f"exit code {code} outside the 0-3 contract"
    if code not in expected:
        err = report.sections.get("error", "")
        want = "/".join(map(str, expected))
        return (WRONG if code in (0, 1) else FAILED), f"exit code {code}, expected {want}: {err}"
    return OK, ""


def _cli_json(pg, out):
    return pg.cli.format_report(out[1], True)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _file_digest(directory):
    h = hashlib.sha256()
    for f in sorted(Path(directory).iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# wordproblem


class _Oracle:
    """Independent checks for one presentation of the word problem."""

    def __init__(self, rule_pairs, pumped_ab=False, rank=None):
        self.rules = tuple(rule_pairs)
        self.rule_set = set(self.rules)
        self.pumped_ab = pumped_ab
        self.rank = rank  # type-A Coxeter rank: permutations decide everything

    def rule_ok(self, lhs, rhs):
        if (lhs, rhs) in self.rule_set:
            return True
        return (self.pumped_ab and not rhs and len(lhs) >= 2 and lhs[0] == "a"
                and lhs[-1] == "b" and set(lhs[1:-1]) <= {"t"})

    def cost(self, strategy):
        """Letters the reference rewriter scans to normalize a word under
        the strategy: the library rescans the whole word at every step."""
        right = strategy == "rightmost"
        return lambda word: corpus.reference_normal_form(
            self.rules, word, self.pumped_ab, right)[2]

    def invariant(self, word):
        """A value every rule preserves: words it separates are unequal."""
        if self.rank is not None:
            return corpus.type_a_permutation(word, self.rank)
        if self.pumped_ab:
            return corpus.sq_invariant(word)
        return corpus.b3_degree(word)

    def normal_form_problem(self, word, nf):
        """Why nf is not the normal form of word, or None."""
        if self.rank is not None:
            perm = corpus.type_a_permutation(word, self.rank)
            if corpus.type_a_permutation(nf, self.rank) != perm:
                return "normal form is another permutation"
            if len(nf) != corpus.inversions(perm):
                return "normal form is not a reduced word"
            return None
        ref = corpus.reference_normal_form(self.rules, word, self.pumped_ab)[0]
        if nf != ref:
            return f"normal form differs from the reference: {_text(ref)}"
        return None

    def path_problem(self, word, path, nf):
        cur = tuple(word)
        if _letters(path.source) != cur:
            return "path does not start at the word"
        for i, st in enumerate(path.steps):
            lhs, rhs = _letters(st.rule.lhs), _letters(st.rule.rhs)
            if not st.forward or not self.rule_ok(lhs, rhs):
                return f"step {i} is not a forward rule step"
            left, right = _letters(st.left), _letters(st.right)
            if left + lhs + right != cur:
                return f"step {i} does not apply to the running word"
            cur = left + rhs + right
        if cur != nf:
            return "path does not end at the normal form"
        return None


def _unequal_edit(rng, oracle, word):
    """A word that an invariant separates from ``word``."""
    w = list(word)
    if oracle.rank is not None:  # delete a letter: length parity flips
        del w[rng.randrange(len(w))]
    elif oracle.pumped_ab:  # an extra b changes #a - #b
        w.insert(rng.randrange(len(w) + 1), "b")
    else:  # s or t -> a raises the degree by one
        spots = [i for i, x in enumerate(w) if x != "a"]
        if spots:
            w[spots[rng.randrange(len(spots))]] = "a"
        else:
            w.append("s")
    return tuple(w)


WP_KINDS = ("nf-leftmost", "nf-rightmost", "eq-equal", "eq-unequal")
WP_JOBS = 36  # per presentation
WP_CLI_EVERY = 10


def wordproblem(pg, seed, out):
    rng = random.Random(seed)
    b3 = pg.parse_polygraph(corpus.B3_TEXT)
    sq = pg.parse_polygraph(corpus.SQ_TEXT)
    cert = pg.parse_certificate(corpus.SQ_CERT_TEXT)
    a4_raw = pg.parse_polygraph(corpus.coxeter_text("A4"))
    a4 = pg.metivier_squier_reduce(pg.knuth_bendix(a4_raw).final).final
    a4_rules = [(_letters(r.lhs), _letters(r.rhs)) for r in a4.rules]
    _, cox = corpus.coxeter_relations("A4")

    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    files = {}
    for key, text in (("b3", corpus.B3_TEXT), ("a4", pg.serialize_polygraph(a4)),
                      ("sq", corpus.SQ_TEXT), ("sq_cert", corpus.SQ_CERT_TEXT)):
        files[key] = str(inputs / f"{key}.txt")
        Path(files[key]).write_text(text, encoding="utf-8")

    # (name, presentation, oracle, relations for equal pairs, max length, mean excess)
    specs = (
        ("b3", b3, _Oracle(corpus.B3_RULES), corpus.B3_RULES, 256, 48),
        ("a4", a4, _Oracle(a4_rules, rank=4), cox, 256, 48),
        ("sq", sq, _Oracle(corpus.SQ_RULES, pumped_ab=True), corpus.SQ_RULES, 128, 32),
    )
    jobs = []
    for name, p, oracle, relations, hi, mean in specs:
        gens = [g.name for g in p.generators]
        lengths = corpus.truncated_geometric(WP_JOBS, 16, hi, mean)
        for i, length in enumerate(lengths):
            kind = WP_KINDS[(i + i // WP_CLI_EVERY) % len(WP_KINDS)]
            via_cli = i % WP_CLI_EVERY == 2
            model = (name, "rightmost" if kind == "nf-rightmost" and name != "sq"
                     else "leftmost")
            cost = oracle.cost(model[1])
            word = corpus.typical(rng, lambda r: corpus.random_word(r, gens, length),
                                  cost, model, length)
            other = None
            if kind.startswith("eq"):
                def variant(r, word=word, unequal=kind == "eq-unequal"):
                    v = corpus.apply_backward(r, word, relations, 2 + length // 32,
                                              pumped_ab=oracle.pumped_ab)
                    return _unequal_edit(r, oracle, v) if unequal else v

                other = corpus.typical(rng, variant, cost, model, len(word))
                separated = oracle.invariant(word) != oracle.invariant(other)
                if separated != (kind == "eq-unequal"):
                    raise RuntimeError(f"{name}: the invariant does not match the pair's kind")
            certified = (cert, files["sq_cert"]) if name == "sq" else None
            jobs.append(_wp_job(pg, p, oracle, kind, word, other, via_cli, files[name],
                                certified, f"{name}/{kind}/len{length}/{i}"))
    rng.shuffle(jobs)
    return jobs


def _wp_job(pg, p, oracle, kind, word, other, via_cli, file, certified, label):
    w = p.word_from_letters(word)
    strategy = kind[3:] if kind.startswith("nf") else None
    if strategy:
        if via_cli:
            argv = ["nf", file, _text(word), "--strategy", strategy, "--json"]
            return Job("cli:" + label, lambda: pg.cli.run(argv),
                       lambda out: _check_cli_nf(pg, oracle, word, out))
        return Job(label, lambda: pg.rewrite.normalize(p, w, strategy),
                   lambda out: _check_nf(oracle, word, out))

    expected = kind == "eq-equal"
    if via_cli:
        argv = ["eq", file, _text(word), _text(other), "--json"]
        if certified:
            argv += ["--cert", certified[1]]
        return Job("cli:" + label, lambda: pg.cli.run(argv),
                   lambda out: _check_cli_eq(pg, expected, out))
    v = p.word_from_letters(other)
    kwargs = {"cert": certified[0], "ack_sampled": True} if certified else {}
    return Job(label, lambda: pg.rewrite.word_eq(p, w, v, **kwargs),
               lambda out: _check_eq(expected, out))


def _check_nf(oracle, word, out):
    nf, path = out
    nf_letters = _letters(nf)
    problem = (oracle.normal_form_problem(word, nf_letters)
               or oracle.path_problem(word, path, nf_letters))
    if problem:
        return WRONG, problem, ""
    return OK, "", f"{_text(nf_letters)} {len(path.steps)}"


def _check_cli_nf(pg, oracle, word, out):
    verdict, detail = _cli_code(out, (0,))
    text = _cli_json(pg, out)
    if verdict != OK:
        return verdict, detail, _sha(text)
    nf = tuple(out[1].sections["normal_form"].split())
    nf = () if nf == ("1",) else nf
    problem = oracle.normal_form_problem(word, nf)
    if problem:
        return WRONG, problem, _sha(text)
    return OK, "", _sha(text)


def _check_eq(expected, out):
    if out is not expected:
        return WRONG, f"word_eq says {out}, expected {expected}", ""
    return OK, "", str(out)


def _check_cli_eq(pg, expected, out):
    verdict, detail = _cli_code(out, (0,) if expected else (1,))
    return verdict, detail, _sha(_cli_json(pg, out))


# ---------------------------------------------------------------------------
# coherence

COH_POSITIVE = 120  # per presentation
COH_SIGMA = 24  # per presentation
COH_CLI_EVERY = 6  # of the short positive spheres


def _bracket_text(res, expr):
    value = res.bracket_3cell(expr)
    return ",".join(sorted(f"{c}*{w}[{cell}]" for (w, cell), c in value.items()))


def coherence(pg, seed, out):
    rng = random.Random(seed)
    b3 = pg.parse_polygraph(corpus.B3_TEXT)
    a4_raw = pg.parse_polygraph(corpus.coxeter_text("A4"))
    a4 = pg.metivier_squier_reduce(pg.knuth_bendix(a4_raw).final).final
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    files = {"b3": inputs / "b3.txt", "a4": inputs / "a4.txt"}
    files["b3"].write_text(corpus.B3_TEXT, encoding="utf-8")
    files["a4"].write_text(pg.serialize_polygraph(a4), encoding="utf-8")

    jobs = []
    # (name, presentation, positive-sphere lengths, sigma-sphere lengths)
    specs = (
        ("b3", b3, corpus.truncated_geometric(COH_POSITIVE, 8, 22, 4),
         corpus.truncated_geometric(COH_SIGMA, 6, 11, 3)),
        ("a4", a4, corpus.truncated_geometric(COH_POSITIVE, 8, 28, 5),
         corpus.truncated_geometric(COH_SIGMA, 6, 11, 3)),
    )
    for name, p, pos_lengths, sig_lengths in specs:
        cp = pg.squier_completion(p)
        res = pg.FreeResolution(cp)
        gens = [g.name for g in p.generators]
        rules = [(_letters(r.lhs), _letters(r.rhs)) for r in p.rules]

        def sphere_cost(word):
            return (corpus.reference_normal_form(rules, word)[1]
                    * corpus.reference_normal_form(rules, word, rightmost=True)[1])

        for i, length in enumerate(pos_lengths):
            # sphere words are short, so draw more of them and hold a
            # tighter tolerance: filling cost is exponential in the proxy
            w = p.word_from_letters(corpus.typical(
                rng, lambda r: corpus.random_word(r, gens, length), sphere_cost,
                (name, "sphere"), length, tries=24, tolerance=0.05))
            _, f = pg.normalize(p, w, "leftmost")
            _, g = pg.normalize(p, w, "rightmost")
            label = f"{name}/positive/len{length}/{i}"
            if i % COH_CLI_EVERY == 0 and length <= 12:
                jobs.append(_cli_fill_job(pg, cp, res, str(files[name]), f, g, "cli:" + label))
            else:
                jobs.append(_fill_job(pg, cp, res, f, g, label))
        for i, length in enumerate(sig_lengths):
            while True:
                w = p.word_from_letters(corpus.random_word(rng, gens, length))
                _, left = pg.normalize(p, w, "leftmost")
                if len(left.steps) >= 2:
                    break
            _, right = pg.normalize(p, w, "rightmost")
            k = rng.randint(1, len(left.steps) - 1)
            f = pg.ZigZag(w, left.steps[:k])  # target not normal
            _, back = pg.normalize(p, f.target, "rightmost")
            g = right.then(back.inverse())
            jobs.append(_fill_job(pg, cp, res, f, g, f"{name}/sigma/len{length}/{i}"))

    for n in (3, 4):
        table = pg.parse_multiplication_table(corpus.symmetric_group_table(n))
        jobs.append(Job(f"std/S{n}", lambda t=table: pg.coherence.standard_coherent_presentation(t),
                        lambda std, m=len(table.elements): _check_std(std, m)))
    rng.shuffle(jobs)
    return jobs


def _fill_job(pg, cp, res, f, g, label):
    def check(expr):
        if pg.boundary3(expr) != (f, g):
            return WRONG, "boundary3(filler) is not the sphere", ""
        cells = ",".join(sorted(pg.generating_cells(expr)))
        return OK, "", f"{cells} {_bracket_text(res, expr)}"

    return Job(label, lambda: pg.coherence.fill_sphere(cp, f, g), check)


def _cli_fill_job(pg, cp, res, file, f, g, label):
    argv = ["fill", file, str(f), str(g), "--json"]

    def check(out):
        verdict, detail = _cli_code(out, (0,))
        text = _cli_json(pg, out)
        if verdict != OK:
            return verdict, detail, _sha(text)
        sec = out[1].sections
        expr = pg.fill_sphere(cp, f, g)
        if pg.boundary3(expr) != (f, g):
            return WRONG, "boundary3(filler) is not the sphere", _sha(text)
        if (sec["source"], sec["target"]) != (str(f), str(g)):
            return WRONG, "fill echoes another sphere", _sha(text)
        if sec["cells_used"] != sorted(pg.generating_cells(expr)):
            return WRONG, "cells used differ from the library filler", _sha(text)
        return OK, "", _sha(text)

    return Job(label, lambda: pg.cli.run(argv), check)


def _check_std(std, m):
    want = (m, m * m + 1, m ** 3 + 2 * m)
    got = (len(std.generators), len(std.rules), len(std.three_cells))
    if got != want:
        return WRONG, f"(generators, rules, 3-cells) = {got}, expected {want}", ""
    return OK, "", f"{got} {_sha(','.join(c.name for c in std.three_cells))}"


# ---------------------------------------------------------------------------
# pipeline

PIPELINE_SAMPLES = 16
# knuth_bendix on LP grows fast with the cap (0.5 s at 48, 1.5 s at 64, 10 s
# at 96): 48 keeps a pass short enough for three passes in a 40 s run
LP_CAP = 48
LP_FIRST_RULES = tuple(
    (("a",) + ("c",) * n + ("b",), ("a",) + ("c",) * n) for n in (1, 2, 3)
)


def pipeline(pg, seed, out):
    export = out / "export"
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    sq_file, cert_file = inputs / "sq.txt", inputs / "sq_cert.txt"
    sq_file.write_text(corpus.SQ_TEXT, encoding="utf-8")
    cert_file.write_text(corpus.SQ_CERT_TEXT, encoding="utf-8")

    jobs = []
    # integer export for A3, B3, A4; symbolic only (bound 1) for H3, B4 and xyx
    for name, integer in (("A3", True), ("B3", True), ("A4", True), ("H3", False),
                          ("B4", False), ("xyx", False)):
        text = corpus.XYX_TEXT if name == "xyx" else corpus.coxeter_text(name)
        p = pg.parse_polygraph(text)
        jobs.append(_pipeline_job(pg, name, p, seed, export / name, integer))
    lp = pg.parse_polygraph(corpus.LP_TEXT)
    jobs.append(Job(f"LP/cap{LP_CAP}", lambda: pg.completion.knuth_bendix(lp, max_rules=LP_CAP),
                    lambda r: _check_lp(r, LP_CAP)))
    # the CLI's default sampling seed: which sample first needs alpha[9]
    # decides when this job stops, 0.6 s to 4.5 s across seeds
    argv = ["homology", str(sq_file), "--cert", str(cert_file), "--pump-bound", "8",
            "--samples", str(PIPELINE_SAMPLES), "--seed", "0", "--json"]

    def check_sq(out):
        verdict, detail = _cli_code(out, (0, 3))
        text = _cli_json(pg, out)
        if verdict == OK and out[0] == 0 and "FAIL" in out[1].sections["identities"].values():
            return WRONG, "exit 0 with a failed identity", _sha(text)
        return verdict, detail, _sha(text)

    jobs.append(Job("squier/homology/pump8", lambda: pg.cli.run(argv), check_sq))
    return jobs


def _pipeline_job(pg, name, p, seed, out_dir, integer):
    bound = 2000 if integer else 1

    def run():
        kb = pg.completion.knuth_bendix(p)
        red = pg.completion.metivier_squier_reduce(kb.final)
        cp = pg.coherence.squier_completion(red.final)
        res = pg.FreeResolution(cp)
        rep = pg.homology.verify_identities(res, samples=PIPELINE_SAMPLES, seed=seed)
        export = pg.homology.write_matrices(res, out_dir, bound=bound)
        return kb, red, cp, res, rep, export

    def check(result):
        kb, red, cp, res, rep, export = result
        if kb.status != "Completed":
            return WRONG, f"completion status {kb.status}", ""
        if not rep["passed"]:
            return WRONG, f"identities fail: {rep['failures'][:3]}", ""
        if bool(export["finite"]) != integer:
            return WRONG, f"integer export {'missing' if integer else 'unexpected'}", ""
        order = corpus.GROUP_ORDER.get(name)
        elements, closed = pg.try_enumerate(res, order + 1 if order else 200)
        if order is None and closed:
            return WRONG, f"{name} closed at {len(elements)} elements", ""
        if order is not None and (not closed or len(elements) != order):
            return WRONG, f"order {len(elements)}, expected {order}", ""
        report = json.dumps(rep, sort_keys=True)
        return OK, "", " ".join([
            _sha(pg.serialize_polygraph(red.final)), str(len(cp.cells)), _sha(report),
            _file_digest(out_dir)])

    def final():
        if not integer:
            return OK, ""
        (d1, _, c1), (d2, r2, c2), (d3, r3, _) = (
            corpus.read_int_matrix(out_dir / f"d{k}.txt") for k in (1, 2, 3))
        if (c1, c2) != (r2, r3):
            return WRONG, "the exported matrices do not compose"
        if not corpus.sparse_product_is_zero(d1, d2):
            return WRONG, "d1*d2 != 0 in the exported matrices"
        if not corpus.sparse_product_is_zero(d2, d3):
            return WRONG, "d2*d3 != 0 in the exported matrices"
        return OK, ""

    return Job(f"{name}/pipeline", run, check, final)


def _check_lp(result, cap):
    added = tuple((_letters(r.lhs), _letters(r.rhs)) for r in result.added_rules[:3])
    if result.status != "FuelExhausted" or len(result.final.rules) != cap:
        return WRONG, f"status {result.status} with {len(result.final.rules)} rules", ""
    if added != LP_FIRST_RULES:
        return WRONG, f"first added rules {added}", ""
    return OK, "", _sha("\n".join(str(r) for r in result.final.rules))


WORKLOADS = {"wordproblem": wordproblem, "coherence": coherence, "pipeline": pipeline}
