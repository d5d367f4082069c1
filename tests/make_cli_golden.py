"""The CLI golden file: one line per ``polygraph`` invocation over the texts
of ``conftest``, holding the argv, the exit code and the sha256 of the
``--json`` standard output.

    PYTHONPATH=src python tests/make_cli_golden.py

rewrites ``tests/cli_golden.txt``; ``test_cli_golden.py`` compares the live
output with it.  Every invocation runs in-process through ``cli.main``.  The
files it reads are written to a temporary directory, whose path is replaced
by ``{tmp}`` in the argv and in the output before hashing.

The invocations cover ``check`` (on every presentation file), ``nf``
(both strategies, and ``--fuel 2`` partial paths), ``eq``, ``cp``, ``cp
--resolve``, ``cohere``, ``reduce``, ``complete``, ``homology``, ``fill``
(positive, zigzag and non-composing paths), ``std`` (on Z2, the trivial
monoid, S3, the transformation monoid T2 and a table that is not
associative), ``cert`` and, last, ``transfer`` (the identity map of the
completed xyx, a map entry without ``=>`` and a τ component with the wrong
source).  Words and paths are drawn from ``random.Random(<text name>)`` and
built with the library, so the argv list itself is part of what the file
pins.  Deep ``fill`` spheres (the leftmost
against the rightmost path of words of length 14 to 16, over B3+ and the
completed A4) are drawn from ``random.Random(<text name>/deep)``.  Long
σ-route ``fill`` spheres over B3+ repeat the leftmost path of a word and
the inverse of its rightmost path 100 to 300 steps deep, against the
identity, and then once more followed by the rightmost path against the
rightmost path; their words are drawn from ``random.Random("b3/sigma")``.
``homology --samples 32``, alone and with ``--export``, runs on Coxeter A3,
B3 and A4 completed by ``knuth_bendix`` and reduced; ``homology --samples
1 --export`` on Squier's pumped example, at pump bounds 8 and 2, stops on
the bound.  An ``--export``
invocation also hashes the files it writes: after its standard output come
the name and sha256 of each exported file, sorted by name.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from polygraph import (
    ZigZag,
    knuth_bendix,
    metivier_squier_reduce,
    normalize,
    parse_polygraph,
    serialize_polygraph,
)
from polygraph.cli import main

import conftest as texts

GOLDEN = Path(__file__).with_name("cli_golden.txt")

PRESENTATIONS = {
    "b3": texts.B3_TEXT,
    "xyx": texts.XYX_TEXT,
    "xyx_done": texts.XYX_DONE_TEXT,
    "mu": texts.MU_TEXT,
    "sq": texts.SQ_TEXT,
    "stq": texts.STQ_TEXT,
    "lp": texts.LP_TEXT,
    "family": texts.FAMILY_TEXT,
    "a4": texts.A4_TEXT,
    "coxeter_a3": texts.COXETER_A3_TEXT,
    "coxeter_b3": texts.COXETER_B3_TEXT,
    "a_one": texts.A_ONE_TEXT,
    "conf0": texts.CONF0_TEXT,
    "sigma": texts.SIGMA_TEXT,
    "category": texts.CATEGORY_TEXT,
    # with a generator order, so that the category's spheres can be filled
    "category_ordered": texts.CATEGORY_TEXT + "order: f < g\n",
}


def completed_text(text):
    """A presentation completed by knuth_bendix and reduced, as the
    benchmark builds it."""
    return serialize_polygraph(
        metivier_squier_reduce(knuth_bendix(parse_polygraph(text)).final).final
    )


A4_DONE_TEXT = completed_text(texts.A4_TEXT)
DONE_FILES = {
    "a3_done": completed_text(texts.COXETER_A3_TEXT),
    "b3_done": completed_text(texts.COXETER_B3_TEXT),
    "a4_done": A4_DONE_TEXT,
}
OTHER_FILES = {
    **DONE_FILES,
    "z2": texts.Z2_TABLE,
    "trivial": texts.TRIVIAL_TABLE,
    "nonassoc": texts.NONASSOC_TABLE,
    "s3": texts.S3_TABLE,
    "t2": texts.T2_TABLE,
    "sq_cert": texts.SQ_CERT_TEXT,
    "sq_bad_cert": texts.SQ_BAD_CERT_TEXT,
    "identity_map": texts.IDENTITY_MAP,
    "unarrowed_map": "fgen:\nx y\n",
    "wrong_tau_map": texts.IDENTITY_MAP.replace("x => id(x)", "x => 1 * alpha * 1"),
}
WORD_LENGTHS = (4, 7, 11)
DEEP_FILL_LENGTHS = (14, 15, 16)
DEEP_FILLS = 4
SIGMA_FILL_LENGTHS = (6, 7, 8)
SIGMA_FILL_STEPS = (100, 300)
SIGMA_FILLS = 4
HOMOLOGY_SAMPLES = 32


def random_word(rng, p, length):
    """A composable word: a walk along the generators from a random object."""
    obj = rng.choice(p.objects)
    letters = []
    for _ in range(length):
        out = [g.name for g in p.generators if g.source == obj]
        if not out:
            break
        name = rng.choice(out)
        letters.append(name)
        obj = p.generator_map[name].target
    return p.word_from_letters(letters, at=obj)


def fill_pairs(p, w):
    """Parallel pairs of paths out of w: the leftmost against the rightmost
    normalization path, a zigzag against the identity, and a partial
    leftmost path against a zigzag through the normal form; then pairs
    whose first path does not compose."""
    _, left = normalize(p, w, "leftmost")
    _, right = normalize(p, w, "rightmost")
    pairs = [(left, right), (left.then(right.inverse()), ZigZag(w))]
    k = len(left) // 2
    if k:
        head, tail = ZigZag(w, left.steps[:k]), ZigZag(left.steps[k].source_word, left.steps[k:])
        pairs.append((head, right.then(tail.inverse())))
    pairs = [(str(f), str(g)) for f, g in pairs]
    if len(left) >= 2:
        swapped = [str(s) for s in left.steps]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        pairs.append((" . ".join(swapped), str(right)))
        pairs.append((" . ".join([str(left.steps[0])] * 2), str(right)))
    return pairs


def invocations():
    """Every argv, with file names as ``{tmp}/<name>.txt``."""
    out = []

    def f(name):
        return "{tmp}/" + name + ".txt"

    for name, text in PRESENTATIONS.items():
        p = parse_polygraph(text)
        rng = random.Random(name)
        words = [random_word(rng, p, n) for n in WORD_LENGTHS]
        for w in words:
            for strategy in ("leftmost", "rightmost"):
                out.append(["nf", f(name), str(w), "--strategy", strategy])
            out.append(["nf", f(name), str(w), "--fuel", "2"])
        if p.is_monoid:
            out.append(["eq", f(name), str(words[0]), str(words[1])])
            out.append(["eq", f(name), str(words[2]), str(words[2])])
        out += [["cp", f(name)], ["cp", f(name), "--resolve"], ["cohere", f(name)],
                ["reduce", f(name)], ["homology", f(name)]]
        caps = (6, 24, 48) if name == "lp" else (None,)
        for cap in caps:
            out.append(["complete", f(name)] + (["--max-rules", str(cap)] if cap else []))
        for w in words[:2]:
            for zz1, zz2 in fill_pairs(p, w):
                out.append(["fill", f(name), zz1, zz2])
    # a step whose context does not compose with the rule; then the same
    # after a step that does not rewrite the running word: the first of
    # the two failures is reported
    cat = f("category_ordered")
    out.append(["fill", cat, "f*rho*1", "id(f f g f)"])
    out.append(["fill", cat, "1*rho*g f . 1*rho*g f . f*rho*1", "id(f g f g f)"])
    sq = f("sq")
    out += [
        ["cp", sq, "--cert", f("sq_cert")],
        ["cohere", sq, "--cert", f("sq_cert")],
        ["homology", sq, "--cert", f("sq_cert"), "--samples", "4"],
        # d3 of the cell at the pump bound needs the next instance: exit 3
        ["homology", sq, "--cert", f("sq_cert"), "--samples", "1", "--export", "{tmp}/out_sq"],
        ["homology", sq, "--cert", f("sq_cert"), "--samples", "1", "--pump-bound", "2",
         "--export", "{tmp}/out_sq2"],
        ["cert", sq, f("sq_cert")],
        ["cert", sq, f("sq_bad_cert")],
        ["cert", f("b3"), f("sq_cert")],
        ["eq", sq, "x a t b y", "1", "--cert", f("sq_cert")],
        ["homology", f("mu"), "--export", "{tmp}/out"],
        ["std", f("z2")],
        ["std", f("trivial")],
        ["std", f("nonassoc")],
        ["std", f("s3")],
        ["std", f("t2")],
    ]
    # deep spheres: the leftmost against the rightmost path of longer words
    for name, text in (("b3", texts.B3_TEXT), ("a4_done", A4_DONE_TEXT)):
        p = parse_polygraph(text)
        rng = random.Random(name + "/deep")
        for _ in range(DEEP_FILLS):
            w = random_word(rng, p, rng.choice(DEEP_FILL_LENGTHS))
            _, left = normalize(p, w, "leftmost")
            _, right = normalize(p, w, "rightmost")
            out.append(["fill", f(name), str(left), str(right)])
    # long zigzags, filled through the normal forms of their words
    p = parse_polygraph(texts.B3_TEXT)
    rng = random.Random("b3/sigma")
    for _ in range(SIGMA_FILLS):
        while True:
            w = random_word(rng, p, rng.choice(SIGMA_FILL_LENGTHS))
            _, left = normalize(p, w, "leftmost")
            _, right = normalize(p, w, "rightmost")
            loop = left.then(right.inverse())
            if len(loop) >= 2:
                break
        low, high = SIGMA_FILL_STEPS
        zigzag = ZigZag(w)
        for _ in range(rng.randint(-(-low // len(loop)), high // len(loop))):
            zigzag = zigzag.then(loop)
        out.append(["fill", f("b3"), str(zigzag), f"id({w})"])
        out.append(["fill", f("b3"), str(zigzag.then(right)), str(right)])
    # the resolution checked on 32 samples, then exported as well
    for name in DONE_FILES:
        homology = ["homology", f(name), "--samples", str(HOMOLOGY_SAMPLES)]
        out += [homology, homology + ["--export", "{tmp}/out_" + name]]
    out += [["check", f(name)] for name in {**PRESENTATIONS, **DONE_FILES}]
    # the identity 2-functor of the completed xyx, then a map entry without
    # "=>" and a tau component with the wrong source: both exit 2
    done = f("xyx_done")
    out += [["transfer", done, done, f(name)]
            for name in ("identity_map", "unarrowed_map", "wrong_tau_map")]
    return [argv + ["--json"] for argv in out]


def run_one(argv, tmp):
    """(exit code, --json standard output) of one invocation, with the
    temporary directory written as ``{tmp}``; an ``--export`` invocation's
    output is followed by the name and sha256 of each file it wrote."""
    stdout = io.StringIO()
    argv = [a.replace("{tmp}", tmp) for a in argv]
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    text = stdout.getvalue()
    if "--export" in argv:
        exported = Path(argv[argv.index("--export") + 1])
        for path in sorted(exported.iterdir()):
            text += f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
    return code, text.replace(tmp, "{tmp}")


def golden_runs():
    """(line, output) per invocation; a line is the JSON of
    [argv, exit code, sha256 of the output]."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**PRESENTATIONS, **OTHER_FILES}.items():
            Path(tmp, name + ".txt").write_text(text, encoding="utf-8")
        out = []
        for argv in invocations():
            code, stdout = run_one(argv, tmp)
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            out.append((json.dumps([argv, code, digest]), stdout))
        return out


if __name__ == "__main__":
    lines = [line for line, _ in golden_runs()]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} invocations to {GOLDEN}", file=sys.stderr)
