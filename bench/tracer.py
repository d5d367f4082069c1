"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method by a wrapper, in
every ``polygraph`` module that binds it (so ``coherence.normalize`` and
``homology.normalize`` are traced as well as ``rewrite.normalize``).  A span
records its name, start, end, parent span and job id; spans stay in memory
and are written out at the end.  Self time is a span's duration minus the
time its child spans cover.  Aggregates (calls, inclusive seconds, self
seconds, counters) are kept as spans close, so they stay exact even when the
number of stored spans is capped.
"""

from __future__ import annotations

import gzip
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (metric name, module, attribute); an attribute "Class.method" is a method
FUNCTIONS = (
    ("presentation.occurrences", "presentation", "Word.occurrences"),
    ("presentation.zigzag_check", "presentation", "ZigZag.__post_init__"),
    ("rewrite.normalize", "rewrite", "normalize"),
    ("rewrite.find_redexes", "rewrite", "find_redexes"),
    ("rewrite.certify_convergent", "rewrite", "certify_convergent"),
    ("rewrite.word_eq", "rewrite", "word_eq"),
    ("branchings.enumerate_critical_branchings", "branchings", "enumerate_critical_branchings"),
    ("branchings.resolve_branching", "branchings", "resolve_branching"),
    ("branchings.decide_confluence", "branchings", "decide_confluence"),
    ("completion.knuth_bendix", "completion", "knuth_bendix"),
    ("completion.metivier_squier_reduce", "completion", "metivier_squier_reduce"),
    ("coherence.squier_completion", "coherence", "squier_completion"),
    ("coherence.fill_sphere", "coherence", "fill_sphere"),
    ("coherence.fill_positive", "coherence", "fill_positive"),
    ("coherence.sigma_path", "coherence", "sigma_path"),
    ("coherence.standard_coherent_presentation", "coherence", "standard_coherent_presentation"),
    ("homology.verify_identities", "homology", "verify_identities"),
    ("homology.i3", "homology", "FreeResolution.i3"),
    ("homology.nf", "homology", "FreeResolution.nf"),
    ("homology.bracket_3cell", "homology", "FreeResolution.bracket_3cell"),
    ("homology.write_matrices", "homology", "write_matrices"),
    ("cli.run", "cli", "run"),
)

# called per rule per rewriting step: aggregated, not stored span by span
HOT = {"presentation.occurrences", "presentation.zigzag_check"}

ROOT = "bench.job"
MAX_STORED_SPANS = 200_000


def _expr_nodes(expr):
    """Distinct 3-cell expression nodes reachable from expr, by identity."""
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for field in ("expr", "first", "second"):
            child = getattr(node, field, None)
            if child is not None:
                stack.append(child)
    return len(seen)


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.stack = []  # open frames: [name, start, child seconds, index, parent]
        self.depth = Counter()  # open frames per name, for recursion
        self.calls = Counter()
        self.total = defaultdict(float)  # inclusive, outermost frames only
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []  # (name, start, end, parent index, job)
        self.dropped = 0
        self.deferred = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        index = -1
        if name not in HOT:
            if len(self.spans) < MAX_STORED_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
        frame = [name, perf_counter(), 0.0, index, parent]
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def _close(self, frame):
        end = perf_counter()
        name, start, child, index, parent = frame
        self.stack.pop()
        self.depth[name] -= 1
        dur = end - start
        self.calls[name] += 1
        if not self.depth[name]:
            self.total[name] += dur
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.job)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if name == "rewrite.normalize" and stack and stack[-1][0] == "homology.nf":
                tracer.counts["homology.normalize_under_nf"] += 1
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._count(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name, result):
        c = self.counts
        if name == "rewrite.normalize":
            c["rewrite.normalize.steps"] += len(result[1].steps)
        elif name == "rewrite.find_redexes":
            c["rewrite.find_redexes.found"] += len(result)
        elif name == "branchings.enumerate_critical_branchings":
            c["branchings.enumerate_critical_branchings.found"] += len(result)
            if self.depth["completion.knuth_bendix"]:
                c["completion.enumerated_in_kb"] += len(result)
        elif name == "completion.knuth_bendix":
            c["completion.knuth_bendix.rules_added"] += len(result.added_rules)
            c["completion.knuth_bendix.processed"] += len(result.trace)
        elif name == "coherence.squier_completion":
            c["coherence.squier_completion.cells"] += len(result.cells)
        elif name == "coherence.fill_sphere":
            self.deferred.append(("coherence.expr_nodes", _expr_nodes, result))
        elif name == "homology.write_matrices":
            self.deferred.append(("homology.write_matrices.bytes", _dir_bytes, result["out_dir"]))

    def run_job(self, job_id, fn):
        """Run one job under a root span and return its result."""
        self.job = job_id
        self.active = True
        frame = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(frame)
            self.active = False

    def settle(self):
        """Count what was deferred out of the timed region."""
        for key, measure, value in self.deferred:
            self.counts[key] += measure(value)
        self.deferred.clear()

    # -- installation ---------------------------------------------------------

    def install(self, modules):
        """Wrap FUNCTIONS in the given {name: module} map of polygraph's
        modules (package included), rebinding every alias of each function."""
        for name, modname, attr in FUNCTIONS:
            mod = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    # -- results ----------------------------------------------------------------

    def metrics(self, passes):
        """Per-layer metrics, averaged per pass of the job list."""
        per = 1.0 / passes
        c = self.counts
        calls, total = self.calls, self.total
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value * per if unit in ("count", "s", "bytes") else value,
                        "unit": unit}

        def ratio(num, den):
            return num / den if den else 0.0

        for key in ("presentation.occurrences", "presentation.zigzag_check",
                    "rewrite.normalize", "rewrite.find_redexes", "rewrite.certify_convergent",
                    "branchings.enumerate_critical_branchings", "branchings.resolve_branching",
                    "coherence.fill_sphere", "homology.i3"):
            put(key + ".calls", calls[key], "count")
            put(key + ".s", total[key], "s")
        put("rewrite.normalize.steps", c["rewrite.normalize.steps"], "count")
        put("rewrite.find_redexes.found", c["rewrite.find_redexes.found"], "count")
        put("rewrite.redex_yield",
            ratio(c["rewrite.normalize.steps"], c["rewrite.find_redexes.found"]), "ratio")
        put("branchings.enumerate_critical_branchings.found",
            c["branchings.enumerate_critical_branchings.found"], "count")
        put("completion.knuth_bendix.s", total["completion.knuth_bendix"], "s")
        put("completion.knuth_bendix.rules_added", c["completion.knuth_bendix.rules_added"], "count")
        put("completion.knuth_bendix.processed", c["completion.knuth_bendix.processed"], "count")
        put("completion.enum_yield",
            ratio(c["completion.knuth_bendix.processed"], c["completion.enumerated_in_kb"]), "ratio")
        put("completion.metivier_squier_reduce.s", total["completion.metivier_squier_reduce"], "s")
        put("coherence.squier_completion.s", total["coherence.squier_completion"], "s")
        put("coherence.squier_completion.cells", c["coherence.squier_completion.cells"], "count")
        put("coherence.fill_positive.calls", calls["coherence.fill_positive"], "count")
        put("coherence.sigma_path.calls", calls["coherence.sigma_path"], "count")
        put("coherence.expr_nodes", c["coherence.expr_nodes"], "count")
        put("coherence.standard_coherent_presentation.s",
            total["coherence.standard_coherent_presentation"], "s")
        put("homology.verify_identities.s", total["homology.verify_identities"], "s")
        put("homology.nf.calls", calls["homology.nf"], "count")
        put("homology.nf_hit_ratio",
            1.0 - ratio(c["homology.normalize_under_nf"], calls["homology.nf"])
            if calls["homology.nf"] else 0.0, "ratio")
        put("homology.bracket_3cell.s", total["homology.bracket_3cell"], "s")
        put("homology.write_matrices.s", total["homology.write_matrices"], "s")
        put("homology.write_matrices.bytes", c["homology.write_matrices.bytes"], "bytes")
        put("cli.run.calls", calls["cli.run"], "count")
        put("cli.run.self_s", self.self_s["cli.run"], "s")

        layers = ("presentation", "rewrite", "branchings", "completion", "coherence", "homology")
        for layer in layers:
            put(layer + ".self_s",
                sum(v for k, v in self.self_s.items() if k.startswith(layer + ".")), "s")
        put("bench.glue.self_s", self.self_s[ROOT], "s")
        put("trace.wall_s", total[ROOT], "s")
        put("trace.self_s_total", sum(self.self_s.values()), "s")
        return out

    def write_spans(self, path):
        """Stored spans as gzip CSV: index, parent, job, name, start, end (s)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,parent,job,name,start,end\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, job = span
                fh.write(f"{i},{parent},{job},{name},{start:.7f},{end:.7f}\n")
