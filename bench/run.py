"""The polygraph benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload wordproblem --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Set-up (importing ``polygraph`` from the
checkout's ``src``, generating the seeded inputs, parsing presentations,
tables and certificates, writing the files CLI jobs read) is repeated
SETUP_REPEATS times and its median reported.  The seeded job list then runs
back to back (a closed loop with one client, no threads), pass after pass
while another pass fits in ``--seconds``; there is always at least one.
The first pass checks every answer, untimed, against an oracle that does
not depend on the library; later passes only time the jobs again.

Times are reported at reference speed.  On a shared host the speed at
which Python runs can swing by 1.5x or more from one minute to the next,
and that swing would drown the program's own changes.  So a fixed piece of
pure-Python work, the speed probe, is timed before every job and around
every set-up, and each latency is scaled by PROBE_REF_S over the probe time
measured next to it.  A job's latency is then its fastest pass; ``wall_s``
is the sum of the job latencies, and ``job_p50_ms`` and ``job_p90_ms`` are
taken over the jobs.  The unscaled figures are printed and kept as well.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``failed`` counts jobs that gave no answer or a wrong one; ``correct`` is
false when any answer was wrong.  Details (per-job latencies and outcomes,
digests, the environment) go to ``.bench_out/<workload>-seed<n>-trace<t>.json``;
a traced run also writes its spans next to it.  Exit code 2, with no
result, when the checkout has no ``src/polygraph``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer
from workloads import FAILED, OK, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
RAISED = "raised "
PROBE_LOOPS = 3000
PROBE_REF_S = 0.0015  # the probe's time at reference speed
PROBE_WINDOW = 9
MODULES = ("presentation", "rewrite", "branchings", "completion", "coherence", "homology", "cli")


def import_polygraph():
    """A fresh import of the checkout's polygraph; {name: module}, package
    under "polygraph"."""
    for name in [m for m in sys.modules if m == "polygraph" or m.startswith("polygraph.")]:
        del sys.modules[name]
    pg = importlib.import_module("polygraph")
    mods = {name: importlib.import_module("polygraph." + name) for name in MODULES}
    mods["polygraph"] = pg
    return mods


def speed_probe():
    """Seconds taken by a fixed piece of pure-Python work (tuple slices and
    dict stores, like the library's word handling).  Timed next to the jobs,
    it tracks how fast the machine runs Python at that moment."""
    t0 = perf_counter()
    d, t = {}, ()
    for i in range(PROBE_LOOPS):
        t = (t + (i,))[-24:]
        d[i % 97] = t
    return perf_counter() - t0


def setup(workload, seed, out):
    """Run set-up SETUP_REPEATS times; (median of the set-up times at
    reference speed, raw median, modules, jobs of the last set-up)."""
    times = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        before = speed_probe()
        t0 = perf_counter()
        mods = import_polygraph()
        jobs = workloads.WORKLOADS[workload](mods["polygraph"], seed, out)
        times.append(perf_counter() - t0)
        probe = statistics.median([before, speed_probe(), speed_probe()])
        scaled.append(times[-1] * PROBE_REF_S / probe)
    return statistics.median(scaled), statistics.median(times), mods, jobs


def run_pass(jobs, tracer, check):
    """One pass over the job list: ([(latency s, verdict, detail, digest)],
    [speed probe s before each job]).

    Only a checked pass runs the oracles; the others time the jobs again."""
    results = []
    probes = []
    for index, job in enumerate(jobs):
        probes.append(speed_probe())
        t0 = perf_counter()
        try:
            out = tracer.run_job(index, job.run) if tracer else job.run()
        except Exception as exc:  # a job that raises is recorded, not fatal
            dt = perf_counter() - t0
            last = traceback.format_exception_only(type(exc), exc)[-1].strip()
            results.append((dt, FAILED, f"{RAISED}{type(exc).__name__}: {last[:300]}", ""))
            continue
        dt = perf_counter() - t0
        if tracer:
            tracer.settle()
        results.append((dt,) + (job.check(out) if check else (OK, "", "")))
        del out
    return results, probes


def at_reference_speed(results, probes):
    """Job latencies scaled to reference speed: each by PROBE_REF_S over the
    median speed probe of the PROBE_WINDOW jobs around it."""
    half = PROBE_WINDOW // 2
    return [r[0] * PROBE_REF_S / statistics.median(probes[max(0, j - half): j + half + 1])
            for j, r in enumerate(results)]


def percentile(values, q):
    """Inclusive-method quantile q in (0, 1) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wordproblem", "coherence", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polygraph" / "__init__.py").is_file():
        print(f"error: no polygraph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = OUT / args.workload
    setup_s, setup_raw_s, mods, jobs = setup(args.workload, args.seed, out)
    if not Path(mods["polygraph"].__file__).resolve().is_relative_to(SRC):
        print(f"error: polygraph imported from {mods['polygraph'].__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)

    # the first pass is checked; further passes run while one more fits
    passes = []
    scaled = []
    started = perf_counter()
    while True:
        results, probes = run_pass(jobs, tracer, check=not passes)
        passes.append(results)
        scaled.append(at_reference_speed(results, probes))
        if perf_counter() - started + sum(r[0] for r in results) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    wrong = False
    for job, (_, verdict, detail, _) in zip(jobs, passes[0]):
        if verdict != OK:
            wrong = wrong or verdict == WRONG
            failures.append({"job": job.name, "verdict": verdict, "detail": detail})
    for results in passes[1:]:
        for job, first, again in zip(jobs, passes[0], results):
            if first[2].startswith(RAISED) != again[2].startswith(RAISED):
                wrong = True
                failures.append({"job": job.name, "verdict": WRONG,
                                 "detail": "raises in one pass only: " + again[2]})
    for job, (_, verdict, _, _) in zip(jobs, passes[-1]):
        if job.final is not None and verdict == OK:
            verdict, detail = job.final()
            if verdict != OK:
                wrong = True
                failures.append({"job": job.name, "verdict": verdict, "detail": detail})
    attempted = len(jobs)
    failed = len({f["job"] for f in failures})

    raw_per_job = [min(r[i][0] for r in passes) for i in range(len(jobs))]
    per_job = [min(r[i] for r in scaled) for i in range(len(jobs))]
    pass_walls = [sum(r[0] for r in results) for results in passes]
    wall_s = sum(per_job)
    e2e = {
        "wall_s": {"value": wall_s, "unit": "s"},
        "job_p50_ms": {"value": statistics.median(per_job) * 1e3, "unit": "ms"},
        "job_p90_ms": {"value": percentile(per_job, 0.9) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    digest_lines = [f"{job.name}\t{r[3]}" for job, r in zip(jobs, passes[0])]
    digest = hashlib.sha256("\n".join(digest_lines).encode()).hexdigest()
    fail_ratio = failed / attempted

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = tracer.metrics(len(passes)) if tracer else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": {"git_sha": git_sha(), "python": platform.python_version(),
                        "nproc": os.cpu_count()},
        "passes": len(passes), "jobs": len(jobs), "pass_wall_s": pass_walls,
        "end_to_end": e2e, "fail_ratio": fail_ratio, "failures": failures,
        "digest": digest, "digest_lines": digest_lines,
        "job_latency_s": {job.name: t for job, t in zip(jobs, per_job)},
        "raw": {"wall_s": sum(raw_per_job), "job_p50_ms": statistics.median(raw_per_job) * 1e3,
                "job_p90_ms": percentile(raw_per_job, 0.9) * 1e3, "setup_s": setup_raw_s},
        "job_pass_latencies_s": {job.name: [r[i][0] for r in passes]
                                 for i, job in enumerate(jobs)},
    }
    if tracer:
        record["per_layer"] = metrics
        record["stored_spans"] = len(tracer.spans)
        record["dropped_spans"] = tracer.dropped
        tracer.write_spans(stem.with_suffix(".spans.csv.gz"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(out, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs {len(jobs)}  p90 over {len(jobs)} jobs")
    for key, m in e2e.items():
        print(f"  {key:12s} {m['value']:.6g} {m['unit']}")
    print("  unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    print(f"  {'fail_ratio':12s} {fail_ratio:.6g} ({failed}/{attempted})")
    for f in failures[:10]:
        print(f"  {f['verdict']}: {f['job']}: {f['detail']}")
    print(f"  digest {digest}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
