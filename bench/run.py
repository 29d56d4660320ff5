"""Benchmark of coveralg: seeded question workloads, end to end and per layer.

Usage, from the root of a checkout (every end-to-end metric of every
workload, then the per-layer metrics of one):

    for w in engine squarefree; do
        python3 bench/run.py --workload $w --seed 0 --seconds 50 --trace 0
    done
    python3 bench/run.py --workload engine --seed 0 --seconds 50 --trace 1

The workloads are defined in ``workloads.py`` and described, with the
pinned and held-out seeds, in ``workloads.json``.  A run generates every
question of its workload from the seed, writes the inputs of the CLI
questions to files, and then:

* untraced (``--trace 0``): answers all rounds of questions in cold
  passes, in a closed loop (one client, one thread), until the passes
  took ``--seconds`` and at least MIN_PASSES are done.  Every pass
  starts on freshly parsed inputs with the package's functools caches
  emptied, and a question's latency is its fastest pass: a shared
  host's CPU speed drifts over seconds, and the fastest of passes spread
  over the run is far steadier than any single pass.  The host also has
  slow phases longer than a run, so a fixed reference job runs after
  every round, and the throughput (questions over the sum of their
  latencies) is reported as ``items_per_s_norm``: scaled by the 10th
  percentile of the reference job's times over REF_NOMINAL_S, that
  percentile on a quiet host.  (The 10th percentile is steadier than the
  fastest time.)  The raw throughput goes to the record.  It also
  reports peak memory, and the set-up of a CLI run (import plus parsing
  the run's inputs in a fresh interpreter): the median of probes made
  before the passes and after each of them.
* traced (``--trace 1``): answers the first half of the rounds
  untraced, then installs the span wrappers of ``tracing.py`` and
  answers the second half, parsing their inputs under the tracer.  It
  reports the calls, self times and counters of every layer, and the
  overhead of tracing as the traced time per question against the
  untraced one.

Every answer is checked after the timed phase, independently
(``workloads.check``), against the digests recorded for the pinned
seeds, and against the other passes.  A question that raised or failed
a check counts as failed.  The last line of stdout is the result as one
JSON object; the full record, with an environment stamp, sample counts
and the latency percentiles, goes to .bench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import digest, subset_scan  # noqa: E402

SETUP_PROBES = 3  # before the timed phase; one more follows each pass
MIN_PASSES = 2
MODULES = ("complexes", "ideals", "covers", "borel", "posets", "classify", "cli")
END_TO_END = {
    "setup_s": "s",
    "items_per_s_norm": "1/s",
    "peak_rss_mb": "MB",
}
# The reference job (reference_job), and REF_NOMINAL_S, about the 10th
# percentile of its times on a 2-vCPU Xeon VM in a quiet phase (Python
# 3.11, numpy 2.4), so that items_per_s_norm reads close to the raw
# throughput on such a host.
REF_N = 10
REF_FACETS = [(1, 2, 5, 9), (2, 3, 6, 10), (1, 4, 7, 8), (3, 5, 8, 10), (2, 4, 6, 9), (1, 6, 7, 10)]
REF_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, 100_000)
REF_NOMINAL_S = 0.025
SUFFIX = {"complex_json": ".json", "complex_text": ".txt", "graph_json": ".json"}


def load_package():
    """Import coveralg from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "coveralg" / "__init__.py").is_file():
        sys.exit(f"error: no coveralg sources under {src}")
    sys.path.insert(0, str(src))
    import coveralg
    from coveralg import borel, classify, cli, complexes, covers, ideals, posets  # noqa: F401

    if Path(coveralg.__file__).resolve().parent != (src / "coveralg").resolve():
        sys.exit(f"error: coveralg was imported from {coveralg.__file__}, not from {src}")
    return coveralg


def parsers(pkg):
    return {name: getattr(getattr(pkg, module), fn) for name, (module, fn) in workloads.PARSERS.items()}


def write_inputs(pool, workdir):
    """Write CLI inputs to files and API inputs to one list; return argv per CLI qid."""
    argvs = {}
    api_inputs = []
    for rnd in pool:
        for q in rnd:
            if q.cli:
                paths = []
                for i, (fmt, text) in enumerate(q.inputs):
                    path = workdir / f"q{q.qid}-{i}{SUFFIX[fmt]}"
                    path.write_text(text)
                    paths.append(str(path))
                argvs[q.qid] = workloads.cli_argv(q, paths)
            else:
                api_inputs.extend(q.inputs)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(api_inputs))
    return argvs, inputs_path


def setup_probe(inputs_path):
    """Seconds of import plus parsing in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(inputs_path)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def clear_caches(pkg):
    """Empty every functools cache of the package's module-level functions,
    so that a repeated pass finds no answer left by an earlier one."""
    for name in MODULES:
        for obj in vars(getattr(pkg, name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def parse_round(parse, rnd):
    return {q.qid: [parse[fmt](text) for fmt, text in q.inputs] for q in rnd if not q.cli}


class Answers:
    """Answered questions in order: result, latency and error of each."""

    def __init__(self):
        self.rows = []  # (question, result, seconds, error)

    def ask(self, pkg, q, objs, argv, tracer=None):
        t0 = time.perf_counter()
        try:
            result = workloads.answer(pkg, q, objs, argv)
            error = None
        except Exception as exc:  # a failed question is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None and q.cli and error is None:
            tracer.counts["stdout_bytes"] += len(result[1].encode())
        self.rows.append((q, result, seconds, error))
        return seconds


def answer_rounds(pkg, rounds, objs, argvs, answers, tracer=None):
    """Answer whole rounds; returns the summed question latencies."""
    total = 0.0
    for rnd in rounds:
        for q in rnd:
            if tracer is not None:
                tracer.question = len(answers.rows)
            total += answers.ask(pkg, q, objs.get(q.qid), argvs.get(q.qid), tracer)
    return total


def reference_job():
    """Seconds of a fixed job of the benchmark's own: a brute-force
    transversal scan in pure Python and a numpy sort, the two kinds of
    work the package does.  Its fast runs track the host's speed."""
    t0 = time.perf_counter()
    subset_scan(REF_N, REF_FACETS, 2)
    np.unique(REF_ARRAY)
    return time.perf_counter() - t0


def timed_phase(pkg, pool, argvs, seconds, answers, after_pass):
    """Closed loop of cold passes over all rounds of the pool, until the
    passes took ``seconds`` and at least MIN_PASSES are done.  Runs the
    reference job after every round and calls ``after_pass`` after every
    pass.  Returns the passes' seconds, their count and the seconds of
    each reference job."""
    parse = parsers(pkg)
    elapsed = 0.0
    passes = 0
    reference = []
    while passes < MIN_PASSES or elapsed < seconds:
        t0 = time.perf_counter()
        clear_caches(pkg)
        for rnd in pool:
            answer_rounds(pkg, [rnd], parse_round(parse, rnd), argvs, answers)
            t1 = time.perf_counter()
            reference.append(reference_job())
            t0 += time.perf_counter() - t1
        elapsed += time.perf_counter() - t0
        passes += 1
        after_pass()
    return elapsed, passes, reference


def check_answers(answers, recorded):
    """Independent check of the first answer to each question, and digest
    comparison of every answer with the recorded digest and with the
    first answer; returns the failure messages by qid and the digests."""
    failures = {}
    digests = {}
    for q, result, _, error in answers.rows:
        if error is not None:
            failures[q.qid] = error
            continue
        earlier = digests.get(q.qid)
        try:
            problem = workloads.check(q, result) if earlier is None else None
            digests[q.qid] = digest(workloads.canon(q, result))
        except Exception as exc:  # a malformed answer fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and q.qid in recorded and digests[q.qid] != recorded[q.qid]:
            problem = "answer differs from the recorded digest"
        if problem is None and earlier is not None and digests[q.qid] != earlier:
            problem = "passes give different answers"
        if problem is not None:
            failures[q.qid] = f"{q.kind}: {problem}"
    return failures, digests


def recorded_digests(workload, seed):
    """Recorded digests by qid.  digests.json keeps, per workload, seed and
    round, the eight-digit digests of the round's questions in order."""
    path = HERE / "digests.json"
    if not path.is_file():
        return {}
    rounds = json.loads(path.read_text()).get(workload, {}).get(str(seed), {})
    return {f"{r}.{j}": row[8 * j:8 * j + 8] for r, row in rounds.items() for j in range(len(row) // 8)}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(traced):
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source_digest(),
        "traced": bool(traced),
    }


def best_latencies(answers):
    """Latency in ms of each question, its fastest pass, by qid."""
    best = {}
    for q, _, seconds, _ in answers.rows:
        best[q.qid] = min(best.get(q.qid, seconds), seconds)
    return {qid: s * 1e3 for qid, s in best.items()}


def end_to_end(setup_s, latencies, reference):
    items_per_s = 1e3 * len(latencies) / sum(latencies)
    return {
        "setup_s": setup_s,
        "items_per_s_norm": items_per_s * statistics.quantiles(reference, n=10)[0] / REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, items_per_s


def untraced_run(pkg, pool, argvs, inputs_path, seconds, answers):
    """End-to-end metrics: the timed closed loop, with set-up probes
    before it and after every pass, so that they sample the host over
    the whole run."""
    setup_samples = [setup_probe(inputs_path) for _ in range(SETUP_PROBES)]
    elapsed, passes, reference = timed_phase(
        pkg, pool, argvs, seconds, answers, lambda: setup_samples.append(setup_probe(inputs_path)))
    latencies = list(best_latencies(answers).values())
    values, items_per_s = end_to_end(statistics.median(setup_samples), latencies, reference)
    record = {
        "samples": {"setup_s": setup_samples, "questions": len(latencies), "passes": passes,
                    "answers": len(answers.rows), "timed_s": elapsed, "reference_s": reference},
        # Throughput as measured, before the host-speed correction.
        "items_per_s": items_per_s,
        # The percentiles of a mix of question kinds move with the inputs a
        # seed draws more than the bounds allow, so they are recorded only.
        "latency_percentiles_ms": {"p50": statistics.median(latencies),
                                   "p90": statistics.quantiles(latencies, n=10)[8]},
        "latency_ms": [[q.qid, q.kind, s * 1e3] for q, _, s, _ in answers.rows],
    }
    return values, END_TO_END, record


def traced_run(pkg, pool, argvs, rounds, answers, spans_path):
    """Per-layer metrics: the first ``rounds`` rounds of the pool untraced,
    then the next ``rounds`` traced, one pass each."""
    import tracing

    parse = parsers(pkg)
    objs = {}
    for rnd in pool[:rounds]:
        objs.update(parse_round(parse, rnd))
    ref_time = answer_rounds(pkg, pool[:rounds], objs, argvs, answers)
    ref_count = len(answers.rows)
    tracer = tracing.Tracer()
    tracer.install(pkg)
    parse = parsers(pkg)
    for rnd in pool[rounds:2 * rounds]:  # parsed under the tracer, question id -1
        objs.update(parse_round(parse, rnd))
    traced_time = answer_rounds(pkg, pool[rounds:2 * rounds], objs, argvs, answers, tracer)
    traced_count = len(answers.rows) - ref_count
    overhead = (traced_time / traced_count) / (ref_time / ref_count) - 1
    tracer.write(spans_path)
    record = {"rounds": {"untraced": rounds, "traced": rounds},
              "questions": {"untraced": ref_count, "traced": traced_count}}
    return tracer.metrics(overhead), tracing.metric_names(), record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = load_package()
    pool = workloads.generate(args.workload, args.seed)
    answers = Answers()
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=label + "-", dir=ROOT / ".bench_work"))
    try:
        argvs, inputs_path = write_inputs(pool, workdir)
        if args.trace:
            rounds = workloads.WORKLOADS[args.workload]["trace_rounds"]
            values, units, record = traced_run(pkg, pool, argvs, rounds, answers,
                                               out_dir / f"spans-{label}.npz")
        else:
            values, units, record = untraced_run(pkg, pool, argvs, inputs_path, args.seconds, answers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, digests = check_answers(answers, recorded_digests(args.workload, args.seed))
    attempted = len({q.qid for q, *_ in answers.rows})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(args.trace),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
        "digests": digests,
    })
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for qid, message in list(failures.items())[:5]:
        print(f"failed {qid}: {message}", file=sys.stderr)
    print(json.dumps(record["environment"], sort_keys=True))
    for name, m in metrics.items():
        if args.trace:
            samples = f"{record['questions']['traced']} traced questions"
        else:
            samples = record["samples"]
            samples = f"n={len(samples['setup_s']) if name == 'setup_s' else attempted}"
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} ({samples})")
    print(f"{args.workload} failed_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    if "items_per_s" in record:
        print(f"{args.workload} items_per_s = {record['items_per_s']:.6g} 1/s (as measured, not a metric)")
    for name, value in record.get("latency_percentiles_ms", {}).items():
        print(f"{args.workload} item_{name}_ms = {value:.6g} ms (recorded, not a metric)")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
