"""Self-test of the benchmark's answer checking.

Usage: python3 bench/selftest.py

Answers one question of every kind of every workload (on small inputs),
then corrupts each answer and shows that the corrupted answer is counted
as failed: by its independent check, and by the digest comparison.  It
also checks that BENCHMARK.json names exactly the metrics a run reports.
Exits 0 when every check holds.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads


def small(q):
    """Questions cheap enough for a self-test: poset grids of at most 6 cells."""
    if q.kind == "poset_verify":
        return json.loads(q.inputs[0][1])["m"] * q.params["r"] <= 6
    return True


def corrupt(q, result):
    """A wrong answer of the same shape, one an independent check rejects."""
    k = q.kind
    replace = dataclasses.replace
    if q.cli:
        return 3, result[1] + " "
    if k in ("equals_ab", "is_standard_graded_a", "is_standard_graded_b"):
        return replace(result, holds=not result.holds)
    if k == "indecomposable_covers":
        n, _ = workloads._complex(q)
        return list(result) + [((1,) + (0,) * (n - 1), q.params["max_degree"] + 1)]
    if k == "decompose_cover":
        a, i, b, j = result
        return a, i + 1, b, j
    if k == "graph_equality_ab":
        return not result
    if k == "cover_ideal_verdict":
        return replace(result, bipartite=not result.bipartite)
    if k == "no_odd_verdict":
        return replace(result, cycles=(), subcomplexes_checked=result.subcomplexes_checked + 1)
    if k == "verify_duality":
        return replace(result, pure=not result.pure)
    if k == "lk_sq_all":
        return result[:-1]
    if k == "alexander_dual":
        return replace(result, gens=result.gens[1:])
    if k in ("borel_dual_gens", "borel_cover_gens", "borel_skeleton_gens"):
        return replace(result, generators=result.generators + ((1, 2, 3, 4, 5, 6, 7),))
    if k == "borel_recognize":
        spec = sys.modules["coveralg.borel"].BorelSpec(q.params["n"], ((7,),))
        return None if result is not None else spec
    if k == "borel_decompose":
        a, r, b = result
        return a, r, (b[0] + 1,) + tuple(b[1:])
    if k == "poset_verify":
        (k2, c2), rest = result.covers_checked[0], result.covers_checked[1:]
        return replace(result, covers_checked=((k2, c2 + 1),) + rest)
    raise KeyError(k)


def main():
    pkg = run.load_package()
    parse = run.parsers(pkg)
    failures = []
    total = 0
    for name in workloads.WORKLOADS:
        pool = workloads.generate(name, 0, rounds=1)
        if workloads.generate(name, 0)[0] != pool[0]:
            failures.append(f"{name}: a shorter pool is not a prefix of the full one")
        chosen = {}
        for q in pool[0]:
            if small(q):
                chosen.setdefault(q.kind, q)
        qs = list(chosen.values())
        (run.ROOT / ".bench_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as workdir:
            argvs, _ = run.write_inputs([qs], Path(workdir))
            answers = run.Answers()
            run.answer_rounds(pkg, [qs], run.parse_round(parse, qs), argvs, answers)
        good, digests = run.check_answers(answers, {})
        if good:
            failures.append(f"{name}: true answers fail: {good}")
        bad = run.Answers()
        for q, result, seconds, error in answers.rows:
            if q.kind == "decompose_cover" and result is None:
                continue  # nothing an independent check could contradict
            bad.rows.append((q, corrupt(q, result), seconds, error))
        caught_alone, _ = run.check_answers(bad, {})
        caught_digest, _ = run.check_answers(bad, digests)
        for q, *_ in bad.rows:
            total += 1
            if q.qid not in caught_alone:
                failures.append(f"{name} {q.kind}: corrupted answer passes its independent check")
            if q.qid not in caught_digest:
                failures.append(f"{name} {q.kind}: corrupted answer passes the digest comparison")
        print(f"{name}: {len(bad.rows)} corrupted answers, {len(caught_alone)} caught by the "
              f"independent checks, {len(caught_digest)} with digests")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != tracing.metric_names():
        failures.append("BENCHMARK.json per_layer differs from tracing.metric_names()")
    for line in failures:
        print("FAIL", line)
    print(f"{total} corruptions, {len(failures)} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
