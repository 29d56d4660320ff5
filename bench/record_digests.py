"""Record the answer digests of the pinned and held-out seeds.

Usage: python3 bench/record_digests.py [WORKLOAD ...]

For each workload (all by default) and each seed that workloads.json
pins or holds out, answers the first ``digest_rounds`` rounds, checks
every answer independently, and stores the digest of each canonical
answer in digests.json.  A run compares its answers with these digests.
Record again only when a canonical answer changes on purpose, and say
why in the change that does it.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(names):
    seeds_doc = json.loads((run.HERE / "workloads.json").read_text())
    seeds = seeds_doc["pinned_seeds"] + [seeds_doc["held_out_seed"]]
    path = run.HERE / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    pkg = run.load_package()
    parse = run.parsers(pkg)
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        rounds = workloads.WORKLOADS[name]["digest_rounds"]
        for seed in seeds:
            pool = workloads.generate(name, seed, rounds=rounds)
            answers = run.Answers()
            with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as workdir:
                argvs, _ = run.write_inputs(pool, Path(workdir))
                for rnd in pool:
                    run.answer_rounds(pkg, [rnd], run.parse_round(parse, rnd), argvs, answers)
            failures, digests = run.check_answers(answers, {})
            if failures:
                sys.exit(f"{name} seed {seed}: answers fail their checks: {failures}")
            rows = {}
            for qid, value in digests.items():  # qids come in round order
                r = qid.split(".")[0]
                rows[r] = rows.get(r, "") + value
            stored.setdefault(name, {})[str(seed)] = rows
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
            path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
