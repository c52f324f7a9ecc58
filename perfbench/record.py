#!/usr/bin/env python3
"""Record the verdict of every request of some seeds, at the current commit.

    python3 perfbench/record.py --workload rd-exact --seeds 0-39 1000003

Each request of every cycle runs once; its answer must pass the independent
checks, and its verdict (exit code plus the fields named by the request's
``pins``, no witnesses) is merged into perfbench/verdicts/<workload>.json.
A request that already has a different recorded verdict stops the recording.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def seed_list(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-39")
    args = parser.parse_args()
    run.import_package()

    table = run.load_verdicts(args.workload)
    client = run.Client()
    for seed in seed_list(args.seeds):
        work = run.OUT / "inputs" / f"record-{args.workload}-{seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            for cycle in run.build(args.workload, seed, work):
                for req in cycle:
                    code, text, _ = client.send(req)
                    if run.judge(req, code, text, {}) == "crashed":
                        raise SystemExit(f"{req.key} crashed: {text}")
                    verdict = req.verdict(code, json.loads(text) if code in (0, 1) else None)
                    if table.setdefault(req.key, verdict) != verdict:
                        raise SystemExit(f"{req.key}: {verdict} differs from {table[req.key]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"seed {seed}: {len(table)} verdicts", file=sys.stderr)
    path = run.verdict_path(args.workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(table[key])}"
                                        for key in sorted(table)) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
