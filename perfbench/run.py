#!/usr/bin/env python3
"""Closed-loop benchmark of rainbowdisc, end to end and layer by layer.

    python3 perfbench/run.py --workload rd-exact --seed 0 --seconds 25 --trace 0

Run from the repository root; stdlib only. One client sends requests one at
a time in this process (no threads), each waiting for the previous one.
A request is an in-process ``rainbowdisc.cli.main([...])`` call on a file
generated in set-up, or a library call where the CLI has no subcommand.
Set-up builds every input from ``--seed`` (see workloads.py); timing starts
after it. The loop makes whole passes over cycles of fresh instances, each
cycle shuffled by the seed, until ``--seconds`` have passed; the cycle under
way at the deadline is finished, so every run measures the same mix.

After the loop every distinct answer goes through the gate: independent
checks, and the verdict recorded in verdicts/<workload>.json (by record.py)
for requests that have one. A wrong answer makes the run print
``"correct": false`` and exit 1.

Host speed. The hosts this runs on switch between speeds that differ by up
to 1.75x for seconds to tens of seconds at a time, so raw wall times of
whole runs spread by 20-60% from run to run. The loop therefore times a
fixed reference computation (benchmark code, not the package) every
PROBE_INTERVAL_S, and each request's wall time is scaled by
REFERENCE_NOMINAL_S over the reference's median time within
NORMALIZE_WINDOW_S of the request: request times are reported in seconds at
the host speed where the reference takes REFERENCE_NOMINAL_S; so are the
cold starts of setup_s, probed between starts. A change to the package
moves these times as it moves wall time; a change of host speed mostly
cancels. Raw times and the probes are kept in the run record.

``--trace 0`` reports the end-to-end metrics:
  setup_s         median time of COLD_STARTS cold starts (fresh
                  interpreter, import rainbowdisc.cli, build_parser(); the
                  package compiled from source, no bytecode cache)
  req_p50_s       median request time, budget exits included
  req_p90_s       90th percentile of the same
  solved_per_s    requests answered and verified per second of request
                  time (the client's busy time)
  answered_share  requests not ended by the node budget (exit 4 or
                  BudgetExceededError) per request attempted
  peak_rss_mb     ru_maxrss of this process at the end of the loop
``--trace 1`` runs each request twice in a row, untraced and traced (the
order alternates), and reports per-layer metrics from the traced copies
(raw times): per request, the calls, busy_s and self_s of each traced
function; per call, its found_share/ok_share and fail_share; and
trace.overhead_share, the traced copies' time over the untraced copies'
minus one.

``failed`` counts requests that raised an unexpected exception. Every
request's normalized and raw times, the speed probes, the input properties
and, in traced runs, the spans are written to perfbench/out/runs/.

Seed HELD_OUT_SEED was not used while the benchmark was tuned; re-check a
claimed gain on it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("rd-exact", "rd-check", "cubic-chi", "sat-cut")
COLD_STARTS = 15
PROBE_INTERVAL_S = 0.25
NORMALIZE_WINDOW_S = 1.0
REFERENCE_NOMINAL_S = 0.0003
HELD_OUT_SEED = 1000003
CRASH = -1  # exit code recorded for a request that raised unexpectedly


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def verdict_path(workload: str) -> Path:
    return BENCH / "verdicts" / f"{workload}.json"


def load_verdicts(workload: str) -> dict[str, list]:
    path = verdict_path(workload)
    return json.loads(path.read_text()) if path.is_file() else {}


def import_package() -> None:
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "rainbowdisc" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'rainbowdisc'} not found; run from a checkout "
                         "of the repository")
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(10_000)  # the searches recurse once per vertex or edge


class SpeedProbe:
    """Times a fixed reference computation: the oracle of inputs.py on the
    Petersen graph under a 4-coloring that is not proper, so it walks all
    512 bipartitions. Pure Python, like the package, and independent of it.
    ``scale(start, end)`` is REFERENCE_NOMINAL_S over the median reference
    time of the samples within NORMALIZE_WINDOW_S of [start, end] (at least
    the three nearest); times count from ``origin``."""

    def __init__(self) -> None:
        from inputs import first_unseparated_pair
        from rainbowdisc.generators import petersen_graph
        graph = petersen_graph()
        colors = tuple(i * 7 % 4 for i in range(graph.edge_count))
        self.work = lambda: first_unseparated_pair(graph, colors)
        self.origin = perf_counter()
        self.samples: list[tuple[float, float]] = []  # (time, reference time)

    def measure(self) -> None:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self.work()
            times.append(perf_counter() - t0)
        self.samples.append((perf_counter() - self.origin, statistics.median(times)))

    def scale(self, start: float, end: float) -> float:
        at = [t for t, _ in self.samples]
        lo = bisect.bisect_left(at, start - NORMALIZE_WINDOW_S)
        hi = bisect.bisect_right(at, end + NORMALIZE_WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(at, (start + end) / 2)
            lo = max(0, min(mid - 2, len(at) - 3))
            hi = min(len(at), lo + 3)
        return REFERENCE_NOMINAL_S / statistics.median(r for _, r in self.samples[lo:hi])


def cold_starts(work: Path, count: int, speed: SpeedProbe) -> list[tuple[float, float]]:
    """(start, wall time) of ``count`` fresh interpreters that import the CLI
    and build its parser, from a copy of the package that has no bytecode
    cache (and gets none: -B); the host speed is probed between them."""
    copy = work / "coldstart"
    shutil.copytree(SRC / "rainbowdisc", copy / "rainbowdisc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = (f"import sys; sys.path.insert(0, {str(copy)!r}); "
            "import rainbowdisc.cli as c; c.build_parser()")
    samples = []
    for _ in range(count):
        speed.measure()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-I", "-B", "-c", code], cwd=work, check=True,
                       stdout=subprocess.DEVNULL)  # no timeout: its polling adds up to 50 ms
        samples.append((t0 - speed.origin, perf_counter() - t0))
    speed.measure()
    return samples


class Client:
    """Sends one request and times it."""

    def __init__(self) -> None:
        import rainbowdisc.cli
        from rainbowdisc.errors import BudgetExceededError, InvalidInputError
        self.cli = rainbowdisc.cli
        self.budget_error = BudgetExceededError
        self.input_error = InvalidInputError

    def send(self, req) -> tuple[int, str, float]:
        out = io.StringIO()
        text = ""
        try:
            if req.argv is not None:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    t0 = perf_counter()
                    try:
                        code = self.cli.main(req.argv)
                    finally:
                        elapsed = perf_counter() - t0
                text = out.getvalue()
            else:
                t0 = perf_counter()
                try:
                    result = req.call()
                finally:
                    elapsed = perf_counter() - t0
                code, text = 0, json.dumps({"result": result})
        except self.budget_error:
            code = 4
        except self.input_error:
            code = 3
        except Exception as exc:  # a crash is counted as failed, not as an answer
            code, text = CRASH, f"{type(exc).__name__}: {exc}"
        return code, text, elapsed


def judge(req, code: int, text: str, pins: dict[str, list]) -> str:
    """Status of one answer: solved, budget, unverified or crashed. Raises
    WrongAnswer when the answer is wrong."""
    from workloads import WrongAnswer
    if code == CRASH:
        return "crashed"
    if code == 4:
        return "budget"
    try:
        data = json.loads(text) if text.strip() else None
        verified = req.check(code, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise WrongAnswer(f"{req.key}: malformed output ({exc!r})") from None
    pinned = pins.get(req.key)
    if pinned is not None and pinned[0] != 4:
        if req.verdict(code, data) != pinned:
            raise WrongAnswer(f"{req.key}: verdict {req.verdict(code, data)} differs "
                              f"from recorded {pinned}")
        return "solved"
    if pinned is not None and not verified:
        return "unverified"  # answered where the recording commit ran out of budget
    return "solved"


def build(workload: str, seed: int, work: Path) -> list[list]:
    """The run's cycles: each a list of requests, groups shuffled by the seed."""
    from workloads import BUILDERS, CYCLES
    cycles = []
    for c in range(CYCLES[workload]):
        inst = seed * CYCLES[workload] + c
        groups = BUILDERS[workload](inst, work)
        random.Random(f"order-{workload}-{inst}").shuffle(groups)
        cycles.append([req for group in groups for req in group])
    return cycles


def prop(req, name: str) -> bool:
    """An input property of a request; some are computed on first use."""
    value = req.props.get(name, False)
    return bool(value() if callable(value) else value)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_package()
    load_at_start = os.getloadavg()
    from workloads import WrongAnswer

    work = OUT / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cycles = build(args.workload, args.seed, work)
        setup_speed = SpeedProbe()
        starts = cold_starts(work, COLD_STARTS, setup_speed)
        setup_samples = [elapsed * setup_speed.scale(at, at + elapsed) for at, elapsed in starts]
        pins = load_verdicts(args.workload)
        client = Client()
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()

        gc.collect()
        gc.freeze()  # the collector need not rescan the inputs built in set-up
        records = []  # (request, exit code, stdout, seconds, started at)
        untraced_s = traced_s = 0.0
        speed = SpeedProbe()
        loop_start = next_probe = speed.origin
        deadline = loop_start + args.seconds
        turn = 0
        while perf_counter() < deadline:  # whole cycles, so every run sees the same mix
            for req in cycles[turn % len(cycles)]:
                if perf_counter() >= next_probe:
                    speed.measure()
                    next_probe = perf_counter() + PROBE_INTERVAL_S
                started = perf_counter() - loop_start
                if tracer is None:
                    code, text, elapsed = client.send(req)
                    records.append((req, code, text, elapsed, started))
                    continue
                for traced in ((False, True) if len(records) % 2 == 0 else (True, False)):
                    tracer.active, tracer.request = traced, len(records)
                    code, text, elapsed = client.send(req)
                    tracer.active = False
                    if traced:
                        traced_s += elapsed
                        records.append((req, code, text, elapsed, started))
                    else:
                        untraced_s += elapsed
            turn += 1
        speed.measure()
        loop_s = perf_counter() - loop_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        statuses = {}
        try:
            for req, code, text, _, _ in records:
                if (req.key, code, text) not in statuses:
                    statuses[req.key, code, text] = judge(req, code, text, pins)
        except WrongAnswer as exc:
            print(f"error: wrong answer: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": len(records),
                              "failed": 0, "metrics": {}}))
            return 1

        status = [statuses[req.key, code, text] for req, code, text, _, _ in records]
        attempted = len(records)
        counts = {s: status.count(s) for s in ("solved", "budget", "unverified", "crashed")}
        times = [elapsed * speed.scale(at, at + elapsed) for _, _, _, elapsed, at in records]
        if attempted < 100:
            print(f"warning: {attempted} requests; req_p90_s has fewer than 10 samples "
                  "beyond it", file=sys.stderr)
        if tracer is None:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "req_p50_s": (statistics.median(times), "s"),
                "req_p90_s": (statistics.quantiles(times, n=10)[-1]
                              if attempted > 1 else times[0], "s"),
                "solved_per_s": (counts["solved"] / sum(times), "1/s"),
                "answered_share": (1 - (counts["budget"] + counts["crashed"]) / attempted,
                                   "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            layer = tracer.layer_stats(attempted)
            layer["trace.overhead_share"] = traced_s / untraced_s - 1
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec}

        names = sorted({p for req, *_ in records for p in req.props})
        raw = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version, "nproc": os.cpu_count(),
            "loadavg_at_start": load_at_start, "loop_s": loop_s, "cycles": turn,
            "cold_starts_raw_s": starts, "setup_speed_probes": setup_speed.samples,
            "counts": counts, "speed_probes": speed.samples,
            "input_properties": {p: sum(prop(req, p) for req, *_ in records) / attempted
                                 for p in names},
            "requests": [{"key": req.key, "exit": code, "status": st, "raw_s": elapsed,
                          "normalized_s": t, "started_at_s": at}
                         for (req, code, _, elapsed, at), st, t in zip(records, status, times)],
            "metrics": {k: v for k, (v, _) in metrics.items()},
        }
        if tracer is not None:
            raw["untraced_s"], raw["traced_s"] = untraced_s, traced_s
            raw["spans"] = tracer.dump()
        runs = OUT / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (runs / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
         ).write_text(json.dumps(raw))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed={args.seed}: {attempted} requests in {loop_s:.1f} s, "
          + ", ".join(f"{k}={n}" for k, n in counts.items()), file=sys.stderr)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": counts["crashed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
