"""Spans around the package's public functions, installed from outside.

The package binds names with ``from .x import y``, so a wrapper replaces
the function in every module namespace that holds it: ``rd_exact`` then
reaches the wrapped ``is_rainbow_disconnected`` through ``rainbow``'s
globals, and ``rd-check`` through ``cli``'s. Spans are kept in memory and
written out when the run ends. Nothing is recorded while ``active`` is
false, so the untraced half of a traced run and the answer gate run at
full speed through the same wrappers.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from rainbowdisc.errors import BudgetExceededError

# The functions that get a span. The small graph predicates
# (reachable_from, is_rainbow, components, ...) run millions of times inside
# the searches and are left out: wrapping them would trace the tracer.
TRACED = {
    "cli": ("main",),
    "graphs": ("parse_graph", "serialize_graph"),
    "connectivity": ("local_edge_connectivity", "global_edge_connectivity",
                     "upper_edge_connectivity", "gomory_hu"),
    "coloring": ("is_proper", "proper_coloring_delta_plus_one",
                 "find_proper_k_coloring", "chromatic_index_exact"),
    "rainbow": ("find_rainbow_cut_fixed_k", "find_rainbow_cut_exact",
                "is_rainbow_disconnected", "rd_exact", "decide_rd_cubic",
                "split_along_rainbow_cut", "certify_rd3_coloring_proper"),
    "reduction": ("parse_dimacs_cnf", "serialize_dimacs_cnf", "solve_sat_bruteforce",
                  "build_reduction", "build_cut_from_assignment",
                  "extract_assignment_from_cut", "verify_reduction", "reduction_sidecar"),
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload (end-to-end metrics come from untraced runs):
#   cli.main.self_s (argparse, JSON output, file I/O)
#       -> setup_s; req_p50_s on the short requests of rd-check and sat-cut
#   graphs.parse_graph.busy_s, graphs.serialize_graph.busy_s
#       -> req_p50_s on sat-cut (encodings of up to 270 vertices)
#   connectivity.{global_edge_connectivity,upper_edge_connectivity,gomory_hu}.{calls,busy_s}
#       -> req_p50_s on cubic-chi (near zero on rd-exact)
#   coloring.find_proper_k_coloring.{calls,busy_s,found_share,fail_share},
#   coloring.proper_coloring_delta_plus_one.{calls,busy_s}
#       -> answered_share and req_p90_s on cubic-chi
#   rainbow.rd_exact.{self_s,fail_share} (self time is the k-search:
#   bipartition precompute plus coloring DFS)
#       -> req_p90_s, solved_per_s and answered_share on rd-exact
#   rainbow.is_rainbow_disconnected.{calls,busy_s,ok_share},
#   rainbow.find_rainbow_cut_fixed_k.{calls,busy_s,found_share}
#       -> req_p50_s on rd-check and rd-exact
#   rainbow.find_rainbow_cut_exact.{calls,busy_s,found_share,fail_share}
#       -> answered_share and solved_per_s on sat-cut
#   rainbow.certify_rd3_coloring_proper.self_s (the C(m,3) splitting scan),
#   rainbow.split_along_rainbow_cut.calls
#       -> req_p90_s on rd-check; small: the certificate's cost is its
#          all-pairs check, which shows under is_rainbow_disconnected
#   reduction.{build_reduction,solve_sat_bruteforce}.busy_s, reduction.verify_reduction.self_s
#       -> req_p50_s on sat-cut
#   trace.overhead_share is the tracer's own cost and should stay put.

# Span fields, in order.
NAME, REQUEST, PARENT, START, END, CHILD, OUTCOME = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.request = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, self.request, parent, perf_counter(), 0.0, 0.0, "error"]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[OUTCOME] = "yes" if result else "no"
                return result
            except BudgetExceededError:
                span[OUTCOME] = "budget"
                raise
            finally:
                end = perf_counter()
                span[END] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]

        return traced

    def install(self) -> None:
        """Replace each traced function in every loaded rainbowdisc module."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "rainbowdisc" or k.startswith("rainbowdisc."))]
        for short, names in TRACED.items():
            home = sys.modules[f"rainbowdisc.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def layer_stats(self, requests: int) -> dict[str, float]:
        """Per-function totals over the traced requests, divided by their
        number: calls, busy_s (inclusive), self_s (busy minus child spans);
        and per call, the share of useful outcomes (ok_share for the
        ``is_*`` checks, found_share otherwise) and of budget exits
        (fail_share)."""
        acc: dict[str, list[float]] = {}
        for span in self.spans:
            a = acc.setdefault(span[NAME], [0, 0.0, 0.0, 0, 0])
            busy = span[END] - span[START]
            a[0] += 1
            a[1] += busy
            a[2] += busy - span[CHILD]
            a[3] += span[OUTCOME] == "yes"
            a[4] += span[OUTCOME] == "budget"
        out: dict[str, float] = {}
        for short, names in TRACED.items():
            for fn in names:
                calls, busy, own, yes, budget = acc.get(f"{short}.{fn}", [0, 0.0, 0.0, 0, 0])
                prefix = f"{short}.{fn}."
                out[prefix + "calls"] = calls / requests
                out[prefix + "busy_s"] = busy / requests
                out[prefix + "self_s"] = own / requests
                useful = "ok_share" if fn.startswith("is_") else "found_share"
                out[prefix + useful] = yes / calls if calls else 0.0
                out[prefix + "fail_share"] = budget / calls if calls else 0.0
        return out

    def dump(self) -> list[dict]:
        return [{"name": s[NAME], "request": s[REQUEST], "parent": s[PARENT],
                 "start": s[START], "end": s[END], "child_s": s[CHILD],
                 "outcome": s[OUTCOME]} for s in self.spans]
