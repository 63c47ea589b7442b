"""Spans at the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces each boundary function at every module
global of the package that is bound to that function object, because
``bayes``, ``cli``, ``credal`` and ``oracle`` import these functions by
name. Spans stay in memory (name, start, end, parent, op) and are
written out once, after the traced pass.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from time import perf_counter

BOUNDARIES = (
    "cli.main",
    "model.load_model",
    "campaign.run_campaign",
    "bayes.bounds_report",
    "bayes.posterior_capacity",
    "oracle.verify_theorem",
    "oracle.brute_force_upper",
    "capacity.is_two_alternating",
    "credal.is_core_empty",
    "credal.core_vertices_two_monotone",
    "optim.sup_expectation",
    "optim.inf_expectation",
    "choquet.choquet_upper",
    "choquet.choquet_lower",
)
LP_BOUNDARIES = ("optim.sup_expectation", "optim.inf_expectation")
VERTEX_BOUNDARY = "credal.core_vertices_two_monotone"

# Boundaries that must fire on each workload; a zero count there means
# the workload no longer exercises the layer it is meant to measure.
EXPECTED = {
    "sweep-concave": (
        "cli.main", "model.load_model", "bayes.bounds_report", "bayes.posterior_capacity",
        "capacity.is_two_alternating", "credal.is_core_empty", "optim.sup_expectation",
        "optim.inf_expectation", "choquet.choquet_upper", "choquet.choquet_lower",
    ),
    "update-large-n": (
        "cli.main", "model.load_model", "bayes.bounds_report", "capacity.is_two_alternating",
        "credal.is_core_empty", "optim.sup_expectation", "optim.inf_expectation",
        "choquet.choquet_upper", "choquet.choquet_lower",
    ),
    "campaign-exact": (
        "cli.main", "campaign.run_campaign", "oracle.verify_theorem", "oracle.brute_force_upper",
        "capacity.is_two_alternating", "credal.core_vertices_two_monotone",
        "optim.sup_expectation", "optim.inf_expectation", "choquet.choquet_upper",
        "choquet.choquet_lower",
    ),
    "campaign-float": (
        "cli.main", "campaign.run_campaign", "oracle.verify_theorem", "oracle.brute_force_upper",
        "capacity.is_two_alternating", "credal.core_vertices_two_monotone",
        "optim.sup_expectation", "optim.inf_expectation", "choquet.choquet_upper",
        "choquet.choquet_lower",
    ),
}
EXPECTED_LP_MODE = {
    "sweep-concave": "float",
    "update-large-n": "float",
    "campaign-exact": "exact",
    "campaign-float": "float",
}


class Tracer:
    def __init__(self):
        self.name, self.start, self.end, self.parent, self.op = [], [], [], [], []
        self.stack = []
        self.current_op = -1
        self.lp_mode = {}        # span index -> "float" | "exact"
        self.lp_programs = set()
        self.orderings = 0
        self.vertices = 0
        self._patches = []  # (module, attribute, original, wrapper)

    def _wrap(self, bid: int, fn):
        name = BOUNDARIES[bid]

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(bid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if name in LP_BOUNDARIES:
                c, f = args[0], args[1]
                self.lp_mode[idx] = "exact" if c.exact and f.exact else "float"
                self.lp_programs.add((c.values, f.values, name))
            elif name == VERTEX_BOUNDARY:
                self.orderings += math.factorial(args[0].space.n)
                self.vertices += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if not self._patches:
            modules = [m for key, m in sys.modules.items()
                       if m is not None and (key == "credal_bayes" or key.startswith("credal_bayes."))]
            for bid, dotted in enumerate(BOUNDARIES):
                mod_name, fn_name = dotted.split(".")
                original = getattr(importlib.import_module(f"credal_bayes.{mod_name}"), fn_name)
                wrapper = self._wrap(bid, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def metrics(self) -> dict:
        count = len(self.name)
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls = [0] * len(BOUNDARIES)
        self_s = [0.0] * len(BOUNDARIES)
        lp = {"float": [0, 0.0], "exact": [0, 0.0]}
        for i in range(count):
            own = self.end[i] - self.start[i] - child[i]
            calls[self.name[i]] += 1
            self_s[self.name[i]] += own
            mode = self.lp_mode.get(i)
            if mode is not None:
                lp[mode][0] += 1
                lp[mode][1] += own
        out = {}
        for bid, b in enumerate(BOUNDARIES):
            out[f"{b}.calls"] = (calls[bid], "count")
            out[f"{b}.self_s"] = (self_s[bid], "s")
        for mode in ("float", "exact"):
            out[f"optim.lp_{mode}.calls"] = (lp[mode][0], "count")
            out[f"optim.lp_{mode}.self_s"] = (lp[mode][1], "s")
        lp_calls = lp["float"][0] + lp["exact"][0]
        out["optim.lp_distinct"] = (len(self.lp_programs), "count")
        out["optim.lp_distinct_ratio"] = (len(self.lp_programs) / lp_calls if lp_calls else 1.0, "ratio")
        out["credal.orderings"] = (self.orderings, "count")
        out["credal.vertices"] = (self.vertices, "count")
        return out

    def write(self, path: str) -> None:
        doc = {
            "boundaries": list(BOUNDARIES),
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [self.name, self.start, self.end, self.parent, self.op],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
