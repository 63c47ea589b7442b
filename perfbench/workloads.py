"""Seeded op lists for the four workloads.

An op list is built from whole rounds of a fixed class mix, shuffled
with the run's seed, so every run attempts the same kinds of work in the
same proportions and only the numbers differ between seeds. Model-file
workloads draw their inputs here with stdlib ``random``; the campaign
workloads hand a seed to the program's own ``--random`` generator, which
is the path under test, and the seed is only screened so that each
round holds a fixed number of instances per outcome count.

Class mixes are chosen so that the 50th and 90th percentile ranks of
per-op latency fall inside one class, never on the jump between two
classes whose costs differ several-fold (see README.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from random import Random

from checks import envelope_values, worst_local_violation

WORKLOADS = ("sweep-concave", "update-large-n", "campaign-exact", "campaign-float")

# Rounds per run. Fixed, never derived from measured time, so a faster
# commit does the same work in less time. Each run has at least 100 ops,
# so the 90th percentile has ten samples beyond it; the campaign
# workloads take more rounds because their rounds are short. On a 2-core
# machine a run takes 17-38 s, 25 s on average (README.md).
ROUNDS = {
    "sweep-concave": 5,
    "update-large-n": 4,
    "campaign-exact": 6,
    "campaign-float": 24,
}

# Ops per round, by input class.
SWEEP_MIX = {"distortion": 19, "contamination": 1}
LARGE_N_MIX = {"distortion": 17, "envelope": 5, "contamination": 3}
EXACT_MIX = {2: 5, 3: 9, 4: 2, 5: 3, 6: 1}
# The "arbitrary" family is left out: its float Charnes-Cooper oracle
# reports false chain violations (exit 4) on some seeds, see the FOUND
# line in CHANGES.md.
FLOAT_FAMILIES = ("contamination", "distortion")
FLOAT_CAMPAIGN_SIZE = 40
# Instances at n=6 per float campaign, fixed so the dominant cost does
# not wander between seeds. Distortion n=6 instances are the costliest
# class (about 35 ms against 21 ms for contamination); 12 of the 80
# instances in a round put the 90th percentile rank inside that class,
# four ranks from its lower edge, instead of on the edge itself.
FLOAT_N6 = {"contamination": 8, "distortion": 12}
ENVELOPE_VECTORS = 3
ENVELOPE_MIN_VIOLATION = 1e-6


@dataclass
class Op:
    """One CLI invocation and what the checker needs to judge its output."""

    argv: list
    cls: str
    instances: int = 1
    spec: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    warmup: Op
    ops: list
    rounds: int

    @property
    def attempted(self) -> int:
        return sum(op.instances for op in self.ops)


def build(workload: str, seed: int, workdir: str) -> Plan:
    rng = Random(f"{workload}/{seed}")
    rounds = ROUNDS[workload]
    builder = {
        "sweep-concave": _sweep_concave,
        "update-large-n": _update_large_n,
        "campaign-exact": _campaign_exact,
        "campaign-float": _campaign_float,
    }[workload]
    warmup, ops = builder(rng, rounds, workdir)
    # Shuffle within each round: every contiguous round keeps the class
    # mix, so rounds are comparable units of work.
    size = len(ops) // rounds
    for r in range(rounds):
        chunk = ops[r * size:(r + 1) * size]
        rng.shuffle(chunk)
        ops[r * size:(r + 1) * size] = chunk
    return Plan(workload, warmup, ops, rounds)


# ---------------------------------------------------------------------------
# model-file inputs (stdlib random only)
# ---------------------------------------------------------------------------


def _labels(n: int) -> list:
    return [f"w{i}" for i in range(n)]


def _simplex(rng: Random, n: int) -> list:
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    return [x / total for x in raw]


def _band(rng: Random, n: int):
    lo = [rng.uniform(0.05, 1.0) for _ in range(n)]
    hi = [a + rng.uniform(0.0, 0.5) for a in lo]
    return lo, hi


def _event(rng: Random, n: int) -> int:
    full = (1 << n) - 1
    while True:
        mask = sum(1 << i for i in range(n) if rng.random() < 0.5)
        if 0 < mask < full:
            return mask


def _prior(rng: Random, cls: str, n: int):
    """A prior JSON object plus the facts the checker recomputes from."""
    if cls == "contamination":
        p, eps = _simplex(rng, n), rng.uniform(0.05, 0.5)
        return {"kind": "eps-contamination", "p": p, "eps": eps}, {"p": p, "eps": eps}
    if cls == "distortion":
        p, alpha = _simplex(rng, n), rng.uniform(0.3, 0.9)
        return {"kind": "distortion", "p": p, "alpha": alpha}, {"p": p, "alpha": alpha}
    if cls == "envelope":
        # Non-concave by a clear margin, so BoundOnly is the only right
        # diagnosis whatever the tolerance of the program's own test.
        while True:
            vecs = [_simplex(rng, n) for _ in range(ENVELOPE_VECTORS)]
            if worst_local_violation(envelope_values(vecs), n) > ENVELOPE_MIN_VIOLATION:
                return {"kind": "envelope", "vertices": vecs}, {"vertices": vecs}
    raise ValueError(cls)


def _model_op(rng, cls, n, sweep, path) -> Op:
    prior, facts = _prior(rng, cls, n)
    lo, hi = _band(rng, n)
    labels = _labels(n)
    mask = None if sweep else _event(rng, n)
    doc = {
        "version": 1,
        "outcomes": labels,
        "prior": prior,
        "likelihood": {"band": {"lower": lo, "upper": hi}},
        "events": "all" if sweep else [[labels[i] for i in range(n) if mask >> i & 1]],
        "options": {"exact": False},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = ["update", path, "--json"] + (["--sweep"] if sweep else [])
    spec = {"kind": cls, "n": n, "lo": lo, "hi": hi, "event": mask, **facts}
    return Op(argv, cls, 1, spec)


def _model_ops(rng, rounds, workdir, mix, n, sweep):
    ops = []
    for _ in range(rounds):
        for cls, count in mix.items():
            for _ in range(count):
                path = os.path.join(workdir, f"m{len(ops)}.json")
                ops.append(_model_op(rng, cls, n, sweep, path))
    warmup = _model_op(rng, "distortion", n, sweep, os.path.join(workdir, "warmup.json"))
    return warmup, ops


def _sweep_concave(rng, rounds, workdir):
    return _model_ops(rng, rounds, workdir, SWEEP_MIX, 6, sweep=True)


def _update_large_n(rng, rounds, workdir):
    return _model_ops(rng, rounds, workdir, LARGE_N_MIX, 9, sweep=False)


# ---------------------------------------------------------------------------
# campaign inputs (the program's generator, screened by outcome count)
# ---------------------------------------------------------------------------


def _campaign_queries(seed: int, count: int, family: str, exact: bool) -> list:
    """The instances ``verify --random count --seed seed`` will draw."""
    from credal_bayes.campaign import random_query

    gen = Random(seed)
    return [random_query(gen, family, exact) for _ in range(count)]


def _campaign_argv(seed, count, family, exact):
    argv = ["verify", "--random", str(count), "--seed", str(seed), "--family", family]
    return argv + (["--exact"] if exact else []) + ["--json"]


def _exact_instance(rng, n):
    """A seed whose single exact contamination instance has ``n``
    outcomes and 0 < eps < 1. An additive prior (eps = 0, one draw in
    33) has a one-point core and costs a third as much at n >= 5, so one
    such draw would move a whole round."""
    while True:
        seed = rng.randrange(1 << 31)
        (q,) = _campaign_queries(seed, 1, "contamination", True)
        if q.space.n != n:
            continue
        eps = (sum(q.prior.values[1 << i] for i in range(n)) - 1) / (n - 1)
        if 0 < eps < 1:
            return seed, q


def _campaign_exact(rng, rounds, workdir):
    ops = []
    for _ in range(rounds):
        for n, count in EXACT_MIX.items():
            for _ in range(count):
                seed, q = _exact_instance(rng, n)
                argv = _campaign_argv(seed, 1, "contamination", True)
                ops.append(Op(argv, f"n={n}", 1, {"family": "contamination", "exact": True, "queries": [q]}))
    warmup = Op(_campaign_argv(_exact_instance(rng, 3)[0], 1, "contamination", True), "n=3")
    return warmup, ops


def _campaign_float(rng, rounds, workdir):
    ops = []
    for _ in range(rounds):
        for family in FLOAT_FAMILIES:
            while True:
                seed = rng.randrange(1 << 31)
                qs = _campaign_queries(seed, FLOAT_CAMPAIGN_SIZE, family, False)
                if sum(q.space.n == 6 for q in qs) == FLOAT_N6[family]:
                    break
            argv = _campaign_argv(seed, FLOAT_CAMPAIGN_SIZE, family, False)
            spec = {"family": family, "exact": False, "queries": qs}
            ops.append(Op(argv, family, FLOAT_CAMPAIGN_SIZE, spec))
    warmup = Op(_campaign_argv(rng.randrange(1 << 31), 5, "contamination", False), "contamination", 5)
    return warmup, ops
