"""One benchmark run in a fresh, single-threaded process.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH`` and
the BLAS thread variables set to 1. It imports the package (timed),
builds the seeded op list and runs one untimed warm-up op. With
``--trace 0`` it then times the op list; with ``--trace 1`` it runs the
same op list with spans recorded at every layer boundary instead. Either
way the outputs then go through the independent checks and their
self-tests. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

_t0 = perf_counter()
import credal_bayes.cli as cli  # noqa: E402  (the import is what setup_s times)

IMPORT_S = perf_counter() - _t0

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import EXPECTED, EXPECTED_LP_MODE, Tracer  # noqa: E402


class LineSink:
    """Stands in for stdout: keeps the text and stamps each line end."""

    def __init__(self):
        self.parts = []
        self.stamps = []

    def write(self, s: str) -> int:
        self.parts.append(s)
        if "\n" in s:
            now = perf_counter()
            self.stamps.extend([now] * s.count("\n"))
        return len(s)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def run_op(op):
    """Run one CLI invocation; returns (ok, text, per-instance latencies)."""
    sink = LineSink()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(op.argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        return False, sink.text(), []
    end = perf_counter()
    if code != 0:
        print(f"op {op.argv} exited {code}", file=sys.stderr)
        return False, sink.text(), []
    if op.argv[0] == "update":
        return True, sink.text(), [end - start]
    # Campaign: one --json line per instance, then the summary line.
    stamps = sink.stamps[: op.instances]
    if len(sink.stamps) != op.instances + 1:
        print(f"op {op.argv} printed {len(sink.stamps)} lines", file=sys.stderr)
        return False, sink.text(), []
    lat = [b - a for a, b in zip([start] + stamps[:-1], stamps)]
    return True, sink.text(), lat


def timed_pass(plan):
    """Returns outputs (None for a failed op), all per-instance latencies
    and, per round, the ops per second and the median latency."""
    gc.collect()
    outputs, latencies, rates, medians = [], [], [], []
    size = len(plan.ops) // plan.rounds
    for r in range(plan.rounds):
        start, done, round_lat = perf_counter(), 0, []
        for op in plan.ops[r * size:(r + 1) * size]:
            ok, text, lat = run_op(op)
            outputs.append(text if ok else None)
            round_lat += lat
            done += op.instances if ok else 0
        rates.append(done / (perf_counter() - start))
        if round_lat:  # a round whose every op failed has no latency
            medians.append(statistics.median(round_lat))
        latencies += round_lat
    return outputs, latencies, rates, medians


def traced_pass(plan, tracer, paired):
    """Every op runs traced. The first ``paired`` ops also run untraced,
    back to back with their traced run and in alternating order, so the
    tracing overhead is measured on equal work at the same moment."""
    gc.collect()
    outputs, mismatched = [], 0
    spent = {True: 0.0, False: 0.0}
    for k, op in enumerate(plan.ops):
        tracer.current_op = k
        order = (True,) if k >= paired else ((False, True) if k % 2 == 0 else (True, False))
        texts = {}
        for traced in order:
            if traced:
                tracer.install()
            start = perf_counter()
            ok, text, _ = run_op(op)
            if k < paired:
                spent[traced] += perf_counter() - start
            if traced:
                tracer.uninstall()
            texts[traced] = text if ok else None
        if len(texts) == 2 and texts[False] != texts[True]:
            mismatched += 1
        outputs.append(texts[True])
    return outputs, mismatched, spent[True] / spent[False]


def check_items(plan, outputs):
    """(kind, subject, ctx, check names) for every output of the pass."""
    items = []
    for op, text in zip(plan.ops, outputs):
        if text is None:
            continue
        if op.argv[0] == "update":
            payload = json.loads(text)
            spec = op.spec
            index = {f"w{i}": i for i in range(spec["n"])}
            names = ["events_listed"]
            if spec["event"] is None:
                names += ["posterior_matches", "posterior_capacity"]
            items.append(("output", payload, {"n": spec["n"], "event": spec["event"], "index": index}, names))
            for rec, ctx, rnames in checks.model_contexts(spec, payload):
                items.append(("record", rec, ctx, rnames))
        else:
            lines = [json.loads(line) for line in text.splitlines()]
            records, summary = lines[:-1], lines[-1].get("summary")
            result = {"records": records, "summary": summary}
            items.append(("output", result, {"count": op.instances}, ["summary"]))
            for rec, ctx, rnames in checks.campaign_contexts(op.spec, records):
                items.append(("record", rec, ctx, rnames))
    return items


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    workdir = os.path.join(args.outdir, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    phases = {"import_s": IMPORT_S}
    try:
        mark = perf_counter()
        plan = workloads.build(args.workload, args.seed, workdir)
        warm_ok = run_op(plan.warmup)[0]
        phases["build_s"] = perf_counter() - mark
        result = {"attempted": plan.attempted, "rounds": plan.rounds, "phases": phases}
        errors = [] if warm_ok else ["warm-up op failed"]

        if args.trace:
            tracer = Tracer()
            # A quarter of the rounds (at least one) also run untraced.
            paired = max(1, plan.rounds // 4) * (len(plan.ops) // plan.rounds)
            outputs, mismatched, overhead = traced_pass(plan, tracer, paired)
            if mismatched:
                errors.append(f"{mismatched} ops printed different output traced and untraced")
            layer = tracer.metrics()
            for name in EXPECTED[args.workload]:
                if layer[f"{name}.calls"][0] == 0:
                    errors.append(f"boundary {name} never called on {args.workload}")
            mode = EXPECTED_LP_MODE[args.workload]
            if layer[f"optim.lp_{mode}.calls"][0] == 0:
                errors.append(f"no {mode} LP calls on {args.workload}")
            layer["trace.ops"] = (plan.attempted, "count")
            layer["trace.overhead"] = (overhead, "ratio")
            result["layer"] = layer
            tracer.write(os.path.join(args.outdir, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            mark = perf_counter()
            outputs, latencies, rates, medians = timed_pass(plan)
            phases["timed_s"] = perf_counter() - mark
            result.update({
                # Throughput and median are medians over rounds of equal
                # make-up, so a slow phase of a shared machine that covers
                # a minority of rounds does not move them. The 90th
                # percentile needs every op of the run (at least 100).
                "ops_per_s": statistics.median(rates),
                "op_p50_ms": 1e3 * statistics.median(medians),
                "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="exclusive")[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })

        # A failed op (an exception or a nonzero exit, such as a campaign's
        # chain violation) leaves no output to check, so it is an error
        # of its own.
        failed_ops = [op for op, text in zip(plan.ops, outputs) if text is None]
        failed = sum(op.instances for op in failed_ops)
        errors += [f"op failed: {' '.join(op.argv)}" for op in failed_ops]

        mark = perf_counter()
        try:
            items = check_items(plan, outputs)
            errors += checks.run_checks(items)
            errors += checks.selftest(items)
        except Exception:  # malformed output must fail the run, not crash it
            traceback.print_exc()
            errors.append("checker could not read the program's output")
        phases["check_s"] = perf_counter() - mark
        result.update({"failed": failed, "errors": errors, "correct": not errors})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
