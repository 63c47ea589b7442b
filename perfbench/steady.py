"""Steadiness check: every workload in two sets of k runs, distinct seeds.

    python3 perfbench/steady.py --k 10     # seeds 2000-2009, then 2010-2019

Each run is the benchmark's own command (``run.py --trace 0``) in a
fresh process; workloads are interleaved seed by seed so slow phases of
the machine fall on all of them alike. For each set it prints, per
workload and end-to-end metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the quartile spread as a share of
the median; for the second set, how far the median moved from the first
in the metric's worse direction. It passes when every run is correct
with no failed op, and every spread and every shift is within the
metric's bound in BENCHMARK.json. Results also go to
``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEED_BASE = 2000


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {}  # (set, workload) -> list of result lines
    started = time.time()
    for s in range(SETS):
        for i in range(args.k):
            seed = SEED_BASE + s * args.k + i
            for w in names:
                t = time.time()
                res = run_once(w, seed, seconds)
                runs.setdefault((s, w), []).append(res)
                print(f"set {s + 1} seed {seed} {w}: {time.time() - t:.1f} s "
                      f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr)

    report = {"k": args.k, "seconds": seconds, "wall_s": time.time() - started, "sets": []}
    ok = True
    for s in range(SETS):
        per_set = {}
        print(f"\n== set {s + 1} ({args.k} runs per workload)")
        for w in names:
            lines = runs[(s, w)]
            failed = sum(line["failed"] for line in lines)
            correct = all(line["correct"] for line in lines)
            ok &= correct and failed == 0
            print(f"{w}: correct={correct} failed={failed}")
            per_set[w] = {"failed": failed, "correct": correct, "metrics": {}}
            for name, m in metrics.items():
                values = [line["metrics"][name]["value"] for line in lines]
                st = summarize(values)
                st["values"] = values
                per_set[w]["metrics"][name] = st
                note = ""
                if st["spread"] > m["bound"]:
                    ok = False
                    note += "  SPREAD>BOUND"
                if s > 0:
                    base = report["sets"][0][w]["metrics"][name]["median"]
                    sign = 1 if m["better"] == "lower" else -1
                    worse = sign * (st["median"] - base) / base
                    st["worse_than_set1"] = worse
                    note += f"  worse_vs_set1={worse:+.3f}"
                    if worse > m["bound"]:
                        ok = False
                        note += " >BOUND"
                print(f"  {name:12s} median={st['median']:.6g} q1={st['q1']:.6g} q3={st['q3']:.6g} "
                      f"spread={st['spread']:.3f} (bound {m['bound']}){note}")
        report["sets"].append(per_set)
    out = ROOT / ".perfbench" / f"steady-{int(started)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\nsteady: {'PASS' if ok else 'FAIL'}  ({out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
