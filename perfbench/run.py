"""Benchmark of the credal-bayes posterior-bound pipeline.

    python3 perfbench/run.py --workload sweep-concave --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each run compiles the package's bytecode, then starts
one single-threaded worker process (``worker.py``) that builds the
seeded inputs, runs them and checks the outputs. Fresh interpreters that
only import the package are timed ``SETUP_PROBES`` times before the
worker and as many times after it. The last line of stdout is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from a
separate traced pass with ``--trace 1``.

Each workload runs a fixed number of rounds (``workloads.ROUNDS``), so
``--seconds`` is accepted for the common benchmark interface but does
not change the work: a faster commit does the same work in less time.

Exit status: 0 with a result (``correct`` may still be false), 2 when
the checkout holds no package source, 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench"
SETUP_PROBES = 4  # before the worker, and again after it
WORKER_TIMEOUT_S = 160

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import credal_bayes.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CREDAL_BAYES_THREADS", None)
    env.pop("PYTHONPYCACHEPREFIX", None)  # bytecode lives next to the source
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def compile_bytecode(env) -> None:
    """Compile before any timing so setup_s never includes compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "credal_bayes"), str(HERE)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def setup_probe(env) -> float:
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_worker(workload, seed, trace, env) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--outdir", str(OUTDIR),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=str(ROOT))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, trace) -> dict:
    env = worker_env()
    OUTDIR.mkdir(exist_ok=True)
    compile_bytecode(env)
    # Probes on both sides of the worker sample the machine's speed at
    # the start and the end of the run, not in one short window.
    probes = [setup_probe(env) for _ in range(SETUP_PROBES)]
    res = run_worker(workload, seed, trace, env)
    probes += [setup_probe(env) for _ in range(SETUP_PROBES)]
    res["setup_samples"] = probes + [res["phases"]["import_s"]]
    res["setup_s"] = statistics.median(res["setup_samples"])
    return res


def result_line(res, trace) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layer"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25, help="accepted; the work per run is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "credal_bayes" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'credal_bayes'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            res = measure(name, args.seed, args.trace)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as ex:
            print(f"{name}: {ex}", file=sys.stderr)
            return 1
        for err in res["errors"]:
            print(f"{name}: check failed: {err}", file=sys.stderr)
        line = result_line(res, args.trace)
        lines.append((name, line))
        if args.workload == "all":
            print(f"{name}: correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']}")
            for metric, mv in line["metrics"].items():
                print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
    if args.workload != "all":
        print(json.dumps(lines[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
