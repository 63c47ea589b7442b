"""Batch command line front end.

Three subcommands:

* ``update``  - posterior bounds per event of a model file
* ``verify``  - oracle-checked verification, single model or random campaign
* ``iterate`` - fold a sequence of likelihood sets through the update

Exit codes: 0 success, 1 the reader closed standard output early,
2 validation error, 3 undefined ratio (the event is named), 4 chain
violation or lost concavity. All output is deterministic given the
model, flags and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._numeric import encode_number
from .bayes import EqualityDiagnosis, bounds_report, posterior_capacity
from .capacity import conjugate, is_two_alternating
from .campaign import FAMILIES, run_campaign
from .credal import MAX_VERTEX_OUTCOMES, is_core_empty
from .errors import (
    ChainViolation,
    CredalBayesError,
    InfeasibleCore,
    ModelError,
    SwitchVectorMissing,
    UndefinedRatio,
)
from .model import capacity_to_json, load_model, load_observations
from .oracle import verify_theorem

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_UNDEFINED = 3
EXIT_VIOLATION = 4


def _fmt(x) -> str:
    return f"{float(x):.6g}"


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = [max(len(c), *(len(r[c]) for r in rows)) if rows else len(c) for c in columns]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(r[c].ljust(w) for c, w in zip(columns, widths)))


def _event_name(space, mask: int) -> str:
    labels = space.event_key(mask)
    return "{" + labels + "}"


def cmd_update(args) -> int:
    model = load_model(args.model)
    masks = model.event_masks(sweep=args.sweep)
    if is_core_empty(model.prior):
        raise InfeasibleCore("the prior core is empty; no posterior exists")

    reports = bounds_report(model.prior, model.likelihoods, masks)

    posterior = None
    # A sweep covers every event; the posterior sweep is valid exactly when
    # bounds_report proves every one of them.
    proven = EqualityDiagnosis.PROVEN_EQUAL
    if args.sweep and all(r.equality_diagnosis is proven for r in reports):
        posterior = posterior_capacity(model.prior, model.likelihoods)

    if args.json:
        payload = {
            "version": 1,
            "command": "update",
            "events": [r.to_json() for r in reports],
            "posterior": None if posterior is None else capacity_to_json(posterior),
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            {
                "event": _event_name(model.space, r.event),
                "lower": _fmt(r.lower_vertex),
                "upper": _fmt(r.bound_vertex),
                "diagnosis": r.equality_diagnosis.value,
                "c": _fmt(r.c_value),
                "c_prime": _fmt(r.c_prime_value),
            }
            for r in reports
        ]
        _print_table(rows, ["event", "lower", "upper", "diagnosis", "c", "c_prime"])
    return EXIT_OK


def cmd_verify(args) -> int:
    emit = (lambda rec: print(json.dumps(rec))) if args.json else None
    if args.random is not None:
        if args.random < 1:
            raise ModelError("$", "--random needs a positive count")
        try:
            summary = run_campaign(
                count=args.random,
                seed=args.seed,
                family=args.family,
                exact=args.exact,
                on_record=emit,
            )
        except ValueError as ex:
            raise ModelError("$", str(ex))
        _print_summary(summary.to_json(), args.json)
        return EXIT_OK

    if args.model is None:
        raise ModelError("$", "verify needs a model path or --random N")
    model = load_model(args.model)
    masks = model.event_masks()
    # The oracle walks the core's vertices only for 2-alternating priors.
    n = model.space.n
    if n > MAX_VERTEX_OUTCOMES and is_two_alternating(model.prior):
        raise ModelError(
            "$.outcomes",
            f"the oracle's vertex enumeration on a 2-alternating prior "
            f"needs n <= {MAX_VERTEX_OUTCOMES}, got {n}",
        )
    reports = verify_theorem(model.prior, model.likelihoods, masks)
    counts: dict[str, int] = {}
    max_gap = 0.0
    for report in reports:
        counts[report.equality_diagnosis.value] = (
            counts.get(report.equality_diagnosis.value, 0) + 1
        )
        max_gap = max(max_gap, abs(float(report.bound_vertex - report.oracle)))
        if emit:
            emit(report.to_json())
    summary = {
        "events": len(masks),
        "diagnosis_counts": dict(sorted(counts.items())),
        "max_abs_gap_oracle_vertex": max_gap,
        "violations": 0,
    }
    _print_summary(summary, args.json)
    return EXIT_OK


def _print_summary(summary: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"summary": summary}))
        return
    for key, value in summary.items():
        print(f"{key}: {value}")


def _dump_violation(ex: ChainViolation) -> None:
    print(f"chain violation: {ex}", file=sys.stderr)
    print(json.dumps(ex.details, indent=2, default=str), file=sys.stderr)


def cmd_iterate(args) -> int:
    model = load_model(args.model)
    steps = load_observations(args.observations, model.space, model.exact)

    watched = model.event_masks()
    current = model.prior
    records = []

    def snapshot(step: int, cap) -> None:
        conj = conjugate(cap)
        for mask in watched:
            records.append(
                {
                    "step": step,
                    "event": _event_name(model.space, mask),
                    "lower": conj.values[mask],
                    "upper": cap.values[mask],
                }
            )

    snapshot(0, current)
    for step, lik in enumerate(steps, start=1):
        try:
            current = posterior_capacity(current, lik)
        except SwitchVectorMissing as ex:
            raise ModelError(f"$.observations[{step - 1}]", str(ex)) from ex
        verdict = is_two_alternating(current)
        if not verdict:
            a, b = verdict.witness
            print(
                f"concavity lost at step {step}: witness events "
                f"{_event_name(model.space, a)} / {_event_name(model.space, b)}",
                file=sys.stderr,
            )
            print(json.dumps(capacity_to_json(current), indent=2), file=sys.stderr)
            return EXIT_VIOLATION
        snapshot(step, current)

    if args.json:
        payload = {
            "version": 1,
            "command": "iterate",
            "steps": len(steps),
            "trajectory": [
                {**r, "lower": encode_number(r["lower"]), "upper": encode_number(r["upper"])}
                for r in records
            ],
            "final": capacity_to_json(current),
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            {
                "step": str(r["step"]),
                "event": r["event"],
                "lower": _fmt(r["lower"]),
                "upper": _fmt(r["upper"]),
            }
            for r in records
        ]
        _print_table(rows, ["step", "event", "lower", "upper"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credal-bayes",
        description="Posterior upper/lower probability bounds on finite outcome spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_update = sub.add_parser("update", help="posterior bounds per event")
    p_update.add_argument("model", help="model JSON path")
    p_update.add_argument("--json", action="store_true", help="machine-readable output")
    p_update.add_argument("--sweep", action="store_true", help="all 2^n events")
    p_update.set_defaults(fn=cmd_update)

    p_verify = sub.add_parser("verify", help="oracle-checked verification")
    p_verify.add_argument("model", nargs="?", help="model JSON path")
    p_verify.add_argument("--random", type=int, default=None, metavar="N",
                          help="run a random campaign of N instances")
    p_verify.add_argument("--seed", type=int, default=0, metavar="S")
    p_verify.add_argument("--family", choices=FAMILIES, default="contamination")
    p_verify.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_iter = sub.add_parser("iterate", help="fold a likelihood sequence")
    p_iter.add_argument("model", help="model JSON path")
    p_iter.add_argument("observations", help="observations JSON path")
    p_iter.add_argument("--json", action="store_true")
    p_iter.set_defaults(fn=cmd_iterate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except ModelError as ex:
        print(f"validation error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    except UndefinedRatio as ex:
        print(f"undefined ratio: {ex}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ChainViolation as ex:
        _dump_violation(ex)
        return EXIT_VIOLATION
    except CredalBayesError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # The reader is gone (``| head``). Point stdout at devnull so the
        # interpreter's flush at exit does not fail on the pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
