"""Independent checks of the program's outputs.

Nothing here imports the package or compares against a stored copy of
earlier output: every expected value is recomputed from the inputs with
the benchmark's own arithmetic (closed forms, its own layer-cake Choquet
integral, its own precise Bayes ratio and its own 2-alternation test).

Each check is a function ``(record, ctx) -> error message or None``. A
check that applies to a record is listed with a corruption that it must
reject; ``selftest`` applies each corruption to a record the check
passed and reports the checks that failed to notice.
"""

from __future__ import annotations

import copy
from fractions import Fraction

FLOAT_TOL = 1e-9     # optimization comparisons, as the program documents
FLOAT_EQ = 1e-12     # identities the program computes literally
NUDGE = 1e-6
CONCAVE_KINDS = ("contamination", "distortion")


def num(x, exact: bool):
    return Fraction(x) if exact else float(x)


def enc(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def nudge(x, exact: bool):
    step = Fraction(1, 10**6) if exact else NUDGE
    return enc(num(x, exact) + step)


# ---------------------------------------------------------------------------
# arithmetic of the benchmark's own
# ---------------------------------------------------------------------------


def mass_table(p) -> list:
    n = len(p)
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = (m & -m).bit_length() - 1
        table[m] = table[m & (m - 1)] + p[low]
    return table


def contamination_values(p, eps) -> list:
    vals = [min(1.0, (1 - eps) * t + eps) for t in mass_table(p)]
    vals[0], vals[-1] = 0.0, 1.0
    return vals


def distortion_values(p, alpha) -> list:
    vals = [min(1.0, t ** alpha) for t in mass_table(p)]
    vals[0], vals[-1] = 0.0, 1.0
    return vals


def envelope_values(vectors) -> list:
    """Upper envelope ``A -> max_k p_k(A)`` of probability vectors."""
    tables = [mass_table(v) for v in vectors]
    vals = [max(t[m] for t in tables) for m in range(len(tables[0]))]
    vals[0], vals[-1] = 0.0, 1.0
    return vals


def conjugate(cap) -> list:
    full = len(cap) - 1
    return [1 - cap[full ^ m] for m in range(len(cap))]


def choquet(cap, f):
    """Sum over outcomes sorted by value of the drop to the next value
    times the capacity of the prefix; tied values add zero-width layers."""
    order = sorted(range(len(f)), key=lambda i: -f[i])
    total, mask = 0, 0
    for k, i in enumerate(order):
        mask |= 1 << i
        nxt = f[order[k + 1]] if k + 1 < len(order) else 0
        total += (f[i] - nxt) * cap[mask]
    return total


def restrict(f, mask):
    return [v if mask >> i & 1 else 0 * v for i, v in enumerate(f)]


def choquet_bound(cap, conj, hi, lo, mask):
    full = len(cap) - 1
    c = choquet(cap, restrict(hi, mask))
    d = choquet(conj, restrict(lo, full ^ mask))
    return c / (c + d)


def contamination_bound(w, eps, hi, lo, mask):
    """Closed form N/(N+D) with N = sum_A hi (1-eps)p + eps max_A hi and
    D = sum_{A^c} lo (1-eps)p + eps min of lo on A^c (0 unless A is empty);
    ``w`` is (1-eps)p."""
    n = len(w)
    inside = [i for i in range(n) if mask >> i & 1]
    outside = [i for i in range(n) if not mask >> i & 1]
    big = sum(hi[i] * w[i] for i in inside) + (eps * max(hi[i] for i in inside) if inside else 0)
    small = sum(lo[i] * w[i] for i in outside) + (eps * min(lo) if not inside else 0)
    return big / (big + small)


def precise_posterior(p, lik, mask):
    num_, den = 0, 0
    for i in range(len(p)):
        x = lik[i] * p[i]
        den += x
        if mask >> i & 1:
            num_ += x
    return num_ / den


def bang_bang(hi, lo, mask):
    return [hi[i] if mask >> i & 1 else lo[i] for i in range(len(hi))]


def worst_local_violation(values: list, n: int) -> float:
    """Largest c(A+i+j) + c(A) - c(A+i) - c(A+j) over i != j outside A.

    Positive means the set function is not 2-alternating; the local form
    is equivalent to the sweep over all pairs (A, B) and costs O(n^2 2^n).
    """
    worst = -float("inf")
    for a in range(1 << n):
        free = [1 << i for i in range(n) if not a >> i & 1]
        for x in range(len(free)):
            for y in range(x + 1, len(free)):
                bi, bj = free[x], free[y]
                gap = values[a | bi | bj] + values[a] - values[a | bi] - values[a | bj]
                worst = max(worst, gap)
    return worst


def event_mask(key: str, index: dict) -> int:
    return 0 if key == "" else sum(1 << index[lab] for lab in key.split(","))


# ---------------------------------------------------------------------------
# per-record checks
# ---------------------------------------------------------------------------


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


def chk_closed_form(rec, ctx):
    ex, tol = ctx["exact"], ctx["tol"]
    full = len(ctx["cap"]) - 1
    want = contamination_bound(ctx["w"], ctx["eps"], ctx["hi"], ctx["lo"], ctx["mask"])
    for key in ("upper_vertex", "upper_choquet"):
        if not _close(num(rec[key], ex), want, tol):
            return f"{key} {rec[key]} != closed form {want}"
    want_low = 1 - contamination_bound(ctx["w"], ctx["eps"], ctx["hi"], ctx["lo"], full ^ ctx["mask"])
    if not _close(num(rec["lower_vertex"], ex), want_low, tol):
        return f"lower_vertex {rec['lower_vertex']} != 1 - closed form of complement {want_low}"
    return None


def chk_choquet(rec, ctx):
    ex, tol = ctx["exact"], ctx["tol"]
    cap, conj, hi, lo, mask = ctx["cap"], ctx["conj"], ctx["hi"], ctx["lo"], ctx["mask"]
    want = choquet_bound(cap, conj, hi, lo, mask)
    if not _close(num(rec["upper_choquet"], ex), want, tol):
        return f"upper_choquet {rec['upper_choquet']} != own layer-cake bound {want}"
    want_low = 1 - choquet_bound(cap, conj, hi, lo, (len(cap) - 1) ^ mask)
    if not _close(num(rec["lower_choquet"], ex), want_low, tol):
        return f"lower_choquet {rec['lower_choquet']} != 1 - own bound of complement {want_low}"
    return None


def chk_concave_equal(rec, ctx):
    ex, tol = ctx["exact"], ctx["tol"]
    if rec["diagnosis"] != "ProvenEqual":
        return f"concave prior with a band likelihood diagnosed {rec['diagnosis']}"
    pairs = [("upper_vertex", "upper_choquet"), ("lower_vertex", "lower_choquet")]
    if rec.get("oracle") is not None:
        pairs += [("upper_vertex", "oracle"), ("lower_vertex", "lower_oracle")]
    for a, b in pairs:
        if not _close(num(rec[a], ex), num(rec[b], ex), tol):
            return f"{a} {rec[a]} != {b} {rec[b]} for a concave prior"
    return None


def chk_conjugacy(rec, ctx):
    ex = ctx["exact"]
    tol = 0 if ex else FLOAT_EQ
    other = ctx["by_mask"][(len(ctx["cap"]) - 1) ^ ctx["mask"]]
    for low, up in (("lower_vertex", "upper_vertex"), ("lower_choquet", "upper_choquet")):
        if not _close(num(rec[low], ex), 1 - num(other[up], ex), tol):
            return f"{low} {rec[low]} != 1 - {up} of the complement {other[up]}"
    return None


def chk_chain(rec, ctx):
    ex, tol = ctx["exact"], ctx["tol"]
    v = {k: num(rec[k], ex) for k in ("upper_vertex", "upper_choquet", "lower_vertex", "lower_choquet")}
    if v["upper_vertex"] > v["upper_choquet"] + tol:
        return "vertex bound above the Choquet bound"
    if v["lower_choquet"] > v["lower_vertex"] + tol:
        return "lower Choquet bound above the lower vertex bound"
    if rec.get("oracle") is not None:
        if num(rec["oracle"], ex) > v["upper_vertex"] + tol:
            return "oracle above the vertex bound"
        if v["lower_vertex"] > num(rec["lower_oracle"], ex) + tol:
            return "lower vertex bound above the lower oracle"
    return None


def chk_core_member(rec, ctx):
    """The reported achieving prior lies in the core on every event."""
    ex = ctx["exact"]
    tol = 0 if ex else FLOAT_TOL
    p = [num(x, ex) for x in rec["achieving_prior"]]
    if len(p) != ctx["n"] or min(p) < -tol or not _close(sum(p), 1, tol):
        return f"achieving prior {rec['achieving_prior']} is not a probability vector"
    cap = ctx["cap"]
    for m, mass in enumerate(mass_table(p)):
        if mass > cap[m] + tol:
            return f"achieving prior puts {mass} on event {m} whose capacity is {cap[m]}"
    return None


def chk_attainment(rec, ctx):
    """The sup-side optimizer attains the numerator of the vertex bound."""
    p = [float(x) for x in rec["achieving_prior"]]
    got = sum(h * x for h, x in zip(restrict(ctx["hi"], ctx["mask"]), p))
    want = float(rec["upper_vertex"]) * float(rec["c"])
    if not _close(got, want, FLOAT_TOL):
        return f"achieving prior gives numerator {got}, bound implies {want}"
    return None


def chk_envelope_precise(rec, ctx):
    hi, lo, mask = ctx["hi"], ctx["lo"], ctx["mask"]
    up_lik = bang_bang(hi, lo, mask)
    low_lik = bang_bang(lo, hi, mask)
    for k, p in enumerate(ctx["vertices"]):
        if float(rec["upper_vertex"]) < precise_posterior(p, up_lik, mask) - FLOAT_TOL:
            return f"upper vertex bound below the precise posterior at generating vector {k}"
        if float(rec["lower_vertex"]) > precise_posterior(p, low_lik, mask) + FLOAT_TOL:
            return f"lower vertex bound above the precise posterior at generating vector {k}"
    return None


def chk_diagnosis(rec, ctx):
    if rec["diagnosis"] != ctx["diagnosis"]:
        return f"diagnosis {rec['diagnosis']}, expected {ctx['diagnosis']}"
    return None


def chk_oracle_ratio(rec, ctx):
    """The precise Bayes ratio at the reported achieving pair is the oracle."""
    ex = ctx["exact"]
    p = [num(x, ex) for x in rec["achieving_prior"]]
    lik = [num(x, ex) for x in rec["achieving_likelihood"]]
    if lik != bang_bang(ctx["hi"], ctx["lo"], ctx["mask"]):
        return "achieving likelihood is not the upper envelope on A, lower elsewhere"
    got = precise_posterior(p, lik, ctx["mask"])
    if not _close(got, num(rec["oracle"], ex), 0 if ex else FLOAT_EQ):
        return f"precise ratio {got} at the achieving pair != oracle {rec['oracle']}"
    return None


def _corrupt_field(key):
    def corrupt(rec, ctx):
        rec[key] = nudge(rec[key], ctx["exact"])
    return corrupt


def _corrupt_chain(rec, ctx):
    rec["upper_vertex"] = nudge(rec["upper_choquet"], ctx["exact"])


def _corrupt_prior(rec, ctx):
    rec["achieving_prior"][0] = nudge(rec["achieving_prior"][0], ctx["exact"])


def _corrupt_envelope(rec, ctx):
    lik = bang_bang(ctx["hi"], ctx["lo"], ctx["mask"])
    best = max(precise_posterior(p, lik, ctx["mask"]) for p in ctx["vertices"])
    rec["upper_vertex"] = best - NUDGE


def _corrupt_diagnosis(rec, ctx):
    rec["diagnosis"] = "ProvenEqual" if rec["diagnosis"] != "ProvenEqual" else "BoundOnly"


RECORD_CHECKS = {
    "closed_form": (chk_closed_form, _corrupt_field("upper_vertex")),
    "choquet": (chk_choquet, _corrupt_field("upper_choquet")),
    "concave_equal": (chk_concave_equal, _corrupt_diagnosis),
    "conjugacy": (chk_conjugacy, _corrupt_field("lower_vertex")),
    "chain": (chk_chain, _corrupt_chain),
    "core_member": (chk_core_member, _corrupt_prior),
    "attainment": (chk_attainment, _corrupt_field("upper_vertex")),
    "envelope_precise": (chk_envelope_precise, _corrupt_envelope),
    "diagnosis": (chk_diagnosis, _corrupt_diagnosis),
    "oracle_ratio": (chk_oracle_ratio, _corrupt_field("oracle")),
}


# ---------------------------------------------------------------------------
# whole-output checks
# ---------------------------------------------------------------------------


def chk_events_listed(payload, ctx):
    masks = [event_mask(r["event"], ctx["index"]) for r in payload["events"]]
    want = list(range(1 << ctx["n"])) if ctx["event"] is None else [ctx["event"]]
    if sorted(masks) != want:
        return f"output lists events {sorted(masks)[:8]}..., expected {want[:8]}..."
    return None


def _corrupt_events(payload, ctx):
    payload["events"].pop()


def chk_posterior_matches(payload, ctx):
    post = payload.get("posterior")
    if post is None:
        return "a concave prior with a band likelihood got no posterior capacity"
    for rec in payload["events"]:
        key = rec["event"]
        if key not in post["values"]:
            return f"posterior capacity lacks event {key!r}"
        if not _close(float(post["values"][key]), float(rec["upper_vertex"]), FLOAT_TOL):
            return f"posterior value at {key!r} differs from that event's upper bound"
    return None


def chk_posterior_capacity(payload, ctx):
    """Normalised, monotone and 2-alternating, by the benchmark's own test."""
    post = payload.get("posterior")
    if post is None:
        return "no posterior capacity"
    index = {lab: i for i, lab in enumerate(post["outcomes"])}
    values = [0.0] * (1 << len(index))
    for key, v in post["values"].items():
        values[event_mask(key, index)] = float(v)
    if values[0] != 0 or values[-1] != 1:
        return "posterior capacity is not normalised"
    for m in range(1, len(values)):
        for i in range(len(index)):
            if m >> i & 1 and values[m ^ (1 << i)] > values[m] + FLOAT_TOL:
                return f"posterior capacity decreases into event {m}"
    gap = worst_local_violation(values, len(index))
    if gap > FLOAT_TOL:
        return f"posterior capacity is not 2-alternating (worst local gap {gap:.3g})"
    return None


def _corrupt_posterior_value(payload, ctx):
    key = payload["events"][len(payload["events"]) // 2]["event"]
    payload["posterior"]["values"][key] = nudge(payload["posterior"]["values"][key], False)


def _corrupt_posterior_convex(payload, ctx):
    """Replace the posterior by p(A)^2 for uniform p: monotone, normalised,
    strictly supermodular, so only the 2-alternation test can reject it."""
    post = payload["posterior"]
    index = {lab: i for i, lab in enumerate(post["outcomes"])}
    n = len(index)
    for key in post["values"]:
        post["values"][key] = (bin(event_mask(key, index)).count("1") / n) ** 2


def chk_summary(result, ctx):
    records, summary = result["records"], result["summary"]
    count = ctx["count"]
    if summary is None:
        return "campaign printed no summary"
    if summary.get("violations") != 0 or summary.get("count") != count:
        return f"campaign summary reports {summary.get('violations')} violations over {summary.get('count')} instances"
    if [r.get("instance") for r in records] != list(range(count)):
        return "campaign records do not cover every instance once, in order"
    if sum(summary.get("diagnosis_counts", {}).values()) != count:
        return "campaign diagnosis counts do not add up to the instance count"
    return None


def _corrupt_summary(result, ctx):
    result["summary"]["violations"] = 1


OUTPUT_CHECKS = {
    "events_listed": (chk_events_listed, _corrupt_events),
    "posterior_matches": (chk_posterior_matches, _corrupt_posterior_value),
    "posterior_capacity": (chk_posterior_capacity, _corrupt_posterior_convex),
    "summary": (chk_summary, _corrupt_summary),
}


# ---------------------------------------------------------------------------
# contexts: what each check recomputes from
# ---------------------------------------------------------------------------


def _model_prior(spec) -> list:
    kind = spec["kind"]
    if kind == "contamination":
        return contamination_values(spec["p"], spec["eps"])
    if kind == "distortion":
        return distortion_values(spec["p"], spec["alpha"])
    return envelope_values(spec["vertices"])


def model_contexts(spec, payload):
    """(record, ctx, check names) for each event of an ``update`` output."""
    n = spec["n"]
    cap = _model_prior(spec)
    base = {
        "n": n, "exact": False, "tol": FLOAT_TOL, "cap": cap, "conj": conjugate(cap),
        "hi": spec["hi"], "lo": spec["lo"],
    }
    kind = spec["kind"]
    names = ["choquet", "chain", "core_member", "attainment"]
    if kind in CONCAVE_KINDS:
        names.append("concave_equal")
    if kind == "contamination":
        base["w"] = [(1 - spec["eps"]) * x for x in spec["p"]]
        base["eps"] = spec["eps"]
        names.append("closed_form")
    if kind == "envelope":
        base["vertices"] = spec["vertices"]
        base["diagnosis"] = "BoundOnly"
        names += ["envelope_precise", "diagnosis"]
    index = {f"w{i}": i for i in range(n)}
    by_mask = {event_mask(r["event"], index): r for r in payload["events"]}
    sweep = spec["event"] is None
    if sweep:
        names.append("conjugacy")
        base["by_mask"] = by_mask
    out = []
    for mask, rec in by_mask.items():
        out.append((rec, {**base, "mask": mask}, names))
    return out


def campaign_contexts(spec, records):
    exact = spec["exact"]
    tol = 0 if exact else FLOAT_TOL
    out = []
    for rec, q in zip(records, spec["queries"]):
        n = q.space.n
        cap = list(q.prior.values)
        hi, lo = list(q.likelihoods.upper.values), list(q.likelihoods.lower.values)
        index = {lab: i for i, lab in enumerate(q.space.labels)}
        ctx = {
            "n": n, "exact": exact, "tol": tol, "cap": cap, "conj": conjugate(cap),
            "hi": hi, "lo": lo, "mask": q.event,
        }
        if len(rec["achieving_prior"]) != n or event_mask(rec["event"], index) != q.event:
            out.append((rec, ctx, None))  # regenerated instance does not match
            continue
        # Both campaign families are concave (the non-concave one is left
        # out of the workloads), so ProvenEqual is the only right diagnosis.
        names = ["choquet", "chain", "core_member", "oracle_ratio", "concave_equal"]
        if spec["family"] == "contamination":
            eps = (sum(cap[1 << i] for i in range(n)) - 1) / (n - 1)
            ctx["eps"] = eps
            ctx["w"] = [cap[1 << i] - eps for i in range(n)]
            names.append("closed_form")
        out.append((rec, ctx, names))
    return out


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def run_checks(items):
    """items: (kind, subject, ctx, names); kind is "record" or "output".
    Returns error strings, at most a few per check name."""
    errors, seen = [], {}
    for kind, subject, ctx, names in items:
        if names is None:
            errors.append("campaign instance regenerated from the seed does not match the record")
            continue
        table = RECORD_CHECKS if kind == "record" else OUTPUT_CHECKS
        for name in names:
            msg = table[name][0](subject, ctx)
            if msg is not None:
                seen[name] = seen.get(name, 0) + 1
                if seen[name] <= 3:
                    errors.append(f"{name}: {msg}")
    return errors


def selftest(items):
    """Corrupt one passing subject per check; list the checks that let
    their corruption through."""
    done, failures = set(), []
    for kind, subject, ctx, names in items:
        if names is None:
            continue
        table = RECORD_CHECKS if kind == "record" else OUTPUT_CHECKS
        for name in names:
            if name in done:
                continue
            check, corrupt = table[name]
            if check(subject, ctx) is not None:
                continue
            bad = copy.deepcopy(subject)
            corrupt(bad, ctx)
            if check(bad, ctx) is None:
                failures.append(f"{name}: accepted a corrupted output")
            done.add(name)
    return failures

