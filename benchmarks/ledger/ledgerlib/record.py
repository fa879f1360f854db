"""The ledger record: metric tables, aggregation, schema and ``compare``.

Two clocks, never mixed: a metric named ``sim_*`` is in *simulated*
seconds (what the modelled cluster would take; exact for a seed),
everything else is *host* time or memory (what the simulator costs;
noisy, so reported as the median over reps).
"""

from __future__ import annotations

import hashlib
import re
import statistics
from typing import Any, Dict, List, Optional, Sequence

from ledgerlib import layers
from ledgerlib.common import mean, percentile

SCHEMA = 1
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: End-to-end metrics: name -> (unit, better, bound used by ``compare``).
#: These bounds are for two records of the *same seed*, where simulated
#: statistics repeat exactly; ``BENCHMARK.json`` carries the wider bounds
#: the across-seed driver protocol needs.
END_TO_END = {
    "wall_s": ("s", "lower", 0.10),
    "ops_per_s": ("1/s", "higher", 0.10),
    "setup_s": ("s", "lower", 0.10),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "sim_mean_s": ("s", "lower", 0.01),
    "sim_p95_s": ("s", "lower", 0.01),
    "sim_append_mean_s": ("s", "lower", 0.01),
    "sim_append_p95_s": ("s", "lower", 0.01),
    "failed_frac": ("ratio", "lower", 0.0),
}
#: Host metrics a rep measures itself, reported as the median over reps
#: (``ops_per_s`` is derived per rep and treated the same way).
PER_REP = ("wall_s", "setup_s", "peak_rss_mb")
#: ``setup_s`` differences below this many seconds are ties.
SETUP_TIE_S = 0.25

def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name.endswith(("self_s", "cum_s", "total_s")):
        return "s"
    if name.endswith(("_frac", "_rate")):
        return "ratio"
    if name == "sim.us_per_event":
        return "us"
    return "count"


def end_to_end(reps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the untraced reps of one workload into its end-to-end block.

    Host metrics are medians over reps.  Each rep replays its own
    sub-trace of the seed, so simulated statistics are taken over the
    pooled samples of all reps, in rep order.
    """
    block: Dict[str, Any] = {}
    per_rep = {name: [rep[name] for rep in reps] for name in PER_REP}
    per_rep["ops_per_s"] = [
        (rep["attempted"] - rep["failed"]) / rep["wall_s"] for rep in reps]
    for name, values in per_rep.items():
        block[name] = {"value": statistics.median(values), "reps": values}
    reads = [x for rep in reps for x in rep["latencies"]]
    appends = [x for rep in reps for x in rep["append_latencies"] or ()]
    block["sim_mean_s"] = {"value": mean(reads), "n": len(reads)}
    block["sim_p95_s"] = {"value": percentile(reads, 0.95), "n": len(reads)}
    block["sim_append_mean_s"] = {
        "value": mean(appends) if appends else None, "n": len(appends)}
    block["sim_append_p95_s"] = {
        "value": percentile(appends, 0.95) if appends else None,
        "n": len(appends)}
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    block["failed_frac"] = {"value": failed / attempted, "n": attempted}
    for name, entry in block.items():
        entry["unit"] = END_TO_END[name][0]
    return {name: block[name] for name in END_TO_END}


def pooled_digest(reps: Sequence[Dict[str, Any]]) -> str:
    return hashlib.sha256("".join(r["digest"] for r in reps).encode()).hexdigest()


def validate(record: Dict[str, Any]) -> List[str]:
    """Schema problems of a ledger record (empty when it is well formed)."""
    problems = []
    for key in ("schema", "commit", "python", "platform", "nproc", "seed",
                "reps", "scale", "comparable", "workloads", "checks"):
        if key not in record:
            problems.append(f"missing top-level key {key!r}")
    if record.get("schema") != SCHEMA:
        problems.append(f"schema is {record.get('schema')!r}, expected {SCHEMA}")
    wanted_layers = set(layers.per_layer_names())
    for name, block in record.get("workloads", {}).items():
        if not NAME_RE.match(name):
            problems.append(f"bad workload name {name!r}")
        for key in ("constants", "end_to_end", "per_layer", "digest",
                    "checks", "missing"):
            if key not in block:
                problems.append(f"{name}: missing {key!r}")
        if set(block.get("end_to_end", {})) != set(END_TO_END):
            problems.append(f"{name}: end-to-end metrics differ from the table")
        if set(block.get("per_layer", {})) != wanted_layers:
            problems.append(f"{name}: per-layer metrics differ from the table")
        for metric in list(block.get("end_to_end", {})) + list(block.get("per_layer", {})):
            if not NAME_RE.match(metric):
                problems.append(f"{name}: bad metric name {metric!r}")
    return problems


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def verdict(name: str, base: Dict[str, Any], head: Dict[str, Any]) -> Dict[str, Any]:
    """One (workload, end-to-end metric) row of ``compare``.

    ``ratio`` is head over base.  With per-rep values on both sides the
    reps are paired (rep *k* replays the same sub-trace in both records)
    and the ratio is the median of the paired ratios; the row is
    *unresolved* when those ratios spread, min to max, wider than the
    bound and do not all land on one verdict.  ``None`` values (a metric
    the workload does not report) are skipped.
    """
    _, better, bound = END_TO_END[name]
    b, h = base.get("value"), head.get("value")
    row = {"metric": name, "base": b, "head": h, "bound": bound,
           "ratio": None, "spread": None, "verdict": "skipped"}
    if b is None or h is None:
        return row
    if name == "failed_frac":
        row["verdict"] = (
            "regressed" if h > b else "improved" if h < b else "unchanged")
        return row
    ratios = [h / b] if b else [float("inf")]
    if "reps" in base and "reps" in head and len(base["reps"]) == len(head["reps"]):
        ratios = [y / x for x, y in zip(base["reps"], head["reps"])]

    def classify(ratio: float) -> str:
        worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
        if worse > bound:
            return "regressed"
        return "improved" if worse < -bound else "unchanged"

    ratio = statistics.median(ratios)
    spread = max(ratios) - min(ratios)
    row.update(ratio=ratio, spread=spread)
    if name == "setup_s" and abs(h - b) < SETUP_TIE_S:
        row["verdict"] = "unchanged"
    elif spread > bound and len({classify(r) for r in ratios}) > 1:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = classify(ratio)
    return row


def compare(base: Dict[str, Any], head: Dict[str, Any]) -> Dict[str, Any]:
    """Row-per-metric comparison of two ledger records."""
    for side, record in (("base", base), ("head", head)):
        if not record.get("comparable", False):
            raise ValueError(
                f"the {side} record is stamped non-comparable "
                f"(scale {record.get('scale')}); only --scale 1 records compare")
    if base["seed"] != head["seed"]:
        raise ValueError(
            f"records of different seeds ({base['seed']} and {head['seed']}) "
            "offer different load; compare records of one seed")
    out: Dict[str, Any] = {}
    for workload in base["workloads"]:
        if workload not in head["workloads"]:
            continue
        b, h = base["workloads"][workload], head["workloads"][workload]
        layer_rows = []
        for metric, before in b["per_layer"].items():
            after = h["per_layer"].get(metric)
            if before != after:
                layer_rows.append({"metric": metric, "base": before, "head": after})
        out[workload] = {
            "rows": [verdict(m, b["end_to_end"][m], h["end_to_end"][m])
                     for m in END_TO_END],
            "per_layer": layer_rows,
            "digest": "same" if b["digest"] == h["digest"] else "different",
        }
    return out


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.4g}"


def render_compare(result: Dict[str, Any]) -> str:
    lines = []
    for workload, block in result.items():
        lines.append(f"== {workload}  (digest {block['digest']})")
        lines.append(
            f"  {'metric':<20}{'base':>12}{'head':>12}{'head/base':>11}"
            f"{'bound':>8}  verdict")
        for row in block["rows"]:
            lines.append(
                f"  {row['metric']:<20}{_fmt(row['base']):>12}"
                f"{_fmt(row['head']):>12}{_fmt(row['ratio']):>11}"
                f"{row['bound']:>8.2f}  {row['verdict']}")
        lines.append("  per-layer deltas (base -> head):")
        for row in block["per_layer"]:
            base, head = row["base"], row["head"]
            ratio = (f"  x{head / base:.3f} of base"
                     if base and head is not None else "")
            lines.append(
                f"    {row['metric']:<44}{_fmt(base):>12} -> {_fmt(head):<12}{ratio}")
        if not block["per_layer"]:
            lines.append("    (none)")
    return "\n".join(lines)


def render_table(record: Dict[str, Any]) -> str:
    """Markdown table of a record's end-to-end block (README baseline)."""
    names = list(record["workloads"])
    head = "| metric | unit | " + " | ".join(f"`{n}`" for n in names) + " |"
    rule = "|---|---|" + "---:|" * len(names)
    lines = [head, rule]
    for metric, (unit, _, _) in END_TO_END.items():
        cells = []
        for name in names:
            entry = record["workloads"][name]["end_to_end"][metric]
            cells.append(_fmt(entry["value"]))
        lines.append(f"| `{metric}` | {unit} | " + " | ".join(cells) + " |")
    for metric in ("sim.events", "sim.us_per_event", "trace.overhead_frac"):
        cells = [_fmt(record["workloads"][n]["per_layer"][metric]) for n in names]
        lines.append(f"| `{metric}` | {unit_of(metric)} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
