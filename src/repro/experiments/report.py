"""ASCII rendering of experiment results.

Each ``render_figureN`` function takes the corresponding
:mod:`repro.experiments.figures` result dict and returns a table string
shaped like the paper's figure — normalized bars become rows, sweeps
become columns — so a terminal diff against EXPERIMENTS.md is easy.
"""

from __future__ import annotations

from typing import Sequence


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_figure4(result: dict) -> str:
    """Fig. 4: normalized completion times, one row per scheme."""
    rows = []
    for scheme, stats in result["schemes"].items():
        low, high = stats["mean_ci"]
        rows.append(
            [
                scheme,
                f"{stats['mean_s']:.2f}",
                f"{stats['mean_normalized']:.2f}x",
                f"[{low:.2f}, {high:.2f}]",
                f"{stats['p95_s']:.2f}",
                f"{stats['p95_normalized']:.2f}x",
            ]
        )
    header = (
        f"Figure 4 — locality {result['locality']}, λ={result['rate']}\n"
    )
    return header + _table(
        ["scheme", "avg (s)", "avg norm", "avg 95% CI", "p95 (s)", "p95 norm"],
        rows,
    )


def render_figure5(result: dict) -> str:
    """Fig. 5: normalized averages across the four locality groups."""
    groups = result["groups"]
    schemes = list(next(iter(groups.values())).keys())
    rows = []
    for scheme in schemes:
        row = [scheme]
        for label in groups:
            row.append(f"{groups[label][scheme]['mean_normalized']:.2f}x")
        rows.append(row)
    p95_rows = []
    for scheme in schemes:
        row = [scheme]
        for label in groups:
            row.append(f"{groups[label][scheme]['p95_normalized']:.2f}x")
        p95_rows.append(row)
    headers = ["scheme (avg norm)"] + list(groups)
    headers95 = ["scheme (p95 norm)"] + list(groups)
    return (
        "Figure 5 — client locality sweep (normalized to Mayflower)\n"
        + _table(headers, rows)
        + "\n\n"
        + _table(headers95, p95_rows)
    )


def render_figure6(result: dict) -> str:
    """Fig. 6: mean completion time vs λ, one panel per locality."""
    out = []
    for panel, data in result["panels"].items():
        curves = data["curves"]
        rates = sorted({r for c in curves.values() for r in c})
        rows = []
        for scheme, points in curves.items():
            row = [scheme]
            for rate in rates:
                point = points.get(rate)
                row.append("sat." if point is None else f"{point['mean_s']:.2f}")
            rows.append(row)
        out.append(
            f"Figure 6{panel} — locality {data['locality']} (mean seconds; "
            "'sat.' = saturated)\n"
            + _table(["scheme \\ λ"] + [f"{r:g}" for r in rates], rows)
        )
        p95_rows = []
        for scheme, points in curves.items():
            row = [scheme]
            for rate in rates:
                point = points.get(rate)
                row.append("sat." if point is None else f"{point['p95_s']:.2f}")
            p95_rows.append(row)
        out.append(
            _table(["scheme \\ λ (p95)"] + [f"{r:g}" for r in rates], p95_rows)
        )
    return "\n\n".join(out)


def render_figure7(result: dict) -> str:
    """Fig. 7: completion vs oversubscription for the best two schemes."""
    curves = result["curves"]
    ratios = sorted({r for c in curves.values() for r in c})
    rows = []
    for scheme, points in curves.items():
        rows.append(
            [scheme + " avg"]
            + [f"{points[r]['mean_s']:.2f}" for r in ratios]
        )
        rows.append(
            [scheme + " p95"]
            + [f"{points[r]['p95_s']:.2f}" for r in ratios]
        )
    return (
        f"Figure 7 — oversubscription sweep, locality {result['locality']} (seconds)\n"
        + _table(["scheme \\ oversub"] + [f"{r:g}:1" for r in ratios], rows)
    )


def render_figure8(result: dict) -> str:
    """Fig. 8: prototype (full DFS stack) vs HDFS."""
    curves = result["curves"]
    rates = sorted({r for c in curves.values() for r in c})
    rows = []
    for scheme, points in curves.items():
        rows.append(
            [scheme + " avg"] + [f"{points[r]['mean_s']:.2f}" for r in rates]
        )
        rows.append(
            [scheme + " p95"] + [f"{points[r]['p95_s']:.2f}" for r in rates]
        )
    return (
        "Figure 8 — prototype comparison, full DFS stack (seconds)\n"
        + _table(["scheme \\ λ"] + [f"{r:g}" for r in rates], rows)
    )


def render_multireplica(result: dict) -> str:
    """§4.3 ablation table."""
    res = result["results"]
    rows = [
        ["split reads", f"{res['split']['mean_s']:.2f}",
         f"{res['split']['p95_s']:.2f}", str(res["split"]["split_jobs"])],
        ["single flow", f"{res['single']['mean_s']:.2f}",
         f"{res['single']['p95_s']:.2f}", str(res["single"]["split_jobs"])],
    ]
    return (
        "§4.3 — multi-replica split reads "
        f"(avg improvement {100 * res['improvement']:.1f}%)\n"
        + _table(["config", "avg (s)", "p95 (s)", "jobs split"], rows)
    )
