"""Terminal charts for sweep results (no plotting dependencies).

The paper's Figs. 6–8 are line charts; these helpers render comparable
ASCII charts so a terminal user can see curve *shapes* (growth, gaps,
crossovers) without matplotlib:

* :func:`ascii_line_chart` — multi-series line chart over a shared x-grid;
* :func:`ascii_bar_chart` — horizontal bars (the Fig. 4/5 normalized view).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

_MARKERS = "ox+*#@%&"


def ascii_bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Horizontal bar chart; one row per labelled value.

    Bars scale to the maximum value; labels align; values print at the
    bar ends.
    """
    if not values:
        raise ValueError("no values to chart")
    peak = max(values.values())
    if peak <= 0:
        raise ValueError("bar chart needs at least one positive value")
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "█" * max(1, round(width * value / peak)) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.2f}{unit}")
    return "\n".join(lines)


def ascii_line_chart(
    series: Mapping[str, Mapping[float, Optional[float]]],
    width: int = 60,
    height: int = 16,
    title: Optional[str] = None,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Multi-series line chart on a character grid.

    ``series`` maps a name to {x: y}; ``None`` y-values (saturated runs)
    are skipped.  Each series gets a marker from a fixed cycle; a legend
    is appended.  Both axes are linear.
    """
    points = [
        (x, y)
        for curve in series.values()
        for x, y in curve.items()
        if y is not None
    ]
    if not points:
        raise ValueError("no points to chart")
    xs = sorted({x for x, _ in points})
    y_max = max(y for _, y in points)
    y_min = 0.0
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, marker: str) -> None:
        col = round((x - x_min) / x_span * (width - 1))
        row = height - 1 - round((y - y_min) / y_span * (height - 1))
        grid[row][col] = marker

    legend = []
    for i, (name, curve) in enumerate(series.items()):
        marker = _MARKERS[i % len(_MARKERS)]
        legend.append(f"{marker} = {name}")
        for x, y in sorted(curve.items()):
            if y is not None:
                plot(x, y, marker)

    lines = [title] if title else []
    axis_width = 8
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_max:7.1f} "
        elif row_index == height - 1:
            label = f"{y_min:7.1f} "
        else:
            label = " " * axis_width
        lines.append(label + "|" + "".join(row))
    lines.append(" " * axis_width + "+" + "-" * width)
    x_axis = (
        " " * (axis_width + 1)
        + f"{x_min:g}".ljust(width - len(f"{x_max:g}"))
        + f"{x_max:g}"
    )
    lines.append(x_axis)
    if x_label or y_label:
        lines.append(" " * (axis_width + 1) + f"x: {x_label}   y: {y_label}".rstrip())
    lines.append(" " * (axis_width + 1) + "   ".join(legend))
    return "\n".join(lines)


def chart_figure6_panel(panel: dict, metric: str = "mean_s") -> str:
    """Render one Fig. 6 panel's curves as an ASCII line chart."""
    series: Dict[str, Dict[float, Optional[float]]] = {}
    for scheme, points in panel["curves"].items():
        series[scheme] = {
            rate: (point[metric] if point is not None else None)
            for rate, point in points.items()
        }
    return ascii_line_chart(
        series,
        title=f"completion time vs λ — locality {panel['locality']}",
        x_label="λ (jobs/s per server)",
        y_label="seconds",
    )


def chart_figure4(result: dict) -> str:
    """Render Fig. 4's normalized means as an ASCII bar chart."""
    values = {
        scheme: stats["mean_normalized"]
        for scheme, stats in result["schemes"].items()
    }
    return ascii_bar_chart(
        values,
        unit="x",
        title=f"avg completion normalized to Mayflower — locality {result['locality']}",
    )
