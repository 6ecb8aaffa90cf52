"""Terminal bar charts for experiment output.

The paper's figures are bar charts; these helpers render the same series as
unicode bars so `python -m repro figure fig1` visually resembles Fig. 1
without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, Optional

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(value: float, scale: float, width: int) -> str:
    """Render ``value`` as a bar of at most ``width`` character cells."""
    if scale <= 0:
        return ""
    cells = max(0.0, value / scale) * width
    full = int(cells)
    remainder = cells - full
    partial = _BLOCKS[int(remainder * (len(_BLOCKS) - 1))]
    return ("█" * full + partial).rstrip()[:width]


def bar_chart(values: Dict[str, float], title: str = "",
              width: int = 48, reference: Optional[float] = None) -> str:
    """One bar per labelled value; ``reference`` draws a marker column
    (e.g. 1.0 for normalized speedups)."""
    if not values:
        return ""
    label_width = max(len(label) for label in values)
    peak = max(list(values.values())
               + ([reference] if reference is not None else []))
    lines = []
    if title:
        lines.append(title)
    for label, value in values.items():
        bar = _bar(value, peak, width)
        if reference is not None and peak > 0:
            marker = min(width - 1, int(min(1.0, reference / peak) * width))
            padded = list(bar.ljust(width))
            if 0 <= marker < width and padded[marker] == " ":
                padded[marker] = "|"
            bar = "".join(padded).rstrip()
        lines.append(f"{label.ljust(label_width)}  {value:7.3f}  {bar}")
    return "\n".join(lines)

