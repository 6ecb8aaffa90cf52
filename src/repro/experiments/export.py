"""Export experiment results to JSON and CSV.

The figure drivers return nested dictionaries; these helpers persist them
for downstream plotting (matplotlib, gnuplot, spreadsheets) without adding
any plotting dependency to the library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

PathLike = Union[str, Path]


def export_json(result: Dict, path: PathLike) -> None:
    """Write a driver's result dictionary as pretty-printed JSON."""
    Path(path).write_text(json.dumps(result, indent=2, sort_keys=True,
                                     default=_jsonable) + "\n")


def _jsonable(value):
    """JSON fallback for dataclass-like result objects."""
    if hasattr(value, "__dict__"):
        # Reflecting over the instance is this hook's contract, and
        # export sits outside SIM013's compile hot set.
        return vars(value)  # sim-lint: ignore[SIM013]
    raise TypeError(f"cannot serialise {type(value).__name__}")


def export_series_csv(series: Dict[str, Sequence[float]],
                      axis: Sequence, path: PathLike,
                      axis_name: str = "channels") -> None:
    """Write a channels-sweep result (``{series: [values]}``) as CSV.

    One row per axis point, one column per series -- the layout the paper's
    grouped bar charts use.
    """
    names = list(series)
    for name in names:
        if len(series[name]) != len(axis):
            raise ValueError(
                f"series {name!r} has {len(series[name])} points for "
                f"{len(axis)} axis values")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([axis_name] + names)
        for index, axis_value in enumerate(axis):
            writer.writerow([axis_value]
                            + [series[name][index] for name in names])


def export_per_mix_csv(per_mix: Dict[str, Dict], path: PathLike,
                       columns: Sequence[str] | None = None) -> None:
    """Write a per-mix result (``{mix: {metric: value}}``) as CSV."""
    if not per_mix:
        raise ValueError("nothing to export")
    rows: List[Dict] = []
    for mix, metrics in per_mix.items():
        if not isinstance(metrics, dict):
            metrics = {"value": metrics}
        rows.append({"mix": mix, **metrics})
    if columns is None:
        columns = [key for key in rows[0] if key != "mix"
                   and not hasattr(rows[0][key], "__dict__")]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["mix"] + list(columns))
        for row in rows:
            writer.writerow([row["mix"]] + [row.get(c, "") for c in columns])


def load_json(path: PathLike) -> Dict:
    """Read back a previously exported JSON result."""
    return json.loads(Path(path).read_text())
