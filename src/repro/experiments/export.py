"""Export a channel-sweep series to CSV (``repro sweep --csv``).

The CSV feeds downstream plotting (matplotlib, gnuplot, spreadsheets)
without adding any plotting dependency to the library.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Sequence, Union

PathLike = Union[str, Path]


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

