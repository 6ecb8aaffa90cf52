"""Tests for the channel-sweep CSV export."""

from __future__ import annotations

import csv

import pytest

from repro.experiments.export import export_series_csv


class TestSeriesCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "fig1.csv"
        export_series_csv({"berti": [0.8, 1.0], "ipcp": [0.7, 0.9]},
                          axis=[1, 16], path=path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["channels", "berti", "ipcp"]
        assert rows[1] == ["1", "0.8", "0.7"]
        assert rows[2] == ["16", "1.0", "0.9"]

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="points"):
            export_series_csv({"a": [1.0]}, axis=[1, 2],
                              path=tmp_path / "x.csv")

