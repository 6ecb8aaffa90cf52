"""Tests for the terminal bar-chart renderer."""

from __future__ import annotations

from repro.experiments.ascii_chart import bar_chart


class TestBarChart:
    def test_empty(self):
        assert bar_chart({}) == ""

    def test_proportional_lengths(self):
        text = bar_chart({"a": 1.0, "b": 2.0}, width=40)
        line_a, line_b = text.splitlines()
        assert line_b.count("█") > line_a.count("█")

    def test_title_first_line(self):
        text = bar_chart({"a": 1.0}, title="hello")
        assert text.splitlines()[0] == "hello"

    def test_values_printed(self):
        text = bar_chart({"scheme": 0.832})
        assert "0.832" in text

    def test_reference_marker_beyond_bars(self):
        text = bar_chart({"a": 0.5}, reference=1.0, width=20)
        assert "|" in text

    def test_zero_values_no_crash(self):
        text = bar_chart({"a": 0.0, "b": 0.0}, reference=1.0)
        assert "a" in text and "b" in text

    def test_labels_aligned(self):
        text = bar_chart({"x": 1.0, "longer": 1.0})
        lines = text.splitlines()
        assert lines[0].index("1.000") == lines[1].index("1.000")

