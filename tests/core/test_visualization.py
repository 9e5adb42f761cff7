"""Tests for the visualization/CSV output component."""

import csv

import pytest

from repro.reporting.text import (
    ascii_boxplot,
    ascii_timeseries,
    format_table,
    write_csv_rows,
    write_csv_series,
)


class TestAsciiBoxplot:
    def test_contains_labels_and_medians(self):
        out = ascii_boxplot(
            [("vanilla", [10.0, 20.0, 30.0]), ("papermc", [5.0, 6.0, 7.0])]
        )
        assert "vanilla" in out
        assert "papermc" in out
        assert "med 20.0" in out

    def test_empty_input(self):
        assert ascii_boxplot([]) == "(no data)"

    def test_scale_line_present(self):
        out = ascii_boxplot([("a", [1.0, 2.0])], lo=0.0, hi=10.0)
        assert "scale: 0.0 .. 10.0" in out

    def test_box_between_whiskers(self):
        out = ascii_boxplot([("a", list(range(100)))], width=40)
        row = out.splitlines()[0]
        assert "=" in row and "|" in row and "-" in row

    def test_whisker_stops_at_tukey_fence(self):
        # p25 = p75 = 10 in both series, so both fences sit at 10: neither
        # the 10 000 ms outlier nor b's p95 of 60 ms draws a whisker, and
        # nothing is drawn right of column 10.
        out = ascii_boxplot(
            [("a", [10.0] * 50 + [10_000.0]), ("b", [10.0] * 45 + [60.0] * 6)],
            width=101,
            lo=0.0,
            hi=100.0,
        )
        for line in out.splitlines()[:2]:
            bar = line[2 : 2 + 101]
            assert bar[10] == "|"
            assert bar[11:].strip() == ""


class TestAsciiTimeseries:
    def test_peak_reported(self):
        out = ascii_timeseries([1.0, 2.0, 50.0, 3.0], width=4)
        assert "peak 50.0" in out

    def test_empty(self):
        assert ascii_timeseries([]) == "(no data)"

    def test_downsampling_width(self):
        out = ascii_timeseries(list(range(1000)), width=50)
        body = out.split("  (peak")[0]
        assert len(body) <= 51


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out


class TestCsvWriters:
    def test_series_roundtrip(self, tmp_path):
        path = write_csv_series(tmp_path / "s.csv", "tick_ms", [1.5, 2.5])
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "tick_ms"]
        assert rows[1] == ["0", "1.5"]
        assert rows[2] == ["1", "2.5"]

    def test_rows_roundtrip(self, tmp_path):
        path = write_csv_rows(
            tmp_path / "r.csv", ["a", "b"], [[1, "x"], [2, "y"]]
        )
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "x"], ["2", "y"]]

    def test_nested_directories_created(self, tmp_path):
        path = write_csv_series(tmp_path / "a" / "b" / "s.csv", "v", [1.0])
        assert path.exists()
