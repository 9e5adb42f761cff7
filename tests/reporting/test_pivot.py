"""Pivot engine: grouping, aggregation, and the shared text renderers."""

import pytest

from repro.reporting.pivot import aggregate, build_pivot
from repro.reporting.text import format_table
from repro.reporting.spec import PivotSpec


def rows():
    out = []
    for server in ("vanilla", "papermc"):
        for workload in ("control", "farm"):
            for iteration in range(2):
                out.append(
                    {
                        "server": server,
                        "workload": workload,
                        "iteration": iteration,
                        "tick_p99_ms": {
                            ("vanilla", "control"): 10.0,
                            ("vanilla", "farm"): 20.0,
                            ("papermc", "control"): 5.0,
                            ("papermc", "farm"): 8.0,
                        }[(server, workload)]
                        + iteration,
                        "crashed": server == "vanilla" and workload == "farm",
                    }
                )
    return out


class TestAggregate:
    def test_all_aggregates(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert aggregate("mean", values) == 2.5
        assert aggregate("median", values) == 2.5
        assert aggregate("median", [3.0, 1.0, 2.0]) == 2.0
        assert aggregate("min", values) == 1.0
        assert aggregate("max", values) == 4.0
        assert aggregate("sum", values) == 10.0
        assert aggregate("count", values) == 4.0
        assert aggregate("std", [2.0, 2.0]) == 0.0

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            aggregate("p99", [1.0])


class TestBuildPivot:
    def test_groups_sort_and_aggregate(self):
        table = build_pivot(
            rows(),
            PivotSpec(value="tick_p99_ms", agg="mean", decimals=1),
        )
        assert table.headers() == ["server", "control", "farm"]
        # Row keys sort deterministically (papermc < vanilla).
        assert table.rows() == [
            ["papermc", "5.5", "8.5"],
            ["vanilla", "10.5", "20.5"],
        ]

    def test_missing_cells_render_dash(self):
        data = [
            {"server": "vanilla", "workload": "control", "isr": 0.5},
            {"server": "papermc", "workload": "farm", "isr": 0.25},
        ]
        table = build_pivot(data, PivotSpec(value="isr"))
        assert table.rows() == [
            ["papermc", "-", "0.250"],
            ["vanilla", "0.500", "-"],
        ]

    def test_bools_aggregate_as_rates(self):
        table = build_pivot(
            rows(),
            PivotSpec(value="crashed", agg="mean", decimals=2,
                      cols=()),
        )
        assert table.headers() == ["server", "all"]
        assert table.rows() == [["papermc", "0.00"], ["vanilla", "0.50"]]

    def test_rows_without_the_metric_are_counted_not_crashed(self):
        data = [{"server": "vanilla", "workload": "control"}] * 3
        table = build_pivot(data, PivotSpec(value="isr"))
        assert table.dropped_rows == 3
        assert table.rows() == []

    def test_ascii_and_csv_share_the_text_code_path(self, tmp_path):
        table = build_pivot(rows(), PivotSpec(value="tick_p99_ms"))
        ascii_out = format_table(table.headers(), table.rows())
        assert "control" in ascii_out and "vanilla" in ascii_out
        csv_path = tmp_path / "pivot.csv"
        table.write_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "server,control,farm"
        assert len(lines) == 3

    def test_html_escapes_and_marks_numeric_cells(self):
        data = [{"server": "<x>", "workload": "w", "isr": 1.0}]
        html = build_pivot(data, PivotSpec(value="isr")).to_html()
        assert "&lt;x&gt;" in html
        assert '<td class="num">1.000</td>' in html
