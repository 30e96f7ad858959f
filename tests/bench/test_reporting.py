"""Tests for table rendering."""

from repro.bench.reporting import format_table


class TestFormatTable:
    def test_contains_title_headers_rows(self):
        text = format_table(
            "My Table", ["a", "bb"], [(1, 2.5), (10, 0.125)]
        )
        assert "My Table" in text
        assert "a" in text and "bb" in text
        assert "2.500" in text and "0.125" in text

    def test_columns_aligned(self):
        text = format_table("T", ["col"], [(1,), (100,)])
        lines = text.splitlines()
        data_lines = lines[3:]
        assert len(set(len(line) for line in data_lines)) == 1

    def test_empty_rows_ok(self):
        text = format_table("T", ["x"], [])
        assert "T" in text
