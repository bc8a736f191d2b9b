"""Tests for the perf-report layer (repro.analysis.perfreport)."""

from __future__ import annotations

import json

from repro.analysis.perfreport import BENCH_SCHEMA, PerfRecord, PerfReport


class TestPerfReport:
    def test_add_appends_records(self):
        report = PerfReport()
        record = report.add("experiment:T1", 0.5, runs=7, grid="3x2")
        assert isinstance(record, PerfRecord)
        assert report.records == [record]
        assert record.extra == {"grid": "3x2"}

    def test_to_dict_schema(self):
        report = PerfReport(label="test")
        report.add("a", 1.0, states=10, states_per_second=10.0)
        payload = report.to_dict()
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["label"] == "test"
        assert payload["cpu_count"] >= 1
        (record,) = payload["records"]
        assert record["name"] == "a"
        assert record["states"] == 10

    def test_write_round_trips_as_json(self, tmp_path):
        report = PerfReport()
        report.add("experiment:T1", 0.25, runs=4)
        path = report.write(tmp_path / "perf.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["records"][0]["wall_seconds"] == 0.25

    def test_render_mentions_every_record(self):
        report = PerfReport()
        report.add("experiment:T1", 0.25, runs=4)
        report.add("explore:t2", 0.1, states=10, states_per_second=100.0)
        rendered = report.render()
        assert "experiment:T1" in rendered
        assert "explore:t2" in rendered
        assert "states/s=" in rendered
