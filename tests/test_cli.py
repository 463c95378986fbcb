"""The CLI surface and result export formats."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.base import ExperimentResult


@pytest.fixture
def sample_result():
    return ExperimentResult(
        experiment_id="fig01",
        title="Sample",
        headers=["month", "value"],
        rows=[["2022-01", 5], ["2022-02", 7]],
        notes=["a note"],
    )


class TestExports:
    def test_to_records(self, sample_result):
        records = sample_result.to_records()
        assert records[0] == {"month": "2022-01", "value": 5}

    def test_to_json_roundtrip(self, sample_result):
        payload = json.loads(sample_result.to_json())
        assert payload["experiment_id"] == "fig01"
        assert payload["rows"][1] == ["2022-02", 7]
        assert payload["notes"] == ["a note"]

    def test_to_csv(self, sample_result):
        lines = sample_result.to_csv().strip().splitlines()
        assert lines[0] == "month,value"
        assert lines[1] == "2022-01,5"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.seed == 7

    def test_export_options(self):
        args = build_parser().parse_args(
            ["export", "--format", "csv", "--only", "fig01"]
        )
        assert args.format == "csv"
        assert args.only == ["fig01"]


class TestCommands:
    def test_stats_command(self, capsys, dataset):
        code = main(["stats"])  # reuses the cached default dataset
        assert code == 0
        assert "Dataset statistics" in capsys.readouterr().out

    def test_experiments_subset(self, capsys, dataset):
        code = main(["experiments", "--only", "table1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "table1" in output and "fig09" not in output

    def test_experiments_unknown_id(self, capsys, dataset):
        code = main(["experiments", "--only", "nope"])
        assert code == 2

    def test_export_json(self, tmp_path, dataset):
        code = main(
            ["export", "--only", "table_stats", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "table_stats.json").read_text())
        assert payload["experiment_id"] == "table_stats"

    def test_cluster_online_json(self, tmp_path, capsys, dataset):
        path = tmp_path / "cluster.json"
        code = main(["cluster", "--online", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        clustering = dataset.clustering()
        assert payload["sessions"] == len(clustering.sessions)
        assert payload["distinct_sequences"] == len(
            {tuple(tokens) for tokens in clustering.tokens}
        )
        assert payload["chosen_k"] == clustering.selection.chosen_k
        assert len(payload["clusters"]) == len(clustering.profiles)
        assert payload["online"]["batch_k"] == clustering.result.k
        assert 0.0 <= payload["online"]["pair_agreement"] <= 1.0
        assert "mode" not in payload
        assert "online replay" in capsys.readouterr().out

    def test_bench_sketch_only_json(self, tmp_path):
        from repro.bench import check_bench_floors

        path = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--sketch-only", "--sketch-sample", "300",
                "--json", str(path),
            ]
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["sketch"]["distinct_sequences"] == 300
        assert "day_loop" not in report
        enforcement = report["enforcement"]
        floors = {"sketch_speedup_floor", "sketch_ratio_bar", "sketch_recall_floor"}
        assert set(enforcement) == {"enforced", "violations"} | floors
        assert enforcement["enforced"] is False
        assert enforcement["violations"] == check_bench_floors(report)
        assert not any(
            "day-loop" in violation for violation in enforcement["violations"]
        )

    def test_export_csv(self, tmp_path, dataset):
        code = main(
            [
                "export", "--only", "table_stats", "--format", "csv",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "table_stats.csv").read_text().startswith("metric")
