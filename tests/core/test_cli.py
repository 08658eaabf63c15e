"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.table import Table, read_csv, write_csv


@pytest.fixture()
def lake(tmp_path, covid_tables):
    """The Figure 1 tables written to CSV files in a temporary directory."""
    paths = []
    for table in covid_tables:
        paths.append(str(write_csv(table, tmp_path / f"{table.name}.csv")))
    return tmp_path, paths


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_integrate_defaults(self):
        args = build_parser().parse_args(["integrate", "somewhere.csv"])
        assert args.embedder == "mistral"
        assert args.threshold == 0.7
        assert not args.regular
        assert args.max_workers == 1
        assert args.parallel_backend == "thread"

    def test_workers_flag(self):
        args = build_parser().parse_args(
            ["integrate", "somewhere.csv", "--workers", "4", "--parallel-backend", "serial"]
        )
        assert args.max_workers == 4
        assert args.parallel_backend == "serial"
        assert {"max_workers", "parallel_backend"} <= args._explicit

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["integrate", "x.csv", "--parallel-backend", "gpu"])

    def test_semantic_blocking_flags(self):
        args = build_parser().parse_args(
            ["integrate", "x.csv", "--semantic-blocking", "auto", "--ann-top-k", "9"]
        )
        assert args.semantic_blocking == "auto"
        assert args.ann_top_k == 9
        assert {"semantic_blocking", "ann_top_k"} <= args._explicit

    def test_semantic_blocking_defaults_off(self):
        args = build_parser().parse_args(["integrate", "x.csv"])
        assert args.semantic_blocking == "off"
        assert args.ann_top_k == 5

    def test_invalid_semantic_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["integrate", "x.csv", "--semantic-blocking", "maybe"])

    def test_benchmark_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["benchmark", "unknown-experiment"])

    def test_process_backend_is_no_longer_a_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["integrate", "x.csv", "--parallel-backend", "process"])

    def test_serve_processes_flag(self):
        assert build_parser().parse_args(["serve"]).processes is None
        args = build_parser().parse_args(["serve", "--processes", "3", "--workers", "2"])
        assert (args.processes, args.max_workers) == (3, 2)
        # A deployment flag, not a config knob: it never reaches FuzzyFDConfig.
        assert "processes" not in args._explicit

    def test_serve_rejects_zero_processes_before_booting(self, capsys):
        with pytest.raises(SystemExit, match="--processes must be >= 1"):
            main(["serve", "--processes", "0"])


class TestIntegrateCommand:
    def test_integrate_directory_to_csv(self, lake, tmp_path, capsys):
        directory, _ = lake
        output = tmp_path / "out" / "integrated.csv"
        exit_code = main(["integrate", str(directory), "--output", str(output)])
        assert exit_code == 0
        integrated = read_csv(output)
        assert integrated.num_rows == 5  # the paper's Fuzzy FD result
        captured = capsys.readouterr().out
        assert "5 output tuples" in captured

    def test_regular_flag_uses_equi_join(self, lake, tmp_path, capsys):
        directory, _ = lake
        output = tmp_path / "regular.csv"
        main(["integrate", str(directory), "--regular", "--output", str(output)])
        assert read_csv(output).num_rows == 9

    def test_prints_table_without_output(self, lake, capsys):
        _, paths = lake
        exit_code = main(["integrate", *paths, "--show-rewrites"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Berlin" in captured
        assert "->" in captured  # at least one rewrite shown

    def test_rejects_non_csv_input(self, tmp_path):
        bogus = tmp_path / "data.parquet"
        bogus.write_text("not a csv")
        with pytest.raises(SystemExit):
            main(["integrate", str(bogus)])

    def test_workers_flag_runs_parallel_integration(self, lake, tmp_path, capsys):
        directory, _ = lake
        output = tmp_path / "parallel.csv"
        exit_code = main(
            [
                "integrate",
                str(directory),
                "--workers",
                "2",
                "--blocking",
                "on",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        serial_output = tmp_path / "serial.csv"
        assert main(["integrate", str(directory), "--output", str(serial_output), "--blocking", "on"]) == 0
        assert read_csv(output).same_rows(read_csv(serial_output))

    def test_semantic_blocking_runs_end_to_end(self, lake, tmp_path, capsys):
        directory, _ = lake
        output = tmp_path / "semantic.csv"
        exit_code = main(
            [
                "integrate",
                str(directory),
                "--output",
                str(output),
                "--blocking",
                "on",
                "--semantic-blocking",
                "on",
                "--ann-top-k",
                "3",
            ]
        )
        assert exit_code == 0
        integrated = read_csv(output)
        assert integrated.num_rows > 0
        assert "wrote" in capsys.readouterr().out

    def test_semantic_on_without_blocking_fails_cleanly(self, lake, capsys):
        _, paths = lake
        with pytest.raises(SystemExit) as excinfo:
            main(["integrate", *paths, "--semantic-blocking", "on"])
        assert "blocking" in str(excinfo.value)


class TestConfigFlags:
    def test_preset_runs(self, lake, capsys):
        _, paths = lake
        exit_code = main(["integrate", *paths, "--preset", "fast"])
        assert exit_code == 0
        assert "output tuples" in capsys.readouterr().out

    def test_unknown_preset_lists_names(self, lake, capsys):
        _, paths = lake
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--preset", "turbo"])
        captured = capsys.readouterr().err
        assert "paper" in captured and "fast" in captured and "scale" in captured

    def test_config_json_is_loaded(self, lake, tmp_path, capsys):
        _, paths = lake
        config_path = tmp_path / "config.json"
        config_path.write_text('{"embedder": "fasttext", "threshold": 0.6}')
        exit_code = main(["integrate", *paths, "--config-json", str(config_path)])
        assert exit_code == 0
        assert "output tuples" in capsys.readouterr().out

    def test_config_json_with_bad_knob_fails_fast(self, lake, tmp_path):
        _, paths = lake
        config_path = tmp_path / "config.json"
        config_path.write_text('{"embedder": "gpt-17"}')
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--config-json", str(config_path)])

    def test_explicit_flag_overrides_preset(self, lake, capsys):
        _, paths = lake
        # Explicit flags beat the preset even when set to their parser default:
        # overriding the fast preset's fasttext/greedy knobs back to mistral
        # with no blocking must reproduce the paper's 5-tuple Figure 1 result.
        exit_code = main(["integrate", *paths, "--preset", "fast", "--embedder", "mistral",
                          "--blocking", "off"])
        assert exit_code == 0
        assert "5 output tuples" in capsys.readouterr().out

    def test_explicit_default_valued_flag_overrides_config_json(self, lake, tmp_path, capsys):
        _, paths = lake
        config_path = tmp_path / "config.json"
        config_path.write_text('{"embedder": "exact", "threshold": 0.05}')
        # 'exact' at θ=0.05 finds no fuzzy matches; explicitly restoring the
        # defaults must bring the Figure 1 rewrites back.
        exit_code = main(["integrate", *paths, "--config-json", str(config_path),
                          "--embedder", "mistral", "--threshold", "0.7"])
        assert exit_code == 0
        assert "5 output tuples" in capsys.readouterr().out

    def test_config_json_missing_file_fails_cleanly(self, lake, capsys):
        _, paths = lake
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--config-json", "no-such-confg.jsn"])

    def test_config_json_wrong_typed_knob_fails_cleanly(self, lake, tmp_path):
        _, paths = lake
        config_path = tmp_path / "config.json"
        config_path.write_text('{"threshold": "0.8"}')
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--config-json", str(config_path)])

    def test_preset_and_config_json_are_mutually_exclusive(self, lake, tmp_path, capsys):
        _, paths = lake
        config_path = tmp_path / "config.json"
        config_path.write_text("{}")
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--preset", "fast", "--config-json", str(config_path)])

    def test_unknown_embedder_fails_with_registry_names(self, lake, capsys):
        _, paths = lake
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--embedder", "gpt-17"])
        captured = capsys.readouterr().err
        assert "unknown embedding model 'gpt-17'" in captured
        assert "mistral" in captured

    def test_unknown_fd_algorithm_fails_with_registry_names(self, lake, capsys):
        _, paths = lake
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--fd-algorithm", "quantum"])
        captured = capsys.readouterr().err
        assert "unknown full disjunction algorithm 'quantum'" in captured
        assert "alite" in captured


class TestMatchCommand:
    def test_match_two_columns(self, tmp_path, capsys):
        left = Table("countries_a", ["value"], [("Germany",), ("Canada",), ("Spain",)])
        right = Table("countries_b", ["value"], [("DE",), ("CA",), ("US",)])
        paths = [
            str(write_csv(left, tmp_path / "a.csv")),
            str(write_csv(right, tmp_path / "b.csv")),
        ]
        exit_code = main(["match", *paths, "--column", "value"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "'Germany'" in captured and "'DE'" in captured

    def test_match_requires_two_columns(self, tmp_path):
        only = Table("solo", ["value"], [("Berlin",)])
        path = str(write_csv(only, tmp_path / "solo.csv"))
        with pytest.raises(SystemExit):
            main(["match", path])


class TestBenchmarkCommand:
    def test_table1_small(self, capsys):
        exit_code = main(
            ["benchmark", "table1", "--sets", "2", "--values-per-column", "15"]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "mistral" in captured
        assert "F1-Score" in captured

    def test_fig3_small(self, capsys):
        exit_code = main(["benchmark", "fig3", "--sizes", "80"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Fuzzy FD" in captured
