"""Tests for the command-line interface."""

from __future__ import annotations

import inspect

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

    @pytest.mark.parametrize("flag", ["--max-pending", "--max-concurrency"])
    def test_serve_has_no_admission_flags(self, flag):
        # A server process serves one connection at a time: nothing to admit or queue.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, "4"])

    @pytest.mark.parametrize("command", ["integrate", "serve"])
    @pytest.mark.parametrize(
        "flag", ["--retry-max-attempts", "--retry-backoff-ms", "--breaker-failure-threshold", "--breaker-reset-ms"]
    )
    def test_the_resilience_flags_are_gone(self, command, flag, capsys):
        # Retry and breaker settings belong to a wrapper the caller builds; the
        # engine never wraps, so no command takes them.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        assert flag not in capsys.readouterr().out
        positional = ["x.csv"] if command == "integrate" else []
        with pytest.raises(SystemExit):
            parser.parse_args([command, *positional, flag, "3"])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integrate", "serve"])
    def test_the_alignment_flag_is_gone(self, command, capsys):
        # Columns align by header name; an alignment across different headers
        # is a ColumnAlignment the caller passes to the engine, not a flag.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        assert "--alignment" not in capsys.readouterr().out
        positional = ["x.csv"] if command == "integrate" else []
        with pytest.raises(SystemExit):
            parser.parse_args([command, *positional, "--alignment", "by_name"])
        assert "unrecognized arguments: --alignment by_name" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integrate", "serve"])
    def test_degraded_mode_has_two_choices(self, command, capsys):
        parser = build_parser()
        positional = ["x.csv"] if command == "integrate" else []
        args = parser.parse_args([command, *positional, "--degraded-mode", "surface"])
        assert args.degraded_mode == "surface" and "degraded_mode" in args._explicit
        with pytest.raises(SystemExit):
            parser.parse_args([command, *positional, "--degraded-mode", "fail"])
        assert "invalid choice: 'fail'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["integrate", "serve"])
    def test_the_help_names_no_breaker_and_no_chaos_embedder(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        out = " ".join(capsys.readouterr().out.lower().split())
        assert "embedderunavailable" in out
        for gone in ("breaker", "retry-after", "chaos", "fail ="):
            assert gone not in out, gone

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

    @pytest.mark.parametrize(
        "knob, text",
        [
            ("fd_algorithm", '{"fd_algorithm": ["alite"]}'),
            ("embedder", '{"embedder": 5}'),
            ("assignment_solver", '{"assignment_solver": null}'),
            ("representative_policy", '{"representative_policy": 5}'),
        ],
    )
    def test_config_json_name_knob_of_another_type_fails_cleanly(self, lake, knob, text):
        # These used to pass the config and fail at engine construction with a
        # traceback (or a bare ``TypeError: unhashable type``).
        _, paths = lake
        with pytest.raises(SystemExit) as excinfo:
            main(["integrate", *paths, "--config-json", text])
        assert str(excinfo.value).startswith(f"error: {knob} must be ")

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

    def test_the_retired_partitioned_alias_fails_with_registry_names(self, lake, capsys):
        _, paths = lake
        with pytest.raises(SystemExit):
            main(["integrate", *paths, "--fd-algorithm", "partitioned"])
        assert (
            "unknown full disjunction algorithm 'partitioned'; "
            "available: ['alite', 'naive', 'outer_join_sequence']"
        ) in capsys.readouterr().err


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

    def test_an_explicit_column_a_table_lacks_is_an_error_naming_the_table(self, tmp_path, capsys):
        cities = Table("a", ["City", "Population"], [("Berlin", "3.6M"), ("Toronto", "2.8M")])
        towns = Table("b", ["Country", "Town"], [("DE", "Berlinn"), ("CA", "Toronto")])
        paths = [str(write_csv(table, tmp_path / f"{table.name}.csv")) for table in (cities, towns)]
        with pytest.raises(SystemExit) as excinfo:
            main(["match", *paths, "--column", "City"])
        assert str(excinfo.value) == "error: table 'b' has no column 'City'"
        assert capsys.readouterr().out == ""  # nothing was matched

    def test_without_column_each_table_matches_value_or_its_first_column(self, tmp_path, capsys):
        left = Table("a", ["id", "value"], [("1", "Berlin"), ("2", "Toronto")])
        right = Table("b", ["Town"], [("Berlinn",), ("Toronto",)])
        paths = [str(write_csv(table, tmp_path / f"{table.name}.csv")) for table in (left, right)]
        assert main(["match", *paths]) == 0
        assert "(a:'Berlin', b:'Berlinn') -> " in capsys.readouterr().out

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

    def test_sets_is_the_number_of_sets_the_experiment_runs(self, monkeypatch, capsys):
        from repro.evaluation import experiments

        seen = []
        real = experiments.run_downstream_em_experiment

        def spy(**kwargs):
            seen.append(kwargs)
            return real(entities_per_set=12, **kwargs)

        monkeypatch.setattr(experiments, "run_downstream_em_experiment", spy)
        assert main(["benchmark", "em", "--sets", "3"]) == 0
        assert main(["benchmark", "em"]) == 0
        # --sets 3 runs three sets; omitted, the experiment keeps its own four.
        assert seen == [{"n_sets": 3}, {}]
        assert inspect.signature(real).parameters["n_sets"].default == 4
        assert "fuzzy_fd" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "experiment, knob, values",
        [
            ("threshold", "threshold", ["0.3", "0.5", "0.6", "0.7", "0.8", "0.9"]),
            ("assignment", "assignment_solver", ["scipy", "greedy"]),
            ("representatives", "representative_policy", ["first_column", "frequency", "longest", "shortest"]),
            ("blocking", "blocking", ["off", "on"]),
        ],
    )
    def test_value_matching_ablations_small(self, capsys, experiment, knob, values):
        assert main(["benchmark", experiment, "--sets", "2", "--values-per-column", "15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split("|")[1].strip() == knob
        rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in lines[2:]]
        assert [row[0] for row in rows] == values

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fig3", "--sets", "3", "--values-per-column", "5", "--sizes", "80"], "--sets"),
            (["fig3", "--values-per-column", "5"], "--values-per-column"),
            (["fd", "--sets", "2"], "--sets"),
            (["em", "--values-per-column", "5"], "--values-per-column"),
            (["em", "--sizes", "80"], "--sizes"),
            (["table1", "--sizes", "80"], "--sizes"),
            (["threshold", "--sets", "2", "--sizes", "80"], "--sizes"),
        ],
    )
    def test_a_flag_the_experiment_does_not_take_is_an_error(self, monkeypatch, argv, flag):
        from repro.evaluation import experiments

        for name in dir(experiments):
            if name.startswith("run_"):
                monkeypatch.setattr(experiments, name, lambda *args, **kwargs: pytest.fail("ran"))
        with pytest.raises(SystemExit, match=f"repro benchmark {argv[0]} does not take {flag}$"):
            main(["benchmark", *argv])

    def test_values_per_column_omitted_leaves_the_default(self, monkeypatch, capsys):
        from repro.evaluation import experiments

        seen = []
        monkeypatch.setattr(experiments, "run_table1_experiment", lambda **kwargs: seen.append(kwargs) or {})
        monkeypatch.setattr(experiments, "run_matching_sweep", lambda knob, values, **kwargs: seen.append(kwargs) or {})
        for argv in (["table1"], ["table1", "--values-per-column", "7"], ["blocking", "--sets", "2"]):
            assert main(["benchmark", *argv]) == 0
        assert seen == [{}, {"values_per_column": 7}, {"n_sets": 2}]

    def test_fd_ablation_small(self, capsys):
        assert main(["benchmark", "fd", "--sizes", "160"]) == 0
        captured = capsys.readouterr().out
        assert "IMDB, 160 tuples" in captured and "multi-schema lake, 160 tuples" in captured
        assert "join triangle, 160 tuples" in captured
        assert "| alite " in captured and "| alite, unlabelled " in captured and "| alite, labelled " in captured
