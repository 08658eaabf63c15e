"""Tests for config serialisation, presets, and eager knob validation."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FuzzyFDConfig, available_presets
from repro.embeddings import ExactEmbedder
from repro.embeddings.base import ValueEmbedder
from repro.fd import AliteFullDisjunction
from repro.fd.base import FullDisjunctionAlgorithm
from repro.matching.assignment import AssignmentSolver, GreedyAssignment
from repro.registry import UnknownNameError


class TestEagerValidation:
    """Every registry-resolved knob fails at construction, not at run time."""

    def test_unknown_embedder(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig(embedder="gpt-17")
        assert "mistral" in str(excinfo.value)

    def test_unknown_solver(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig(assignment_solver="magic")
        assert "scipy" in str(excinfo.value)

    def test_unknown_fd_algorithm(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig(fd_algorithm="quantum")
        assert "alite" in str(excinfo.value)

    def test_unknown_representative_policy_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig(representative_policy="freq")
        message = str(excinfo.value)
        assert "frequency" in message and "longest" in message

    def test_unknown_alignment_strategy(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig(alignment="guess")
        assert "by_name" in str(excinfo.value)

    def test_replace_revalidates(self):
        config = FuzzyFDConfig()
        with pytest.raises(ValueError):
            config.replace(representative_policy="nope")
        assert config.replace(threshold=0.8).threshold == 0.8
        # the original is untouched
        assert config.threshold == 0.7

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            FuzzyFDConfig(max_workers=0)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("threshold", True, "a number"),
            ("threshold", "0.5", "a number"),
            ("blocking_cutoff", True, "an integer"),
            ("max_workers", 2.5, "an integer"),
            ("exact_first", "false", "a boolean"),
            ("exact_first", 0, "a boolean"),
            ("service_deadline_ms", True, "a number"),
            ("blocking_key_cap", "5", "an integer"),
            ("retry_backoff_ms", None, "a number"),
            ("embedder", 5, "a name or an embedder"),
            ("fd_algorithm", ["alite"], "a name or an FD algorithm"),
            ("assignment_solver", None, "a name or an assignment solver"),
            ("alignment", {}, "a string"),
            ("blocking", False, "a string"),
            ("store_dir", 5, "a string"),
        ],
    )
    def test_a_field_of_another_type_is_refused_by_name(self, field, value, expected):
        # ``True`` used to pass as 1, ``"false"`` as on, and ``"0.5"`` raised a
        # bare TypeError from a comparison.
        message = f"{field} must be {expected}, got {type(value).__name__}"
        with pytest.raises(ValueError, match=message):
            FuzzyFDConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            FuzzyFDConfig.from_json(json.dumps({field: value}))
        with pytest.raises(ValueError, match=message):
            FuzzyFDConfig().replace(**{field: value})

    def test_numbers_of_the_narrower_kind_and_optional_nones_are_kept(self):
        config = FuzzyFDConfig(threshold=1, service_deadline_ms=250, blocking_key_cap=None, exact_first=False)
        assert (config.threshold, config.service_deadline_ms, config.blocking_key_cap, config.exact_first) == (1, 250, None, False)

    @given(
        data=st.dictionaries(
            st.sampled_from([f.name for f in dataclasses.fields(FuzzyFDConfig)]),
            st.one_of(
                st.none(), st.booleans(), st.integers(-2, 1 << 40), st.floats(), st.text(max_size=3),
                st.sampled_from(["alite", "scipy", "greedy", "mistral", "frequency", "holistic", "on", "auto", "thread", "read"]),
                st.sampled_from([ExactEmbedder(), GreedyAssignment(), AliteFullDisjunction()]),
                st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_from_dict_fuzzing_of_the_typed_fields(self, data):
        # Any JSON value or plugin instance in any field: a ValueError naming a
        # field (a string that names no plugin: the registry's UnknownNameError),
        # or a config whose fields hold what they declare.
        try:
            config = FuzzyFDConfig.from_dict(data)
        except UnknownNameError as exc:
            assert isinstance(exc.name, str) and exc.name in data.values()
            return
        except ValueError as exc:
            assert any(str(exc).startswith(name) for name in data)
            return
        declared = {f.name: f.type for f in dataclasses.fields(config)}
        exact_types = {"bool": {bool}, "int": {int}, "float": {int, float}, "str": {str}}
        instance_types = {
            "Union[str, ValueEmbedder]": ValueEmbedder,
            "Union[str, AssignmentSolver]": AssignmentSolver,
            "Union[str, FullDisjunctionAlgorithm]": FullDisjunctionAlgorithm,
        }
        for name, value in data.items():
            assert getattr(config, name) is value
            kind = declared[name].removeprefix("Optional[")
            if value is None:
                assert kind != declared[name]
            elif kind != declared[name]:
                assert type(value) in exact_types[kind[:-1]]
            else:
                assert type(value) in exact_types.get(kind, {str}) or isinstance(value, instance_types[kind])

    def test_blocking_key_cap_validated_and_serialised(self):
        with pytest.raises(ValueError, match="blocking_key_cap"):
            FuzzyFDConfig(blocking_key_cap=0)
        config = FuzzyFDConfig(blocking_key_cap=None)  # cap disabled
        assert FuzzyFDConfig.from_dict(config.to_dict()) == config
        assert FuzzyFDConfig().blocking_key_cap == 1000

    def test_invalid_parallel_backend_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig(parallel_backend="gpu")
        assert "thread" in str(excinfo.value)

    def test_semantic_blocking_mode_validated(self):
        with pytest.raises(ValueError, match="semantic_blocking"):
            FuzzyFDConfig(semantic_blocking="maybe")

    def test_semantic_on_requires_blocking(self):
        with pytest.raises(ValueError, match="semantic_blocking"):
            FuzzyFDConfig(semantic_blocking="on")  # blocking defaults to "off"
        # auto is a safe no-op without blocking, and on composes with on/auto.
        FuzzyFDConfig(semantic_blocking="auto")
        FuzzyFDConfig(blocking="auto", semantic_blocking="on")

    def test_ann_knobs_validated(self):
        with pytest.raises(ValueError, match="ann_tables"):
            FuzzyFDConfig(ann_tables=0)
        with pytest.raises(ValueError, match="ann_bits"):
            FuzzyFDConfig(ann_bits=31)
        with pytest.raises(ValueError, match="ann_top_k"):
            FuzzyFDConfig(ann_top_k=0)

    def test_ann_index_validated(self):
        FuzzyFDConfig(ann_index="lsh")
        FuzzyFDConfig(ann_index="ivf")
        with pytest.raises(ValueError, match="ann_index"):
            FuzzyFDConfig(ann_index="annoy")

    def test_ann_knobs_serialise_and_round_trip(self):
        config = FuzzyFDConfig(
            blocking="on", semantic_blocking="on", ann_tables=4, ann_bits=10, ann_top_k=7
        )
        data = config.to_dict()
        assert data["semantic_blocking"] == "on"
        assert data["ann_tables"] == 4
        assert data["ann_bits"] == 10
        assert data["ann_top_k"] == 7
        assert FuzzyFDConfig.from_dict(data) == config

    def test_parallel_knobs_serialise_and_round_trip(self):
        config = FuzzyFDConfig(max_workers=4, parallel_backend="serial")
        data = config.to_dict()
        assert data["max_workers"] == 4
        assert data["parallel_backend"] == "serial"
        assert FuzzyFDConfig.from_dict(data) == config

    def test_executor_config_reflects_knobs(self):
        executor = FuzzyFDConfig(max_workers=3, parallel_backend="thread").executor_config()
        assert executor.backend == "thread"
        assert executor.max_workers == 3

    def test_partitioned_fd_resolved_by_name_inherits_executor(self, covid_tables):
        # The FD stage takes no workers: whatever executor the config carries,
        # the algorithm resolved by name gives the same table and statistics.
        results = [
            FuzzyFDConfig(fd_algorithm="partitioned", max_workers=workers, parallel_backend=backend)
            .resolve_fd_algorithm()
            .integrate(covid_tables)
            for workers, backend in ((1, "thread"), (5, "thread"), (2, "serial"))
        ]
        for result in results[1:]:
            assert result.table.rows == results[0].table.rows
            assert result.table.provenance == results[0].table.provenance
            assert result.statistics == results[0].statistics
        assert not [key for key in results[0].statistics if key.startswith("parallel")]

    def test_fd_instance_keeps_its_own_executor(self, covid_tables):
        # A caller-supplied instance is passed through untouched.
        from repro.fd import IncrementalFullDisjunction

        algorithm = IncrementalFullDisjunction(result_name="mine")
        config = FuzzyFDConfig(fd_algorithm=algorithm, max_workers=7)
        assert config.resolve_fd_algorithm() is algorithm
        result = algorithm.integrate(covid_tables)
        assert result.table.name == "mine"
        assert not [key for key in result.statistics if key.startswith("parallel")]


class TestSerialisation:
    def test_round_trip_equality(self):
        config = FuzzyFDConfig(
            embedder="fasttext",
            threshold=0.65,
            assignment_solver="greedy",
            fd_algorithm="incremental",
            representative_policy="longest",
            exact_first=False,
            blocking="auto",
            blocking_cutoff=1000,
            alignment="holistic",
        )
        assert FuzzyFDConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        config = FuzzyFDConfig()
        assert FuzzyFDConfig.from_dict(config.to_dict()) == config

    def test_to_dict_serialises_instances_by_name(self):
        config = FuzzyFDConfig(
            embedder=ExactEmbedder(),
            assignment_solver=GreedyAssignment(),
            fd_algorithm=AliteFullDisjunction(),
        )
        data = config.to_dict()
        assert data["embedder"] == "exact"
        assert data["assignment_solver"] == "greedy"
        assert data["fd_algorithm"] == "alite"
        # and the serialised form loads back into a valid (name-based) config
        loaded = FuzzyFDConfig.from_dict(data)
        assert loaded.resolve_embedder().name == "exact"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig.from_dict({"treshold": 0.8})
        assert "treshold" in str(excinfo.value)
        assert "threshold" in str(excinfo.value)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"embedder": "fasttext", "threshold": 0.9}))
        config = FuzzyFDConfig.from_json(path)
        assert config.embedder == "fasttext"
        assert config.threshold == 0.9
        # unspecified knobs keep the paper defaults
        assert config.fd_algorithm == "alite"

    def test_from_json_string(self):
        config = FuzzyFDConfig.from_json('{"blocking": "auto"}')
        assert config.blocking == "auto"

    def test_to_dict_does_not_deep_copy_instances(self):
        import threading

        embedder = ExactEmbedder()
        embedder.lock = threading.Lock()  # unpicklable, like a real model client
        assert FuzzyFDConfig(embedder=embedder).to_dict()["embedder"] == "exact"

    def test_from_json_missing_file_raises_file_not_found(self):
        with pytest.raises(FileNotFoundError):
            FuzzyFDConfig.from_json("no-such-confg.jsn")

    def test_from_json_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"embedder": "gpt-17"}))
        with pytest.raises(ValueError):
            FuzzyFDConfig.from_json(path)
        non_object = tmp_path / "list.json"
        non_object.write_text("[1, 2]")
        with pytest.raises(ValueError):
            FuzzyFDConfig.from_json(non_object)

    def test_to_json_round_trip(self):
        config = FuzzyFDConfig(threshold=0.75, blocking="on")
        assert FuzzyFDConfig.from_json(config.to_json()) == config

    def test_store_knobs_round_trip(self, tmp_path):
        config = FuzzyFDConfig(store_dir=tmp_path / "store", store_mode="read")
        data = config.to_dict()
        assert data["store_dir"] == str(tmp_path / "store")  # held as a string
        assert data["store_mode"] == "read"
        assert FuzzyFDConfig.from_dict(data) == config
        assert FuzzyFDConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("preset", ["paper", "fast", "scale"])
    def test_every_preset_round_trips(self, preset):
        config = FuzzyFDConfig.preset(preset)
        data = config.to_dict()
        # to_dict covers every field exactly — nothing dropped, nothing extra.
        assert set(data) == {field.name for field in dataclasses.fields(FuzzyFDConfig)}
        assert FuzzyFDConfig.from_dict(data) == config
        assert FuzzyFDConfig.from_json(config.to_json()) == config


class TestPresets:
    def test_available_presets(self):
        assert {"paper", "fast", "scale"} <= set(available_presets())

    def test_paper_preset_is_the_default_config(self):
        assert FuzzyFDConfig.preset("paper") == FuzzyFDConfig()

    def test_fast_preset(self):
        config = FuzzyFDConfig.preset("fast")
        assert config.embedder == "fasttext"
        assert config.assignment_solver == "greedy"
        assert config.blocking == "auto"

    def test_scale_preset(self):
        config = FuzzyFDConfig.preset("scale")
        assert config.fd_algorithm == "incremental"
        assert config.blocking == "auto"
        # the semantic ANN channel engages where surface keys lose recall
        assert config.semantic_blocking == "auto"
        # the paper's models are kept
        assert config.embedder == "mistral"

    def test_scale_preset_turns_parallelism_on(self):
        config = FuzzyFDConfig.preset("scale")
        assert config.max_workers == 4
        assert config.parallel_backend == "thread"
        assert config.executor_config().is_parallel

    def test_scale_preset_opts_into_persistence(self):
        config = FuzzyFDConfig.preset("scale")
        assert config.store_mode == "readwrite"
        # ...but without a store_dir there is still no store to build.
        assert config.store_dir is None
        assert config.build_store() is None

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            FuzzyFDConfig.preset("turbo")
        assert "paper" in str(excinfo.value)
