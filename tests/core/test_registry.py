"""Tests for the generic plugin registry behind every extension point."""

from __future__ import annotations

import pytest

from repro.registry import Registry, UnknownNameError


class TestRegistry:
    def test_register_direct_and_get(self):
        registry = Registry("widget")
        registry.register("a", int)
        assert registry.get("a") is int
        assert registry.create("a") == 0

    def test_register_as_decorator(self):
        registry = Registry("policy")

        @registry.register("upper")
        def upper(text):
            return text.upper()

        assert registry.get("upper") is upper
        assert registry.get("upper")("hi") == "HI"

    def test_names_sorted(self):
        registry = Registry("thing", {"b": 1, "a": 2, "c": 3})
        assert registry.names() == ["a", "b", "c"]
        assert list(registry) == ["a", "b", "c"]
        assert len(registry) == 3
        assert "b" in registry and "z" not in registry

    def test_unknown_name_error_lists_options(self):
        registry = Registry("embedding model", {"mistral": object, "bert": object})
        with pytest.raises(UnknownNameError) as excinfo:
            registry.get("mistal")
        message = str(excinfo.value)
        assert "unknown embedding model 'mistal'" in message
        assert "'bert'" in message and "'mistral'" in message

    def test_unknown_name_error_is_value_and_key_error(self):
        registry = Registry("solver")
        with pytest.raises(ValueError):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.get("nope")

    def test_validate_returns_name_or_raises(self):
        registry = Registry("kind", {"x": 1})
        assert registry.validate("x") == "x"
        with pytest.raises(UnknownNameError):
            registry.validate("y")

    def test_create_forwards_kwargs(self):
        registry = Registry("maker")
        registry.register("dict", dict)
        assert registry.create("dict", a=1) == {"a": 1}

    def test_resolve_passes_instances_through(self):
        registry = Registry("number", {"zero": int})
        assert registry.resolve(7, int) == 7
        assert registry.resolve("zero", int) == 0

    def test_reregistering_replaces(self):
        registry = Registry("kind")
        registry.register("x", 1)
        registry.register("x", 2)
        assert registry.get("x") == 2

    def test_unregister(self):
        registry = Registry("kind", {"x": 1})
        registry.unregister("x")
        assert "x" not in registry
        registry.unregister("x")  # absent names are a no-op


class TestBuiltinRegistries:
    """Every extension point resolves through the one Registry mechanism."""

    def test_all_four_families_and_the_presets_are_registries(self):
        from repro.core.config import PRESETS
        from repro.core.representatives import REPRESENTATIVE_POLICIES
        from repro.embeddings.registry import EMBEDDERS
        from repro.fd import FD_ALGORITHMS
        from repro.matching.assignment import ASSIGNMENT_SOLVERS

        for registry in (
            EMBEDDERS,
            FD_ALGORITHMS,
            ASSIGNMENT_SOLVERS,
            REPRESENTATIVE_POLICIES,
            PRESETS,
        ):
            assert isinstance(registry, Registry)
            assert registry.names()

    def test_custom_policy_plugs_into_value_matcher(self):
        from repro.core.representatives import REPRESENTATIVE_POLICIES, select_representative
        from repro.core.value_matching import ColumnValues, ValueMatcher
        from repro.embeddings import MistralEmbedder

        @REPRESENTATIVE_POLICIES.register("last-column")
        def last_column(column, value, frequency):
            return -column

        try:
            chosen = select_representative(
                [("t1", "b"), ("t2", "a")], {}, {"t1": 0, "t2": 1}, policy="last-column"
            )
            assert chosen == "a"
            matcher = ValueMatcher(MistralEmbedder(), representative_policy="last-column")
            result = matcher.match_columns(
                [ColumnValues("t1", ["Berlinn", "Toronto"]), ColumnValues("t2", ["Toronto", "Berlin"])]
            )
            assert result.representative_of("t1", "Berlinn") == "Berlin"
            assert result.rewrite_map("t1") == {"Berlinn": "Berlin"}
        finally:
            REPRESENTATIVE_POLICIES.unregister("last-column")
