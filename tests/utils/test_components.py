"""Unit and property tests for ``connected_groups`` (item graphs over the
array component labelling)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.utils.components import connected_groups

PAIRS = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60)


def reachable(start, pairs):
    """The items reachable from ``start`` along ``pairs``, by search."""
    seen, frontier = {start}, [start]
    while frontier:
        item = frontier.pop()
        for left, right in pairs:
            for here, there in ((left, right), (right, left)):
                if here == item and there not in seen:
                    seen.add(there)
                    frontier.append(there)
    return seen


def group_of(groups, item):
    return next(group for group in groups if item in group)


class TestConnectedGroupsBasics:
    def test_items_without_pairs_are_singletons(self):
        assert connected_groups(["a", "b"], []) == [["a"], ["b"]]

    def test_a_pair_connects_its_items(self):
        assert connected_groups(["a", "b"], [("a", "b")]) == [["a", "b"]]

    def test_repeated_and_reversed_pairs_change_nothing(self):
        assert connected_groups(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "b")]) == [["a", "b"], ["c"]]

    def test_groups_are_transitive(self):
        groups = connected_groups([], [("a", "b"), ("b", "c")])
        assert groups == [["a", "b", "c"]]

    def test_items_of_the_pairs_join_the_items(self):
        assert connected_groups(["a"], [("new", "a"), ("x", "y")]) == [["a", "new"], ["x", "y"]]

    def test_group_size(self):
        groups = connected_groups(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
        assert len(group_of(groups, "a")) == 3
        assert len(group_of(groups, "d")) == 1

    def test_groups_partition_all_items(self):
        groups = connected_groups(["a", "b", "c", "d"], [("a", "b")])
        assert sorted(item for group in groups for item in group) == ["a", "b", "c", "d"]
        assert len(groups) == 3

    def test_groups_come_in_first_seen_order(self):
        # Groups in the order of their first item, members in item order.
        assert connected_groups(range(5), [(4, 0), (3, 1)]) == [[0, 4], [1, 3], [2]]

    def test_repeated_items_count_once(self):
        assert connected_groups(["x", "y", "x"], []) == [["x"], ["y"]]


class TestConnectedGroupsProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80))
    def test_groups_form_a_partition(self, pairs):
        groups = connected_groups([], pairs)
        seen = [item for group in groups for item in group]
        assert len(seen) == len(set(seen)) == len({item for pair in pairs for item in pair})

    @given(PAIRS)
    def test_same_group_iff_reachable(self, pairs):
        groups = connected_groups(range(21), pairs)
        for item in range(21):
            assert set(group_of(groups, item)) == reachable(item, pairs)

    @given(PAIRS)
    def test_group_count_is_items_less_successful_merges(self, pairs):
        # A pair merges two groups when its ends were not yet connected.
        merges = sum(right not in reachable(left, pairs[:end]) for end, (left, right) in enumerate(pairs))
        assert len(connected_groups(range(21), pairs)) == 21 - merges
