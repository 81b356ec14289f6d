"""Genus-tree traversal against brute force and known layer sizes."""

from collections import Counter

import pytest

from sgcensus.core import Semigroup
from sgcensus.enumeration import (
    DEFAULT_GENUS_CAP,
    ResourceLimitError,
    brute_force_by_genus,
    children,
    count_matrix,
    enumerate_by_genus,
    genus_layer,
    mfg_counts,
    root,
)

# layer sizes for genus 0..16
KNOWN_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001,
                1693, 2857, 4806]


def test_layer_sizes_match_known_sequence():
    tally = enumerate_by_genus(16)
    for g, want in enumerate(KNOWN_COUNTS):
        assert tally[g] == want, g


def test_tree_matches_brute_force():
    tally = enumerate_by_genus(8)
    for g in range(9):
        brute = brute_force_by_genus(g)
        assert tally[g] == len(brute)
        assert {n.semigroup for n in genus_layer(g)} == set(brute)


def test_root_and_first_children():
    r = root()
    assert r.semigroup == Semigroup.naturals()
    assert r.removable == (1,)
    assert r.gap_sum == 0
    kids = children(r)
    assert len(kids) == 1
    assert kids[0].semigroup == Semigroup.from_gaps([1])
    assert kids[0].gap_sum == 1


def test_children_ordered_by_removed_generator():
    for node in genus_layer(5):
        kids = children(node)
        frobs = [k.semigroup.frobenius for k in kids]
        assert frobs == sorted(frobs)
        for k in kids:
            assert k.semigroup.genus == 6
            assert k.gap_sum == node.gap_sum + k.semigroup.frobenius


def test_each_semigroup_visited_once():
    seen = []
    enumerate_by_genus(7, seen.append)
    semis = [n.semigroup for n in seen]
    assert len(semis) == len(set(semis))


def test_visitor_order_deterministic():
    a, b = [], []
    enumerate_by_genus(6, lambda n: a.append(n.semigroup))
    enumerate_by_genus(6, lambda n: b.append(n.semigroup))
    assert a == b


def test_gap_sum_tracks_semigroup():
    enumerate_by_genus(
        7, lambda n: None if n.gap_sum == n.semigroup.gap_sum() else 1 / 0
    )


def test_mfg_counts_agree_with_full_walk():
    # the leaf fast path must not change any count
    direct = Counter()

    def visit(node):
        s = node.semigroup
        direct[(s.multiplicity, s.frobenius, s.genus)] += 1

    enumerate_by_genus(10, visit)
    assert mfg_counts(10) == direct


def test_count_matrix_marginals():
    table = count_matrix(12)
    for g, want in enumerate(KNOWN_COUNTS[: 13]):
        assert sum(c for (m, gg), c in table.items() if gg == g) == want


def test_resource_cap():
    with pytest.raises(ResourceLimitError) as exc:
        enumerate_by_genus(DEFAULT_GENUS_CAP + 1)
    assert exc.value.g_max == DEFAULT_GENUS_CAP + 1
    with pytest.raises(ResourceLimitError):
        brute_force_by_genus(11)
    with pytest.raises(ValueError):
        enumerate_by_genus(-1)
