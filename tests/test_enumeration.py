"""Genus-tree traversal against brute force and known layer sizes."""

import random
from collections import Counter

import pytest

from sgcensus.core import Semigroup
from sgcensus.enumeration import (
    _ROOT,
    DEFAULT_GENUS_CAP,
    ResourceLimitError,
    _node_to_raw,
    _raw_children,
    _raw_to_node,
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


def pair_loop_children(raw):
    """A raw node's children in the layout without rev, each new
    generator z found by testing every pair c + (z - c) of nonzero
    members of the child: the loop that the word-level test replaced."""
    mask, _, m, frob, g, gap_sum, gens = raw
    out = []
    for idx, x in enumerate(gens):
        cmask = mask | (((1 << (x - frob - 1)) - 1) << (frob + 1))
        m2 = m + 1 if x == m else m
        tail = gens[idx + 1:]
        for z in ((x + m, x + m + 1) if x == m else (x + m,)):
            if not any(cmask >> c & 1 and cmask >> (z - c) & 1
                       for c in range(m2, z // 2 + 1)):
                tail += (z,)
        out.append((cmask, m2, x, g + 1, gap_sum + x, tail))
    return out


def without_rev(raw):
    return raw[:1] + raw[2:]


def test_generator_test_matches_pair_loop():
    stack = [_ROOT]
    nodes = 0
    while stack:
        raw = stack.pop()
        nodes += 1
        # the rev carried down the walk is the one derived from the bitmap
        assert _node_to_raw(_raw_to_node(raw)) == raw
        if raw[4] < 16:
            kids = _raw_children(raw)
            assert [without_rev(k) for k in kids] == pair_loop_children(raw), raw
            stack.extend(kids)
    assert nodes == sum(KNOWN_COUNTS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_test_on_deep_descents(seed):
    # children() serves descents past the genus cap; the bitmaps are
    # relative to F, so no width limits them.  A descent starts at a
    # random genus-10 node and mostly removes the smallest generator,
    # which keeps the most removable ones; it restarts at a dead end.
    rng = random.Random(seed)
    start = genus_layer(10)
    reached = []
    while len(reached) < 20:
        node = rng.choice(start)
        while node.semigroup.genus < 40:
            raw = _node_to_raw(node)
            kids = children(node)
            carried = _raw_children(raw)
            assert [without_rev(k) for k in carried] == pair_loop_children(raw)
            # the rev derived from a child's bitmap is the one carried
            assert [_node_to_raw(k) for k in kids] == carried
            kids = [k for k in kids if k.removable]
            if not kids:
                break
            node = kids[0] if rng.random() < 0.9 else rng.choice(kids)
        else:
            reached.append(node.semigroup)
    assert len({(s.multiplicity, s.frobenius) for s in reached}) > 1
