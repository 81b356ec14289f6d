"""Frobenius classes, the mid-range type invariant, and weight bounds."""

import pytest

from sgcensus.classify import (
    FrobeniusClass,
    TypeAK,
    eisenbud_harris,
    enumerate_ak,
    frobenius_class,
    mid_decomposition_total,
    type_ak,
    weight_decomposition_mid,
    zhao_bound,
    zhao_constant_partial,
)
from sgcensus.core import Semigroup, SemigroupError
from sgcensus.enumeration import genus_layer, mfg_counts
from sgcensus.partitions import GOLDEN_RATIO, SQRT5


def test_frobenius_class_examples():
    assert frobenius_class(Semigroup.from_gaps([1, 2, 3])) is FrobeniusClass.ORDINARY
    assert frobenius_class(Semigroup.from_generators([3, 5, 7])) is FrobeniusClass.LOW
    assert frobenius_class(Semigroup.from_gaps([1, 2, 4, 5, 7])) is FrobeniusClass.MID
    assert frobenius_class(Semigroup.from_gaps([1, 3, 5, 7])) is FrobeniusClass.HIGH


def test_frobenius_class_rejects_naturals():
    with pytest.raises(SemigroupError):
        frobenius_class(Semigroup.naturals())


def test_classes_partition_everything():
    # F is never exactly 2m or 3m, so the four ranges cover every case
    for node in genus_layer(9):
        frobenius_class(node.semigroup)


def test_eisenbud_harris():
    assert eisenbud_harris(Semigroup.from_generators([3, 5, 7]))
    # ordinary: weight 0 < g-1 needs g >= 2
    assert eisenbud_harris(Semigroup.from_gaps([1, 2]))
    assert not eisenbud_harris(Semigroup.from_gaps([1]))
    assert not eisenbud_harris(Semigroup.naturals())
    # mid range misses the F < 2m requirement outright
    s = Semigroup.from_gaps([1, 2, 4, 5, 7])
    assert s.frobenius >= 2 * s.multiplicity
    assert not eisenbud_harris(s)


def test_type_ak_validation():
    TypeAK(1, frozenset({0}))
    TypeAK(4, frozenset({0, 3}))
    with pytest.raises(ValueError):
        TypeAK(0, frozenset({0}))
    with pytest.raises(ValueError):
        TypeAK(2, frozenset({1}))  # 0 missing
    with pytest.raises(ValueError):
        TypeAK(2, frozenset({0, 2}))  # element outside [0, k-1]
    with pytest.raises(ValueError):
        TypeAK(2, frozenset({0, 1}))  # 1 + 1 = k


def test_type_ak_of_known_semigroup():
    s = Semigroup.from_gaps([1, 2, 4, 5, 7])  # m = 3, F = 7
    t = type_ak(s)
    assert t.k == 1
    assert t.a == frozenset({0})


def test_type_ak_requires_mid():
    with pytest.raises(SemigroupError):
        type_ak(Semigroup.from_generators([3, 5, 7]))


def test_type_ak_well_defined_on_tree():
    # every mid semigroup yields a valid type that reproduces the
    # window S intersect [m, m+k]
    checked = 0
    for node in genus_layer(10):
        s = node.semigroup
        if s.multiplicity == 1 or frobenius_class(s) is not FrobeniusClass.MID:
            continue
        t = type_ak(s)
        m = s.multiplicity
        assert t.k == s.frobenius - 2 * m
        assert t.a == frozenset(x - m for x in range(m, m + t.k + 1) if x in s)
        checked += 1
    assert checked > 50


def test_enumerate_ak_counts():
    want = [1, 1, 3, 3, 9, 9, 27, 27]
    assert [sum(1 for _ in enumerate_ak(k)) for k in range(1, 9)] == want


def test_enumerate_ak_small_families():
    assert [sorted(t.a) for t in enumerate_ak(3)] == [[0], [0, 1], [0, 2]]
    assert [sorted(t.a) for t in enumerate_ak(4)] == [[0], [0, 1], [0, 3]]
    with pytest.raises(ValueError):
        list(enumerate_ak(0))


def test_enumerate_ak_realized_by_semigroups():
    # every admissible pair (A; k) with k <= 3 occurs in the tree by genus 12
    seen = set()
    for node in genus_layer(12):
        s = node.semigroup
        if s.multiplicity > 1 and frobenius_class(s) is FrobeniusClass.MID:
            t = type_ak(s)
            if t.k <= 3:
                seen.add((t.k, tuple(sorted(t.a))))
    want = {
        (k, tuple(sorted(t.a))) for k in range(1, 4) for t in enumerate_ak(k)
    }
    assert seen == want


def test_zhao_bound_examples():
    assert zhao_bound(TypeAK(2, frozenset({0})), 6) == 2
    assert zhao_bound(TypeAK(1, frozenset({0})), 5) == 2
    # bound collapses to zero when the index goes nonpositive
    assert zhao_bound(TypeAK(1, frozenset({0})), 2) == 0


def test_zhao_bound_dominates_small():
    counts = {}
    for node in genus_layer(11):
        s = node.semigroup
        if s.multiplicity > 1 and frobenius_class(s) is FrobeniusClass.MID:
            t = type_ak(s)
            counts[t] = counts.get(t, 0) + 1
    assert counts
    for t, n in counts.items():
        assert n <= zhao_bound(t, 11), t


def test_zhao_constant_partial():
    assert abs(zhao_constant_partial(0) - GOLDEN_RATIO / SQRT5) < 1e-12
    # phi + phi^-2 + phi^-3 telescopes to sqrt 5 exactly
    assert abs(zhao_constant_partial(2) - 1.0) < 1e-12
    prev = 0.0
    for k in range(0, 16):
        cur = zhao_constant_partial(k)
        assert cur >= prev
        prev = cur
    with pytest.raises(ValueError):
        zhao_constant_partial(-1)


def test_weight_decomposition_known_case():
    s = Semigroup.from_gaps([1, 2, 4, 5, 7])  # kunz (3, 2)
    dec = weight_decomposition_mid(s)
    assert dec.multiplicity == 3
    assert dec.s_count == 2
    assert dec.t_count == 1
    assert dec.two_level_sum == 0
    assert dec.three_level_sum == 0
    assert dec.direct_weight == 4
    assert dec.weight == 4
    assert dec.check


def test_weight_decomposition_requires_mid():
    with pytest.raises(SemigroupError):
        weight_decomposition_mid(Semigroup.from_generators([3, 5, 7]))


def test_weight_decomposition_exhaustive_small():
    total = 0
    for node in genus_layer(11):
        s = node.semigroup
        if s.multiplicity > 1 and frobenius_class(s) is FrobeniusClass.MID:
            dec = weight_decomposition_mid(s)
            assert dec.check
            assert dec.s_count + dec.t_count == s.genus - s.multiplicity + 1
            total += 1
    assert total > 100


def test_mid_decomposition_total_matches_tree():
    mfg = mfg_counts(13)
    direct = {}
    for (m, f, g), c in mfg.items():
        if 2 * m < f < 3 * m:
            direct[g] = direct.get(g, 0) + c
    for g in range(3, 14):
        assert mid_decomposition_total(g, mfg) == direct.get(g, 0), g
