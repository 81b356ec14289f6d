"""Sumset machinery and the gap-count obstruction tests."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcensus.buchweitz import (
    DEFAULT_N_CAP,
    MAX_N_CAP,
    _bits,
    add_gap,
    buchweitz_fails,
    buchweitz_horizon,
    classify_buchweitz,
    gap_sumsets,
    nfold_sumset,
    n_range,
)
from sgcensus.core import Semigroup
from sgcensus.enumeration import children, enumerate_by_genus, root

# the classical genus-16 obstruction witness
WITNESS_GAPS = tuple(range(1, 13)) + (19, 21, 24, 25)


def brute_sumset(values, n):
    return {sum(t) for t in combinations_with_replacement(sorted(values), n)}


def test_nfold_sumset_basics():
    assert nfold_sumset({1, 2}, 1) == {1, 2}
    assert nfold_sumset({1, 2}, 2) == {2, 3, 4}
    assert nfold_sumset({3, 7}, 3) == {9, 13, 17, 21}
    assert nfold_sumset(set(), 2) == set()
    with pytest.raises(ValueError):
        nfold_sumset({1}, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_nfold_sumset_matches_brute_force(values, n):
    assert nfold_sumset(values, n) == brute_sumset(values, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=14), st.data())
def test_add_gap_along_tree_descents(target, data):
    # each child adds its Frobenius number, a gap above all others
    node, sums = root(), (0,) * 4
    while node.semigroup.genus < target and children(node):
        node = data.draw(st.sampled_from(children(node)))
        sums = tuple(add_gap(sums, node.semigroup.frobenius))
        gaps = node.semigroup.gaps()
        assert [_bits(s) for s in sums] == [brute_sumset(gaps, k) for k in range(1, 5)]
        assert gap_sumsets(data.draw(st.permutations(gaps)), 4) == sums
        with_zero = tuple(add_gap(sums, 0))
        assert [_bits(s) for s in with_zero] == [
            brute_sumset(gaps + (0,), k) for k in range(1, 5)]
        assert gap_sumsets((0,) + gaps, 4) == with_zero


def test_witness_fails_at_two():
    s = Semigroup.from_gaps(WITNESS_GAPS)
    assert s.genus == 16
    assert len(nfold_sumset(WITNESS_GAPS, 2)) == 46  # threshold is 45
    assert buchweitz_fails(s, 2)


def test_ordinary_passes():
    s = Semigroup.from_gaps(range(1, 11))
    assert not buchweitz_fails(s, 2)
    assert not buchweitz_fails(s, 3)


def test_fails_rejects_bad_arguments():
    s = Semigroup.from_gaps(range(1, 11))
    with pytest.raises(ValueError):
        buchweitz_fails(s, 1)
    with pytest.raises(ValueError):
        buchweitz_fails(Semigroup.from_gaps([1]), 2)


def test_horizon():
    # F = 2g-1 leaves the bound unbounded in n
    assert buchweitz_horizon(Semigroup.from_gaps([1, 3])) is None
    assert buchweitz_horizon(Semigroup.from_gaps([1, 2])) == 1
    assert buchweitz_horizon(Semigroup.from_gaps(WITNESS_GAPS)) == 2
    with pytest.raises(ValueError):
        buchweitz_horizon(Semigroup.naturals())


def test_classify_witness_report():
    rep = classify_buchweitz(Semigroup.from_gaps(WITNESS_GAPS))
    assert rep.genus == 16
    assert rep.horizon == 2
    assert rep.fails_any
    assert rep.first_failure == 2
    assert not rep.capped
    assert rep.tests[0].n == 2
    assert rep.tests[0].size == 46
    assert rep.tests[0].threshold == 45
    assert rep.tests[0].fails
    d = rep.as_dict()
    assert d["first_failure"] == 2
    assert d["tests"][0]["size"] == 46


def test_classify_small_genus_cannot_fail():
    for s in (Semigroup.naturals(), Semigroup.from_gaps([1])):
        rep = classify_buchweitz(s)
        assert not rep.fails_any
        assert not rep.capped
        assert rep.tests == ()


def test_classify_capped_run():
    # F = 2g-2 gives horizon g-1, beyond the default cap for g = 10
    s = Semigroup.from_gaps(tuple(range(1, 10)) + (18,))
    rep = classify_buchweitz(s)
    assert rep.horizon == 9
    assert rep.n_cap == DEFAULT_N_CAP
    assert len(rep.tests) == DEFAULT_N_CAP - 1
    assert not rep.fails_any
    assert rep.capped
    deeper = classify_buchweitz(s, n_cap=9)
    assert not deeper.capped
    assert not deeper.fails_any


def test_classify_incremental_matches_direct():
    s = Semigroup.from_gaps(WITNESS_GAPS)
    rep = classify_buchweitz(s, n_cap=4)
    gaps = s.gaps()
    for t in rep.tests:
        assert t.size == len(nfold_sumset(gaps, t.n))
        assert t.threshold == (2 * t.n - 1) * (s.genus - 1)


def test_classify_rejects_tiny_cap():
    for n_cap in (1, MAX_N_CAP + 1, 10**9):
        with pytest.raises(ValueError):
            classify_buchweitz(Semigroup.from_gaps([1, 2]), n_cap=n_cap)
    # F = 2g-1 tests every n up to the cap
    rep = classify_buchweitz(Semigroup.from_gaps([1, 3]), n_cap=MAX_N_CAP)
    assert len(rep.tests) == MAX_N_CAP - 1
    assert rep.capped


def test_no_failure_beyond_the_horizon():
    # every semigroup of genus 2..12 against every n = 2..g+1, with |nH|
    # counted from its sumsets: nH lies in [n, nF], and past the horizon
    # or at F = 2g-1 (symmetric) it never exceeds (2n-1)(g-1)
    checked = 0

    def visit(node):
        nonlocal checked
        s = node.semigroup
        g, f = s.genus, s.frobenius
        if g < 2:
            return
        horizon = buchweitz_horizon(s)
        assert (horizon is None) == (f == 2 * g - 1)
        sums = gap_sumsets(s.gaps(), g + 1)
        for n in range(2, g + 2):
            size = sums[n - 1].bit_count()
            assert size <= n * (f - 1) + 1
            if horizon is None or n > horizon:
                assert size <= (2 * n - 1) * (g - 1), (s, n)
                checked += 1

    enumerate_by_genus(12, visit)
    assert checked > 10_000


def test_n_range_is_where_the_size_bound_permits_failure():
    # n can fail only while n(F-1)+1, the size of [n, nF], exceeds
    # (2n-1)(g-1); checked n by n up to 100 against the tested range
    for g in range(2, 31):
        for f in range(g, 2 * g):
            open_n = [n for n in range(2, 101) if n * (f - 1) + 1 > (2 * n - 1) * (g - 1)]
            for cap in (2, 3, DEFAULT_N_CAP, MAX_N_CAP):
                n_hi, capped = n_range(g, f, cap)
                assert list(range(2, n_hi + 1)) == [n for n in open_n if n <= cap]
                assert capped == any(n > cap for n in open_n)
    assert n_range(1, 1, DEFAULT_N_CAP) == (1, False)
