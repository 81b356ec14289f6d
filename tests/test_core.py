"""Semigroup construction, invariants, and conversions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgcensus.core import (
    InfiniteComplementError,
    InvalidGapSetError,
    Semigroup,
    SemigroupError,
)
from sgcensus.enumeration import enumerate_by_genus


def test_naturals():
    s = Semigroup.naturals()
    assert s.multiplicity == 1
    assert s.frobenius == -1
    assert s.genus == 0
    assert s.gaps() == ()
    assert s.weight() == 0
    assert s.minimal_generators() == (1,)
    assert 0 in s and 1 in s and 17 in s


def test_from_generators_basic():
    s = Semigroup.from_generators([3, 5, 7])
    assert s.gaps() == (1, 2, 4)
    assert s.multiplicity == 3
    assert s.frobenius == 4
    assert s.genus == 3
    assert s.minimal_generators() == (3, 5, 7)
    assert 3 in s and 4 not in s and 5 in s


def test_from_generators_redundant_and_unsorted():
    # 8 = 3 + 5 is not minimal and must be dropped
    s = Semigroup.from_generators([7, 5, 3, 8])
    assert s.minimal_generators() == (3, 5, 7)


def test_from_generators_containing_one():
    assert Semigroup.from_generators([1]) == Semigroup.naturals()


def test_from_generators_needs_gcd_one():
    with pytest.raises(InfiniteComplementError):
        Semigroup.from_generators([4, 6])
    with pytest.raises(SemigroupError):
        Semigroup.from_generators([])


def test_from_generators_inverts_minimal_generators():
    def visit(node):
        s = node.semigroup
        t = Semigroup.from_generators(s.minimal_generators())
        assert t == s
        assert (t.multiplicity, t.frobenius, t.genus) == (s.multiplicity, s.frobenius, s.genus)

    enumerate_by_genus(12, visit)


def test_from_generators_window_bound():
    # two coprime generators a < b: F = ab - a - b, g = (a-1)(b-1)/2,
    # close under the window's bound (a-1)b
    s = Semigroup.from_generators([100, 10001])
    assert (s.multiplicity, s.frobenius, s.genus) == (100, 989_999, 495_000)
    assert 989_999 - 10001 not in s and 10001 * 98 in s


def test_from_gaps_roundtrip():
    gaps = (1, 2, 3, 4, 6, 8)
    s = Semigroup.from_gaps(gaps)
    assert s.gaps() == gaps
    assert s.multiplicity == 5
    assert s.frobenius == 8
    assert s.genus == 6


def test_from_gaps_empty_is_naturals():
    assert Semigroup.from_gaps(()) == Semigroup.naturals()


def test_from_gaps_rejects_open_complement():
    with pytest.raises(InvalidGapSetError) as exc:
        Semigroup.from_gaps([1, 2, 5, 8])
    # the witness names a concrete sum landing on a gap
    assert "4 + 4 = 8" in str(exc.value)


def pair_loop_witness(gaps):
    """The first pair a <= b of nonzero members, by a then b, whose
    sum is a gap; None when the complement is closed."""
    gap_set = set(gaps)
    members = [x for x in range(1, max(gaps) + 1) if x not in gap_set]
    for a in members:
        for b in members:
            if a <= b and a + b in gap_set:
                return (a, b)
    return None


@st.composite
def gap_sets(draw):
    """Every integer below a drawn multiplicity, then any of the
    integers up to F, F included; closed and open complements both
    come up often."""
    frob = draw(st.integers(min_value=1, max_value=60))
    m = draw(st.integers(min_value=1, max_value=frob))
    rest = draw(st.sets(st.integers(min_value=m, max_value=frob)))
    return sorted(set(range(1, m)) | rest | {frob})


@given(gap_sets())
def test_from_gaps_matches_pair_loop(gaps):
    witness = pair_loop_witness(gaps)
    if witness is not None:
        with pytest.raises(InvalidGapSetError) as exc:
            Semigroup.from_gaps(gaps)
        assert exc.value.witness == witness
        return
    s = Semigroup.from_gaps(gaps)
    assert s.gaps() == tuple(gaps)
    assert (s.frobenius, s.genus) == (gaps[-1], len(gaps))
    assert s.multiplicity == min(set(range(1, gaps[-1] + 2)) - set(gaps))


def test_from_gaps_rejects_nonpositive():
    with pytest.raises(SemigroupError):
        Semigroup.from_gaps([0, 1])
    with pytest.raises(SemigroupError):
        Semigroup.from_gaps([-2, 1])


def test_weight_and_gap_sum():
    s = Semigroup.from_generators([3, 5, 7])
    assert s.gap_sum() == 7
    assert s.weight() == 1  # 7 - 3*4/2
    ordinary = Semigroup.from_gaps(range(1, 8))
    assert ordinary.weight() == 0


def test_equality_and_hash():
    a = Semigroup.from_generators([3, 5, 7])
    b = Semigroup.from_gaps([1, 2, 4])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Semigroup.from_gaps([1, 2, 5])


def test_kunz_roundtrip():
    s = Semigroup.from_gaps([1, 2, 4, 5, 7])
    vec = s.kunz_vector()
    assert vec.multiplicity == 3
    assert vec.coordinates == (3, 2)
    assert Semigroup.from_kunz(vec) == s


def test_kunz_vector_of_naturals_refused():
    with pytest.raises(SemigroupError):
        Semigroup.naturals().kunz_vector()


def test_membership_beyond_frobenius():
    s = Semigroup.from_gaps([1, 2, 4, 5, 7])
    for n in range(8, 40):
        assert n in s
    assert -1 not in s
