"""Landscape position of a semigroup and the structure of the mid band.

Position is set by where F falls against the multiplicity: at m - 1
(ordinary), in (m, 2m), in (2m, 3m), or above 3m.  F is never a
multiple of m, so the bands partition everything except the naturals.

In the mid band every Kunz coordinate is 1, 2 or 3 and the semigroup
carries a small additive invariant: with k = F - 2m, the set
A = (S intersect [m, m+k]) - m contains 0 and avoids writing k as a
two-element sum.  The number of mid semigroups of genus g with a given
(A; k) grows like a Fibonacci number whose index is shifted by a
statistic of A, and summing those shifts over all (A; k) refines the
golden-ratio growth constant of the whole count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Iterator, Mapping

from .core import Semigroup, SemigroupError
from .partitions import GOLDEN_RATIO, SQRT5, fibonacci


class FrobeniusClass(enum.Enum):
    ORDINARY = "ordinary"
    LOW = "low"
    MID = "mid"
    HIGH = "high"


def frobenius_class(s: Semigroup) -> FrobeniusClass:
    m = s.multiplicity
    f = s.frobenius
    if m == 1:
        raise SemigroupError("the naturals have no Frobenius class")
    if f == m - 1:
        return FrobeniusClass.ORDINARY
    if f < 2 * m:
        return FrobeniusClass.LOW
    if f < 3 * m:
        return FrobeniusClass.MID
    return FrobeniusClass.HIGH


def eisenbud_harris(s: Semigroup) -> bool:
    """F < 2m together with weight strictly below g - 1."""
    return s.frobenius < 2 * s.multiplicity and s.weight() < s.genus - 1


@dataclass(frozen=True)
class TypeAK:
    """Additive type of a mid-band semigroup: k = F - 2m and the set of
    member offsets A = (S intersect [m, m+k]) - m."""

    k: int
    a: frozenset[int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if 0 not in self.a:
            raise ValueError("0 must belong to A")
        if not all(0 <= x < self.k for x in self.a):
            raise ValueError(f"A must sit inside [0, {self.k - 1}]")
        sums = {x + y for x in self.a for y in self.a}
        if self.k in sums:
            raise ValueError("A + A must avoid k")

    def sumset_overlap(self) -> int:
        """|(A + A) intersect [0, k]|."""
        sums = {x + y for x in self.a for y in self.a}
        return sum(1 for v in sums if v <= self.k)


def type_ak(s: Semigroup) -> TypeAK:
    if frobenius_class(s) is not FrobeniusClass.MID:
        raise SemigroupError("additive type is defined on the mid band only")
    m = s.multiplicity
    k = s.frobenius - 2 * m
    a = frozenset(x - m for x in range(m, m + k + 1) if x in s)
    return TypeAK(k, a)


def enumerate_ak(k: int) -> Iterator[TypeAK]:
    """All admissible types for a given k, in lexicographic order of A.

    Candidates 1 .. k-1 are tried in order; adding a is blocked exactly
    when it completes a two-element sum to k against the current set.
    """
    if k < 1:
        raise ValueError("k must be positive")

    chosen = [0]

    def walk(nxt: int) -> Iterator[TypeAK]:
        if nxt == k:
            yield TypeAK(k, frozenset(chosen))
            return
        yield from walk(nxt + 1)
        if 2 * nxt != k and (k - nxt) not in set(chosen):
            chosen.append(nxt)
            yield from walk(nxt + 1)
            chosen.pop()

    # lexicographic on the subset means smaller sets come after their
    # supersets under the naive order; sort materialized instead
    out = sorted(walk(1), key=lambda t: sorted(t.a))
    return iter(out)


def zhao_bound(t: TypeAK, genus: int) -> int:
    """Fibonacci bound on the number of mid-band semigroups of the
    given genus and type, zero when the shifted index drops to zero."""
    idx = genus - t.sumset_overlap() + len(t.a) - t.k - 1
    if idx <= 0:
        return 0
    return fibonacci(idx)


def zhao_constant_partial(k_max: int) -> float:
    """Partial value of the refined growth constant: the F < 2m side
    contributes phi/sqrt5, each type (A; k) with k <= k_max adds
    phi^(|A| - |(A+A) cap [0,k]| - k - 1) / sqrt5."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    total = GOLDEN_RATIO / SQRT5
    for k in range(1, k_max + 1):
        for t in enumerate_ak(k):
            e = len(t.a) - t.sumset_overlap() - t.k - 1
            total += GOLDEN_RATIO**e / SQRT5
    return total


@dataclass(frozen=True)
class MidWeightDecomposition:
    """Weight of a mid-band semigroup split along its Kunz coordinates.

    With i_1 < ... < i_s the residues whose coordinate is at least 2
    and j_1 < ... < j_t those equal to 3, the gaps above m contribute
    sum(i_a - a) + s from the band (m, 2m) and
    sum(j_a - a) + t(m - s + 1) from the band (2m, 3m).  check records
    whether the recomposed value equals the directly measured weight.
    """

    multiplicity: int
    s_count: int
    t_count: int
    two_level_sum: int
    three_level_sum: int
    direct_weight: int

    @property
    def weight(self) -> int:
        return (
            self.two_level_sum
            + self.s_count
            + self.three_level_sum
            + self.t_count * (self.multiplicity - self.s_count + 1)
        )

    @property
    def check(self) -> bool:
        return self.weight == self.direct_weight


def weight_decomposition_mid(s: Semigroup) -> MidWeightDecomposition:
    if frobenius_class(s) is not FrobeniusClass.MID:
        raise SemigroupError("the decomposition is defined on the mid band only")
    vec = s.kunz_vector()
    twos = [i for i, k in enumerate(vec.coordinates, start=1) if k >= 2]
    threes = [i for i, k in enumerate(vec.coordinates, start=1) if k == 3]
    return MidWeightDecomposition(
        multiplicity=s.multiplicity,
        s_count=len(twos),
        t_count=len(threes),
        two_level_sum=sum(i - a for a, i in enumerate(twos, start=1)),
        three_level_sum=sum(j - a for a, j in enumerate(threes, start=1)),
        direct_weight=s.weight(),
    )


def mid_decomposition_total(
    genus: int, mfg: Mapping[tuple[int, int, int], int]
) -> int:
    """Mid-band total at one genus, rebuilt from semigroups with
    F = 3m - 1 by appending coordinate tails of ones and twos.

    Every mid vector splits at a, the last residue with coordinate 3:
    the head is itself a valid vector of multiplicity a + 1 ending in a
    3, and the tail entries are free in {1, 2}.  With b the head genus
    the tail holds m - 1 - a slots of which g - b - (m - 1 - a) carry
    a 2, so the count per head is a single binomial.
    """
    total = 0
    for b in range(3, genus + 1):
        for a in range((b + 2) // 3, b + 1):
            head = mfg.get((a + 1, 3 * a + 2, b), 0)
            if not head:
                continue
            for m in range(a + 1, genus + 1):
                slots = m - 1 - a
                twos = genus - b - slots
                if 0 <= twos <= slots:
                    total += head * comb(slots, twos)
    return total
