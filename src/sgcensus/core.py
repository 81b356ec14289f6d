"""Core numerical semigroup type.

A numerical semigroup is an additively closed subset of the nonnegative
integers that contains 0 and has finite complement.  The representation
is a membership bitmap over [0, F], where F is the Frobenius number
(largest gap), laid out as the genus tree's nodes are, together with
the three statistics everything else keeps asking for: multiplicity,
Frobenius number, and genus.  Every integer above F is a member
implicitly.  The full semigroup of all nonnegative integers is encoded
with F = -1, genus 0, multiplicity 1.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .kunz import KunzVector, KunzViolationError, violations as _kunz_violations


class SemigroupError(ValueError):
    """Base for construction errors."""


class InfiniteComplementError(SemigroupError):
    """Generators with gcd > 1 leave infinitely many gaps."""


class InvalidGapSetError(SemigroupError):
    """A proposed gap set whose complement is not additively closed.

    witness holds a pair of complement members whose sum lands in the
    gap set.
    """

    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(
            f"complement is not additively closed: {a} + {b} = {a + b} is a gap"
        )


class Semigroup:
    """Immutable numerical semigroup.

    Prefer the factory classmethods; the raw constructor trusts its
    arguments.  The bitmap covers [0, frobenius] with bit i giving
    membership of i; bit 0 is always set.
    """

    __slots__ = ("_mask", "multiplicity", "frobenius", "genus")

    def __init__(self, mask: int, multiplicity: int, frobenius: int, genus: int):
        self._mask = mask
        self.multiplicity = multiplicity
        self.frobenius = frobenius
        self.genus = genus

    # -- factories ---------------------------------------------------------

    @classmethod
    def naturals(cls) -> "Semigroup":
        return cls(1, 1, -1, 0)

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> "Semigroup":
        """Closure of the given positive integers under addition.

        Errors: empty input, nonpositive entries, or gcd > 1 (the
        complement would be infinite).
        """
        gens = sorted(set(int(x) for x in generators))
        if not gens:
            raise SemigroupError("at least one generator is required")
        if gens[0] <= 0:
            raise SemigroupError(f"generators must be positive, got {gens[0]}")
        d = 0
        for a in gens:
            d = gcd(d, a)
        if d != 1:
            raise InfiniteComplementError(
                f"generators share the common factor {d}; complement is infinite"
            )
        if gens[0] == 1:
            return cls.naturals()
        # every Apery element is a sum of at most m-1 generators, so
        # F < (m-1) max(gens) and the window [0, (m-1) max(gens)] holds
        # every gap; closing under a by doubling steps a, 2a, 4a, ..
        # adds every multiple of a that fits
        top = (gens[0] - 1) * gens[-1]
        window = (1 << (top + 1)) - 1
        mask = 1
        for a in gens:
            step = a
            while step <= top:
                mask |= (mask << step) & window
                step <<= 1
        frob = (window ^ mask).bit_length() - 1
        mask &= (1 << (frob + 1)) - 1
        return cls(mask, gens[0], frob, frob + 1 - mask.bit_count())

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "Semigroup":
        """Semigroup whose complement is exactly the given gap set.

        The set must be strictly increasing and positive, and its
        complement additively closed; otherwise InvalidGapSetError names
        a witness pair.
        """
        gap_list = [int(x) for x in gaps]
        if not gap_list:
            return cls.naturals()
        if gap_list[0] <= 0:
            raise SemigroupError(f"gaps must be positive, got {gap_list[0]}")
        for a, b in zip(gap_list, gap_list[1:]):
            if a >= b:
                raise SemigroupError(
                    f"gaps must be strictly increasing, got {a} before {b}"
                )
        frob = gap_list[-1]
        gap_bits = 0
        for a in gap_list:
            gap_bits |= 1 << a
        mask = ((1 << (frob + 1)) - 1) ^ gap_bits
        # closure: for each member a <= F/2, the members b >= a shifted
        # up by a meet no gap (sums above F cannot); the lowest hit
        # under the smallest such a is the witness pair
        small = mask & ((1 << (frob // 2 + 1)) - 2)
        while small:
            a = (small & -small).bit_length() - 1
            hit = (mask >> a << 2 * a) & gap_bits
            if hit:
                raise InvalidGapSetError(a, (hit & -hit).bit_length() - 1 - a)
            small &= small - 1
        # with no member in [1, F] the semigroup is ordinary: m = F + 1
        low = mask & ~1
        m = (low & -low).bit_length() - 1 if low else frob + 1
        return cls(mask, m, frob, len(gap_list))

    @classmethod
    def from_kunz(cls, vec: KunzVector) -> "Semigroup":
        """Semigroup with the given Kunz coordinates.

        Raises KunzViolationError naming every violated inequality when
        the vector is not admissible.
        """
        bad = _kunz_violations(vec)
        if bad:
            raise KunzViolationError(vec, bad)
        m = vec.multiplicity
        k = vec.coordinates
        frob = max(k[i - 1] * m + i for i in range(1, m)) - m
        genus = sum(k)
        mask = (1 << (frob + 1)) - 1
        for i in range(1, m):
            for c in range(k[i - 1]):
                # the largest gap in class i is k_i*m + i - m <= frob
                mask &= ~(1 << (c * m + i))
        return cls(mask, m, frob, genus)

    # -- queries -----------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return bool((self._mask >> n) & 1)

    def gaps(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, self.frobenius + 1) if not (self._mask >> i) & 1
        )

    def gap_sum(self) -> int:
        return sum(self.gaps())

    def weight(self) -> int:
        """Gap sum minus the smallest possible gap sum g(g+1)/2."""
        g = self.genus
        return self.gap_sum() - g * (g + 1) // 2

    def minimal_generators(self) -> tuple[int, ...]:
        """Members that are not the sum of two nonzero members."""
        if self.frobenius < 0:
            return (1,)
        frob = self.multiplicity + self.frobenius
        small = self._mask & ~1  # nonzero members up to frobenius
        ext = small | (((1 << (frob - self.frobenius)) - 1) << (self.frobenius + 1))
        sums = 0
        w = small
        while w:
            lsb = w & -w
            sums |= ext << (lsb.bit_length() - 1)
            w ^= lsb
        return tuple(
            x
            for x in range(self.multiplicity, frob + 1)
            if (x > self.frobenius or (self._mask >> x) & 1) and not (sums >> x) & 1
        )

    def kunz_vector(self) -> KunzVector:
        """Coordinates of the least member in each nonzero residue class
        mod the multiplicity.  The full semigroup has none."""
        m = self.multiplicity
        if m == 1:
            raise SemigroupError(
                "the semigroup of all nonnegative integers has no Kunz coordinates"
            )
        coords = []
        for i in range(1, m):
            j = i
            while not (j > self.frobenius or (self._mask >> j) & 1):
                j += m
            coords.append((j - i) // m)
        return KunzVector(m, tuple(coords))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Semigroup):
            return NotImplemented
        return self.frobenius == other.frobenius and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._mask, self.frobenius))

    def __repr__(self) -> str:
        return f"Semigroup(gaps={self.gaps()!r})"
