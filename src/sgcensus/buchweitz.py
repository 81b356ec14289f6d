"""n-fold gap sumsets and the Buchweitz obstruction.

A semigroup of genus g >= 2 with gap set H cannot occur as the set of
pole orders at a point of a smooth curve if |nH| > (2n-1)(g-1) for some
n > 1, where nH is the n-fold sumset.  Since H lives in [1, F] the size
bound |nH| <= n(F-1)+1 limits how far n is worth testing: failure at n
requires n(2g-1-F) < g, which is unbounded only in the symmetric case
F = 2g-1.  n_range decides which n are tested, for the census and
the per-semigroup report alike.

Sumsets are integer bitmaps, built one gap at a time: adding a gap x
to H gives k(H + {x}) = kH | (x + (k-1)(H + {x})), so the sumsets
1H .. kH of a set follow from those of the set without x by k
shift-ors.  Folding the gaps in any order gives them from scratch, and
the census carries them down the genus tree, where each child adds one
gap to its parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Semigroup


def add_gap(sums: Iterable[int], x: int) -> Iterator[int]:
    """The sumsets 1H', 2H', ... of H' = H + {x}, as bitmaps, from those
    of H in the same order.  Lazy, so a caller can stop at any k."""
    acc = 1  # 0H' = {0}
    for s in sums:
        acc = s | (acc << x)
        yield acc


def gap_sumsets(gaps: Iterable[int], k: int) -> tuple[int, ...]:
    """The sumsets (1H, .., kH) of the set H of gaps as bitmaps, built by
    adding the gaps one at a time."""
    sums = (0,) * k
    for x in gaps:
        if x < 0:
            raise ValueError(f"gap values must be nonnegative, got {x}")
        sums = tuple(add_gap(sums, x))
    return sums


def _bits(mask: int) -> set[int]:
    out = set()
    while mask:
        lsb = mask & -mask
        out.add(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def nfold_sumset(gaps: Iterable[int], n: int) -> set[int]:
    """All sums of exactly n elements of the given set, repeats allowed.

    Empty input gives the empty set for any n >= 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _bits(gap_sumsets(gaps, n)[-1])


def threshold(g: int, n: int) -> int:
    """(2n-1)(g-1), the largest |nH| that passes the obstruction."""
    return (2 * n - 1) * (g - 1)


def _horizon(g: int, f: int) -> Optional[int]:
    """Largest n at which |nH| <= n(F-1)+1 still permits a failure, or
    None when F = 2g-1 leaves every n in play."""
    d = 2 * g - 1 - f
    return (g - 1) // d if d else None


def n_range(g: int, f: int, n_cap: int) -> tuple[int, bool]:
    """(n_hi, capped): the obstruction is tested for n = 2 .. n_hi, an
    empty range for genus below 2, and capped is set when n_cap cut the
    range short of the horizon."""
    if g < 2:
        return 1, False
    horizon = _horizon(g, f)
    if horizon is None:
        return n_cap, True
    return min(horizon, n_cap), horizon > n_cap


def buchweitz_fails(s: Semigroup, n: int) -> bool:
    """Whether |nH| > (2n-1)(g-1).  Requires genus >= 2 and n >= 2."""
    if n < 2:
        raise ValueError("the obstruction is only defined for n >= 2")
    if s.genus < 2:
        raise ValueError("the obstruction needs genus >= 2")
    return gap_sumsets(s.gaps(), n)[-1].bit_count() > threshold(s.genus, n)


def buchweitz_horizon(s: Semigroup) -> Optional[int]:
    """Largest n at which the size bound still permits a failure, or
    None when F = 2g-1 leaves every n in play.  Requires genus >= 2."""
    if s.genus < 2:
        raise ValueError("the obstruction needs genus >= 2")
    return _horizon(s.genus, s.frobenius)


@dataclass(frozen=True)
class BuchweitzTest:
    n: int
    size: int
    threshold: int
    fails: bool


@dataclass(frozen=True)
class BuchweitzReport:
    """Outcome of testing the obstruction for n = 2 .. min(horizon, n_cap).

    horizon None means the symmetric case with no finite testing bound;
    capped is set when the tested range was truncated at n_cap without a
    failure, leaving the question open beyond the cap.
    """

    genus: int
    horizon: Optional[int]
    n_cap: int
    tests: tuple[BuchweitzTest, ...]
    fails_any: bool
    first_failure: Optional[int]
    capped: bool

    def as_dict(self) -> dict:
        return {
            "genus": self.genus,
            "horizon": self.horizon,
            "n_cap": self.n_cap,
            "capped": self.capped,
            "fails_any": self.fails_any,
            "first_failure": self.first_failure,
            "tests": [
                {"n": t.n, "size": t.size, "threshold": t.threshold, "fails": t.fails}
                for t in self.tests
            ],
        }


DEFAULT_N_CAP = 8
# sumsets are built for every n up to the cap; every finite horizon
# through the genus cap of 30 is at most 29
MAX_N_CAP = 64


def classify_buchweitz(s: Semigroup, n_cap: int = DEFAULT_N_CAP) -> BuchweitzReport:
    """Run the obstruction over every n the size bound leaves open, up
    to n_cap.  Genus 0 and 1 cannot fail and report an empty test list.
    """
    if not 2 <= n_cap <= MAX_N_CAP:
        raise ValueError(f"n_cap must be between 2 and {MAX_N_CAP}")
    g = s.genus
    if g < 2:
        return BuchweitzReport(g, 1, n_cap, (), False, None, False)
    n_hi, capped = n_range(g, s.frobenius, n_cap)
    tests = []
    first = None
    sums = gap_sumsets(s.gaps(), n_hi)
    for n in range(2, n_hi + 1):
        size, bound = sums[n - 1].bit_count(), threshold(g, n)
        fails = size > bound
        tests.append(BuchweitzTest(n, size, bound, fails))
        if fails:
            first = n
            break
    fails_any = first is not None
    return BuchweitzReport(
        genus=g,
        horizon=buchweitz_horizon(s),
        n_cap=n_cap,
        tests=tuple(tests),
        fails_any=fails_any,
        first_failure=first,
        capped=capped and not fails_any,
    )
