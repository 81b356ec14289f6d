"""Genus-tree enumeration of numerical semigroups.

Every semigroup of genus g+1 arises from exactly one semigroup of genus
g by removing a single minimal generator larger than the Frobenius
number, so depth-first traversal of the resulting tree visits each
semigroup exactly once.  Internally a node is a plain tuple

    (mask, rev, multiplicity, frobenius, genus, gap_sum, generators)

where mask is the membership bitmap over [0, frobenius], laid out as
in Semigroup, rev the same bitmap reversed about the Frobenius number
(bit F - i is set iff i is a member and i <= F), and generators lists
the removable minimal generators in increasing order.  Removing
generator x from node S only ever creates a new minimal generator at
x + m (or 2m, 2m+1 when x is the multiplicity itself), and x + m is
one unless it is a sum of two nonzero members of the child: one AND
of the child's mask with its rev shifted by m answers that, the
bit-parallel test of Bras-Amoros and Fernandez-Gonzalez ("Computation
of numerical semigroups by means of seeds", Math. Comp. 87, 2018).
Both bitmaps are relative to F, so no width is fixed in advance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from typing import Any, Callable, Optional

from .core import Semigroup
from .partitions import GOLDEN_RATIO

RawNode = tuple[int, int, int, int, int, int, tuple[int, ...]]

_ROOT: RawNode = (1, 0, 1, -1, 0, 0, (1,))

DEFAULT_GENUS_CAP = 30
BRUTE_FORCE_CAP = 10


class ResourceLimitError(RuntimeError):
    """Refusal to walk a tree whose size grows like the golden ratio
    raised to the genus."""

    def __init__(self, g_max: int, cap: int):
        self.g_max = g_max
        self.cap = cap
        super().__init__(
            f"genus {g_max} exceeds the enumeration cap {cap}: expect on the "
            f"order of {GOLDEN_RATIO ** g_max:.2e} semigroups at that genus"
        )


def _raw_children(node: RawNode) -> list[RawNode]:
    mask, rev, m, frob, g, gap_sum, gens = node
    out = []
    f1 = frob + 1
    g1 = g + 1
    for idx, x in enumerate(gens):
        # the child's members in (F, x) fill bits F+1 .. x-1 of its
        # mask and bits 1 .. ext of its rev, which moves up by x - F
        ext = x - f1
        fill = (1 << ext) - 1
        cmask = mask | (fill << f1)
        crev = (rev << (ext + 1)) | (fill << 1)
        tail = gens[idx + 1 :]
        if x == m:
            # only the ordinary semigroup has its multiplicity removable;
            # 2m and 2m + 1 then have no two addends of at least m + 1
            out.append((cmask, crev, m + 1, x, g1, gap_sum + x, tail + (x + m, x + m + 1)))
            continue
        # x + m is a new minimal generator unless it is a sum of two
        # nonzero members of the child, both then in [m, x]; crev << m
        # sets bit x + m - i for each member i <= x, so a bit it shares
        # with cmask is such a pair
        if not cmask & (crev << m):
            tail += (x + m,)
        out.append((cmask, crev, m, x, g1, gap_sum + x, tail))
    return out


def _raw_to_semigroup(raw: RawNode) -> Semigroup:
    return Semigroup(raw[0], *raw[2:5])


@dataclass(frozen=True)
class TreeNode:
    """Public view of a tree node: the semigroup, the generators whose
    removal yields its children, and the running gap sum."""

    semigroup: Semigroup
    removable: tuple[int, ...]
    gap_sum: int


def _node_to_raw(node: TreeNode) -> RawNode:
    s = node.semigroup
    f = s.frobenius
    rev = int(f"{s._mask:0{f + 1}b}"[::-1], 2) if f >= 0 else 0
    return (s._mask, rev, s.multiplicity, f, s.genus, node.gap_sum, node.removable)


def _raw_to_node(raw: RawNode) -> TreeNode:
    return TreeNode(_raw_to_semigroup(raw), raw[6], raw[5])


def root() -> TreeNode:
    """The full semigroup of nonnegative integers, genus 0."""
    return _raw_to_node(_ROOT)


def children(node: TreeNode) -> list[TreeNode]:
    """Children in increasing order of the removed generator."""
    return [_raw_to_node(raw) for raw in _raw_children(_node_to_raw(node))]


def _check_cap(g_max: int) -> None:
    if g_max > DEFAULT_GENUS_CAP:
        raise ResourceLimitError(g_max, DEFAULT_GENUS_CAP)


def enumerate_by_genus(
    g_max: int, visitor: Optional[Callable[[TreeNode], None]] = None
) -> Counter:
    """Walk the tree through genus g_max, invoking visitor once per
    semigroup (the full semigroup included, at genus 0).  Returns the
    number of semigroups of each genus.

    Sequential and deterministic: depth-first, children in increasing
    order of removed generator.  Nothing is materialized beyond the DFS
    stack.  Refuses g_max beyond DEFAULT_GENUS_CAP.
    """
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    _check_cap(g_max)
    by_genus: Counter = Counter()
    stack: list[RawNode] = [_ROOT]
    pop = stack.pop
    while stack:
        raw = pop()
        g = raw[4]
        by_genus[g] += 1
        if visitor is not None:
            visitor(_raw_to_node(raw))
        if g < g_max:
            kids = _raw_children(raw)
            for child in reversed(kids):
                stack.append(child)
    return by_genus


def genus_layer(depth: int) -> list[TreeNode]:
    """All tree nodes of the given genus, in enumeration order."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    _check_cap(depth)
    layer = [_ROOT]
    for _ in range(depth):
        layer = [child for raw in layer for child in _raw_children(raw)]
    return [_raw_to_node(raw) for raw in layer]


def _histogram_walk(
    node: RawNode,
    g_lo: int,
    g_hi: int,
    visit: Optional[Callable[[Any, Optional[int], int, int, bool], Any]] = None,
) -> tuple[list[list[int]], list[list[int]]]:
    """Per-genus histograms of the subtree under a raw node, counting
    its nodes of genus g_lo .. g_hi (g_lo >= 1).

    Returns (mf, wf), lists indexed by genus of flat count lists:
    mf[g][2g*m + F] counts by multiplicity and Frobenius number, and
    wf[g][2w + (F < 2m)] by weight, split on F < 2m.  Their shapes
    depend on the genus alone, so walks of different subtrees add
    elementwise.  Nodes of genus g_hi are tallied from their parent
    without building generator lists.

    visit(carried, mask, F, g, leaf), when given, runs once per node of
    the subtree through g_hi, counted or not, with its membership bitmap
    over [0, F].  What it returns at a node is carried to its children:
    carried is the value returned at the parent, None at the subtree
    root.  leaf is true only at nodes whose children the walk does not
    visit, so that visit can skip work kept for them.  Nodes of genus
    g_hi below the subtree root get mask None, and no bitmap is built
    for them: each has its parent's carried value, and the census
    reads the bitmap only at a subtree root.  A _split root has genus
    at most g_hi - 1, so in the census every node of genus g_hi is
    such a node.
    """
    mf = [[0] * (2 * g * (g + 2)) for g in range(g_hi + 1)]
    wf = [[0] * (g * (g - 1) + 2) for g in range(g_hi + 1)]
    tri = [g * (g + 1) // 2 for g in range(g_hi + 1)]
    # carried[g + 1] holds the value visit returned at the last node of
    # genus g, which in depth-first order is the parent of the next
    # node of genus g + 1
    carried: list[Any] = [None] * (g_hi + 2)
    last = g_hi - 1
    stack: list[RawNode] = [node]
    pop = stack.pop
    extend = stack.extend
    while stack:
        node = pop()
        mask, _, m, frob, g, gap_sum, gens = node
        if g >= g_lo:
            mf[g][2 * g * m + frob] += 1
            w = gap_sum - tri[g]
            wf[g][w + w + (frob < m + m)] += 1
        if visit is not None:
            carried[g + 1] = visit(carried[g], mask, frob, g, not gens)
        if g < last:
            extend(_raw_children(node))
        elif g == last:
            g1 = g + 1
            mf1, wf1 = mf[g1], wf[g1]
            stride = 2 * g1
            w0 = gap_sum - tri[g1]
            for x in gens:
                m1 = m + 1 if x == m else m
                mf1[stride * m1 + x] += 1
                w = w0 + x
                wf1[w + w + (x < m1 + m1)] += 1
                if visit is not None:
                    visit(carried[g1], None, x, g1, True)
    return mf, wf


def _split(g_hi: int, n: int) -> list[RawNode]:
    """About n raw nodes whose subtrees, walked through g_hi by
    _histogram_walk, partition the tree through g_hi.  The tree is
    skewed towards the ordinary semigroups, so the node of genus below
    g_hi - 1 with the most removable generators is replaced by its
    children and a copy of itself with none (a one-node subtree) until
    there are n nodes or none is left to expand."""

    def entry(node: RawNode) -> tuple[int, RawNode]:
        return (-len(node[6]) if node[4] < g_hi - 1 else 0, node)

    heap = [entry(_ROOT)]
    while len(heap) < n and heap[0][0] < 0:
        _, node = heappop(heap)
        for child in _raw_children(node) + [node[:6] + ((),)]:
            heappush(heap, entry(child))
    return [node for _, node in heap]


def mf_cells(g: int, cells: list[int]) -> list[tuple[int, int, int]]:
    """(multiplicity, frobenius, count) for each nonzero cell of a
    genus-g (m, F) histogram."""
    stride = 2 * g
    return [(i // stride, i % stride, c) for i, c in enumerate(cells) if c]


def weight_cells(cells: list[int]) -> list[tuple[int, bool, int]]:
    """(weight, F < 2m, count) for each nonzero cell of a weight
    histogram, in increasing order of weight."""
    return [(i >> 1, bool(i & 1), c) for i, c in enumerate(cells) if c]


def mfg_counts(g_max: int) -> Counter:
    """Counter keyed by (multiplicity, frobenius, genus) over every
    semigroup of genus <= g_max.  One cheap walk serves several tables."""
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    _check_cap(g_max)
    counts: Counter = Counter({(1, -1, 0): 1})
    mf, _ = _histogram_walk(_ROOT, 1, g_max)
    for g in range(1, g_max + 1):
        for m, f, c in mf_cells(g, mf[g]):
            counts[(m, f, g)] = c
    return counts


def count_matrix(g_max: int) -> dict[tuple[int, int], int]:
    """Table N(multiplicity, genus) for every genus <= g_max."""
    table: dict[tuple[int, int], int] = {}
    for (m, _, g), c in mfg_counts(g_max).items():
        key = (m, g)
        table[key] = table.get(key, 0) + c
    return table


def brute_force_by_genus(genus: int) -> list[Semigroup]:
    """Independent oracle: filter all genus-sized subsets of [1, 2g-1]
    whose complement is additively closed.  Refuses genus > 10."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus > BRUTE_FORCE_CAP:
        raise ResourceLimitError(genus, BRUTE_FORCE_CAP)
    if genus == 0:
        return [Semigroup.naturals()]
    found = []
    for gaps in combinations(range(1, 2 * genus), genus):
        gset = frozenset(gaps)
        frob = gaps[-1]
        ok = True
        for a in range(1, frob // 2 + 1):
            if a in gset:
                continue
            for b in range(a, frob - a + 1):
                if b not in gset and (a + b) in gset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(Semigroup.from_gaps(gaps))
    return found
