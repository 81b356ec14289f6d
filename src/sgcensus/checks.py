"""Exhaustive cross-checks between independent counting routes.

Each check returns a list of discrepancies, empty on success, so the
command-line verify front end and the test suite share one
implementation.  Bounds are arguments; the defaults used by the CLI
live there.
"""

from __future__ import annotations

from collections import Counter

from . import enumeration
from .classify import (
    FrobeniusClass,
    frobenius_class,
    mid_decomposition_total,
    type_ak,
    weight_decomposition_mid,
    zhao_bound,
)
from .kunz import count_f_below_2m, count_vectors
from .partitions import count_by_weight_f2m, fibonacci


def f2m_fibonacci_check(g_max: int) -> list[tuple]:
    """Per genus, semigroups with F < 2m counted three ways: the tree,
    the binomial sum over Kunz profiles, and the Fibonacci value."""
    mfg = enumeration.mfg_counts(g_max)
    tree = Counter()
    for (m, f, g), n in mfg.items():
        if f < 2 * m:
            tree[g] += n
    bad = []
    for g in range(1, g_max + 1):
        want = fibonacci(g + 1)
        by_formula = count_f_below_2m(g)
        if tree[g] != want or by_formula != want:
            bad.append((g, tree[g], by_formula, want))
    return bad


def qbinom_bijection_check(g_max: int) -> list[tuple]:
    """Every (genus, multiplicity, weight) cell with F < 2m against the
    restricted-partition formula, zero cells included."""
    cells: Counter = Counter()

    def visit(node):
        s = node.semigroup
        if s.genus and s.frobenius < 2 * s.multiplicity:
            cells[(s.genus, s.multiplicity, s.weight())] += 1

    enumeration.enumerate_by_genus(g_max, visit)
    bad = []
    for g in range(1, g_max + 1):
        w_hi = g * (g + 1) // 2
        for m in range(1, g + 2):
            for w in range(w_hi + 1):
                got = cells.get((g, m, w), 0)
                want = count_by_weight_f2m(g, m, w)
                if got != want:
                    bad.append((g, m, w, got, want))
    return bad


def kunz_equivalence_check(g_max: int) -> list[tuple]:
    """N(m, g) from lattice-point enumeration of the coordinate
    inequality system against the tree, every multiplicity."""
    table = enumeration.count_matrix(g_max)
    bad = []
    for g in range(1, g_max + 1):
        for m in range(2, g + 2):
            by_lattice = count_vectors(m, g)
            by_tree = table.get((m, g), 0)
            if by_lattice != by_tree:
                bad.append((m, g, by_lattice, by_tree))
    return bad


def zhao_domination_check(g_max: int) -> list[tuple]:
    """Actual count of each mid-band type (A; k) per genus against its
    Fibonacci bound."""
    seen: Counter = Counter()

    def visit(node):
        s = node.semigroup
        if s.genus and s.multiplicity > 1:
            if frobenius_class(s) is FrobeniusClass.MID:
                seen[(s.genus, type_ak(s))] += 1

    enumeration.enumerate_by_genus(g_max, visit)
    bad = []
    for (g, t), n in sorted(seen.items(), key=lambda kv: (kv[0][0], kv[0][1].k)):
        bound = zhao_bound(t, g)
        if n > bound:
            bad.append((g, t.k, tuple(sorted(t.a)), n, bound))
    return bad


def mid_weight_check(g_max: int) -> list[tuple]:
    """Weight of every mid-band semigroup against its coordinate-level
    decomposition, plus the s + t = g - m + 1 budget."""
    bad = []

    def visit(node):
        s = node.semigroup
        if s.genus == 0 or s.multiplicity == 1:
            return
        if frobenius_class(s) is not FrobeniusClass.MID:
            return
        dec = weight_decomposition_mid(s)
        if not dec.check or dec.s_count + dec.t_count != s.genus - s.multiplicity + 1:
            bad.append((s.genus, tuple(s.gaps()), dec))

    enumeration.enumerate_by_genus(g_max, visit)
    return bad


def mid_decomposition_check(g_max: int) -> list[tuple]:
    """Mid-band per-genus totals against the head/tail rebuild."""
    mfg = enumeration.mfg_counts(g_max)
    direct = Counter()
    for (m, f, g), n in mfg.items():
        if 2 * m < f < 3 * m:
            direct[g] += n
    bad = []
    for g in range(3, g_max + 1):
        rebuilt = mid_decomposition_total(g, mfg)
        if rebuilt != direct[g]:
            bad.append((g, direct[g], rebuilt))
    return bad


def recurrence_check(g_max: int, table=None) -> list[tuple[int, int, int, int]]:
    """Violations of N(m-1, g-1) + N(m-1, g-2) = N(m, g) over the
    region 2g < 3m with m >= 3, g <= g_max.  Each entry is
    (m, g, lhs, rhs); an empty list means the identity held throughout.
    """
    if g_max < 3:
        raise ValueError("g_max must be at least 3")
    if table is None:
        table = enumeration.count_matrix(g_max)
    bad = []
    for m in range(3, g_max + 2):
        for g in range(1, g_max + 1):
            if 2 * g >= 3 * m:
                continue
            lhs = table.get((m - 1, g - 1), 0) + table.get((m - 1, g - 2), 0)
            rhs = table.get((m, g), 0)
            if lhs != rhs:
                bad.append((m, g, lhs, rhs))
    return bad
