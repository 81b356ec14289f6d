"""Acceptance gate: the eleven published-value and consistency criteria.

Each test prints a single summary line before asserting, so a failing
run still reports every measured quantity.  Bounds and tolerances are
pinned here and nowhere else; the shallow per-module copies of these
suites live in test_checks.

Criterion 10 is known not to hold as stated: sub-checks (b) and (c)
fail against honestly measured census values.  The analysis lives in
the project decision log; nothing here is loosened to mask it.
"""

from sgcensus.census import KOMEDA_TABLE
from sgcensus.checks import (
    f2m_fibonacci_check,
    kunz_equivalence_check,
    mid_weight_check,
    qbinom_bijection_check,
    recurrence_check,
    zhao_domination_check,
)
from sgcensus.classify import zhao_constant_partial
from sgcensus.enumeration import mfg_counts
from sgcensus.kunz import count_f_below_2m
from sgcensus.partitions import (
    ALPHA,
    GOLDEN_RATIO,
    fibonacci,
    growth_rate_f,
    p_restricted,
)

RUNTIME_BUDGET_SECONDS = 120.0
RATIO_TOLERANCE = 1.0000001e-06  # +-1 in the sixth printed decimal
R_OVER_N_TARGET = 0.3962
R_OVER_N_TOLERANCE = 1e-4
PEAK_TOLERANCE = 1e-9
FIB_DEPTH = 22
QBINOM_DEPTH = 18
KUNZ_DEPTH = 15
RECURRENCE_DEPTH = 20
ZHAO_DEPTH = 14
MID_WEIGHT_DEPTH = 14
SYMMETRY_BOX = 40
PARTIAL_SUM_DEPTH = 15
BAND_FACTOR = 1.05
BAND_GENERA = range(20, 26)


def _line(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_published_table_exact(census25):
    rows, elapsed = census25
    by_g = {r.g: r for r in rows}
    bad = []
    for g, (n, nb2, _) in KOMEDA_TABLE.items():
        if (by_g[g].n, by_g[g].nb2) != (n, nb2):
            bad.append((g, by_g[g].n, by_g[g].nb2, n, nb2))
    in_budget = elapsed < RUNTIME_BUDGET_SECONDS
    ok = not bad and in_budget
    assert _line(
        1, ok,
        f"N and nb2 exact on g=16..25 ({len(KOMEDA_TABLE) * 2} values, "
        f"{len(bad)} wrong), single-threaded census took {elapsed:.1f}s "
        f"of the {RUNTIME_BUDGET_SECONDS:.0f}s budget",
    ), bad


def test_criterion_02_ratio_column(census25):
    rows, _ = census25
    by_g = {r.g: r for r in rows}
    worst = 0.0
    for g, (n, nb2, published) in KOMEDA_TABLE.items():
        got = round(by_g[g].nb2 / by_g[g].n, 6)
        worst = max(worst, abs(got - published))
    ok = worst <= RATIO_TOLERANCE
    assert _line(
        2, ok,
        f"six-decimal nb2/N column reproduced for g=16..25, worst "
        f"deviation {worst:.2e} (tolerance {RATIO_TOLERANCE:.0e})",
    )


def test_criterion_03_fibonacci_two_engines():
    counts = mfg_counts(FIB_DEPTH)
    tree = {}
    for (m, f, g), c in counts.items():
        if f < 2 * m:
            tree[g] = tree.get(g, 0) + c
    bad = []
    for g in range(1, FIB_DEPTH + 1):
        want = fibonacci(g + 1)
        if tree.get(g, 0) != want or count_f_below_2m(g) != want:
            bad.append(g)
    ok = not bad
    assert _line(
        3, ok,
        f"#(F<2m) equals the (g+1)st Fibonacci number for g<=22 via both "
        f"the tree walk and the binomial sum ({len(bad)} mismatches)",
    ), bad


def test_criterion_04_weight_bijection():
    bad = qbinom_bijection_check(QBINOM_DEPTH)
    assert _line(
        4, not bad,
        f"per-(g,m,w) counts equal the boxed-partition formula for "
        f"g<={QBINOM_DEPTH}, every cell ({len(bad)} mismatches)",
    ), bad[:5]


def test_criterion_05_engine_equivalence():
    bad = kunz_equivalence_check(KUNZ_DEPTH)
    assert _line(
        5, not bad,
        f"coordinate-lattice and tree counts agree on N(m,g) for all "
        f"m, g<={KUNZ_DEPTH} ({len(bad)} mismatches)",
    ), bad[:5]


def test_criterion_06_two_term_recurrence():
    bad = recurrence_check(RECURRENCE_DEPTH)
    assert _line(
        6, not bad,
        f"N(m-1,g-1)+N(m-1,g-2)=N(m,g) on 2g<3m, 3<=m, g<={RECURRENCE_DEPTH} "
        f"({len(bad)} mismatches)",
    ), bad[:5]


def test_criterion_07_deep_multiplicity_fraction(census25):
    rows, _ = census25
    row = next(r for r in rows if r.g == 24)
    ratio = row.r_2g3m / row.n
    ok = abs(ratio - R_OVER_N_TARGET) <= R_OVER_N_TOLERANCE
    assert _line(
        7, ok,
        f"R(24)/N(24) = {ratio:.6f}, target {R_OVER_N_TARGET} "
        f"+- {R_OVER_N_TOLERANCE}",
    )


def test_criterion_08_type_bound_domination():
    bad = zhao_domination_check(ZHAO_DEPTH)
    assert _line(
        8, not bad,
        f"every type count stays under its Fibonacci bound for "
        f"g<={ZHAO_DEPTH}, exhaustive ({len(bad)} violations)",
    ), bad[:5]


def test_criterion_09_analytic_spot_checks():
    peak_err = abs(growth_rate_f(ALPHA) - GOLDEN_RATIO)
    asym = 0
    for y in range(SYMMETRY_BOX + 1):
        for z in range(SYMMETRY_BOX + 1):
            for x in range(y * z + 1):
                if p_restricted(x, y, z) != p_restricted(y * z - x, y, z):
                    asym += 1
    ok = peak_err < PEAK_TOLERANCE and asym == 0
    assert _line(
        9, ok,
        f"growth-rate peak off by {peak_err:.2e} (tolerance {PEAK_TOLERANCE}); "
        f"box symmetry exhaustive to y,z<={SYMMETRY_BOX} ({asym} asymmetric cells)",
    )


def test_criterion_10_monotone_trends(census25):
    rows, _ = census25
    by_g = {r.g: r for r in rows}

    nb2_ratios = [by_g[g].nb2 / by_g[g].n for g in range(16, 26)]
    inc_ok = all(a < b for a, b in zip(nb2_ratios, nb2_ratios[1:]))
    print(f"criterion 10a {'PASS' if inc_ok else 'FAIL'}: nb2/N on g=16..25: "
          + ", ".join(f"{v:.6f}" for v in nb2_ratios))

    high_ratios = [(g, by_g[g].high / by_g[g].n) for g in range(15, 26)]
    dec_ok = all(a[1] > b[1] for a, b in zip(high_ratios, high_ratios[1:]))
    print(f"criterion 10b {'PASS' if dec_ok else 'FAIL'}: high/N on g=15..25: "
          + ", ".join(f"{v:.6f}" for _, v in high_ratios))

    # band from the census itself, recorded before any assertion
    t_scaled = [
        (by_g[g].n - by_g[g].high) * GOLDEN_RATIO ** (-g) for g in BAND_GENERA
    ]
    band = BAND_FACTOR * max(t_scaled)
    partials = [zhao_constant_partial(k) for k in range(PARTIAL_SUM_DEPTH + 1)]
    mono_ok = all(a <= b for a, b in zip(partials, partials[1:]))
    bounded_ok = all(v <= band for v in partials)
    print(f"criterion 10c band = {BAND_FACTOR} * max(T(g)*phi^-g, g=20..25) "
          f"= {band:.6f}")
    print(f"criterion 10c {'PASS' if mono_ok and bounded_ok else 'FAIL'}: "
          f"partial sums k=0..{PARTIAL_SUM_DEPTH}: "
          + ", ".join(f"{v:.6f}" for v in partials))

    ok = inc_ok and dec_ok and mono_ok and bounded_ok
    assert _line(
        10, ok,
        f"trend sub-checks: nb2/N increasing={inc_ok}, "
        f"high/N decreasing={dec_ok}, partial sums nondecreasing={mono_ok} "
        f"and under the band={bounded_ok}; see the decision log for the "
        f"measured counterexamples",
    )


def test_criterion_11_mid_weight_decomposition():
    bad = mid_weight_check(MID_WEIGHT_DEPTH)
    assert _line(
        11, not bad,
        f"structural weight recomputation matches the direct weight for "
        f"every mid-range semigroup, g<={MID_WEIGHT_DEPTH} "
        f"({len(bad)} mismatches)",
    ), bad[:5]
