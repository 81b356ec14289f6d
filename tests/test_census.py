"""Census rows, output formats, checkpointing, and the published table."""

import dataclasses
import io
import json
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcensus import census
from sgcensus.buchweitz import classify_buchweitz
from sgcensus.census import (
    CSV_HEADER,
    KOMEDA_TABLE,
    CensusConfig,
    CensusRow,
    CheckpointMismatchError,
    recurrence_check,
    komeda_compare,
    load_checkpoint,
    ratio_report,
    run_census,
    write_csv,
    write_jsonl,
)
from sgcensus.classify import FrobeniusClass, eisenbud_harris, frobenius_class
from sgcensus.enumeration import ResourceLimitError, enumerate_by_genus
from sgcensus.partitions import BETA1, BETA2, GAMMA, fibonacci

KNOWN_N = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693]


@pytest.fixture(scope="module")
def rows14():
    return run_census(CensusConfig(g_max=14))


ORACLE_GMAX = 16  # first genus with a nonzero nb2 / nb_any


@pytest.fixture(scope="module")
def tree16():
    found = []
    enumerate_by_genus(ORACLE_GMAX, lambda node: found.append(node.semigroup))
    return [s for s in found if s.genus >= 1]


def oracle_rows(semigroups, cfg):
    """Census rows recomputed one semigroup at a time from the public
    per-semigroup functions, as dicts shaped like CensusRow.as_dict()
    without the derived n_phi_ratio."""
    eps = cfg.epsilon
    e = float(eps)
    rows = {}
    for s in semigroups:
        g, m, f, w = s.genus, s.multiplicity, s.frobenius, s.weight()
        if g > cfg.g_max:
            continue
        if g not in rows:
            rows[g] = dict.fromkeys(CSV_HEADER.split(",")[:-1], 0)
            rows[g].update(g=g, w_min=w, w_max=w, mult_hist=Counter())
        r = rows[g]
        report = classify_buchweitz(s, cfg.nb_n_cap)
        ratio = Fraction(f, m)
        flags = {
            "N": True,
            frobenius_class(s).value: True,
            "nb2": report.first_failure == 2,
            "nb_any": report.fails_any,
            "nb_capped": report.capped,
            "q_eh": eisenbud_harris(s),
            "r_2g3m": 2 * g < 3 * m,
            "a_eps": abs(ratio - 2) < eps,
            "b_m420": m < cfg.m_threshold,
            "c_ratio": g < cfg.genus_mult_ratio * m,
            "nstar_eps": ratio <= 2 - eps,
            "phi_eps": (GAMMA - e) * g < m < (GAMMA + e) * g,
            "p_eps": 2 + eps < ratio < 3,
            "y_beta1": cfg.weight_beta_flags and w <= (BETA1 - e) * g * g,
            "z_beta2": cfg.weight_beta_flags and w >= (BETA2 + e) * g * g,
        }
        for name, hit in flags.items():
            r[name] += int(hit)
        r["w_min"] = min(r["w_min"], w)
        r["w_max"] = max(r["w_max"], w)
        r["mult_hist"][m] += 1
    out = []
    for g in sorted(rows):
        r = rows[g]
        hist = r.pop("mult_hist")
        r["mult_hist"] = [hist[m] for m in range(max(hist) + 1)]
        out.append(r)
    return out


def assert_rows_match(rows, expected):
    assert [r.g for r in rows] == [e["g"] for e in expected]
    # (g, column, census, oracle) for every disagreement
    diffs = [(r.g, k, v, e[k]) for r, e in zip(rows, expected)
             for k, v in r.as_dict().items() if k != "n_phi_ratio" and v != e[k]]
    assert not diffs, diffs[:5]


def test_census_matches_oracle_default_config(tree16):
    cfg = CensusConfig(g_max=ORACLE_GMAX)
    expected = oracle_rows(tree16, cfg)
    assert expected[-1]["nb2"] > 0 and expected[-1]["nb_any"] > 0
    assert_rows_match(run_census(cfg), expected)


@settings(max_examples=25, deadline=None)
@given(
    # small denominators put cells exactly on the window edges
    epsilon=st.builds(Fraction, st.integers(1, 12), st.integers(1, 24)),
    nb_n_cap=st.integers(min_value=2, max_value=6),
    m_threshold=st.integers(min_value=1, max_value=12),
    genus_mult_ratio=st.builds(Fraction, st.integers(1, 24), st.integers(1, 8)),
    weight_beta_flags=st.booleans(),
)
def test_census_matches_oracle_any_config(tree16, epsilon, nb_n_cap, m_threshold,
                                          genus_mult_ratio, weight_beta_flags):
    cfg = CensusConfig(g_max=10, epsilon=epsilon, nb_n_cap=nb_n_cap,
                       m_threshold=m_threshold, genus_mult_ratio=genus_mult_ratio,
                       weight_beta_flags=weight_beta_flags)
    assert_rows_match(run_census(cfg), oracle_rows(tree16, cfg))


def test_config_validation():
    with pytest.raises(ValueError):
        CensusConfig(g_max=0)
    with pytest.raises(ValueError):
        CensusConfig(g_max=5, epsilon=Fraction(0))
    with pytest.raises(ValueError):
        CensusConfig(g_max=5, nb_n_cap=1)
    with pytest.raises(ValueError):
        CensusConfig(g_max=5, threads=0)


def test_config_hash_covers_semantics_only():
    base = CensusConfig(g_max=10)
    same = CensusConfig(g_max=12, threads=4, split_depth=3,
                        checkpoint_path="/tmp/x")
    assert base.config_hash() == same.config_hash()
    assert base.config_hash() != CensusConfig(
        g_max=10, epsilon=Fraction(1, 7)
    ).config_hash()
    assert base.config_hash() != CensusConfig(g_max=10, nb_n_cap=3).config_hash()


def test_row_totals_and_invariants(rows14):
    assert [r.g for r in rows14] == list(range(1, 15))
    for r in rows14:
        assert r.n == KNOWN_N[r.g]
        assert r.ordinary == 1
        assert r.ordinary + r.low + r.mid + r.high == r.n
        assert r.nb2 <= r.nb_any <= r.n
        assert r.q_eh <= r.ordinary + r.low
        assert r.w_min == 0  # the ordinary semigroup
        assert r.w_max <= r.g * (r.g + 1) // 2
        assert sum(r.mult_hist) == r.n
        assert r.b_m420 == r.n  # multiplicity <= g+1 stays far below 420
        assert r.y_beta1 == 0  # empty weight window at the default epsilon
        assert r.nb_any == 0  # no obstruction below genus 16


def test_low_frobenius_fibonacci(rows14):
    for r in rows14:
        assert r.ordinary + r.low == fibonacci(r.g + 1)


def test_class_split_against_direct_classification(rows14):
    tally = Counter()

    def visit(node):
        s = node.semigroup
        if s.multiplicity > 1:
            tally[(s.genus, frobenius_class(s))] += 1

    enumerate_by_genus(10, visit)
    for r in rows14[:10]:
        assert r.low == tally.get((r.g, FrobeniusClass.LOW), 0)
        assert r.mid == tally.get((r.g, FrobeniusClass.MID), 0)
        assert r.high == tally.get((r.g, FrobeniusClass.HIGH), 0)


def test_csv_output(rows14, tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(rows14, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 15
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[-1] == "0.618034"
    # a file object works too
    buf = io.StringIO()
    write_csv(rows14, buf)
    assert buf.getvalue().splitlines() == lines


def test_jsonl_output_matches_rows(rows14):
    buf = io.StringIO()
    write_jsonl(rows14, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 14
    for r, line in zip(rows14, lines):
        d = json.loads(line)
        assert d["g"] == r.g
        assert d["N"] == r.n
        assert d["mult_hist"] == list(r.mult_hist)
        assert d["n_phi_ratio"] == round(r.n_phi_ratio, 6)
        assert CensusRow.from_dict(d) == r


def test_threads_agree(rows14):
    rows = run_census(CensusConfig(g_max=14, threads=2, split_depth=6))
    assert rows == rows14
    a, b = io.StringIO(), io.StringIO()
    write_csv(rows, a)
    write_csv(rows14, b)
    assert a.getvalue() == b.getvalue()


def test_genus_cap():
    with pytest.raises(ResourceLimitError):
        run_census(CensusConfig(g_max=40))


def test_checkpoint_roundtrip(tmp_path):
    ck = str(tmp_path / "census.ckpt")
    cfg10 = CensusConfig(g_max=10, checkpoint_path=ck)
    rows10 = run_census(cfg10)
    saved = load_checkpoint(ck, cfg10)
    assert sorted(saved) == list(range(1, 11))
    assert [saved[g] for g in range(1, 11)] == rows10

    # resume recomputes only the two missing genera
    cfg12 = CensusConfig(g_max=12, checkpoint_path=ck)
    rows12 = run_census(cfg12)
    assert rows12[:10] == rows10
    assert rows12 == run_census(CensusConfig(g_max=12))


def test_checkpoint_mismatch(tmp_path):
    ck = str(tmp_path / "census.ckpt")
    run_census(CensusConfig(g_max=6, checkpoint_path=ck))
    other = CensusConfig(g_max=8, epsilon=Fraction(1, 7), checkpoint_path=ck)
    with pytest.raises(CheckpointMismatchError):
        run_census(other)
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(ck, other)


def test_checkpoint_heals_torn_tail(tmp_path):
    ck = tmp_path / "census.ckpt"
    run_census(CensusConfig(g_max=8, checkpoint_path=str(ck)))
    intact = ck.read_text()
    ck.write_text(intact[:-25])  # tear the last record
    cfg = CensusConfig(g_max=8, checkpoint_path=str(ck))
    assert sorted(load_checkpoint(str(ck), cfg)) == list(range(1, 8))
    rows = run_census(cfg)
    assert rows == run_census(CensusConfig(g_max=8))
    assert ck.read_text() == intact  # rewritten in full


def test_checkpoint_survives_failed_rewrite(tmp_path, monkeypatch):
    ck = tmp_path / "census.ckpt"
    run_census(CensusConfig(g_max=6, checkpoint_path=str(ck)))
    intact = ck.read_text()

    def disk_full(self):
        raise OSError("no space left on device")

    monkeypatch.setattr(CensusRow, "as_dict", disk_full)
    with pytest.raises(OSError):
        run_census(CensusConfig(g_max=8, checkpoint_path=str(ck)))
    monkeypatch.undo()
    assert ck.read_text() == intact
    assert sorted(load_checkpoint(str(ck), CensusConfig(g_max=8))) == list(range(1, 7))
    assert [p.name for p in tmp_path.iterdir()] == ["census.ckpt"]


@pytest.mark.parametrize("damage", [
    lambda d: {**d, "mult_hist": 5},  # TypeError from from_dict
    lambda d: {**d, "N": d["N"] + 1},  # fails the row invariants
    lambda d: {k: v for k, v in d.items() if k != "w_max"},  # KeyError
    lambda d: "{not json",
], ids=["mult-hist-not-a-list", "row-invariant", "missing-column", "not-json"])
def test_checkpoint_damaged_middle_row_rejected(tmp_path, damage):
    ck = tmp_path / "census.ckpt"
    cfg = CensusConfig(g_max=6, checkpoint_path=str(ck))
    run_census(cfg)
    lines = ck.read_text().splitlines()
    bad = damage(json.loads(lines[3]))
    lines[3] = bad if isinstance(bad, str) else json.dumps(bad)
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointMismatchError, match="line 4"):
        load_checkpoint(str(ck), cfg)
    with pytest.raises(CheckpointMismatchError):
        run_census(cfg)
    assert ck.read_text().splitlines()[3] == lines[3]  # left for inspection


def test_pool_bounded_by_cpus_and_tasks(rows14, monkeypatch):
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    layer4 = 7  # semigroups of genus 4: one task each
    for cpus, threads, workers in ((None, 64, 1), (3, 64, 3), (16, 64, layer4),
                                   (16, 2, 2)):
        monkeypatch.setattr(census.os, "cpu_count", lambda: cpus)
        rows = run_census(CensusConfig(g_max=14, threads=threads, split_depth=4))
        assert rows == rows14
        assert seen.pop() == workers


def test_checkpoint_missing_file_is_empty(tmp_path):
    cfg = CensusConfig(g_max=5)
    assert load_checkpoint(str(tmp_path / "absent"), cfg) == {}


def test_checkpoint_foreign_header_rejected(tmp_path):
    path = tmp_path / "junk"
    path.write_text('{"something": "else"}\n')
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(str(path), CensusConfig(g_max=5))


def test_recurrence_check_instances(rows14):
    assert recurrence_check(8) == []
    # hand instance: N(3,3) + N(3,2) = 2 + 1 = 3 = N(4,4)
    bad_table = {(3, 3): 2, (3, 2): 1, (4, 4): 4}
    bad = recurrence_check(4, table=bad_table)
    assert (4, 4, 3, 4) in bad
    with pytest.raises(ValueError):
        recurrence_check(2)


def test_komeda_compare_requires_coverage(rows14):
    with pytest.raises(ValueError):
        komeda_compare(rows14)


def test_komeda_compare_flags_perturbation(census25):
    rows, _ = census25
    assert komeda_compare(rows) == []
    bumped = [
        dataclasses.replace(r, nb2=r.nb2 + 1) if r.g == 20 else r for r in rows
    ]
    diffs = komeda_compare(bumped)
    assert diffs == [
        {
            "g": 20,
            "field": "nb2",
            "expected": KOMEDA_TABLE[20][1],
            "actual": KOMEDA_TABLE[20][1] + 1,
        }
    ]


def test_ratio_report_schema(rows14):
    report = ratio_report(rows14)
    assert len(report) == 14
    keys = {
        "g", "nb2_over_n", "nb_any_over_n", "a_eps_over_n", "phi_eps_over_n",
        "q_over_n", "r_over_n", "l_over_n", "n_phi_ratio",
    }
    for entry in report:
        assert set(entry) == keys
    assert report[0]["g"] == 1
    with pytest.raises(ValueError):
        ratio_report([])
