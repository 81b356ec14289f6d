"""Per-genus census over the full tree, with persistent output.

One enumeration pass counts, for every genus up to the configured
bound, semigroups by (multiplicity, Frobenius number) and by weight,
and runs the sumset-obstruction test within a tested n-range at each
node.  The rows are read off those counts afterwards: the
Frobenius-class split, sumset-obstruction failures, the analytic window
flags, weight extremes, and the multiplicity histogram.  Rows can be
written as CSV or JSON lines, and a checkpoint file keeps the rows of
finished runs, so that a longer run walks only the genera past them.

Counts for g = 16..25 are cross-checked against the published table
of totals and n = 2 obstruction failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

from .buchweitz import DEFAULT_N_CAP, MAX_N_CAP, add_gap, gap_sumsets, n_range, threshold
from .enumeration import (
    _check_cap,
    _histogram_walk,
    _split,
    mf_cells,
    weight_cells,
)
from .partitions import BETA1, BETA2, GAMMA, GOLDEN_RATIO

# published totals and n=2 failure counts, genus 16 through 25,
# with the quoted six-decimal ratio column
KOMEDA_TABLE: dict[int, tuple[int, int, float]] = {
    16: (4806, 2, 0.000416),
    17: (8045, 6, 0.000746),
    18: (13467, 15, 0.001114),
    19: (22464, 31, 0.001380),
    20: (37396, 67, 0.001792),
    21: (62194, 145, 0.002331),
    22: (103246, 293, 0.002838),
    23: (170963, 542, 0.003170),
    24: (282828, 1053, 0.003723),
    25: (467224, 1944, 0.004161),
}

DEFAULT_EPSILON = Fraction(1, 21)
DEFAULT_M_THRESHOLD = 420
DEFAULT_GENUS_MULT_RATIO = Fraction(13667, 10000)

# the columns that count semigroups of one genus, each between 0 and N
_COUNTS = ("ordinary", "low", "mid", "high", "nb2", "nb_any", "nb_capped", "q_eh",
           "r_2g3m", "a_eps", "b_m420", "c_ratio", "nstar_eps", "phi_eps", "p_eps",
           "y_beta1", "z_beta2")
# a row's columns by output name, in CSV and JSON order; each names its
# CensusRow field, but for N, whose field is n.  The derived n_phi_ratio
# follows them, and then in JSON the multiplicity histogram.
_COLUMNS = ("g", "N") + _COUNTS + ("w_min", "w_max")

CSV_HEADER = ",".join(_COLUMNS + ("n_phi_ratio",))


def _field(column: str) -> str:
    return "n" if column == "N" else column


class CheckpointMismatchError(Exception):
    """Checkpoint file was produced under a different configuration."""


@dataclass(frozen=True)
class CensusConfig:
    g_max: int
    epsilon: Fraction = DEFAULT_EPSILON
    nb_n_cap: int = DEFAULT_N_CAP
    threads: int = 1
    checkpoint_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.g_max < 1:
            raise ValueError("g_max must be at least 1")
        if not isinstance(self.epsilon, Fraction) or self.epsilon <= 0:
            raise ValueError("epsilon must be a positive Fraction")
        if not 2 <= self.nb_n_cap <= MAX_N_CAP:
            raise ValueError(f"nb_n_cap must be between 2 and {MAX_N_CAP}")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def row_settings(self) -> dict:
        """The settings that change row values, the fixed ones included
        so that hashes of earlier versions, which could set them, still
        match.  g_max, threads and paths are free to differ across a
        resume."""
        return {
            "epsilon": str(self.epsilon),
            "nb_n_cap": self.nb_n_cap,
            "m_threshold": DEFAULT_M_THRESHOLD,
            "genus_mult_ratio": str(DEFAULT_GENUS_MULT_RATIO),
            "weight_beta_flags": True,
        }

    def config_hash(self) -> str:
        """Hash of the row settings, which a checkpoint must share."""
        payload = json.dumps(self.row_settings(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CensusRow:
    g: int
    n: int
    ordinary: int
    low: int
    mid: int
    high: int
    nb2: int
    nb_any: int
    nb_capped: int
    q_eh: int
    r_2g3m: int
    a_eps: int
    b_m420: int
    c_ratio: int
    nstar_eps: int
    phi_eps: int
    p_eps: int
    y_beta1: int
    z_beta2: int
    w_min: int
    w_max: int
    mult_hist: tuple[int, ...] = field(repr=False)

    @property
    def n_phi_ratio(self) -> float:
        return self.n * GOLDEN_RATIO ** (-self.g)

    def csv_values(self) -> list[str]:
        return [str(getattr(self, _field(c))) for c in _COLUMNS] + [f"{self.n_phi_ratio:.6f}"]

    def as_dict(self) -> dict:
        return {c: getattr(self, _field(c)) for c in _COLUMNS} | {
            "n_phi_ratio": round(self.n_phi_ratio, 6),
            "mult_hist": list(self.mult_hist),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CensusRow":
        return cls(**{_field(c): d[c] for c in _COLUMNS}, mult_hist=tuple(d["mult_hist"]))


def _sumset_counter(cap: int, g_lo: int, g_hi: int):
    """Per-genus [nb2, nb_any, nb_capped] counters, and the walk's visit
    callback that fills them: it tests |nH| > (2n-1)(g-1) on the gap set
    H of each node of genus g_lo .. g_hi over buchweitz.n_range,
    read from tables made before the walk.  The sumsets (1H .. capH)
    are carried down the tree: a child adds the gap F to its parent's,
    and a subtree root folds its gaps.  A node without children builds
    its sumsets only up to its own n and stops at the first failure;
    one with a parent that tests n = 2 alone needs only the parent's 1H
    and 2H, 2H' = 2H | ((H | 1<<F) << F)."""
    nb = [[0, 0, 0] for _ in range(g_hi + 1)]
    # ranges[g][F] is (n_hi, capped), bounds[g][n] the threshold; genera
    # below g_lo stay untested, and the root's F = -1 reads ranges[0][0]
    ranges = [[(1, False)] * (2 * g + 1) for g in range(g_hi + 1)]
    for g in range(g_lo, g_hi + 1):
        ranges[g][g:2 * g] = [n_range(g, f, cap) for f in range(g, 2 * g)]
    bounds = [[threshold(g, n) for n in range(cap + 1)] for g in range(g_hi + 1)]

    def visit(parent: Optional[tuple], mask: Optional[int], f: int, g: int, leaf: bool):
        n_hi, capped = ranges[g][f]
        if leaf:
            if n_hi < 2:
                return None
            if n_hi == 2 and parent is not None:
                counts = nb[g]
                if (parent[1] | ((parent[0] | 1 << f) << f)).bit_count() > bounds[g][2]:
                    counts[0] += 1
                    counts[1] += 1
                elif capped:
                    counts[2] += 1
                return None
        if parent is None:
            sums = gap_sumsets((x for x in range(1, f + 1) if not mask >> x & 1), cap)
        else:
            sums = add_gap(parent, f)
            if not leaf:
                sums = tuple(sums)
        if n_hi < 2:
            return sums
        counts = nb[g]
        bound = bounds[g]
        grown = iter(sums)
        next(grown)  # 1H
        for n, acc in zip(range(2, n_hi + 1), grown):
            if acc.bit_count() > bound[n]:
                counts[1] += 1
                if n == 2:
                    counts[0] += 1
                return sums
        if capped:
            counts[2] += 1
        return sums

    return nb, visit


def _walk(task: tuple) -> tuple:
    """(mf, wf, nb) per-genus counts of one subtree; task is
    (raw node, g_lo, g_hi, sumset n cap)."""
    node, g_lo, g_hi, cap = task
    nb, visit = _sumset_counter(cap, g_lo, g_hi)
    mf, wf = _histogram_walk(node, g_lo, g_hi, visit)
    return mf, wf, nb


def _merge(dst: tuple, src: tuple) -> tuple:
    """Add src's per-genus count lists into dst, which covers at least
    the same genera."""
    for d, s in zip(dst, src):
        for g, cells in enumerate(s):
            d[g] = [a + b for a, b in zip(d[g], cells)]
    return dst


def _census_counts(cfg: CensusConfig, g_lo: int, g_hi: int) -> tuple:
    """Counts for genus g_lo .. g_hi.  With more than one worker, the
    tree is split into 64 subtrees per worker, so that the largest
    holds a small share of it, and the subtrees are walked in a pool."""
    workers = min(cfg.threads, os.cpu_count() or 1)
    tasks = [(node, g_lo, g_hi, cfg.nb_n_cap)
             for node in _split(g_hi, 1 if workers == 1 else 64 * workers)]
    if len(tasks) == 1:
        return _walk(tasks[0])
    # imported here: loading multiprocessing costs memory in every
    # process that never starts a pool
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        # merged as they finish, so that finished results do not wait
        # in memory behind the largest subtree
        done = as_completed([pool.submit(_walk, task) for task in tasks])
        return reduce(_merge, (future.result() for future in done))


def _rows_from_hist(cfg: CensusConfig, counts: tuple, g_lo: int, g_hi: int) -> list[CensusRow]:
    """Rows for genus g_lo .. g_hi.  Every column but the sumset ones
    is a function of (g, m, F, w), read here off the walk's histograms,
    so the window setting acts only after the walk."""
    mf, wf, nb = counts
    e = cfg.epsilon
    # F > (2 - eps) m and F < (2 + eps) m, cross-multiplied by q
    q = e.denominator
    lo, hi = 2 * q - e.numerator, 2 * q + e.numerator
    rnum, rden = DEFAULT_GENUS_MULT_RATIO.numerator, DEFAULT_GENUS_MULT_RATIO.denominator
    eps = float(e)
    rows = []
    for g in range(g_lo, g_hi + 1):
        t = dict.fromkeys(("n",) + _COUNTS, 0)
        phi_lo, phi_hi = (GAMMA - eps) * g, (GAMMA + eps) * g
        mult: dict[int, int] = {}
        for m, f, c in mf_cells(g, mf[g]):
            mult[m] = mult.get(m, 0) + c
            above, below = lo * m < q * f, q * f < hi * m
            for name, hit in (
                ("n", True),
                ("ordinary" if f == m - 1 else "low" if f < 2 * m
                 else "mid" if f < 3 * m else "high", True),
                ("r_2g3m", 2 * g < 3 * m),
                ("a_eps", above and below),
                ("nstar_eps", not above),
                ("b_m420", m < DEFAULT_M_THRESHOLD),
                ("c_ratio", g * rden < rnum * m),
                ("phi_eps", phi_lo < m < phi_hi),
                ("p_eps", f < 3 * m and hi * m < q * f),
            ):
                t[name] += c * hit
        weights = weight_cells(wf[g])
        y_thr, z_thr = (BETA1 - eps) * g * g, (BETA2 + eps) * g * g
        for w, low, c in weights:
            t["q_eh"] += c * (low and w < g - 1)
            t["y_beta1"] += c * (w <= y_thr)
            t["z_beta2"] += c * (w >= z_thr)
        t["nb2"], t["nb_any"], t["nb_capped"] = nb[g]
        row = CensusRow(
            g=g, w_min=weights[0][0], w_max=weights[-1][0],
            mult_hist=tuple(mult.get(m, 0) for m in range(max(mult) + 1)), **t,
        )
        _check_row(row)
        rows.append(row)
    return rows


def _check_row(r: CensusRow) -> None:
    checks = [
        r.n == r.ordinary + r.low + r.mid + r.high,
        r.nb2 <= r.nb_any <= r.n,
        r.q_eh <= r.ordinary + r.low,
        sum(r.mult_hist) == r.n,
        0 <= r.w_min <= r.w_max,
    ]
    checks += [0 <= getattr(r, name) <= r.n for name in _COUNTS]
    if not all(checks):
        raise RuntimeError(f"census row invariant violated at genus {r.g}: {r}")


@contextlib.contextmanager
def replacing(path: str) -> Iterator[IO[str]]:
    """A text file that takes the place of path when the block ends
    without error and is deleted otherwise.  It is created on entry, so
    an unwritable path fails before any work, and path itself is left
    whole until the end.  A device, pipe or directory at path is opened
    directly instead, since there is no file to replace."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _jsonl(row: CensusRow) -> str:
    return json.dumps(row.as_dict(), separators=(",", ":")) + "\n"


def load_checkpoint(path: str, cfg: CensusConfig) -> dict[int, CensusRow]:
    """Completed rows from a checkpoint file.  An absent or empty file
    means a fresh start.  A header that is not a UTF-8 JSON object or
    was written under a different configuration, or a damaged row
    before the last line, raises; a torn last line is dropped."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(i, line) for i, line in enumerate(fh.read().splitlines(), start=1)
                     if line.strip()]
        if not lines:
            return {}
        header = json.loads(lines[0][1])
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict):
        raise CheckpointMismatchError(f"unreadable checkpoint header in {path}")
    if header.get("config_hash") != cfg.config_hash():
        raise CheckpointMismatchError(
            f"checkpoint {path} was written with config hash "
            f"{header.get('config_hash')}, current is {cfg.config_hash()}"
        )
    rows: dict[int, CensusRow] = {}
    for i, line in lines[1:]:
        try:
            d = json.loads(line)
        except json.JSONDecodeError:
            if i == lines[-1][0]:
                break  # torn by an interrupted append
            raise CheckpointMismatchError(f"unreadable row on line {i} of {path}")
        try:
            row = CensusRow.from_dict(d)
            _check_row(row)
        except (KeyError, TypeError, ValueError, RuntimeError) as exc:
            raise CheckpointMismatchError(f"bad row on line {i} of {path}: {exc!r}")
        rows[row.g] = row
    return rows


def run_census(cfg: CensusConfig) -> list[CensusRow]:
    """Rows for genus 1 .. g_max from one walk of the tree, which starts
    at the first genus without a row.  With a checkpoint path set, the
    rows already in the file are kept and the walk's new rows are
    appended to it when the walk ends; a walk through g_max visits every
    node of lower genus anyway, so walking only the missing genera
    would not be cheaper."""
    _check_cap(cfg.g_max)
    path = cfg.checkpoint_path
    done = {} if path is None else load_checkpoint(path, cfg)
    if path is not None:
        # rewrite up front: heals a torn trailing line from an interrupt,
        # and a crash meanwhile leaves the old file in place
        with replacing(path) as fh:
            fh.write(json.dumps({"config_hash": cfg.config_hash(), "format": 1}) + "\n")
            fh.writelines(_jsonl(done[g]) for g in sorted(done))
    g_lo = next((g for g in range(1, cfg.g_max + 1) if g not in done), None)
    if g_lo is not None:
        rows = _rows_from_hist(cfg, _census_counts(cfg, g_lo, cfg.g_max), g_lo, cfg.g_max)
        new = [r for r in rows if r.g not in done]
        if path is not None:
            with open(path, "a", encoding="utf-8") as fh:
                fh.writelines(map(_jsonl, new))
        done.update((r.g, r) for r in new)
    return [done[g] for g in range(1, cfg.g_max + 1)]


def write_csv(rows: Sequence[CensusRow], out: Union[str, IO[str]]) -> None:
    own = isinstance(out, str)
    fh = open(out, "w", encoding="utf-8", newline="") if own else out
    try:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(r.csv_values()) + "\n")
    finally:
        if own:
            fh.close()


def write_jsonl(rows: Sequence[CensusRow], out: Union[str, IO[str]]) -> None:
    own = isinstance(out, str)
    fh = open(out, "w", encoding="utf-8") if own else out
    try:
        for r in rows:
            fh.write(_jsonl(r))
    finally:
        if own:
            fh.close()


def komeda_compare(rows: Iterable[CensusRow]) -> list[dict]:
    """Exact diff of N and NB2 against the published 16..25 table.
    Raises if the rows do not cover that whole range."""
    by_g = {r.g: r for r in rows}
    missing = [g for g in KOMEDA_TABLE if g not in by_g]
    if missing:
        raise ValueError(f"rows must cover genus 16..25, missing {missing}")
    diffs = []
    for g, (n_pub, nb2_pub, _) in sorted(KOMEDA_TABLE.items()):
        r = by_g[g]
        if r.n != n_pub:
            diffs.append({"g": g, "field": "N", "expected": n_pub, "actual": r.n})
        if r.nb2 != nb2_pub:
            diffs.append({"g": g, "field": "nb2", "expected": nb2_pub, "actual": r.nb2})
    return diffs
