"""Per-genus census over the full tree, with persistent output.

One enumeration pass counts, for every genus up to the configured
bound, semigroups by (multiplicity, Frobenius number) and by weight,
and runs the sumset-obstruction test within a tested n-range at each
node.  The rows are read off those counts afterwards: the
Frobenius-class split, sumset-obstruction failures, the analytic window
flags, weight extremes, and the multiplicity histogram.  Rows can be written as CSV or JSON lines, and
a checkpoint file allows an interrupted run to resume per genus.

Counts for g = 16..25 are cross-checked against the published table
of totals and n = 2 obstruction failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

from .enumeration import (
    DEFAULT_GENUS_CAP,
    ResourceLimitError,
    _ROOT,
    _histogram_walk,
    _raw_layer,
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
DEFAULT_SPLIT_DEPTH = 8

CSV_HEADER = (
    "g,N,ordinary,low,mid,high,nb2,nb_any,nb_capped,q_eh,r_2g3m,a_eps,"
    "b_m420,c_ratio,nstar_eps,phi_eps,p_eps,y_beta1,z_beta2,w_min,w_max,"
    "n_phi_ratio"
)


class CheckpointMismatchError(Exception):
    """Checkpoint file was produced under a different configuration."""


@dataclass(frozen=True)
class CensusConfig:
    g_max: int
    epsilon: Fraction = DEFAULT_EPSILON
    nb_n_cap: int = 8
    m_threshold: int = DEFAULT_M_THRESHOLD
    genus_mult_ratio: Fraction = DEFAULT_GENUS_MULT_RATIO
    weight_beta_flags: bool = True
    threads: int = 1
    checkpoint_path: Optional[str] = None
    split_depth: int = DEFAULT_SPLIT_DEPTH

    def __post_init__(self) -> None:
        if self.g_max < 1:
            raise ValueError("g_max must be at least 1")
        if not isinstance(self.epsilon, Fraction) or self.epsilon <= 0:
            raise ValueError("epsilon must be a positive Fraction")
        if self.nb_n_cap < 2:
            raise ValueError("nb_n_cap must be at least 2")
        if self.m_threshold < 1:
            raise ValueError("m_threshold must be positive")
        if not isinstance(self.genus_mult_ratio, Fraction) or self.genus_mult_ratio <= 0:
            raise ValueError("genus_mult_ratio must be a positive Fraction")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.split_depth < 1:
            raise ValueError("split_depth must be at least 1")

    def config_hash(self) -> str:
        """Hash of the fields that change row values.  g_max, threads,
        split depth and paths are free to differ across a resume."""
        payload = json.dumps(
            {
                "epsilon": str(self.epsilon),
                "nb_n_cap": self.nb_n_cap,
                "m_threshold": self.m_threshold,
                "genus_mult_ratio": str(self.genus_mult_ratio),
                "weight_beta_flags": self.weight_beta_flags,
            },
            sort_keys=True,
        )
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
        return [
            str(v)
            for v in (
                self.g, self.n, self.ordinary, self.low, self.mid, self.high,
                self.nb2, self.nb_any, self.nb_capped, self.q_eh, self.r_2g3m,
                self.a_eps, self.b_m420, self.c_ratio, self.nstar_eps,
                self.phi_eps, self.p_eps, self.y_beta1, self.z_beta2,
                self.w_min, self.w_max,
            )
        ] + [f"{self.n_phi_ratio:.6f}"]

    def as_dict(self) -> dict:
        return {
            "g": self.g, "N": self.n, "ordinary": self.ordinary,
            "low": self.low, "mid": self.mid, "high": self.high,
            "nb2": self.nb2, "nb_any": self.nb_any,
            "nb_capped": self.nb_capped, "q_eh": self.q_eh,
            "r_2g3m": self.r_2g3m, "a_eps": self.a_eps,
            "b_m420": self.b_m420, "c_ratio": self.c_ratio,
            "nstar_eps": self.nstar_eps, "phi_eps": self.phi_eps,
            "p_eps": self.p_eps, "y_beta1": self.y_beta1,
            "z_beta2": self.z_beta2, "w_min": self.w_min,
            "w_max": self.w_max, "n_phi_ratio": round(self.n_phi_ratio, 6),
            "mult_hist": list(self.mult_hist),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CensusRow":
        return cls(
            g=d["g"], n=d["N"], ordinary=d["ordinary"], low=d["low"],
            mid=d["mid"], high=d["high"], nb2=d["nb2"], nb_any=d["nb_any"],
            nb_capped=d["nb_capped"], q_eh=d["q_eh"], r_2g3m=d["r_2g3m"],
            a_eps=d["a_eps"], b_m420=d["b_m420"], c_ratio=d["c_ratio"],
            nstar_eps=d["nstar_eps"], phi_eps=d["phi_eps"], p_eps=d["p_eps"],
            y_beta1=d["y_beta1"], z_beta2=d["z_beta2"], w_min=d["w_min"],
            w_max=d["w_max"], mult_hist=tuple(d["mult_hist"]),
        )


def _sumset_counter(cap: int, g_hi: int):
    """Per-genus [nb2, nb_any, nb_capped] counters, and the walk's visit
    callback that fills them: it tests |nH| > (2n-1)(g-1) on each gap
    set H for n = 2 .. min(horizon, cap), where the size bound leaves
    n >= 2 in play only for F close to 2g-1."""
    nb = [[0, 0, 0] for _ in range(g_hi + 1)]

    def visit(mask: int, f: int, g: int) -> None:
        gm1 = g - 1
        if gm1 == 0:
            return
        d = 2 * g - 1 - f
        if d:
            horizon = gm1 // d
            if horizon < 2:
                return
            n_hi = horizon if horizon < cap else cap
            capped = horizon > cap
        else:
            n_hi = cap
            capped = True
        counts = nb[g]
        gapmask = ~mask & ((1 << (f + 1)) - 1)
        acc = 0
        bits = gapmask
        while bits:
            lsb = bits & -bits
            acc |= gapmask << (lsb.bit_length() - 1)
            bits ^= lsb
        if acc.bit_count() > 3 * gm1:
            counts[0] += 1
            counts[1] += 1
            return
        for n in range(3, n_hi + 1):
            nxt = 0
            bits = gapmask
            while bits:
                lsb = bits & -bits
                nxt |= acc << (lsb.bit_length() - 1)
                bits ^= lsb
            acc = nxt
            if acc.bit_count() > (2 * n - 1) * gm1:
                counts[1] += 1
                return
        if capped:
            counts[2] += 1

    return nb, visit


def _walk(task: tuple) -> tuple:
    """(mf, wf, nb) per-genus counts of one subtree; task is
    (raw node, g_lo, g_hi, sumset n cap)."""
    node, g_lo, g_hi, cap = task
    nb, visit = _sumset_counter(cap, g_hi)
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
    """Counts for genus g_lo .. g_hi.  With threads, one task per node
    of the split layer; nodes above it are walked in this process."""
    cap = cfg.nb_n_cap
    depth = min(cfg.split_depth, g_hi)
    if cfg.threads == 1 or g_hi <= depth:
        return _walk((_ROOT, g_lo, g_hi, cap))
    tasks = [(node, g_lo, g_hi, cap) for node in _raw_layer(depth)]
    workers = min(cfg.threads, os.cpu_count() or 1, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # merged as they finish, so that finished results do not wait
        # in memory behind the largest subtree
        done = as_completed([pool.submit(_walk, task) for task in tasks])
        counts = reduce(_merge, (future.result() for future in done))
    return _merge(counts, _walk((_ROOT, g_lo, depth - 1, cap)))


# the CensusRow counts read off the histograms
_HIST_COLUMNS = ("n", "ordinary", "low", "mid", "high", "q_eh", "r_2g3m", "a_eps",
                 "b_m420", "c_ratio", "nstar_eps", "phi_eps", "p_eps", "y_beta1",
                 "z_beta2")


def _rows_from_hist(cfg: CensusConfig, counts: tuple, g_lo: int, g_hi: int) -> list[CensusRow]:
    """Rows for genus g_lo .. g_hi.  Every column but the sumset ones
    is a function of (g, m, F, w), read here off the walk's histograms,
    so the window and threshold settings act only after the walk."""
    mf, wf, nb = counts
    e = cfg.epsilon
    # F > (2 - eps) m and F < (2 + eps) m, cross-multiplied by q
    q = e.denominator
    lo, hi = 2 * q - e.numerator, 2 * q + e.numerator
    rnum, rden = cfg.genus_mult_ratio.numerator, cfg.genus_mult_ratio.denominator
    eps = float(e)
    rows = []
    for g in range(g_lo, g_hi + 1):
        t = dict.fromkeys(_HIST_COLUMNS, 0)
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
                ("b_m420", m < cfg.m_threshold),
                ("c_ratio", g * rden < rnum * m),
                ("phi_eps", phi_lo < m < phi_hi),
                ("p_eps", f < 3 * m and hi * m < q * f),
            ):
                t[name] += c * hit
        weights = weight_cells(wf[g])
        y_thr, z_thr = (BETA1 - eps) * g * g, (BETA2 + eps) * g * g
        for w, low, c in weights:
            t["q_eh"] += c * (low and w < g - 1)
            if cfg.weight_beta_flags:
                t["y_beta1"] += c * (w <= y_thr)
                t["z_beta2"] += c * (w >= z_thr)
        nb2, nb_any, nb_capped = nb[g]
        row = CensusRow(
            g=g, nb2=nb2, nb_any=nb_any, nb_capped=nb_capped,
            w_min=weights[0][0], w_max=weights[-1][0],
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
    for name in ("nb_capped", "r_2g3m", "a_eps", "b_m420", "c_ratio",
                 "nstar_eps", "phi_eps", "p_eps", "y_beta1", "z_beta2"):
        checks.append(0 <= getattr(r, name) <= r.n)
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
    means a fresh start.  A header written under a different
    configuration, or a damaged row before the last line, raises; a
    torn last line is dropped."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, line) for i, line in enumerate(fh.read().splitlines(), start=1)
                 if line.strip()]
    if not lines:
        return {}
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError:
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


def run_census(cfg: CensusConfig, *, genus_cap: int = DEFAULT_GENUS_CAP) -> list[CensusRow]:
    """Rows for genus 1 .. g_max.  With a checkpoint path set, each
    completed genus is persisted and the run recomputes only missing
    genera, walking the tree once per genus; without one, a single pass
    fills every genus at once."""
    if cfg.g_max > genus_cap:
        raise ResourceLimitError(cfg.g_max, genus_cap)
    if cfg.checkpoint_path is None:
        return _rows_from_hist(cfg, _census_counts(cfg, 1, cfg.g_max), 1, cfg.g_max)

    done = load_checkpoint(cfg.checkpoint_path, cfg)
    # rewrite up front: heals a torn trailing line from an interrupt,
    # and a crash meanwhile leaves the old file in place
    with replacing(cfg.checkpoint_path) as fh:
        fh.write(json.dumps({"config_hash": cfg.config_hash(), "format": 1}) + "\n")
        for g in sorted(done):
            fh.write(_jsonl(done[g]))
    with open(cfg.checkpoint_path, "a", encoding="utf-8") as fh:
        for g in range(1, cfg.g_max + 1):
            if g not in done:
                [done[g]] = _rows_from_hist(cfg, _census_counts(cfg, g, g), g, g)
                fh.write(_jsonl(done[g]))
                fh.flush()
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


def recurrence_check(g_max: int, table=None) -> list[tuple[int, int, int, int]]:
    """Violations of N(m-1, g-1) + N(m-1, g-2) = N(m, g) over the
    region 2g < 3m with m >= 3, g <= g_max.  Each entry is
    (m, g, lhs, rhs); an empty list means the identity held throughout.
    """
    if g_max < 3:
        raise ValueError("g_max must be at least 3")
    if table is None:
        from .enumeration import count_matrix

        table = count_matrix(g_max)
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


def ratio_report(rows: Sequence[CensusRow]) -> list[dict]:
    """Per-genus density columns.  Trends only; nothing asymptotic is
    claimed or asserted here."""
    if not rows:
        raise ValueError("rows must be nonempty")
    out = []
    for r in rows:
        n = r.n
        out.append({
            "g": r.g,
            "nb2_over_n": r.nb2 / n,
            "nb_any_over_n": r.nb_any / n,
            "a_eps_over_n": r.a_eps / n,
            "phi_eps_over_n": r.phi_eps / n,
            "q_over_n": r.q_eh / n,
            "r_over_n": r.r_2g3m / n,
            "l_over_n": r.high / n,
            "n_phi_ratio": r.n_phi_ratio,
        })
    return out
