"""The four workloads: inputs made from the seed, one timed pass each,
and the checks on every output.

A pass is the unit a run repeats.  Its wall and CPU time cover the
program's work only; the output checks run after the clock stops.  The
census workloads run the `sgcensus` command in a child process, the
others call the package in this process, so peak memory is read from
the children or from this process to match.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from sgcensus import census, cli, enumeration
from sgcensus.buchweitz import nfold_sumset

# sha256 of the CSV that `sgcensus census --gmax G` writes, taken from
# the first committed version of the package
CSV_SHA256 = {
    25: "eb58902e4dead8ea52fdd8481bec30ed9b83ff830cb732b1f23ad324fbf95451",
    16: "b48b1e232ee44b78b9679b02e474a3af5f3515161cf732532a1f1107b1c08f90",
}

# the six verify suites that are not the census itself (`komeda` is census25)
VERIFY_SUITES = ("qbinom", "recurrence", "kunz", "fib", "zhao", "weightmid")

SAMPLE_GENUS = (10, 40)
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Size:
    census_gmax: int
    ckpt_gmax: int  # traced probes extend a checkpoint through this genus
    visit_gmax: int
    samples: int
    verify_gmax: Optional[int]  # None: each suite's own default depth
    reference_repeat: int  # loops per reference sample (reference.py)


FULL = Size(census_gmax=25, ckpt_gmax=23, visit_gmax=20, samples=3000, verify_gmax=None,
            reference_repeat=15)
QUICK = Size(census_gmax=16, ckpt_gmax=16, visit_gmax=12, samples=100, verify_gmax=10,
             reference_repeat=2)


@dataclass(frozen=True)
class Sample:
    gaps: tuple[int, ...]
    genus: int
    multiplicity: int
    frobenius: int

    @property
    def arg(self) -> str:
        """The gap set as the CLI takes it, runs written as a..b."""
        parts = []
        start = prev = self.gaps[0]
        for x in self.gaps[1:] + (None,):
            if x is not None and x == prev + 1:
                prev = x
                continue
            parts.append(str(start) if start == prev else f"{start}..{prev}")
            if x is not None:
                start = prev = x
        return ",".join(parts)


@dataclass
class Context:
    root: Path
    out_dir: Path
    size: Size
    seed: int

    @cached_property
    def env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.root / "src"))

    @cached_property
    def sample(self) -> list[Sample]:
        return draw_sample(self.seed, self.size.samples)


@dataclass
class Pass:
    wall: float
    cpu: float
    semigroups: int
    calls_ms: list[float]
    attempted: int
    failed: int


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_child(cmd: list[str], ctx: Context) -> subprocess.CompletedProcess:
    """Run a command in its own process group; on timeout kill the whole
    group, pool workers included, and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode:
        sys.stderr.write(err)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def draw_sample(seed: int, n: int) -> list[Sample]:
    """n semigroups, each reached by a random descent through the genus
    tree to a genus drawn uniformly from SAMPLE_GENUS.

    A descent starts at a uniformly chosen node of the genus-10 layer:
    from the root, half of all descents would enter the one-child chain
    <2, 2g+1> at genus 1.  It steps to a uniformly chosen child that has
    children of its own, any child at the last step, and when it meets
    no such child it starts again from another genus-10 node with the
    same target, so the genus stays uniform."""
    rng = random.Random(seed)
    start = enumeration.genus_layer(SAMPLE_GENUS[0])
    out: list[Sample] = []
    while len(out) < n:
        target = rng.randint(*SAMPLE_GENUS)
        node = None
        while node is None:
            node = rng.choice(start)
            while node is not None and node.semigroup.genus < target:
                kids = enumeration.children(node)
                if node.semigroup.genus + 1 < target:
                    kids = [k for k in kids if k.removable]
                node = rng.choice(kids) if kids else None
        s = node.semigroup
        out.append(Sample(s.gaps(), s.genus, s.multiplicity, s.frobenius))
    return out


def komeda_diffs(rows) -> list[dict]:
    """census.komeda_compare over the rows.  Genera of the published
    table the run did not reach (a quick run stops below 25) are filled
    with the published values, so only reached genera can differ."""
    have = {r.g for r in rows}
    filler = [
        SimpleNamespace(g=g, n=n, nb2=nb2)
        for g, (n, nb2, _) in census.KOMEDA_TABLE.items()
        if g not in have
    ]
    return census.komeda_compare(list(rows) + filler)


class CensusCommand:
    """`sgcensus census --gmax G --threads T --out file.csv`."""

    rss_source = resource.RUSAGE_CHILDREN

    def __init__(self, ctx: Context, threads: int):
        self.ctx = ctx
        self.threads = threads

    def prepare(self) -> None:
        pass

    def run_pass(self, tracer) -> Pass:
        g_max = self.ctx.size.census_gmax
        out = self.ctx.out_dir / f"census-t{self.threads}.csv"
        out.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-m", "sgcensus", "census", "--gmax", str(g_max),
            "--threads", str(self.threads), "--out", str(out),
        ]
        c0, t0 = cpu_seconds(), time.perf_counter()
        with tracer.span("cli.census", g_max=g_max, threads=self.threads):
            proc = run_child(cmd, self.ctx)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0

        if proc.returncode or not out.exists():
            return Pass(wall, cpu, 0, [wall * 1e3], attempted=2, failed=2)
        data = out.read_bytes()
        rows = [
            SimpleNamespace(g=int(r["g"]), n=int(r["N"]), nb2=int(r["nb2"]))
            for r in csv.DictReader(io.StringIO(data.decode("utf-8")))
        ]
        checks = [
            hashlib.sha256(data).hexdigest() == CSV_SHA256[g_max],
            not komeda_diffs(rows),
        ]
        return Pass(wall, cpu, sum(r.n for r in rows), [wall * 1e3],
                    attempted=len(checks), failed=checks.count(False))


class Objects:
    """A closed loop with one caller: `classify --gaps ...` through
    cli.main for each sampled semigroup, then the six verify suites."""

    rss_source = resource.RUSAGE_SELF

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sample: list[Sample] = []
        self.argvs: list[list[str]] = []
        self.verify_argvs: list[list[str]] = []

    def prepare(self) -> None:
        self.sample = self.ctx.sample
        self.argvs = [["classify", "--gaps", s.arg] for s in self.sample]
        depth = self.ctx.size.verify_gmax
        extra = [] if depth is None else ["--gmax", str(depth)]
        self.verify_argvs = [["verify", suite] + extra for suite in VERIFY_SUITES]

    def run_pass(self, tracer) -> Pass:
        outputs = []
        calls = []
        c0, t0 = cpu_seconds(), time.perf_counter()
        for argv in self.argvs:
            buf = io.StringIO()
            t = time.perf_counter()
            with tracer.span("cli.classify"), contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            calls.append((time.perf_counter() - t) * 1e3)
            outputs.append((rc, buf.getvalue()))
        verdicts = []
        for argv in self.verify_argvs:
            buf = io.StringIO()
            with tracer.span("cli.verify", suite=argv[1]), contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            verdicts.append((rc, buf.getvalue()))
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0

        failed = sum(not classify_ok(s, rc, text) for s, (rc, text) in zip(self.sample, outputs))
        failed += sum(rc != 0 or not json.loads(text)["ok"] for rc, text in verdicts)
        return Pass(wall, cpu, len(self.sample), calls,
                    attempted=len(outputs) + len(verdicts), failed=failed)


def classify_ok(s: Sample, rc: int, text: str) -> bool:
    """The record describes the sampled semigroup, and its n = 2 sumset
    test agrees with a direct nfold_sumset count."""
    if rc != 0:
        return False
    rec = json.loads(text)
    if (tuple(rec["gaps"]), rec["genus"], rec["multiplicity"], rec["frobenius"]) != (
        s.gaps, s.genus, s.multiplicity, s.frobenius
    ):
        return False
    size2 = len(nfold_sumset(s.gaps, 2))
    threshold = 3 * (s.genus - 1)
    tests = rec["buchweitz"]["tests"]
    if tests and tests[0]["n"] == 2:
        return tests[0]["size"] == size2 and tests[0]["fails"] == (size2 > threshold)
    # untested only where the size bound already rules out failing at n = 2
    return size2 <= threshold


WORKLOADS = {
    "census25": lambda ctx: CensusCommand(ctx, threads=1),
    "census25-par2": lambda ctx: CensusCommand(ctx, threads=2),
    "objects": Objects,
}
