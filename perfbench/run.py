"""Benchmark for sgcensus.

    python3 perfbench/run.py --workload census25 --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is taken from src/ next to this
directory and nothing is installed (without src/sgcensus the run exits
with code 2).  --trace 0 repeats the workload's pass for about
--seconds seconds with tracing off and reports every end-to-end metric
named in BENCHMARK.json.  --trace 1 makes one traced and one untraced
pass, then times each layer's public functions, and reports every
per-layer metric (or names it absent, with the reason, on a line of its
own).  Every time is scaled to a reference speed (see reference.py).
--quick shrinks every size so that all paths run in seconds; see
selfcheck.py.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
the line before it holds the facts of the run (machine, load, seed,
commit).  Spans, facts and the result are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "sgcensus" / "__init__.py").is_file():
    print(f"perfbench: no sgcensus sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import layers  # noqa: E402  (needs src/ on the path)
import sgcensus  # noqa: E402
from reference import NOMINAL_S  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import FULL, QUICK, WORKLOADS, Context, Pass, run_child  # noqa: E402

SETUP_RUNS = 11


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * q / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    """sha256 over the package sources; identifies the code where the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_seconds(ctx) -> float:
    """Median time from a fresh interpreter to `import sgcensus` done."""
    times = []
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        proc = run_child([sys.executable, "-c", "import sgcensus"], ctx)
        times.append(time.perf_counter() - t)
        if proc.returncode:
            raise RuntimeError("a fresh interpreter cannot import sgcensus")
    return statistics.median(times)


class Speed:
    """Reference-loop times taken between the measurements of a run.
    factor() turns the run's times into seconds at the reference speed."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.loop_s: list[float] = []

    def sample(self) -> None:
        proc = run_child([sys.executable, str(Path(__file__).with_name("reference.py")),
                          str(self.ctx.size.reference_repeat)], self.ctx)
        if proc.returncode:
            raise RuntimeError("the reference loop failed")
        self.loop_s.append(float(proc.stdout))

    def factor(self) -> float:
        return NOMINAL_S / statistics.mean(self.loop_s)


def scale(p: Pass, f: float) -> Pass:
    return dataclasses.replace(p, wall=p.wall * f, cpu=p.cpu * f,
                               calls_ms=[ms * f for ms in p.calls_ms])


def untraced(wl, ctx, seconds: float):
    """Passes with tracing off until the next would take the time
    measured past `seconds`.  Reference-loop samples are taken after the
    workload's set-up, after the set-up time is measured and after each
    pass."""
    speed = Speed(ctx)
    wl.prepare()
    speed.sample()
    setup = setup_seconds(ctx)
    speed.sample()
    raw = []
    while True:
        raw.append(wl.run_pass(NullTracer()))
        speed.sample()
        if sum(p.wall for p in raw) + statistics.median(p.wall for p in raw) > seconds:
            break
    f = speed.factor()
    passes = [scale(p, f) for p in raw]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": setup * f,
        "peak_rss_mb": resource.getrusage(wl.rss_source).ru_maxrss / 1024,
        "semigroups_per_s": statistics.median(p.semigroups / p.wall for p in passes),
        # percentiles within each pass, so that every run ranks the same
        # calls whatever its number of passes
        "call_p50_ms": statistics.median(percentile(p.calls_ms, 50) for p in passes),
        "call_p99_ms": statistics.median(percentile(p.calls_ms, 99) for p in passes),
    }
    facts = {
        "passes": len(passes), "calls_per_pass": len(passes[0].calls_ms),
        "reference_loop_s": speed.loop_s,
        "unscaled": {"wall_s": statistics.median(p.wall for p in raw),
                     "cpu_s": statistics.median(p.cpu for p in raw), "setup_s": setup},
    }
    return metrics, passes, {}, facts


def traced(wl, ctx, name: str, run_id: str, time_metrics: set[str]):
    """One traced pass, then one untraced (the first, cold pass goes to
    the traced side so that the overhead is not understated), then every
    layer probe.  Times are scaled as in an untraced run."""
    speed = Speed(ctx)
    tracer = Tracer(run_id)
    with tracer.span("run", workload=name):
        with tracer.span("prepare"):
            wl.prepare()
        speed.sample()
        with tracer.span("workload.traced_pass"):
            spanned = wl.run_pass(tracer)
        plain = wl.run_pass(NullTracer())
        speed.sample()
        rep = layers.probe_all(ctx, tracer)
        speed.sample()
    tracer.write(OUT / f"trace-{name}-seed{ctx.seed}-{run_id}.jsonl")

    f = speed.factor()
    metrics = {k: v * f if k in time_metrics else v for k, v in rep.values.items()}
    metrics["trace.overhead_s"] = f * (spanned.wall - plain.wall)
    checks = rep.checks()
    facts = {"spans": len(tracer.spans), "reference_loop_s": speed.loop_s,
             "layer_checks": len(checks), "layer_checks_failed": checks.count(False)}
    return metrics, [spanned, plain], rep.absent, facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sgcensus benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="self-check sizes: census g<=16, 100 samples")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if Path(sgcensus.__file__).resolve().parent != SRC / "sgcensus":
        print(f"perfbench: imported sgcensus from {sgcensus.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run_id = uuid.uuid4().hex[:12]
    facts = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu_model": cpu_model(), "load1_start": os.getloadavg()[0],
        "git_commit": git_commit(), "src_sha256": src_digest(),
    }
    ctx = Context(root=ROOT, out_dir=OUT, size=QUICK if args.quick else FULL, seed=args.seed)
    wl = WORKLOADS[args.workload](ctx)
    if args.trace:
        listed = spec["per_layer"]
        time_metrics = {m["name"] for m in listed if m["unit"] in ("s", "ms")}
        metrics, passes, absent, run_facts = traced(wl, ctx, args.workload, run_id, time_metrics)
    else:
        listed = spec["end_to_end"]
        metrics, passes, absent, run_facts = untraced(wl, ctx, args.seconds)

    attempted = sum(p.attempted for p in passes) + run_facts.get("layer_checks", 0)
    failed = sum(p.failed for p in passes) + run_facts.get("layer_checks_failed", 0)
    units = {m["name"]: m["unit"] for m in listed}
    unlisted = sorted(set(metrics) - set(units))
    unaccounted = sorted(set(units) - set(metrics) - set(absent))
    if unlisted or unaccounted:
        print(f"perfbench: metrics not in BENCHMARK.json: {unlisted}; "
              f"listed but neither measured nor absent: {unaccounted}", file=sys.stderr)
        return 2
    facts.update(run_facts, load1_end=os.getloadavg()[0], fail_frac=failed / attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in metrics
        },
    }
    record = {"facts": facts, "absent": absent, "result": result}
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}-{run_id}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    if absent:
        print(json.dumps({"absent": absent}))
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
