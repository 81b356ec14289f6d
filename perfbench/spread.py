"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload census25 --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 11-20 --trace 1

Runs the benchmark command once per seed and workload, one run at a
time, and reports for each metric the median of the runs and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median.  With --trace 0 each share is set
against the metric's bound in BENCHMARK.json: it must stay below the
bound, and the benchmark aims for a third of it.  Counts (units count
and bytes) must repeat exactly.  The summary goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "bytes"}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = json.loads(lines[-2])["facts"]
    print(f"  {workload} seed={seed}: {time.perf_counter() - t:.1f} s, correct={result['correct']}, "
          f"load {facts['load1_start']:.2f}->{facts['load1_end']:.2f}", flush=True)
    return result


def summarize(spec: dict, results: list[dict], trace: int) -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in listed:
        values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        row = {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
               "spread": (q3 - q1) / abs(med) if med else None, "runs": len(values)}
        if "bound" in m:
            row["bound"] = m["bound"]
            row["within_third"] = row["spread"] is not None and row["spread"] < m["bound"] / 3
        if m["unit"] in EXACT_UNITS:
            row["exact"] = len(set(values)) == 1
        out[m["name"]] = row
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = names if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        results = [run_once(spec, workload, seed, args.seconds, args.trace) for seed in seeds]
        summary = summarize(spec, results, args.trace)
        report["workloads"][workload] = summary
        ok &= all(r["correct"] for r in results)
        print(f"{workload}:")
        for name, row in summary.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            flags = []
            if "bound" in row:
                # the spread of set-up time is reported, not held to its bound
                if name != "setup_s":
                    ok &= row["spread"] is not None and row["spread"] < row["bound"]
                flags.append(f"bound {row['bound']}" + ("" if row["within_third"] else " (over a third)"))
            if "exact" in row:
                ok &= row["exact"]
                flags.append("exact" if row["exact"] else "NOT EXACT")
            print(f"  {name:<28} median {row['median']:<14.6g} spread {spread:<8} {' '.join(flags)}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}-trace{args.trace}-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
