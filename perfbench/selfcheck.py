"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at the quick size (census g<=16,
100 samples), untraced and traced, and checks each result line: exit
code 0, exactly the keys correct/attempted/failed/metrics, no failed
output check, and every listed metric present with its unit or named
absent with a reason.  Then runs the benchmark in a directory that
holds only BENCHMARK.json and perfbench/, where it must fail without
printing a result.  Takes well under a minute; exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0.3",
                             "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    absent = {}
    for line in lines[:-1]:
        absent.update(json.loads(line).get("absent", {}))
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"checks: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    for name, unit in listed.items():
        if name in metrics:
            value = metrics[name]
            if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
                problems.append(f"{name}: {value}")
        elif not absent.get(name):
            problems.append(f"{name}: neither measured nor absent with a reason")
    problems += [f"{name}: not in BENCHMARK.json" for name in set(metrics) - set(listed)]
    if not trace:
        problems += [f"{name}: absent" for name in absent]
    return problems


def check_bare(spec: dict) -> list[str]:
    """Without src/ the benchmark must exit nonzero and print no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            t = time.perf_counter()
            problems = check_run(spec, wl["name"], trace)
            status = "ok" if not problems else "FAIL"
            print(f"{wl['name']:<14} trace={trace} {status} ({time.perf_counter() - t:.1f} s)")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    problems = check_bare(spec)
    print(f"{'bare checkout':<14}         {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"    {p}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
