"""Fast self-test of the benchmark: every workload at a tiny size, both modes.

    python3 benchmarks/selftest.py

Checks that each run exits 0, that its last line is the result object with
``correct`` true, that it carries exactly the metrics BENCHMARK.json names
for the mode, each with its unit, and that every metric is also printed by
name with its unit in the report lines.  It also checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def fail(msg: str) -> int:
    print(f"FAIL {msg}")
    return 1


def check_run(name: str, trace: int, spec: dict) -> str | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr[-400:]}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"not correct: {lines[-1][:300]}"
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        return f"metrics {sorted(got.items())} != {sorted(units.items())}"
    report = "\n".join(lines[:-1])
    for metric, unit in units.items():
        if f"# {metric} = " not in report or f" {unit} (n=" not in report:
            return f"{metric} not printed with its unit"
    return None


def check_bare_directory() -> str | None:
    bare = ROOT / ".bench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "quad_det", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return f"ran without the program (exit {proc.returncode})"
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        return fail("BENCHMARK.json workloads differ from workloads.py")
    layer_names = {m["name"] for m in spec["per_layer"]}
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = {n for entry in layer_map["map"] for n in entry["layer_metrics"]}
    if mapped != layer_names:
        return fail(f"layer_map.json and BENCHMARK.json disagree: {sorted(mapped ^ layer_names)}")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            why = check_run(name, trace, spec)
            if why:
                return fail(f"{name} --trace {trace}: {why}")
            print(f"ok   {name} --trace {trace}")
    why = check_bare_directory()
    if why:
        return fail(f"bare directory: {why}")
    print("ok   bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
