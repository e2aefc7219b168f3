"""Run alternating benchmark pairs of two commits and write every run, with per-metric
quartiles, to one JSON record.

Usage, from inside the git repository:

    python3 tools/bench_pairs.py --parent REF --change REF --workload W [--workload W ...]
        --pairs N --out BENCH_<n>.json

Each ref is copied with ``git archive`` into the directories ``parent`` and
``change`` of one temporary directory (``TMPDIR`` chooses where): the names
have equal length, because the benchmark's ``peak_rss_mb`` moves with the
length of the checkout's path.  Both copies are byte-compiled with
``compileall`` before the first run, so neither side's ``setup_s`` pays for
writing bytecode that the other finds cached.

For each workload in turn, N pairs run the parent's ``BENCHMARK.json``
command with ``--workload W --seconds S --trace 0`` (S is its
``run_seconds``) from the root of each copy; odd pairs run the parent
first, even pairs the change.  The last line of each run's standard output
is its result JSON.

The record holds, per workload and per end-to-end metric of
``BENCHMARK.json``, each side's quartiles, minimum and maximum
(``numpy.percentile``, linear), the pairs the change wins in the metric's
direction (``change_wins``) and those it ties, the change's median relative
to the parent's (``median_change_rel``) and the parent's interquartile range
(``parent_iqr``); then every run, in run order, with its last line.  A change
median that is worse than the parent's by more than the metric's bound is
listed under ``bounds_crossed`` and printed.  The tool claims no gain.

Exits 1 when a run fails (a non-zero exit, a last line that is not a result,
``correct`` false or ``failed`` above 0), after writing the record; 2 on a bad
argument.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def checkout(ref: str, dest: Path) -> str:
    """Extract ``ref`` into ``dest`` with ``git archive``, byte-compile it; return its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], check=True, capture_output=True,
    ).stdout.decode().strip()
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "."], cwd=dest, check=True,
                   capture_output=True)
    return commit


def run_once(root: Path, command: list[str]) -> tuple[str, dict | None]:
    """The last output line of ``command`` run in ``root``, and its result JSON, or None."""
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        return last, None
    return last, result


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"q1": q1, "median": median, "q3": q3, "min": min(values), "max": max(values)}


def worse_by(parent: float, change: float, higher_is_better: bool) -> float:
    """How much worse ``change`` reads than ``parent``, relative to |parent| (inf at 0)."""
    loss = parent - change if higher_is_better else change - parent
    if loss <= 0.0:
        return 0.0
    return loss / abs(parent) if parent else float("inf")


def summarize(runs: list[dict], results: list[dict | None], metrics: list[dict]) -> dict:
    """Per-workload quartiles, wins, ties and medians of one workload's runs, in run order."""
    by_pair: dict[int, dict[str, dict | None]] = {}
    for run, result in zip(runs, results):
        by_pair.setdefault(run["pair"], {})[run["side"]] = result
    ok = [r is not None and r.get("correct") is True and r.get("failed") == 0 for r in results]
    out = {
        "pairs": len(by_pair),
        "all_correct": all(ok),
        "failed": sum(r["failed"] for r in results if r is not None and "failed" in r),
    }
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [] for side in SIDES}
        wins = ties = 0
        for sides in by_pair.values():
            pair = {
                side: sides[side]["metrics"][name]["value"]
                for side in SIDES
                if sides.get(side) is not None and name in sides[side]["metrics"]
            }
            for side, value in pair.items():
                values[side].append(value)
            if len(pair) == 2:
                if pair["change"] == pair["parent"]:
                    ties += 1
                elif (pair["change"] > pair["parent"]) == higher:
                    wins += 1
        if not (values["parent"] and values["change"]):
            out[name] = None
            continue
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        out[name] = {
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "ties": ties,
            "median_change_rel": (
                (change["median"] - parent["median"]) / parent["median"]
                if parent["median"] else None
            ),
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return out


def crossed(summary: dict, metrics: list[dict]) -> list[dict]:
    """Each (workload, metric) whose change median is worse than the parent's by more
    than the metric's bound."""
    out = []
    for workload, stats in summary.items():
        for metric in metrics:
            s = stats.get(metric["name"])
            if s is None:
                continue
            worse = worse_by(s["parent"]["median"], s["change"]["median"],
                             metric["better"] == "higher")
            if worse > metric["bound"]:
                out.append({"workload": workload, "metric": metric["name"],
                            "worse_by": worse, "bound": metric["bound"]})
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit (any git ref)")
    ap.add_argument("--change", required=True, help="the changed commit (any git ref)")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        print(f"error: --pairs: expected a positive count, got {args.pairs}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        try:
            commits = {side: checkout(getattr(args, side), roots[side]) for side in SIDES}
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
        known = [w["name"] for w in bench["workloads"]]
        unknown = [w for w in args.workload if w not in known]
        if unknown:
            print(f"error: --workload: {unknown[0]!r} is not one of {known}", file=sys.stderr)
            return 2
        metrics = bench["end_to_end"]
        command = list(bench["command"])
        seconds = bench["run_seconds"]
        runs, summary = [], {}
        for workload in args.workload:
            argv_w = command + ["--workload", workload, "--seconds", str(seconds), "--trace", "0"]
            w_runs, w_results = [], []
            for pair in range(1, args.pairs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    last, result = run_once(roots[side], argv_w)
                    w_runs.append({"workload": workload, "pair": pair, "side": side,
                                   "last_line": last})
                    w_results.append(result)
                    print(f"# {workload} pair {pair} {side}: {last}", flush=True)
            runs += w_runs
            summary[workload] = summarize(w_runs, w_results, metrics)

    record = {
        "what": "end-to-end benchmark pairs of a parent commit and a change, written by "
                "tools/bench_pairs.py: every run in run order with its last output line "
                "(the result JSON)",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": " ".join(command + ["--workload", "W", "--seconds", str(seconds),
                                       "--trace", "0"])
                   + ", run from the root of a git archive copy of each side; the copies sit "
                     "in directories named parent and change, byte-compiled before the "
                     "first run",
        "order": "pairs alternate which side runs first: odd pairs run the parent first, even "
                 f"pairs the change first; workloads ran one after another: "
                 f"{', '.join(args.workload)}, {args.pairs} pairs each",
        "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                   f"Python {platform.python_version()}, numpy {np.__version__}",
        "quartiles": "numpy.percentile linear interpolation at 25/50/75 over each side's runs; "
                     "change_wins counts pairs where the change reads better in the metric's "
                     "direction, ties those where both read the same",
        "summary": summary,
        "bounds_crossed": crossed(summary, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload, stats in summary.items():
        for metric in metrics:
            s = stats[metric["name"]]
            if s is not None:
                rel = s["median_change_rel"]
                print(f"{workload} {metric['name']}: median {s['parent']['median']:.6g} -> "
                      f"{s['change']['median']:.6g} "
                      f"({'n/a' if rel is None else f'{rel:+.2%}'}), change wins "
                      f"{s['change_wins']} of {stats['pairs']}, ties {s['ties']}, "
                      f"parent IQR {s['parent_iqr']:.6g}")
    for c in record["bounds_crossed"]:
        print(f"bound crossed: {c['workload']} {c['metric']} worse by {c['worse_by']:.2%} "
              f"(bound {c['bound']:.0%})")
    if not record["bounds_crossed"]:
        print("no median crosses a bound")
    failed = [w for w, s in summary.items() if not s["all_correct"]]
    if failed:
        print(f"failed runs in: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
