"""Benchmark of ``droptrain run``: end to end, per layer, and cost-model calibration.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
    python3 benchmarks/run.py --record-digests

Run from the root of a checkout; the program is imported from ``src/``.
Workloads are defined in ``workloads.py`` from the workload seed.

The benchmark and every process it starts run on one CPU, with BLAS
single-threaded.  The program's thread pool (4 threads for the multi-seed
workloads) still runs as it is, time-shared on that CPU.  Left to spread over
two cores, the pool's threads hand the GIL back and forth between cores and
the rate of the same invocation varies up to threefold with where the
scheduler happens to place them; nested BLAS threads add their spin-waits on
top.  Those measure the scheduler, not the program.  The CPU and thread
settings are printed with the environment.

``--trace 0`` (end to end): ``setup_s`` is the median, over several fresh
interpreters, of the seconds from process start to exit of a process that
imports droptrain, loads the config and builds the problem.  Then
``droptrain run`` is invoked repeatedly, each time in a fresh process, for
``--seconds``; ``iters_per_s`` (iterations of all (variant, seed) runs over
the wall seconds of ``cli.main``) and ``peak_rss_mb`` are medians over
invocations.  The rate per CPU second (all threads) is printed next to it,
ungated: on a shared virtual machine either clock can drift between runs.  ``fgap_rel_mean`` is the geometric mean over (variant, seed) of
the f-gap averaged over the iterates x_0..x_K, relative to the f-gap of x_0:
the area under the convergence curve.  It is deterministic for a seed and
guards solution quality.  (The final f-gap is printed too, but it is exactly
0 on ``quad_det``, whose sharp-operator steps solve a layer in one step.)

``--trace 1`` (per layer): untraced and traced invocations alternate for
``--seconds``.  Layer metrics are medians over traced invocations; iteration
times are pooled; ``trace.overhead_frac`` compares the median wall seconds.

Every invocation's outputs are checked: exit code 0, one CSV per (variant,
seed) with one row per iteration, every number finite, and at the default
workload seed and full size the CSV bytes equal ``reference_digests.json``.
A (variant, seed) run that fails a check counts in ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric with its unit and sample count, the environment and the calibration.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

# before numpy is imported here or in a child, which inherits the environment
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60
DIGESTS = HERE / "reference_digests.json"
NUMERIC_OPTIONAL = ("cost_units", "cum_units", "measured_fwd_macs")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _spawn(args: list[str]) -> tuple[int, float]:
    """Run ``child.py`` with ``args``; return (exit code, wall seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return -1, math.inf
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stdout.write(f"# child failed ({proc.returncode}): {err.decode(errors='replace')[-400:]}\n")
    return proc.returncode, wall


def setup_seconds(cfg_path: Path) -> float:
    rc, wall = _spawn(["--config", str(cfg_path), "--setup-only"])
    return wall if rc == 0 else math.inf


def invoke(cfg_path: Path, out_dir: Path, trace_path: Path | None = None) -> dict | None:
    """One ``droptrain run`` in a fresh process; None when it did not finish."""
    shutil.rmtree(out_dir, ignore_errors=True)
    result = out_dir.with_suffix(".result.json")
    result.unlink(missing_ok=True)
    args = ["--config", str(cfg_path), "--out", str(out_dir), "--result", str(result)]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    rc, _ = _spawn(args)
    if rc != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------

def _number(cell: str) -> float:
    # the program writes numpy scalars with their repr, e.g. np.float64(0.5)
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64(") : -1]
    return float(cell)


def check_outputs(out_dir: Path, cfg: dict, digests: dict | None) -> tuple[int, list[float], list[float], list[str]]:
    """Check every (variant, seed) CSV; return (failed, relative f-gap means, final f-gaps, problems)."""
    failed, means, finals, problems = 0, [], [], []
    for v in cfg["variants"]:
        for seed in cfg["seeds"]:
            name = f"{v['name']}_seed{seed}.csv"
            why = _check_csv(out_dir / name, cfg["iterations"], digests.get(name) if digests is not None else None)
            if isinstance(why, str):
                failed += 1
                problems.append(f"{name}: {why}")
            else:
                means.append(why[0])
                finals.append(why[1])
    return failed, means, finals, problems


def _check_csv(path: Path, iterations: int, digest: str | None):
    if not path.exists():
        return "missing"
    data = path.read_bytes()
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        return "bytes differ from the reference digest"
    lines = data.decode().splitlines()
    if len(lines) != iterations + 1:
        return f"{len(lines) - 1} rows, expected {iterations}"
    header = lines[0].split(",")
    fgaps = []  # f-gap of every iterate, x_0 included
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            return "row width differs from the header"
        for col, cell in zip(header, cells):
            if cell == "" and col in NUMERIC_OPTIONAL:
                continue
            try:
                value = _number(cell)
            except ValueError:
                return f"column {col}: not a number: {cell!r}"
            if not math.isfinite(value):
                return f"column {col}: not finite"
        row = dict(zip(header, cells))
        if not fgaps:
            f_star = _number(row["f_after"]) - _number(row["fgap_after"])
            fgaps.append(_number(row["f_before"]) - f_star)
        fgaps.append(_number(row["fgap_after"]))
    if not fgaps or fgaps[0] <= 0.0:
        return "no rows, or x_0 already optimal"
    return statistics.fmean(fgaps) / fgaps[0], fgaps[-1]


def record_digests() -> int:
    out = {}
    tmp = ROOT / ".bench_tmp" / "digests"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            cfg_path = tmp / f"{name}.json"
            cfg_path.write_text(json.dumps(workloads.make_config(name, workloads.DEFAULT_SEED)))
            out_dir = tmp / name
            if invoke(cfg_path, out_dir) is None:
                print(f"{name}: run failed", file=sys.stderr)
                return 1
            out[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = "unknown"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = getattr(lib, sym)()
                break
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "cpus_used": sorted(os.sched_getaffinity(0)),
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on its highest-numbered allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def geomean(values: list[float]) -> float:
    if min(values) <= 0.0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run_checked(cfg, cfg_path, out_dir, digests, trace_path=None):
    """One invocation plus its output check: (result or None, runs failed, rel f-gap means, final f-gaps)."""
    runs = len(cfg["variants"]) * len(cfg["seeds"])
    res = invoke(cfg_path, out_dir, trace_path)
    if res is None or res["rc"] != 0:
        return None, runs, [], []
    bad, means, finals, problems = check_outputs(out_dir, cfg, digests)
    for p in problems:
        print(f"# output check failed: {p}")
    return (None if bad else res), bad, means, finals


def measure_end_to_end(cfg, cfg_path, tmp, seconds, digests):
    runs = len(cfg["variants"]) * len(cfg["seeds"])
    iterations = runs * cfg["iterations"]
    setups = [setup_seconds(cfg_path) for _ in range(SETUP_REPEATS)]
    rates, cpu_rates, rss = [], [], []
    attempted = failed = 0
    fgap_means = fgap_finals = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while attempted < MIN_INVOCATIONS * runs or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        res, bad, means, finals = run_checked(cfg, cfg_path, tmp / "out", digests)
        last = time.perf_counter() - t0
        attempted += runs
        failed += bad
        if res is None:
            break  # a broken program gives no metrics; stop before the next timeout
        fgap_means, fgap_finals = means, finals
        rates.append(iterations / res["wall_s"])
        cpu_rates.append(iterations / res["cpu_s"])
        rss.append(res["peak_rss_mb"])
    metrics, samples = {}, {}
    if rates:
        metrics["iters_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = statistics.median(rss)
        metrics["fgap_rel_mean"] = geomean(fgap_means)
        samples.update(iters_per_s=len(rates), peak_rss_mb=len(rss), fgap_rel_mean=len(fgap_means))
    if all(math.isfinite(s) for s in setups):
        metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
    extra = [("runs_failed", failed, "count", f"of {attempted} attempted")]
    if rates:
        extra.append(("iters_per_cpu_s", statistics.median(cpu_rates), "1/s", f"n={len(cpu_rates)}, CPU seconds of all threads"))
    if fgap_finals:
        extra.append(("fgap_final", geomean(fgap_finals), "f-gap", f"n={len(fgap_finals)}"))
    return metrics, samples, attempted, failed, extra, None, True


def measure_per_layer(cfg, cfg_path, tmp, seconds, digests):
    import analysis

    runs = len(cfg["variants"]) * len(cfg["seeds"])
    plain, traced, per_run, rows = [], [], [], []
    attempted = failed = nesting = 0
    setup_seconds(cfg_path)  # warm-up: compiles bytecode, fills the page cache
    deadline = time.perf_counter() + seconds
    last = 0.0
    while attempted < 2 * runs or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        res, bad, _, _ = run_checked(cfg, cfg_path, tmp / "out", digests)
        failed += bad
        if res is not None:
            plain.append(res["wall_s"])
        res, bad, _, _ = run_checked(cfg, cfg_path, tmp / "out", digests, tmp / "spans.json")
        failed += bad
        if res is not None:
            traced.append(res["wall_s"])
            trace = analysis.Trace(json.loads((tmp / "spans.json").read_text()))
            nesting += trace.nesting_violations()
            per_run.append(analysis.layer_metrics(trace, cfg))
            rows += analysis.iteration_table(trace)
        attempted += 2 * runs
        if failed:
            break
        last = time.perf_counter() - t0
    metrics, samples, calib = {}, {}, None
    if per_run and plain:
        for key in per_run[0]:
            metrics[key] = statistics.median(m[key] for m in per_run)
            samples[key] = len(per_run)
        iter_ms = [1e3 * r[1] for r in rows]
        metrics["optimizer.iter_ms.p50"] = statistics.median(iter_ms)
        metrics["optimizer.iter_ms.p99"] = statistics.quantiles(iter_ms, n=100, method="inclusive")[98]
        metrics["optimizer.iter_ms.count"] = len(iter_ms)
        calib = analysis.calibrate(rows, cfg)
        for key in ("calib_rel_err", "saving_measured", "saving_modelled"):
            metrics[f"costmodel.{key}"] = calib[key]
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        for key in metrics.keys() - samples.keys():
            samples[key] = len(iter_ms)
        samples["trace.overhead_frac"] = min(len(traced), len(plain))
    if nesting:
        print(f"# trace check failed: {nesting} span(s) not nested inside their parent")
    extra = [
        ("runs_failed", failed, "count", f"of {attempted} attempted"),
        ("trace.nesting_violations", nesting, "count", f"n={len(per_run)} traces"),
    ]
    return metrics, samples, attempted, failed, extra, calib, nesting == 0


def print_calibration(calib: dict) -> None:
    p = calib["params"]
    print("# costmodel calibration (seconds per iteration, fitted from the traced iterations)")
    print(f"#   c_ov = {p['c_ov']:.6g} s")
    print("#   c    = " + " ".join(f"{x:.6g}" for x in p["c"]) + " s")
    print("#   c♯   = " + " ".join(f"{x:.6g}" for x in p["c_sharp"]) + " s")
    for v, d in calib["variants"].items():
        print(f"#   {v:5s} measured {d['measured_s'] * 1e3:.4f} ms/iter, predicted {d['predicted_s'] * 1e3:.4f} ms/iter, "
              f"rel err {d['rel_err']:.4f} (n={d['iterations']})")
        by_cutoff = ", ".join(f"s={s}: {ms:.4f} ms (n={n})" for s, (ms, n) in sorted(d["by_cutoff"].items()))
        print(f"#   {v:5s} measured by min S: {by_cutoff}")
    print(f"#   saving rpt/full: measured {calib['saving_measured']:.4f}, modelled {calib['saving_modelled']:.4f}")
    for u in calib["unidentified"]:
        print(f"#   not identified: {u}")
    for z in calib["at_zero"]:
        print(f"#   fitted at the zero bound: {z}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny iteration count (self-test)")
    ap.add_argument("--record-digests", action="store_true", help="rewrite reference_digests.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "droptrain" / "__init__.py").is_file():
        print(f"error: no droptrain sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    cfg = workloads.make_config(args.workload, args.seed, tiny=args.tiny)
    digests = None
    if args.seed == workloads.DEFAULT_SEED and not args.tiny:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, samples, attempted, failed, extra, calib, checks_ok = measure(
            cfg, cfg_path, tmp, args.seconds, digests
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# environment: " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {len(cfg['variants'])} variants x "
          f"{len(cfg['seeds'])} seeds x {cfg['iterations']} iterations per invocation")
    for name, unit in units.items():
        if name in metrics:
            print(f"# {name} = {metrics[name]:.6g} {unit} (n={samples[name]})")
        else:
            print(f"# {name} = missing {unit}")
    for name, value, unit, note in extra:
        print(f"# {name} = {value:.6g} {unit} ({note})")
    if calib is not None:
        print_calibration(calib)

    correct = (
        checks_ok and failed == 0 and set(metrics) == set(units)
        and all(math.isfinite(v) for v in metrics.values())
    )
    out = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
