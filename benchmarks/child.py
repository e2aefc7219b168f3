"""One measured process: ``droptrain run`` in-process, or its set-up alone.

    python3 benchmarks/child.py --config CFG --out DIR --result RES.json [--trace SPANS.json]
    python3 benchmarks/child.py --config CFG --setup-only

The first form times ``cli.main(["run", ...])`` and writes its wall and CPU
seconds, the exit code and the process's peak resident memory to RES.json; with
``--trace`` the droptrain layers are wrapped first and the spans are written
to SPANS.json.  The second form does what precedes the first iteration
(``import droptrain``, ``cli.load_config``, ``cli.build_problem``) and exits;
the parent times it from process start to exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from droptrain import cli

    if args.setup_only:
        cfg = cli.load_config(args.config)
        cli.build_problem(cfg["problem"])
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)  # all threads
    if tracer is not None:
        tracer.dump(args.trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    Path(args.result).write_text(json.dumps({"rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
