"""tools/bench_pairs.py: alternating pairs of two commits, their quartiles, wins and ties."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# the stub benchmark prints the next of its values for the workload at each call; a
# counter file in the checkout's root tells the calls apart
STUB = '''import json, sys
from pathlib import Path

VALUES = {values!r}
args = sys.argv[1:]
assert args[args.index("--seconds") + 1] == "35" and args[args.index("--trace") + 1] == "0"
workload = args[args.index("--workload") + 1]
counter = Path("calls_" + workload)
n = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(n + 1))
iters, setup, failed = VALUES[workload][n]
print("# stub benchmark")
print(json.dumps({{"correct": not failed, "attempted": 4, "failed": failed, "metrics": {{
    "iters_per_s": {{"value": iters, "unit": "1/s"}}, "setup_s": {{"value": setup, "unit": "s"}}
}}}}))
'''

BENCHMARK = {
    "command": [sys.executable, "stub.py"],
    "paths": ["."],
    "run_seconds": 35,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}

# (iters_per_s, setup_s, failed) of each call, by pair
PARENT = {
    "w1": [(100.0, 1.0, 0), (110.0, 1.0, 0), (120.0, 1.0, 0), (130.0, 1.0, 0)],
    "w2": [(50.0, 0.5, 0)] * 4,
}
CHANGE = {
    "w1": [(105.0, 2.0, 0), (110.0, 2.0, 0), (90.0, 2.0, 0), (140.0, 2.0, 0)],
    "w2": [(50.0, 0.5, 0), (50.0, 0.5, 0), (50.0, 0.5, 1), (50.0, 0.5, 0)],
}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commit(repo: Path, values: dict, message: str) -> str:
    (repo / "stub.py").write_text(STUB.format(values=values))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", message], cwd=repo, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_bench_pairs_alternates_sides_and_summarizes_every_metric(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    parent = commit(repo, PARENT, "parent")
    change = commit(repo, CHANGE, "change")
    monkeypatch.chdir(repo)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--workload", "w1", "--workload", "w2",
            "--pairs", "4", "--out", str(out)]
    assert load_tool().main(argv) == 1  # one w2 run of the change failed
    record = json.loads(out.read_text())
    assert (record["parent_commit"], record["change_commit"]) == (parent, change)

    sides = [(r["workload"], r["pair"], r["side"]) for r in record["runs"]]
    assert sides == [
        (w, pair, side)
        for w in ("w1", "w2") for pair in range(1, 5)
        for side in (("parent", "change") if pair % 2 else ("change", "parent"))
    ]
    for run in record["runs"]:
        iters, setup, failed = (PARENT if run["side"] == "parent" else CHANGE)[run["workload"]][
            run["pair"] - 1
        ]
        result = json.loads(run["last_line"])
        assert (result["metrics"]["iters_per_s"]["value"], result["failed"]) == (iters, failed)

    w1 = record["summary"]["w1"]
    assert (w1["pairs"], w1["all_correct"], w1["failed"]) == (4, True, 0)
    iters = w1["iters_per_s"]
    assert iters["parent"] == dict(q1=107.5, median=115.0, q3=122.5, min=100.0, max=130.0)
    assert iters["change"] == dict(q1=101.25, median=107.5, q3=117.5, min=90.0, max=140.0)
    assert (iters["change_wins"], iters["ties"], iters["parent_iqr"]) == (2, 1, 15.0)
    assert iters["median_change_rel"] == pytest.approx(-7.5 / 115.0)
    setup = w1["setup_s"]
    assert (setup["change_wins"], setup["ties"], setup["median_change_rel"]) == (0, 0, 1.0)

    w2 = record["summary"]["w2"]
    assert (w2["all_correct"], w2["failed"]) == (False, 1)
    for name in ("iters_per_s", "setup_s"):
        assert (w2[name]["change_wins"], w2[name]["ties"], w2[name]["parent_iqr"]) == (0, 4, 0.0)

    # only w1's setup_s median is worse than the parent's by more than its bound
    assert record["bounds_crossed"] == [
        {"workload": "w1", "metric": "setup_s", "worse_by": 1.0, "bound": 0.25}
    ]


def test_bench_pairs_refuses_an_unknown_workload(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    commit(repo, PARENT, "parent")
    monkeypatch.chdir(repo)
    argv = ["--parent", "HEAD", "--change", "HEAD", "--workload", "w9", "--pairs", "1",
            "--out", str(tmp_path / "out.json")]
    assert load_tool().main(argv) == 2
    assert "--workload: 'w9' is not one of ['w1', 'w2']" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()
