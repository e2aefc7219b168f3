"""Package structure: every exported name resolves, and the README's examples run."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import droptrain
from droptrain import cli

MODULES = ["droptrain"] + [
    f"droptrain.{info.name}" for info in pkgutil.iter_modules(droptrain.__path__)
]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    missing = [attr for attr in exports if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def readme_block(language):
    blocks = re.findall(rf"```{language}\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1, f"expected one {language} block in README.md"
    return blocks[0]


def test_readme_examples_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", readme_block("python")], cwd=tmp_path, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.0", "273.75"]

    config = tmp_path / "experiment.json"
    config.write_text(readme_block("json"))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "results")]) == 0
    assert len(list((tmp_path / "results").glob("*.csv"))) == 6


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # sampling.stream makes its numpy.random subclass on first use, so an
    # import alone pays nothing for numpy.random
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, droptrain.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_importing_the_cli_leaves_verify_unloaded():
    # only the verify and marginals commands import verify; building the
    # parser, --help included, does not
    code = (
        "import sys, droptrain.cli as cli; cli.make_parser().format_help(); "
        "print('droptrain.verify' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_suite_names_are_those_of_verify():
    from droptrain import verify

    assert cli.SUITES == sorted(verify.SUITES)
