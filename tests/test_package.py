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
