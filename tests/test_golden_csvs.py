"""Golden CSV digests of ``droptrain run`` on paths the benchmark workloads never run.

The benchmark's reference digests pin three workloads: a tanh MLP and two
quadratics with one shape and one norm kind each.  These configs pin the
rest of the step path byte for byte: interleaved shapes and norm kinds (so a
group's members are not consecutive), both smoothness-inverse policies under
``rpt`` and ``partitioned_submodel``, a relu MLP with a spectral middle layer,
matrix curvatures, a zero noise sigma, ``tau_nice`` and ``epoch_shift``.

The bytes depend on numpy's scalar ``repr`` (``cli._fmt`` writes numpy
floats as ``np.float64(...)`` under numpy 2) and on the LAPACK build behind
the spectral layers' SVDs, so they are recorded for one environment.  The
re-record that changes the CSV cell format or the noise streams (ROADMAP
item 1) must refresh ``golden_csv_digests.json`` together with the
benchmark's reference digests.

Re-record with ``PYTHONPATH=src python tests/test_golden_csvs.py >
tests/golden_csv_digests.json``.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from droptrain import cli

DIGESTS = Path(__file__).resolve().parent / "golden_csv_digests.json"


def _cost(b):
    return {"c_ov": 1.0, "c": [1.0] * b, "c_sharp": [0.5] * b}


def _coupled_interleaved():
    # shapes A B A A B with norms that split A three ways: groups {1, 4}, {2}, {3}, {5}
    shapes = [[3, 4], [4, 2], [3, 4], [3, 4], [4, 2]]
    rpt = {"kind": "rpt", "p": [0.3, 0.2, 0.2, 0.2, 0.1]}
    part = {"kind": "partitioned_submodel", "blocks": [[1, 3], [2, 5], [4]], "p": [0.4, 0.3, 0.3]}
    return {
        "problem": {"kind": "coupled_quadratic", "shapes": shapes,
                    "curvatures": [2.0, 1.5, 3.0, 1.0, 2.5], "coupling": 0.3, "map_seed": 4},
        "norms": ["spectral", "euclidean", "euclidean", "spectral", "spectral"],
        "x0": {"kind": "random", "scale": 1.0, "seed": 5},
        "variants": [
            {"name": f"{policy}_{name}", "scheme": scheme, "policy": {"kind": policy}}
            for policy in ("smooth_inverse", "gen_smooth_inverse")
            for name, scheme in (("rpt", rpt), ("part", part))
        ],
        "iterations": 25,
        "seeds": [0, 1],
        "cost": _cost(5),
        "targets": [1.0, 0.01],
    }


def _relu_mlp():
    return {
        "problem": {"kind": "tiny_mlp", "layer_sizes": [4, 6, 6, 3], "n_samples": 24,
                    "activation": "relu", "seed": 3},
        "norms": ["euclidean", "spectral", "euclidean"],
        "x0": {"kind": "random", "scale": 0.3, "seed": 1},
        "variants": [
            {"name": "gen_rpt", "scheme": {"kind": "rpt", "p": [0.5, 0.3, 0.2]},
             "policy": {"kind": "gen_smooth_inverse"}},
            {"name": "smooth_full", "scheme": {"kind": "full_network", "b": 3},
             "policy": {"kind": "smooth_inverse"}},
        ],
        "iterations": 15,
        "seeds": [0],
        "cost": _cost(3),
        "targets": [1.0],
    }


def _separable_stochastic():
    shapes = [[2, 3], [3, 3], [2, 3]]
    curvatures = [
        [[1.0, 2.0, 0.5], [1.5, 1.0, 3.0]],
        2.0,
        [[0.5, 0.5, 1.0], [2.0, 1.0, 1.5]],
    ]
    return {
        "problem": {"kind": "separable_quadratic", "shapes": shapes, "curvatures": curvatures,
                    "targets": {"seed": 6}},
        "norms": "spectral",
        "noise": {"sigmas": [0.2, 0.0, 0.1]},
        "x0": {"kind": "random", "scale": 1.0, "seed": 7},
        "variants": [
            {"name": "fixed_nice", "scheme": {"kind": "tau_nice", "b": 3, "tau": 2},
             "policy": {"kind": "fixed_radius", "radii": [0.1, 0.05, 0.2], "beta": 0.5}},
            {"name": "horizon_shift", "scheme": {"kind": "epoch_shift", "b": 3, "alpha": 2.0},
             "policy": {"kind": "horizon", "eta": [1.0, 0.5, 2.0]}},
        ],
        "iterations": 30,
        "seeds": [0, 1],
        "cost": _cost(3),
        "targets": [1.0, 0.1],
    }


CONFIGS = {
    "coupled_interleaved": _coupled_interleaved,
    "relu_mlp": _relu_mlp,
    "separable_stochastic": _separable_stochastic,
}


def _digests(name, tmp):
    tmp = Path(tmp)
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, **CONFIGS[name]()}))
    out = tmp / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_csvs_match_golden_digests(tmp_path, name):
    assert _digests(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    recorded = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            recorded[name] = _digests(name, tmp)
    json.dump(recorded, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
