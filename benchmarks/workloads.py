"""The three ``droptrain run`` workloads, generated from a workload seed.

The workload seed sets the random data of the generated config: the initial
point, and for the quadratics the coupling maps and targets.  Shapes,
schemes, iteration counts, the MLP dataset and the optimizer seeds (which
draw the active sets and the gradient noise) are fixed, so the work per run
and the shape of the convergence curve do not depend on the workload seed;
only its scale does, through many independent entries, which keeps
``fgap_mean`` steady across seeds.  Each workload has a
``full`` (``full_network``) and an ``rpt`` variant.  ``tiny=True`` shrinks the
iteration count for the self-test.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is recorded in ``layer_map.json``.
"""

from __future__ import annotations

DEFAULT_SEED = 0
TINY_ITERATIONS = 4


def _variants(b: int, p: list[float], policy: str) -> list[dict]:
    return [
        {"name": "full", "scheme": {"kind": "full_network", "b": b}, "policy": {"kind": policy}},
        {"name": "rpt", "scheme": {"kind": "rpt", "p": p}, "policy": {"kind": policy}},
    ]


def _unit_cost(b: int) -> dict:
    return {"c_ov": 1.0, "c": [1.0] * b, "c_sharp": [1.0] * b}


def mlp_rpt(seed: int, iterations: int) -> dict:
    b = 4
    return {
        "problem": {
            "kind": "tiny_mlp", "layer_sizes": [16, 64, 64, 64, 8], "n_samples": 256,
            "activation": "tanh", "seed": 0,
        },
        "norms": ["euclidean", "spectral", "spectral", "euclidean"],
        "noise": {"sigmas": [0.01] * b},
        "x0": {"kind": "random", "scale": 0.125, "seed": seed},
        "variants": _variants(b, [0.1, 0.2, 0.3, 0.4], "horizon"),
        "iterations": iterations,
        "seeds": [0, 1],
        "cost": _unit_cost(b),
        "targets": [1.0, 0.5],
    }


def coupled_spectral(seed: int, iterations: int) -> dict:
    b = 6
    return {
        "problem": {
            "kind": "coupled_quadratic", "shapes": [[8, 8]] * b, "curvatures": [2.0] * b,
            "coupling": 0.5, "map_seed": seed,
        },
        "norms": "spectral",
        "noise": {"sigmas": [0.1] * b},
        "x0": {"kind": "random", "scale": 1.0, "seed": seed},
        "variants": _variants(b, [0.2, 0.2, 0.2, 0.2, 0.1, 0.1], "horizon"),
        "iterations": iterations,
        "seeds": [0, 1, 2, 3],
        "cost": _unit_cost(b),
        "targets": [100.0, 10.0],
    }


def quad_det(seed: int, iterations: int) -> dict:
    b = 6
    return {
        "problem": {
            "kind": "separable_quadratic", "shapes": [[32, 32]] * b,
            "curvatures": [1.0, 2.0, 1.5, 3.0, 0.5, 1.0], "targets": {"seed": seed},
        },
        "norms": "euclidean",
        "x0": {"kind": "random", "scale": 1.0, "seed": seed + 1},
        "variants": _variants(b, [0.3, 0.2, 0.2, 0.1, 0.1, 0.1], "smooth_inverse"),
        "iterations": iterations,
        "seeds": [0, 1, 2, 3],
        "cost": _unit_cost(b),
        "targets": [1.0, 1e-6],
    }


# name -> (config function, iterations per (variant, seed) run)
WORKLOADS = {
    "mlp_rpt": (mlp_rpt, 100),
    "coupled_spectral": (coupled_spectral, 150),
    "quad_det": (quad_det, 300),
}


def make_config(name: str, seed: int, tiny: bool = False) -> dict:
    build, iterations = WORKLOADS[name]
    return build(seed, TINY_ITERATIONS if tiny else iterations)
